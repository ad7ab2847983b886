"""Moments, interval masses, total-variation distances and mixing times.

Line statistics (:func:`moment`, :func:`interval_mass`) are defined on
the line only, where a site is a position.  Distances to uniform
(:func:`tv_distance`, :func:`mixing_time`) and Cesaro averages are
defined on the circle only, where the reference needs no coin; the
scans take a :class:`WalkSpec`.  Both sides of the quantum/classical
comparison are exact: the coined walk by the direct evolver, and the
classical symmetric random walk by dynamic programming, so scaling fits
carry no sampling noise.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import (
    Circle,
    CoinOperator,
    DomainError,
    Line,
    MAX_STEPS,
    ProbabilityDistribution,
    Topology,
    _as_index,
    _as_real,
    _choose,
    _freeze,
    _require,
    chirality_pair,
    check_steps,
)
from .evolve import _circle_masses
from .spectral import _dispersion


@dataclass(frozen=True, eq=False)
class WalkSpec:
    """A runnable circle walk: topology, coin and start, none of them defaulted.

    ``topology`` is a :class:`~qwalk.core.Circle`, where
    :func:`mixing_time` and :func:`cesaro_average` are defined.
    ``coin`` is a :class:`~qwalk.core.CoinOperator` or None.
    ``coin=None`` is the classical symmetric random walk from site 0,
    which has no chirality and so takes ``init=None``; a coin takes a
    start that :func:`qwalk.core.chirality_pair` accepts, as
    :func:`qwalk.core.initial_state` does.  These rules are checked
    here, once: any other spec raises :class:`DomainError` when it is
    built.  A coined spec's ``init`` is then the checked pair, as
    :func:`qwalk.core._freeze` holds it.  A spec compares and hashes by
    identity, so two specs of one classical walk compare unequal.
    """

    topology: Circle
    coin: CoinOperator | None
    init: str | NDArray[np.complex128] | None

    def __post_init__(self):
        if not isinstance(self.topology, Circle):
            raise DomainError(f"a WalkSpec is defined on the circle, got {self.topology!r}")
        if not (self.coin is None or isinstance(self.coin, CoinOperator)):
            raise DomainError(f"a WalkSpec's coin is a CoinOperator or None, got {self.coin!r}")
        if (self.coin is None) != (self.init is None):
            raise DomainError("a coin needs a start; the classical walk (coin=None) takes none")
        if self.coin is not None:
            init = _freeze(chirality_pair(self.init), np.complex128, "init")
            object.__setattr__(self, "init", init)


@dataclass(frozen=True, eq=False)
class MixingReport:
    """First crossing of a target TV distance, with the full trace.

    ``tv_trace`` is a 1-D array of finite numbers, the TV distance after
    each step, and ``time`` is None (no crossing) or an integer in 1 ..
    ``len(tv_trace)``; anything else is refused with
    :class:`~qwalk.core.DomainError`.  The trace is held read-only.  A
    float64 array made straight over a read-only buffer, as
    :func:`mixing_time` hands over its scan's, is held as it is, since a
    copy would double it; numpy makes neither it nor a view of it
    writeable.  Any other trace is copied as :func:`qwalk.core._freeze`
    copies it: a list, a writeable array, a read-only view of one, or
    an array that owns its memory, whose holder can make it writeable
    again.  A read-only view
    does not make the memory under it read-only: whoever holds a
    writeable object under such a trace, a ``bytearray`` under a
    ``memoryview``, say, can still change the report's trace.  The
    report holds ``time`` as a Python int.  It compares and hashes by
    identity.
    """

    time: int | None
    tv_trace: NDArray[np.float64]

    def __post_init__(self):
        trace = self.tv_trace
        base = trace.base if isinstance(trace, np.ndarray) else None
        if not (isinstance(base, memoryview) and base.readonly and trace.dtype == np.float64):
            trace = _freeze(trace, np.float64, "tv_trace")
        if trace.ndim != 1 or not np.all(np.isfinite(trace)):
            raise DomainError("tv_trace must be a 1-D array of finite numbers")
        if self.time is not None:
            if not 1 <= (time := _as_index(self.time, "time")) <= len(trace):
                raise DomainError(f"time must be None or in 1..{len(trace)}, got {time}")
            object.__setattr__(self, "time", time)
        object.__setattr__(self, "tv_trace", trace)


def _velocities(dist: ProbabilityDistribution) -> NDArray[np.float64]:
    """``alpha = n/t`` per site of a line distribution at ``t >= 1``.

    A circle has no velocity: its sites 0..n-1 are not positions on the line.
    """
    _require(dist, ProbabilityDistribution, "dist")
    if not isinstance(dist.topology, Line) or dist.time < 1:
        raise DomainError("moments and interval masses need a line distribution at t >= 1")
    return dist.sites / dist.time


def moment(dist: ProbabilityDistribution, name: str) -> float:
    """Named empirical moment of ``alpha = n/t`` under a line distribution.

    ``name`` is ``"mean"`` (``sum_n alpha P(n)``), ``"abs_mean"``
    (``sum_n |alpha| P(n)``) or ``"second"`` (``sum_n alpha^2 P(n)``),
    as for :func:`qwalk.asymptotics.density_moment`.

    ``alpha`` is the site label over the time, as for the paper's walk
    from the origin: the walk's start is not subtracted, so a walk from
    ``Line(offset=o)`` reads a mean larger by ``o/t``.
    """
    _choose(name, ("mean", "abs_mean", "second"), "moment")
    alpha = _velocities(dist)
    weight = alpha * alpha if name == "second" else np.abs(alpha) if name == "abs_mean" else alpha
    return float(np.sum(weight * dist.masses))


def interval_mass(dist: ProbabilityDistribution, coin: CoinOperator, eps: float) -> float:
    """Mass of a line distribution inside the coin's cone, ``eps`` short of its edge.

    ``eps`` is measured in wavenumber: the interval is ``|n/t| <=
    c cos(eps) / sqrt(cos^2(eps) + s^2 sin^2(eps))`` with ``c = |u00|``,
    the cone edge, and ``s = |u01|``, which for a unitary coin is
    ``c cos(eps) / sqrt(1 - c^2 sin^2(eps))``.  Konno's weak limit puts ``(2/pi)
    arctan(cot(eps)) = 1 - 2 eps/pi`` of the mass there, for every coin
    and start.  For the Hadamard coin the cut is ``cos(eps) / sqrt(1 +
    cos^2(eps))``, the velocity whose stationary wavenumber lies ``eps``
    inside ``[0, pi]``.

    At fixed eps the finite-t error is ``O(1/t)`` only once the cut,
    about ``c (1 - c^2) eps^2 / 2`` inside the edge, clears the
    ``t^{-2/3}``-wide edge layer: for t well above ``(c (1 - c^2)
    eps^2 / 2)^{-3/2}``, which is about 10^5 for the Hadamard coin at
    ``eps = 0.05``.  Before that, t times the error wanders with t.
    ``eps`` must lie in ``[0, pi/2]``, where the law holds.

    ``n/t`` is the site label over the time, as for the paper's walk
    from the origin: the walk's start is not subtracted, so the cone of
    a walk from ``Line(offset=o)`` is read shifted by ``o/t``.
    """
    if not 0 <= _as_real(eps, "eps") <= math.pi / 2:
        raise DomainError(f"eps must lie in [0, pi/2], got {eps}")
    alpha = _velocities(dist)
    _, c, s, _ = _dispersion(coin)
    # unlike 1 - c^2 sin^2(eps), the hypot stays positive at eps = pi/2
    # for c = 1, and real for a c that rounds above 1
    cutoff = c * math.cos(eps) / math.hypot(math.cos(eps), s * math.sin(eps))
    return float(np.sum(dist.masses[np.abs(alpha) <= cutoff]))


def _tv_rows(masses: NDArray[np.float64], parity: bool, t: int) -> NDArray[np.float64]:
    """TV distance of each row of an ``(m, n)`` mass block to uniform.

    Every TV distance of the module is taken here.  Row ``i`` is the
    walk at time ``t + i``.  Without ``parity`` its reference is ``1/n``
    on every site; with ``parity``, for an even ``n`` only, it is
    ``2/n`` on the sites ``x`` with ``x = t + i (mod 2)``, the class a
    walk from site 0 occupies then, and zero elsewhere.  The reference
    is subtracted as a scalar, from the whole block or from each class's
    rows, and never built as an array: ``p - 0.0`` is ``p``, and a
    scalar subtracts as a row full of it would, so the gaps and their
    row sums are those against an explicit reference row bit for bit,
    and the scan's trace and :func:`tv_distance` agree bit for bit.
    """
    n = masses.shape[1]
    if parity:
        gap = masses.copy()
        for x in (0, 1):
            gap[(x - t) % 2::2, x::2] -= 2.0 / n
    else:
        gap = np.subtract(masses, 1.0 / n)
    return 0.5 * np.abs(gap, out=gap).sum(axis=1)


def tv_distance(dist: ProbabilityDistribution, reference: str) -> float:
    """TV distance of a circle distribution to a named uniform reference.

    At any fixed time a walk started from one site occupies a single
    parity class.  On an odd cycle the classes wrap into each other, so
    the distribution can approach uniform; on an even cycle half the
    sites are always empty, putting a floor of 1/2 under the distance to
    uniform over all sites.  So ``reference`` has no default.
    ``uniform_all`` is uniform over all ``n`` sites, the reference for
    an odd cycle and for a Cesaro average, which fills both classes.
    ``uniform_parity`` is uniform over the ``n/2`` sites of the parity
    class a walk from site 0 occupies at ``dist.time``, the reference
    for an instantaneous walk on an even cycle; mass off that class
    counts as pure discrepancy.  An odd cycle has no parity classes, so
    ``uniform_parity`` there raises :class:`DomainError`.  Lines have no
    uniform reference: their cone depends on the coin, which a
    distribution does not carry.
    """
    _require(dist, ProbabilityDistribution, "dist")
    if not isinstance(dist.topology, Circle):
        raise DomainError("tv_distance is defined on the circle")
    _choose(reference, ("uniform_all", "uniform_parity"), "reference")
    n, parity = dist.topology.size, reference == "uniform_parity"
    if parity and n % 2:
        raise DomainError(f"uniform_parity needs an even cycle; Circle({n}) has no parity classes")
    return float(_tv_rows(dist.masses[None], parity, dist.time)[0])


def mixing_time(spec: WalkSpec, delta: float, t_cap: int) -> MixingReport:
    """Scan t = 1..t_cap for the first time TV to uniform drops to delta.

    The reference is :func:`tv_distance`'s ``uniform_all`` on an odd
    cycle and ``uniform_parity`` on an even one.  The walk's masses come
    a block of steps at a time from :func:`qwalk.evolve._circle_masses`,
    and :func:`_tv_rows` reduces each block once, so the trace and the
    crossing are the per-step ones bit for bit, and no distribution
    object is built per step.  The trace of (t, TV) values is always
    returned in full up to the crossing (or the cap, if never reached).
    ``t_cap`` must be an integer of at least 1 and ``delta`` finite: no
    TV distance is at or below NaN or -inf, and every one is at or below
    +inf, so none of them is a target a scan can look for.  The scan
    takes at most :data:`qwalk.core.MAX_STEPS` steps, so the trace stays
    within 8 MB: a larger ``t_cap`` is accepted, because the scan stops
    at the crossing, but a scan that reaches ``MAX_STEPS`` without one
    raises :class:`DomainError` instead of reporting no crossing up to
    ``t_cap``.
    """
    _require(spec, WalkSpec, "spec")
    if (t_cap := _as_index(t_cap, "t_cap")) < 1:
        raise DomainError(f"t_cap must be at least 1, got {t_cap}")
    if not math.isfinite(_as_real(delta, "delta")):
        raise DomainError(f"delta must be finite, got {delta!r}")
    steps, parity = min(t_cap, MAX_STEPS), spec.topology.size % 2 == 0
    trace = array("d")  # 8 bytes a step; a list of floats holds about 32
    for masses in _circle_masses(spec, steps):
        tv = _tv_rows(masses, parity, len(trace) + 1)
        hits = np.flatnonzero(tv <= delta)
        trace.frombytes(tv[:hits[0] + 1 if hits.size else len(tv)].tobytes())
        if hits.size:
            break
    # the scan stops at its first TV at or below delta, so it crossed when its last one is
    crossing = len(trace) if trace[-1] <= delta else None
    if crossing is None and steps < t_cap:
        raise DomainError(f"no crossing within {MAX_STEPS} steps; a longer scan is refused")
    # handed over read-only, so the report holds it without a copy of 8 bytes a step
    return MixingReport(crossing, np.frombuffer(memoryview(trace).toreadonly(), np.float64))


def cesaro_average(spec: WalkSpec, big_t: int) -> ProbabilityDistribution:
    """Time-averaged distribution ``(1/T) sum_{t=1}^{T} P(., t)``.

    The pointwise distribution of a unitary walk never converges; the
    Cesaro average is the standard time-averaged notion that can.  The
    masses come a block at a time, as for :func:`mixing_time`, and one
    reduction down each block adds its rows one after another, so the
    average is the per-step running sum bit for bit.  ``big_t`` is an
    integer from 1 that :func:`qwalk.core.check_steps` takes.
    """
    _require(spec, WalkSpec, "spec")
    if (big_t := check_steps(big_t)) < 1:
        raise DomainError("T must be at least 1")
    acc = np.zeros(spec.topology.size)
    for masses in _circle_masses(spec, big_t):
        acc = np.add.reduce(np.concatenate((acc[None], masses)), axis=0)
    return ProbabilityDistribution(spec.topology, acc / big_t, big_t)


def classical_walk(topology: Topology, t: int) -> ProbabilityDistribution:
    """Exact distribution of the classical symmetric random walk after ``t`` steps.

    The walk starts where :func:`qwalk.core.initial_state` puts the
    quantum walker: on site 0 of a circle, and on site ``o`` of
    ``Line(offset=o)``, whose result then holds the sites ``o - t ..
    o + t``.  Computed by dynamic programming: the last row
    :func:`qwalk.evolve._circle_masses` gives.  On the line the walk
    runs on the cycle of 2t + 1 sites (3 at t = 0), whose ends the mass
    reaches only at step t, so the wrap never carries any; turning it
    by t puts site ``o - t`` first.
    """
    _require(topology, Topology, "topology")
    t = check_steps(t)
    ring = topology if isinstance(topology, Circle) else Circle(max(3, 2 * t + 1))
    masses = np.eye(1, ring.size)  # the start, if no step is taken
    for masses in _circle_masses(WalkSpec(ring, None, None), t):
        pass
    if isinstance(topology, Circle):
        return ProbabilityDistribution(topology, masses[-1], t)
    return ProbabilityDistribution(Line(offset=topology.offset - t),
                                   np.roll(masses[-1], t)[:2 * t + 1], t)
