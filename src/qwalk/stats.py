"""Moments, interval masses, total-variation distances and mixing times.

Line statistics (:func:`moment`, :func:`interval_mass`) are defined on
the line only, where a site is a position; :func:`interval_mass` reads
the cone off the coin, cutting at a velocity derived from
``support_edge(coin)``.  Distances to uniform (:func:`tv_distance`,
:func:`mixing_time`) are defined on the circle only, where the
reference needs no coin.  The step counts of :func:`cesaro_average`
and :func:`classical_walk` are capped at :data:`qwalk.core.MAX_STEPS`
before anything is allocated; the mixing scan, which stops at its
crossing, stops at that many steps too.

Covers both sides of the quantum/classical comparison: the coined walk
(via the direct evolver) and the exact dynamic-programming distribution
of the classical symmetric random walk, so scaling fits carry no
sampling noise.  :func:`moment` returns a moment of a walk's
distribution as a plain float, by the name under which
:func:`qwalk.asymptotics.density_moment` gives it for the limiting
density.

On the circle both walks step in place: the coined walk through the
circle kernel of :mod:`qwalk.evolve`, the classical one by a three-term
average into a second buffer.  :func:`mixing_time` and
:func:`cesaro_average` run one loop over the site masses either walk
yields after each step; the scan computes the TV distance in that loop
into a preallocated row, so no distribution object is built per step.

Parity caveat for circles: at any fixed time a walk started from one
site occupies a single parity class.  On an odd cycle the classes wrap
into each other, so the instantaneous distribution can approach uniform;
on an even cycle half the sites are always empty, putting a floor of
1/2 under the distance to uniform over all sites.  Even-cycle runs
should therefore compare against ``uniform_parity``.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .asymptotics import support_edge
from .core import (
    Circle,
    CoinOperator,
    DomainError,
    Line,
    MAX_STEPS,
    Topology,
    check_steps,
    hadamard_coin,
    initial_state,
)
from .evolve import ProbabilityDistribution, _circle_steps

__all__ = [
    "MixingReport",
    "WalkSpec",
    "moment",
    "interval_mass",
    "total_variation",
    "tv_distance",
    "mixing_time",
    "cesaro_average",
    "classical_walk",
]


@dataclass(frozen=True)
class WalkSpec:
    """A runnable walk: topology, coin, start, and walk kind."""

    topology: Topology
    coin: CoinOperator = field(default_factory=hadamard_coin)
    init: str = "symmetric"
    classical: bool = False


@dataclass(frozen=True)
class MixingReport:
    """First crossing of a target TV distance, with the full trace."""

    time: int | None
    tv_trace: NDArray[np.float64]


def _velocities(dist: ProbabilityDistribution) -> NDArray[np.float64]:
    """``alpha = n/t`` per site of a line distribution at ``t >= 1``.

    A circle has no velocity: its sites 0..n-1 are not positions on the line.
    """
    if not isinstance(dist.topology, Line) or dist.time < 1:
        raise DomainError("moments and interval masses need a line distribution at t >= 1")
    return dist.sites / dist.time


def moment(dist: ProbabilityDistribution, name: str) -> float:
    """Named empirical moment of ``alpha = n/t`` under a line distribution.

    ``name`` is ``"mean"`` (``sum_n alpha P(n)``), ``"abs_mean"``
    (``sum_n |alpha| P(n)``) or ``"second"`` (``sum_n alpha^2 P(n)``),
    as for :func:`qwalk.asymptotics.density_moment`.
    """
    if name not in ("mean", "abs_mean", "second"):
        raise DomainError(f"moment must be 'mean', 'abs_mean' or 'second', got {name!r}")
    alpha = _velocities(dist)
    weight = alpha * alpha if name == "second" else np.abs(alpha) if name == "abs_mean" else alpha
    return float(np.sum(weight * dist.masses))


def interval_mass(dist: ProbabilityDistribution, coin: CoinOperator, eps: float) -> float:
    """Mass of a line distribution inside the coin's cone, ``eps`` short of its edge.

    ``eps`` is measured in wavenumber: the interval is ``|n/t| <=
    c cos(eps) / sqrt(1 - c^2 sin^2(eps))`` with ``c =
    support_edge(coin)``.  Konno's weak limit puts ``(2/pi)
    arctan(cot(eps)) = 1 - 2 eps/pi`` of the mass there, for every coin
    and start.  For the Hadamard coin the cut is ``cos(eps) / sqrt(1 +
    cos^2(eps))``, the velocity whose stationary wavenumber lies ``eps``
    inside ``[0, pi]``.

    At fixed eps the finite-t error is ``O(1/t)`` only once the cut,
    about ``c (1 - c^2) eps^2 / 2`` inside the edge, clears the
    ``t^{-2/3}``-wide edge layer: for t well above ``(c (1 - c^2)
    eps^2 / 2)^{-3/2}``, which is about 10^5 for the Hadamard coin at
    ``eps = 0.05``.  Before that, t times the error wanders with t.
    """
    alpha = _velocities(dist)
    c = support_edge(coin)
    cutoff = c * math.cos(eps) / math.sqrt(1 - (c * math.sin(eps)) ** 2)
    return float(np.sum(dist.masses[np.abs(alpha) <= cutoff]))


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Half the l1 distance between two mass vectors on a shared support."""
    return 0.5 * float(np.sum(np.abs(np.asarray(p) - np.asarray(q))))


def _uniform_target(n: int, t: int, parity: bool) -> NDArray[np.float64]:
    """Uniform masses on the cycle of ``n`` sites at time ``t``.

    With ``parity`` the target is uniform on the sites ``x`` with ``x +
    t`` even, the class a walk from site 0 occupies, and zero elsewhere.
    """
    support = (np.arange(n) + t) % 2 == 0 if parity else np.ones(n, dtype=bool)
    return np.where(support, 1.0 / np.count_nonzero(support), 0.0)


def tv_distance(dist: ProbabilityDistribution, reference: str = "uniform_all") -> float:
    """TV distance of a circle distribution to a uniform reference.

    The reference is uniform over all ``n`` sites (``uniform_all``) or
    over the parity class reachable at ``dist.time``
    (``uniform_parity``); mass off that class counts as pure
    discrepancy.  Lines have no uniform reference: their cone depends
    on the coin, which a distribution does not carry.
    """
    if not isinstance(dist.topology, Circle):
        raise DomainError("tv_distance is defined on the circle")
    if reference not in ("uniform_all", "uniform_parity"):
        raise DomainError(f"unknown reference {reference!r}")
    target = _uniform_target(dist.topology.size, dist.time, reference == "uniform_parity")
    return total_variation(dist.masses, target)


def mixing_time(spec: WalkSpec, delta: float, t_cap: int) -> MixingReport:
    """Scan t = 1..t_cap for the first time TV to uniform drops to delta.

    Quantum specs evolve the coined walk from ``spec.init``; classical
    specs run the exact DP of the symmetric random walk from site 0.
    Both compare against uniform over all sites on an odd cycle and
    against uniform on the occupied parity class on an even one.
    The trace of (t, TV) values is always returned in full up to the
    crossing (or the cap, if never reached).  ``t_cap`` must be at
    least 1.  The scan takes at most :data:`qwalk.core.MAX_STEPS` steps,
    so the trace stays within 8 MB: a larger ``t_cap`` is accepted,
    because the scan stops at the crossing, but a scan that reaches
    ``MAX_STEPS`` without one raises :class:`DomainError` instead of
    reporting no crossing up to ``t_cap``.
    """
    if not isinstance(spec.topology, Circle):
        raise DomainError("mixing_time is defined on the circle")
    if t_cap < 1:
        raise DomainError(f"t_cap must be at least 1, got {t_cap}")
    steps = min(t_cap, MAX_STEPS)
    n = spec.topology.size
    targets = [_uniform_target(n, t, parity=n % 2 == 0) for t in (0, 1)]
    gap = np.empty(n)
    trace = array("d")  # 8 bytes a step; a list of floats holds about 32
    crossing: int | None = None
    for t, masses in enumerate(_masses(spec, steps), start=1):
        np.subtract(masses, targets[t % 2], out=gap)
        tv = 0.5 * float(np.abs(gap, out=gap).sum())
        trace.append(tv)
        if tv <= delta:
            crossing = t
            break
    if crossing is None and steps < t_cap:
        raise DomainError(f"no crossing within {MAX_STEPS} steps; a longer scan is refused")
    return MixingReport(time=crossing, tv_trace=np.frombuffer(trace, dtype=np.float64))


def cesaro_average(spec: WalkSpec, big_t: int) -> ProbabilityDistribution:
    """Time-averaged distribution ``(1/T) sum_{t=1}^{T} P(., t)``.

    The pointwise distribution of a unitary walk never converges; the
    Cesaro average is the standard time-averaged notion that can.
    Classical specs average the symmetric random walk from site 0.
    """
    if not isinstance(spec.topology, Circle):
        raise DomainError("cesaro_average is defined on the circle")
    if big_t < 1:
        raise DomainError("T must be at least 1")
    check_steps(big_t)
    acc = np.zeros(spec.topology.size)
    for masses in _masses(spec, big_t):
        acc += masses
    return ProbabilityDistribution(spec.topology, acc / big_t, big_t)


def _masses(spec: WalkSpec, steps: int):
    """Yield the site masses of the circle walk ``spec`` after each step.

    The yielded array is reused: the next step overwrites it.
    """
    n = spec.topology.size
    if spec.classical:
        d = np.zeros(n)
        d[0] = 1.0
        yield from _classical_steps(d, steps)
        return
    psi = initial_state(spec.init, spec.topology)
    squares = np.empty((2, 2 * n))
    row = np.empty(2 * n)
    masses = np.empty(n)
    for amps in _circle_steps(psi.amplitudes, spec.coin, steps):
        # the sums of core._site_masses in its order, into reused buffers,
        # so these masses are distribution()'s bit for bit
        w = amps.view(np.float64)  # (L, R) rows of interleaved re, im
        np.multiply(w, w, out=squares)
        np.add(*squares, out=row)
        np.add(row[0::2], row[1::2], out=masses)
        yield masses


def _classical_steps(d: np.ndarray, steps: int):
    """Step the symmetric random walk on the cycle ``len(d)`` in place.

    Yields the masses after each step, ``d'(x) = (d(x-1) + d(x+1)) / 2``
    with indices mod ``len(d)``, in a buffer the next step overwrites.
    """
    e = np.empty_like(d)
    for _ in range(steps):
        np.add(d[:-2], d[2:], out=e[1:-1])
        e[0] = d[-1] + d[1]
        e[-1] = d[-2] + d[0]
        e *= 0.5
        d, e = e, d
        yield d


def classical_walk(topology: Topology, t: int) -> ProbabilityDistribution:
    """Exact distribution of the classical symmetric random walk from site 0.

    Computed by dynamic programming.
    """
    check_steps(t)
    if isinstance(topology, Circle):
        d = np.zeros(topology.size)
        d[0] = 1.0
    else:
        # a cycle of 2t + 1 sites: mass reaches its ends only at step t,
        # so the wrap never carries any
        d = np.zeros(2 * t + 1)
        d[t] = 1.0
        topology = Line(offset=-t)
    for d in _classical_steps(d, t):
        pass
    return ProbabilityDistribution(topology, d, t)
