"""Moments, interval masses, total-variation distances and mixing times.

Covers both sides of the quantum/classical comparison: the coined walk
(via the direct evolver) and the exact dynamic-programming distribution
of the classical symmetric random walk, so scaling fits carry no
sampling noise.

Parity caveat for circles: at any fixed time a walk started from one
site occupies a single parity class.  On an odd cycle the classes wrap
into each other, so the instantaneous distribution can approach uniform;
on an even cycle half the sites are always empty, putting a floor of
1/2 under the distance to uniform over all sites.  Even-cycle runs
should therefore compare against ``uniform_parity``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .asymptotics import density_moment
from .core import (
    Circle,
    CoinOperator,
    DomainError,
    Line,
    Topology,
    hadamard_coin,
    initial_state,
)
from .evolve import ProbabilityDistribution, distribution, evolve_circle

__all__ = [
    "MomentReport",
    "MixingReport",
    "WalkSpec",
    "moment",
    "analytic_moment",
    "interval_mass",
    "total_variation",
    "tv_distance",
    "mixing_time",
    "cesaro_average",
    "classical_walk",
]

SQRT2 = math.sqrt(2)


@dataclass(frozen=True)
class MomentReport:
    """A single moment of the scaled position alpha = n/t."""

    order: int
    value: float
    source: str
    absolute: bool = False


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

    topology_size: int
    delta: float
    time: int | None
    tv_trace: NDArray[np.float64]

    @property
    def reached(self) -> bool:
        return self.time is not None


def moment(
    dist: ProbabilityDistribution,
    m: int,
    t: int | None = None,
    absolute: bool = False,
) -> MomentReport:
    """Empirical moment ``sum_n (n/t)^m P(n)`` of a line distribution."""
    t = dist.time if t is None else t
    if t < 1:
        raise DomainError("moments need t >= 1")
    alpha = dist.sites / t
    base = np.abs(alpha) if absolute else alpha
    value = float(np.sum(base**m * dist.masses))
    return MomentReport(order=m, value=value, source="exact", absolute=absolute)


_MOMENT_SPECS = {"mean": (1, False), "abs_mean": (1, True), "second": (2, False)}


def analytic_moment(
    coin: CoinOperator, init: str | NDArray[np.complex128], m_spec: str
) -> MomentReport:
    """Moment of the limiting density by quadrature.

    ``init`` is anything :func:`qwalk.core.initial_state` accepts.  The
    Hadamard coin with a left start gives the moment table
    (-1 + 1/sqrt2, 1/2, 1 - 1/sqrt2); ``theta_coin(theta)`` with a
    symmetric start gives mean |alpha| = 1 - theta/pi.  Coins whose
    density the quadrature cannot resolve, the singular theta = 0
    among them, raise :class:`DomainError`.
    """
    try:
        m, absolute = _MOMENT_SPECS[m_spec]
    except KeyError:
        raise DomainError(f"m_spec must be one of {sorted(_MOMENT_SPECS)}") from None
    value = density_moment(m, coin, init, absolute)
    return MomentReport(order=m, value=value, source="density_quadrature",
                        absolute=absolute)


def interval_mass(
    dist: ProbabilityDistribution, eps: float, margin: str = "alpha"
) -> float:
    """Interior mass of a Hadamard line distribution.

    With ``margin="alpha"`` the interval is ``|n/t| <= 1/sqrt2 - eps``
    directly.  With ``margin="wavenumber"`` eps is a margin on the
    stationary wavenumber instead: the interval keeps the sites whose
    stationary point lies in ``[eps, pi - eps]``, i.e. ``|n/t| <=
    cos(eps)/sqrt(1 + cos^2(eps))``.  The wavenumber reading is the one
    for which the interior mass obeys the ``1 - 2 eps/pi - O(1)/t``
    law; under the alpha reading the edge divergence of the density
    contributes an eps-dependent (not ``2 eps/pi``) deficit.
    """
    t = dist.time
    if t < 1:
        raise DomainError("interval mass needs t >= 1")
    if margin == "alpha":
        cutoff = 1 / SQRT2 - eps
    elif margin == "wavenumber":
        cutoff = math.cos(eps) / math.sqrt(1 + math.cos(eps) ** 2)
    else:
        raise DomainError(f"margin must be 'alpha' or 'wavenumber', got {margin!r}")
    alpha = dist.sites / t
    return float(np.sum(dist.masses[np.abs(alpha) <= cutoff]))


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Half the l1 distance between two mass vectors on a shared support."""
    return 0.5 * float(np.sum(np.abs(np.asarray(p) - np.asarray(q))))


def _line_window(t: int) -> tuple[int, int]:
    half = math.ceil(t / SQRT2)
    return -half, half


def tv_distance(dist: ProbabilityDistribution, reference: str = "uniform_all") -> float:
    """TV distance to a uniform reference on the natural comparison set.

    For circles the reference is uniform over all ``n`` sites
    (``uniform_all``) or over the parity class reachable at
    ``dist.time`` (``uniform_parity``).  For lines it is uniform over
    the integer points in ``[-ceil(t/sqrt2), ceil(t/sqrt2)]``, again
    optionally restricted to the reachable parity.  Mass of ``dist``
    lying outside the reference window counts as pure discrepancy.
    """
    if reference not in ("uniform_all", "uniform_parity"):
        raise DomainError(f"unknown reference {reference!r}")
    sites = dist.sites
    masses = dist.masses
    if isinstance(dist.topology, Circle):
        in_window = np.ones(len(sites), dtype=bool)
    else:
        lo, hi = _line_window(dist.time)
        in_window = (sites >= lo) & (sites <= hi)
    if reference == "uniform_parity":
        in_ref = in_window & ((sites + dist.time) % 2 == 0)
    else:
        in_ref = in_window
    m = int(np.count_nonzero(in_ref))
    if m == 0:
        raise DomainError("empty reference window")
    diff = np.abs(masses[in_ref] - 1.0 / m)
    outside = float(np.sum(masses[~in_ref]))
    return 0.5 * (float(np.sum(diff)) + outside)


def _classical_circle_step(d: np.ndarray) -> np.ndarray:
    return 0.5 * (np.roll(d, 1) + np.roll(d, -1))


def mixing_time(spec: WalkSpec, delta: float, t_cap: int) -> MixingReport:
    """Scan t = 1..t_cap for the first time TV to uniform drops to delta.

    Quantum specs evolve the coined walk from ``spec.init``; classical
    specs run the exact DP of the symmetric random walk from site 0.
    Both compare against uniform over all sites on an odd cycle and
    against uniform on the occupied parity class on an even one.
    The trace of (t, TV) values is always returned in full up to the
    crossing (or the cap, if never reached).  ``t_cap`` must be at
    least 1; it is not bounded above, because the scan stops at the
    crossing.
    """
    if not isinstance(spec.topology, Circle):
        raise DomainError("mixing_time is defined on the circle")
    if t_cap < 1:
        raise DomainError(f"t_cap must be at least 1, got {t_cap}")
    n = spec.topology.size
    reference = "uniform_all" if n % 2 else "uniform_parity"
    trace = []
    crossing: int | None = None
    if spec.classical:
        if n % 2:
            targets = [np.full(n, 1.0 / n)]
        else:
            # uniform on the occupied parity class x = t (mod 2)
            targets = [np.where(np.arange(n) % 2 == p, 2.0 / n, 0.0) for p in (0, 1)]
        d = np.zeros(n)
        d[0] = 1.0
        for t in range(1, t_cap + 1):
            d = _classical_circle_step(d)
            tv = total_variation(d, targets[t % len(targets)])
            trace.append(tv)
            if tv <= delta:
                crossing = t
                break
    else:
        psi = initial_state(spec.init, spec.topology)
        for t in range(1, t_cap + 1):
            psi = evolve_circle(psi, spec.coin, 1)
            tv = tv_distance(distribution(psi), reference)
            trace.append(tv)
            if tv <= delta:
                crossing = t
                break
    return MixingReport(
        topology_size=n, delta=delta, time=crossing,
        tv_trace=np.array(trace, dtype=np.float64),
    )


def cesaro_average(spec: WalkSpec, big_t: int) -> ProbabilityDistribution:
    """Time-averaged distribution ``(1/T) sum_{t=1}^{T} P(., t)``.

    The pointwise distribution of a unitary walk never converges; the
    Cesaro average is the standard time-averaged notion that can.
    """
    if not isinstance(spec.topology, Circle):
        raise DomainError("cesaro_average is defined on the circle")
    if big_t < 1:
        raise DomainError("T must be at least 1")
    psi = initial_state(spec.init, spec.topology)
    acc = np.zeros(spec.topology.size)
    for _ in range(big_t):
        psi = evolve_circle(psi, spec.coin, 1)
        acc += distribution(psi).masses
    return ProbabilityDistribution(spec.topology, acc / big_t, big_t)


def classical_walk(topology: Topology | int, t: int) -> ProbabilityDistribution:
    """Exact distribution of the classical symmetric random walk from site 0.

    Computed by dynamic programming.  An integer topology is shorthand
    for ``Circle(n)``.
    """
    if isinstance(topology, int):
        topology = Circle(topology)
    if t < 0:
        raise DomainError("t must be nonnegative")

    if isinstance(topology, Circle):
        d = np.zeros(topology.size)
        d[0] = 1.0
        for _ in range(t):
            d = _classical_circle_step(d)
        return ProbabilityDistribution(topology, d, t)

    d = np.zeros(2 * t + 1)
    d[t] = 1.0
    for _ in range(t):
        d = 0.5 * (np.roll(d, 1) + np.roll(d, -1))
    return ProbabilityDistribution(Line(offset=-t), d, t)
