"""Direct time evolution by the two-term recurrence.

One step sends ``psi(n, t+1) = M+ psi(n-1, t) + M- psi(n+1, t)``.  On
the line the support grows by one site per side per step and is stored
densely; on the circle the indices wrap mod n.  Each step allocates a
fresh array (the recurrence reads both neighbours), so inputs are never
mutated.

Parity bookkeeping comes for free: amplitudes at sites with ``n + t``
odd (origin start) are never written and stay exactly 0.0.
"""

from __future__ import annotations

import numpy as np

from .core import (
    Circle,
    CoinOperator,
    DomainError,
    Line,
    WaveFunction,
    check_steps,
    step_matrices,
)

__all__ = [
    "evolve_line",
    "evolve_circle",
    "distribution",
    "ProbabilityDistribution",
]

from dataclasses import dataclass

from numpy.typing import NDArray

from .core import Topology


@dataclass(frozen=True)
class ProbabilityDistribution:
    """Nonnegative site masses summing to 1, observed at a fixed time."""

    topology: Topology
    masses: NDArray[np.float64]
    time: int

    def __post_init__(self):
        m = np.ascontiguousarray(self.masses, dtype=np.float64)
        m.flags.writeable = False
        object.__setattr__(self, "masses", m)

    @property
    def sites(self) -> NDArray[np.int64]:
        start = self.topology.offset if isinstance(self.topology, Line) else 0
        return np.arange(start, start + len(self.masses))


def evolve_line(
    psi: WaveFunction,
    coin: CoinOperator,
    steps: int,
    adjoint: bool = False,
) -> WaveFunction:
    """Evolve a line wavefunction by ``steps`` applications of the walk.

    With ``adjoint=True`` the inverse step is applied instead and time
    runs backwards (``steps`` may not exceed ``psi.time``).
    """
    if not isinstance(psi.topology, Line):
        raise DomainError("evolve_line needs line topology")
    check_steps(steps)
    if adjoint and steps > psi.time:
        raise DomainError("cannot rewind past t = 0")

    sm = step_matrices(coin)
    if adjoint:
        # W^dag: psi(n, t) = M+^dag psi(n+1, t+1) + M-^dag psi(n-1, t+1)
        mp_t = sm.m_plus.conj()  # (M+^dag).T
        mm_t = sm.m_minus.conj()
    else:
        mp_t = sm.m_plus.T
        mm_t = sm.m_minus.T

    amps = psi.amplitudes
    offset = psi.topology.offset
    for _ in range(steps):
        n = amps.shape[0]
        new = np.zeros((n + 2, 2), dtype=np.complex128)
        if adjoint:
            # contribution from site n+1 lands two rows up
            new[:-2] += amps @ mp_t
            new[2:] += amps @ mm_t
        else:
            new[2:] += amps @ mp_t
            new[:-2] += amps @ mm_t
        amps = new
        offset -= 1

    t = psi.time - steps if adjoint else psi.time + steps
    return WaveFunction(Line(offset=offset), amps, t)


def evolve_circle(psi: WaveFunction, coin: CoinOperator, steps: int) -> WaveFunction:
    """Evolve a circle wavefunction; same recurrence with indices mod n.

    For ``steps < floor(n/2)`` the result equals the line evolution
    folded mod n (the wrapped-around unbounded-line wavefunction).
    """
    if not isinstance(psi.topology, Circle):
        raise DomainError("evolve_circle needs circle topology")
    check_steps(steps)

    sm = step_matrices(coin)
    mp_t, mm_t = sm.m_plus.T, sm.m_minus.T
    amps = psi.amplitudes
    for _ in range(steps):
        amps = np.roll(amps @ mp_t, 1, axis=0) + np.roll(amps @ mm_t, -1, axis=0)
    return WaveFunction(psi.topology, amps, psi.time + steps)


def distribution(psi: WaveFunction) -> ProbabilityDistribution:
    """Site-observation probabilities ``|psi_L|^2 + |psi_R|^2``."""
    masses = np.sum(np.abs(psi.amplitudes) ** 2, axis=1)
    return ProbabilityDistribution(psi.topology, masses, psi.time)
