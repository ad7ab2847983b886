"""Direct time evolution by the two-term recurrence.

One step sends ``psi(n, t+1) = M+ psi(n-1, t) + M- psi(n+1, t)``.  On
the line the support grows by one site per side per step and is stored
densely; on the circle the indices wrap mod n.  Inputs are never
mutated.

The line kernel steps in place in a co-moving frame (see
:func:`evolve_line`): the shift is absorbed into where each chirality
column is stored, so a step is a 2x2 mix of two aligned slices, with no
new array and no data movement.

Parity bookkeeping comes for free: amplitudes at sites with ``n + t``
odd (origin start) are never written and stay exactly +0.0.
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
    runs backwards (``steps`` may not exceed ``psi.time``).  Either way
    the result has ``n + 2 steps`` rows starting at site ``o - steps``,
    for an input of ``n`` rows starting at site ``o``.

    The step runs in place in a co-moving frame.  With ``s`` steps taken
    out of ``S = steps``, the forward walk stores L(x) at buffer index
    ``x - o + s`` and R(x) at ``x - o + 2S - s``; "coin, then move L
    left and R right" then leaves every amplitude at its index, and a
    step is ``(L, R) <- U (L, R)`` on the aligned slices ``L[0 : n+2s]``
    and ``R[2S-2s : 2S+n]``.  The adjoint walk uses the mirror frame
    (L at ``x - o + 2S - s``, R at ``x - o + s``) and mixes by ``U^dag``
    after the implicit shift.  At ``s = S`` both frames store site x at
    output row ``x - o + S``.

    Partner indices differ by an even number, so the even and odd
    buffer entries never mix: each parity class is evolved as its own
    contiguous array and a class that is zero at input is skipped (an
    origin start pays for half the sites).  A real coin matrix runs on
    the float64 view.  Memory is O(n + 2 steps); a step costs six
    in-place vector operations per occupied parity class, each over
    about ``(n + 2s) / 2`` entries.
    """
    if not isinstance(psi.topology, Line):
        raise DomainError("evolve_line needs line topology")
    check_steps(steps)
    if adjoint and steps > psi.time:
        raise DomainError("cannot rewind past t = 0")

    u = coin.matrix
    amps = psi.amplitudes
    n = amps.shape[0]
    width = n + 2 * steps
    # The adjoint frame is the forward frame with the columns swapped:
    # it mixes (R, L) by U^dag with rows and columns reversed, one step
    # of window later.
    a_col, b_col, mix, first = 0, 1, u, 0
    if adjoint:
        a_col, b_col, mix, first = 1, 0, u.conj().T[::-1, ::-1], 1
    real = not np.any(mix.imag)
    if real:
        mix = mix.real

    out = np.zeros((width, 2), dtype=np.complex128)
    for p in (0, 1):
        if not np.any(amps[p::2]):
            continue
        # rows: the a and b columns of this class, then two scratch rows
        work = np.zeros((4, (width - p + 1) // 2), dtype=np.complex128)
        n_in = (n - p + 1) // 2
        work[0, :n_in] = amps[p::2, a_col]
        work[1, steps:steps + n_in] = amps[p::2, b_col]
        _mix_steps(work.view(np.float64) if real else work, mix, n - p, steps, first)
        # adding into +0.0 keeps every zero of the result a +0.0
        out[p::2, a_col] += work[0]
        out[p::2, b_col] += work[1]

    t = psi.time - steps if adjoint else psi.time + steps
    return WaveFunction(Line(offset=psi.topology.offset - steps), out, t)


def _mix_steps(work, mix, m, steps, first):
    """Apply ``(a, b) <- mix (a, b)`` in place for ``s = first .. first+steps-1``.

    ``work`` holds the rows ``a, b`` and two scratch rows, as complex
    numbers or as their float64 view.  At step ``s`` the window covers
    the ``(m + 2s + 1) // 2`` class entries from 0 in ``a`` and from
    ``steps - s`` in ``b``.
    """
    a, b, t1, t2 = work
    scale = 1 if np.iscomplexobj(work) else 2
    (w00, w01), (w10, w11) = mix
    for s in range(first, first + steps):
        k = scale * ((m + 2 * s + 1) // 2)
        lo = scale * (steps - s)
        av, bv = a[:k], b[lo:lo + k]
        x, y = t1[:k], t2[:k]
        np.multiply(bv, w01, out=x)
        np.multiply(av, w10, out=y)
        av *= w00
        av += x
        bv *= w11
        bv += y


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
