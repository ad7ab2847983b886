"""Direct time evolution by the two-term recurrence.

One step sends ``psi(n, t+1) = M+ psi(n-1, t) + M- psi(n+1, t)``.  On
the line the support grows by one site per side per step and is stored
densely; on the circle the indices wrap mod n.  Inputs are never
mutated.

The line kernel steps in place in a co-moving frame (see
:func:`evolve_line`): the shift is absorbed into where each chirality
column is stored, so a step is a 2x2 mix of two aligned slices, with no
new array and no data movement.  Far outside the cone the amplitudes
decay exponentially, and float64 arithmetic on the subnormals below
2**-1022 is many times slower; so every 32 steps the kernel sets to
+0.0 each real or imaginary part below a floor of 2**-600 times the
input's largest one.  That changes the result by at most
``ceil(steps / 32) * 2 sqrt(n + 2 steps) * floor`` in 2-norm (see
:func:`evolve_line`).

The circle kernel (:func:`_circle_steps`) keeps the cycle in two
preallocated buffers with one ghost column per side for the wrap; a
step writes the 2x2 mix into the other buffer at the shifted columns,
six vector operations over n entries and one four-entry copy, in O(n)
memory.  It yields the buffer after every step, so the mixing scans of
:mod:`qwalk.stats` read the masses without building a wavefunction.

Parity bookkeeping comes for free: amplitudes at sites with ``n + t``
odd (origin start) stay exactly zero, and the results hold them as
+0.0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import (
    Circle,
    CoinOperator,
    DomainError,
    Line,
    Topology,
    WaveFunction,
    _freeze,
    _site_masses,
    check_steps,
)

#: Flush floor relative to the input's largest float64 entry: 2**-600
#: leaves about 420 binary orders above the subnormal range (2**-1022)
#: for a surviving entry to decay through before the next flush.
_FLUSH_FLOOR = 2.0 ** -600
#: Steps between flushes: a flush costs about one step, so one in 32
#: adds about 4% to a walk with nothing to flush.
_FLUSH_EVERY = 32


@dataclass(frozen=True)
class ProbabilityDistribution:
    """Nonnegative site masses summing to 1, observed at a fixed time."""

    topology: Topology
    masses: NDArray[np.float64]
    time: int

    def __post_init__(self):
        object.__setattr__(self, "masses", _freeze(self.masses, np.float64))

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
    the float64 view, and on input with no nonzero imaginary part it
    steps the real parts alone, at half the work; the imaginary parts
    of that result are +0.0.  Memory is O(n + 2 steps); a step costs
    six in-place vector operations per occupied parity class, each over
    about ``(n + 2s) / 2`` entries (``n + 2s`` on the float64 view), and
    every 32nd step three more per mixed row for the flush below.

    The amplitudes decay exponentially outside the cone, through the
    subnormal floats, on which every operation is many times slower.
    So before every 32nd step, starting with the first, each real or
    imaginary part in the stepped windows below ``floor = 2**-600 M`` in
    magnitude is set to +0.0, where ``M`` is the largest real or
    imaginary part of ``psi``.  In exact arithmetic a flush moves the
    state by less than ``2 sqrt(width) floor`` in 2-norm (it touches at
    most ``4 width`` float64 entries, ``width = n + 2 steps``), and the
    steps are unitary, so the result moves by at most ``ceil(steps /
    32) * 2 sqrt(width) * floor``.  On the Hadamard walk to t = 4000 and
    on theta-coin round trips to t = 2000, every entry above 1e-150
    came out bit for bit as without the flush.  Because the floor is
    relative to ``M``, a scaled input gives the scaled result.  A step
    shrinks an entry by at most a factor ``c``, the smallest nonzero
    real or imaginary part of a coin entry, so, cancellation aside, no
    subnormal is stepped while ``floor * c**32 >= 2**-1022``: for ``M
    >= 2**-20`` (a unit-norm ``psi`` on fewer than 2**38 sites) that is
    every coin with ``c >= 1.7e-4``.
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
    # a real coin never mixes real and imaginary parts: with no
    # imaginary input there is nothing to step but the real parts
    if real and not np.any(amps.imag):
        amps = amps.real

    floor = _FLUSH_FLOOR * np.max(np.abs(psi.amplitudes.view(np.float64)), initial=0.0)
    out = np.zeros((width, 2), dtype=np.complex128)
    for p in (0, 1):
        if not np.any(amps[p::2]):
            continue
        # rows: the a and b columns of this class, then two scratch rows
        work = np.zeros((4, (width - p + 1) // 2), dtype=amps.dtype)
        n_in = (n - p + 1) // 2
        work[0, :n_in] = amps[p::2, a_col]
        work[1, steps:steps + n_in] = amps[p::2, b_col]
        _mix_steps(work.view(np.float64) if real else work, mix, n - p, steps, first,
                   floor)
        # adding into +0.0 keeps every zero of the result a +0.0
        out[p::2, a_col] += work[0]
        out[p::2, b_col] += work[1]

    t = psi.time - steps if adjoint else psi.time + steps
    return WaveFunction(Line(offset=psi.topology.offset - steps), out, t)


def _mix_steps(work, mix, m, steps, first, floor):
    """Apply ``(a, b) <- mix (a, b)`` in place for ``s = first .. first+steps-1``.

    ``work`` holds the rows ``a, b`` and two scratch rows of
    ``(m + 2 steps + 1) // 2`` class entries each, as complex numbers,
    as their float64 view (two view entries per class entry) or as
    real parts alone.  At step ``s`` the window covers the
    ``(m + 2s + 1) // 2`` class entries from 0 in ``a`` and from
    ``steps - s`` in ``b``.

    Before every ``_FLUSH_EVERY``-th step, starting with the first, each
    float64 entry of the two windows (a real or imaginary part) below
    ``floor`` in magnitude is set to +0.0, through the scratch row ``x``:
    an absolute value, a comparison and a masked copy per window.  A
    flush moves the class by less than ``floor`` times the square root
    of the number of float64 entries it reads, and the mix is unitary;
    no subnormal is stepped while ``floor * c**_FLUSH_EVERY >=
    2**-1022`` for the smallest nonzero real or imaginary part ``c`` of
    a ``mix`` entry (see :func:`evolve_line` for the bounds in full).
    """
    a, b, t1, t2 = work
    scale = len(a) // ((m + 2 * steps + 1) // 2)
    (w00, w01), (w10, w11) = mix
    for s in range(first, first + steps):
        k = scale * ((m + 2 * s + 1) // 2)
        lo = scale * (steps - s)
        av, bv = a[:k], b[lo:lo + k]
        x, y = t1[:k], t2[:k]
        if (s - first) % _FLUSH_EVERY == 0:
            for v in (av.view(np.float64), bv.view(np.float64)):
                np.copyto(v, 0.0, where=np.abs(v, out=x.view(np.float64)) < floor)
        np.multiply(bv, w01, out=x)
        np.multiply(av, w10, out=y)
        av *= w00
        av += x
        bv *= w11
        bv += y


def evolve_circle(psi: WaveFunction, coin: CoinOperator, steps: int) -> WaveFunction:
    """Evolve a circle wavefunction; same recurrence with indices mod n.

    For ``steps < floor(n/2)`` the result equals the line evolution
    folded mod n (the wrapped-around unbounded-line wavefunction).  The
    steps run in place on two preallocated buffers (see
    :func:`_circle_steps`): memory is O(n), and a step costs six vector
    operations over n entries plus one four-entry copy, with no
    intermediate wavefunction.
    """
    if not isinstance(psi.topology, Circle):
        raise DomainError("evolve_circle needs circle topology")
    check_steps(steps)

    rows = psi.amplitudes.T
    for rows in _circle_steps(psi.amplitudes, coin, steps):
        pass
    # adding +0.0 turns the -0.0 a negative coin entry leaves on a
    # parity-forbidden site into +0.0
    return WaveFunction(psi.topology, np.add(rows.T, 0.0, order="C"), psi.time + steps)


def _circle_steps(amps, coin, steps):
    """Step ``(n, 2)`` circle amplitudes ``steps`` times, yielding after each step.

    Each yield is the ``(2, n)`` view (L row, R row) of the buffer that
    holds the walk at that time; the next step overwrites it, so copy
    what must outlive the step.

    Sites sit at columns ``1..n`` of two ``(2, n + 2)`` buffers, with
    ghost columns 0 and ``n + 1`` holding copies of sites ``n - 1`` and
    0.  A step refreshes the ghosts (one copy) and writes the new walk
    into the other buffer with the shift folded into the slices: L at
    column x mixes column ``x + 1`` by the coin's L row, R at x mixes
    column ``x - 1`` by its R row.  A real coin matrix runs on the
    float64 view.
    """
    n = amps.shape[0]
    u = coin.matrix
    real = not np.any(u.imag)
    (w00, w01), (w10, w11) = u.real if real else u
    bufs = np.zeros((2, 2, n + 2), dtype=np.complex128)
    bufs[0, :, 1:n + 1] = amps.T
    views = bufs.view(np.float64) if real else bufs
    k = 2 if real else 1  # view entries per site
    # the slices of both buffer directions are cut once: cutting them
    # every step costs about 3 us, as much as the arithmetic at n = 511
    plans = []
    for src, dst in ((0, 1), (1, 0)):
        (a, b), (na, nb) = views[src], views[dst]
        plans.append((
            bufs[src, :, ::n + 1], bufs[src, :, n:0:1 - n],  # columns (0, n+1), (n, 1)
            a[2 * k:], b[2 * k:], na[k:-k],  # columns x + 1 -> new L at x
            a[:-2 * k], b[:-2 * k], nb[k:-k],  # columns x - 1 -> new R at x
            bufs[dst, :, 1:n + 1],
        ))
    tmp = np.empty_like(plans[0][4])
    for s in range(steps):
        (ghosts, wrapped, a_right, b_right, new_a,
         a_left, b_left, new_b, rows) = plans[s % 2]
        np.copyto(ghosts, wrapped)
        np.multiply(a_right, w00, out=new_a)
        np.multiply(b_right, w01, out=tmp)
        new_a += tmp
        np.multiply(a_left, w10, out=new_b)
        np.multiply(b_left, w11, out=tmp)
        new_b += tmp
        yield rows


def distribution(psi: WaveFunction) -> ProbabilityDistribution:
    """Site-observation probabilities ``|psi_L|^2 + |psi_R|^2``."""
    return ProbabilityDistribution(psi.topology, _site_masses(psi.amplitudes), psi.time)
