"""Direct time evolution by the two-term recurrence.

One step sends ``psi(n, t+1) = M+ psi(n-1, t) + M- psi(n+1, t)``.  On
the line the support grows by one site per side per step and is stored
densely; on the circle the indices wrap mod n.  Inputs are never
mutated.

The line kernel steps in place in a co-moving frame (see
:func:`evolve_line`): the shift is absorbed into where each chirality
column is stored, so a step is a 2x2 mix of two aligned slices, with no
new array and no data movement.

The circle kernel (:func:`_ring_blocks`) steps the cycle in halo blocks
of B steps, at most 32 for a coined walk and 90 for the classical one,
through a ring of B + 1 slots of n + 2B sites.  The first slot of a
block carries B wrapped sites per side, and each step writes the next
slot over a window one site shorter per side, so no step copies a
ghost column: a coined step is the six vector operations
of :func:`_step`, and a block adds two slice copies.  Memory is O(n): B
is chosen by the bytes a slot holds, so that B slots stay within 256 KiB,
and past that size a block is one step.  The kernel yields each block's
rows, and :func:`_circle_masses` squares them into the site masses that
the scans of :mod:`qwalk.stats` reduce once per block, without building
a wavefunction.

The arithmetic of a step has one owner, :func:`_step`, the only code
that multiplies or adds coin entries.  Both kernels hand it the windows
they cut, the line two aligned slices to mix in place, the ring a slot
to mix into the next, so they differ only in layout: co-moving windows
on the line, halo slots on the ring.  Both flush at the same steps
(below), and every window is at least 2 entries long, so numpy takes
the same loop for every multiply and add of both.  So every cycle
walk, for every coin, start and cycle size, is the line walk folded
onto the cycle bit for bit until it wraps.

A real coin never mixes real and imaginary parts, so they evolve as two
independent real walks, and the ring steps real rows wherever one of
them is all there is to step: :func:`evolve_circle` on a real input, as
:func:`evolve_line` does on the line, and :func:`_circle_masses` from a
real start and from a mirror start.  A mirror start holds a real part
on one chirality and an imaginary part of equal magnitude on the other,
as the named start ``"symmetric"``, ``(1, i)/sqrt2``, does.  Under a
coin whose entries pair exactly, ``w00 = w11, w01 = -w10`` (every theta
coin) or ``w00 = -w11, w01 = w10`` (the Hadamard coin), the imaginary
walk is then the real one reflected, ``x -> -x`` with L and R swapped,
up to signs: the reflection behind ``P(x) = P(-x)`` (Tregenna,
Flanagan, Maile and Kendon, New J. Phys. 5, 83, 2003).  So the site
masses are ``m(x) + m(-x mod n)``, ``m`` those of the real walk, and
they are ``distribution()``'s bit for bit, because the reflection only
flips signs and swaps summands.  Entries that pair only to the last
bit, as those of a QR-drawn orthogonal coin often do, do not pair.

Each kernel steps rows in their own dtype, with the coin's entries
typed to match (:func:`_coin_entries`): float64 rows in real
arithmetic, complex rows in complex arithmetic, and only the line also
steps the float64 view of complex rows under a real coin.  A real
coin's entries have an imaginary part of exactly 0, so each part of a
complex product rounds once, and complex rows keep the real walk's
bits, up to the sign of an exact zero.  So the recurrence of a real
coin and the mirrored masses have the same bits at every SIMD level
numpy dispatches to: each float64 part takes one rounded multiply or
add at every level.  A complex coin's recurrence does not, because
numpy's complex multiply fuses the multiply-add at the levels that
have FMA, so its last bits can differ between CPUs (CHANGES.md records
by how much).  The fold rule above compares the two kernels of one
run, so it holds at every level for every coin.

Both kernels follow one underflow policy.  Far outside the cone the
amplitudes decay exponentially, and float64 arithmetic on the
subnormals below 2**-1022 is many times slower.  So each kernel takes
``floor = 2**-600 M`` from its input, ``M`` the input's largest real or
imaginary part, and before every 32nd step, starting with the first,
sets to +0.0 each real or imaginary part below ``floor``
(:func:`_flush`); the ring, whose coined blocks are powers of two of
at most 32 steps, at the start of each block that starts at a multiple
of 32 steps, on the core of the slot the block starts from, so that
its halo is copied flushed.  A flush touches at most ``4 width``
float64 entries, ``width`` the line's ``n + 2 steps`` sites or the
cycle's n, so it moves the state by less than ``2 sqrt(width) floor``
in 2-norm, and the steps are unitary: the result moves by at most
``ceil(steps / 32) * 2 sqrt(width) * floor``.
A step shrinks an entry by at most a factor ``c``, the smallest
nonzero real or imaginary part of a coin entry, so, cancellation
aside, no subnormal is stepped while ``floor * c**32 >= 2**-1022``.
Both kernels take one scale rule (:func:`_unit_scale`): if ``M < 1/2``,
each multiplies the buffer it has just filled from the input (the
line's class rows, the ring's first slot) in place by the power of two
that brings ``M`` into [1/2, 1), and scales its result back in place;
the ring yields the shift it applied with each block, so its callers
undo it without working it out again.
The input is never copied, and none is scaled down.  So the steps see
``M >= 1/2``, the floor is at least 2**-601, and no subnormal is
stepped for any coin with ``c >= 1.1e-4``.  A power of two scales
exactly, and with the floor relative to ``M`` every step at the scaled
magnitude is the scaled step, so a scaled input gives the scaled result
bit for bit, up to the one rounding of the scale-back.  The classical
walk on the ring is not flushed (:func:`_ring_blocks` says why).

Parity bookkeeping comes for free: amplitudes at sites with ``n + t``
odd (origin start) stay exactly zero, and the results hold them as
+0.0, as every :class:`~qwalk.core.WaveFunction` holds its zeros.
"""

from __future__ import annotations

import numpy as np

from .core import (
    Circle,
    CoinOperator,
    DomainError,
    Line,
    ProbabilityDistribution,
    WaveFunction,
    _row_masses,
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
#: Float64 entries of the B steps of a circle block (256 KiB, in the L2
#: cache).
_RING_FLOATS = 2 ** 15


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
    contiguous array by :func:`_mix_steps` and a class that is zero at
    input is skipped (an origin start pays for half the sites).  A real
    coin matrix runs on the float64 view, and on a class with no nonzero
    imaginary part it steps the real parts alone, at half the work; the
    imaginary parts of that class's result are +0.0.  Both classes share
    one scale and one flush floor.  Memory is O(n + 2 steps); a step
    costs six in-place vector operations per occupied parity class, each
    over the window of the last step of its 32-step flush period, and at
    least 2 entries: about ``(n + 2s) / 2`` entries and at most 31 more
    (twice as many on the float64 view), and every 32nd step three more
    per mixed row for the flush below.  The longer windows only step
    zeros past the live ones, so they keep the module docstring's fold
    rule (:func:`_mix_steps` says why).

    The underflowing tails are flushed before every 32nd step, starting
    with the first.  If the input's largest part lies below 1/2, the
    class rows are scaled up in place by a power of two as they are
    loaded, and the result is scaled back in place: the module docstring
    states the policy and its bound.

    The rounding error grows about as ``t**(2/3)``: from the left start,
    every amplitude of the Hadamard walk lies within ``eps t**(2/3)``,
    ``eps = 2**-52``, of the exact walk in integers (``tests/exact.py``),
    which the tests check at t = 100, 500, 1000 and 2000.
    """
    if not isinstance(psi.topology, Line):
        raise DomainError("evolve_line needs line topology")
    steps = check_steps(steps)
    if adjoint and steps > psi.time:
        raise DomainError("cannot rewind past t = 0")

    amps = psi.amplitudes
    shift, floor = _unit_scale(amps.view(np.float64))
    # The adjoint frame is the forward frame with the columns swapped:
    # it mixes (R, L) by U^dag with rows and columns reversed, one step
    # of window later.
    a_col, b_col, mix, first = 0, 1, coin.matrix, 0
    if adjoint:
        a_col, b_col, mix, first = 1, 0, mix.conj().T[::-1, ::-1], 1

    out = np.zeros((amps.shape[0] + 2 * steps, 2), dtype=np.complex128)
    # a walk that leaves float64 overflows to inf or NaN, which
    # WaveFunction refuses below: with no warning ahead of the refusal
    with np.errstate(over="ignore", invalid="ignore"):
        for p in (0, 1):
            if np.any(cls := amps[p::2]):
                out[p::2, a_col], out[p::2, b_col] = _mix_steps(
                    cls[:, a_col], cls[:, b_col], mix, steps, first, shift, floor)

    np.ldexp(parts := out.view(np.float64), -shift, out=parts)
    t = psi.time - steps if adjoint else psi.time + steps
    return WaveFunction(Line(offset=psi.topology.offset - steps), out, t)


def _unit_scale(parts):
    """``(shift, floor)``: how a kernel steps the float64 array ``parts`` at unit scale.

    ``M``, the largest magnitude in ``parts``, times ``2**shift`` lies
    in [1/2, 1) if ``M`` lies in (0, 1/2); for any other ``M`` the
    shift is 0, so nothing is scaled down.  ``floor = 2**-600 M
    2**shift`` is the flush floor of the scaled walk.  The kernel scales
    the buffer it has filled in place, ``np.ldexp(view, shift,
    out=view)``, exactly, and its result back by ``-shift``, which
    rounds each entry once.  A negative entry that underflows there
    leaves -0.0, which :class:`~qwalk.core.WaveFunction` holds as +0.0.
    """
    big = np.max(np.abs(parts), initial=0.0)
    shift = max(0, -int(np.frexp(big)[1]))
    return shift, _FLUSH_FLOOR * np.ldexp(big, shift)


def _coin_entries(matrix, dtype):
    """``(w00, w01, w10, w11)`` of a 2x2 coin matrix, typed for the rows they step.

    ``dtype`` is that of the rows: float64 rows take the real parts, so
    a kernel steps them only under a real coin (no entry with a nonzero
    imaginary part), and complex rows take the entries as they are.
    Each is a 0-d array: a ufunc converts a numpy scalar operand to an
    array anew on every call, and on windows of a few thousand entries
    that conversion is a measurable share of the step.
    """
    return tuple(map(np.array, (matrix.real if dtype == np.float64 else matrix).ravel()))


def _flush(parts, floor, scratch):
    """Set each entry of the float64 array ``parts`` below ``floor`` in magnitude to +0.0.

    ``scratch`` is a float64 buffer at least as long, overwritten: an
    absolute value, a comparison and a masked copy.
    """
    np.copyto(parts, 0.0, where=np.abs(parts, out=scratch[:len(parts)]) < floor)


def _step(plans, entries):
    """Apply one step of ``(a, b) <- mix (a, b)`` for each plan, in order: the only coin arithmetic.

    A plan is ``(a_r, b_r, a', a_l, b_l, b', x, y)``: it writes ``a' =
    w00 a_r + w01 b_r`` and ``b' = w10 a_l + w11 b_l`` through the
    scratch windows ``x`` and ``y``, as the six ufunc calls with
    positional outputs of ``x = b_r w01; y = a_l w10; a' = a_r w00 + x;
    b' = b_l w11 + y``.  Both kernels step by these calls, so they share
    every operand and its order, and each entry takes one rounded
    multiply or add.  The order is also safe in place, where the line
    passes ``a_r = a_l = a'`` and ``b_r = b_l = b'``: ``x`` and ``y``
    read b and a before the step overwrites them.  ``entries`` are the
    four entries of ``mix`` from :func:`_coin_entries`.
    """
    w00, w01, w10, w11 = entries
    multiply, add = np.multiply, np.add
    for a_right, b_right, new_a, a_left, b_left, new_b, x, y in plans:
        multiply(b_right, w01, x)
        multiply(a_left, w10, y)
        multiply(a_right, w00, new_a)
        add(new_a, x, new_a)
        multiply(b_left, w11, new_b)
        add(new_b, y, new_b)


def _mix_steps(a_in, b_in, mix, steps, first, shift, floor):
    """One parity class of :func:`evolve_line`: its rows ``(a, b)`` after ``steps`` steps.

    ``a_in`` and ``b_in`` are the class's ``n`` entries of the two
    columns in the walk's frame, and ``mix`` is the frame's coin matrix;
    ``shift`` and ``floor`` are the walk's :func:`_unit_scale`.  The
    class steps as complex numbers under a complex ``mix``, and under a
    real one as real parts alone if neither column has a nonzero
    imaginary part (their result's imaginary parts are then +0.0), and
    otherwise as the float64 view, two view entries per class entry.
    The rows ``a, b`` and two scratch rows hold ``E + _FLUSH_EVERY``
    class entries each, ``E = n + steps``: ``a`` from entry 0 and ``b``
    from entry ``steps``.  They are scaled in place by ``2**shift`` and
    stepped by ``(a, b) <- mix (a, b)`` for ``s = first ..
    first+steps-1``, and the first E entries of ``a`` and ``b`` are
    returned, at that scale.  At step ``s`` the live window covers the
    ``k_s = n + s`` class entries from 0 in ``a`` and from ``steps - s``
    in ``b``, which end at entry E.

    The steps run a flush period of ``_FLUSH_EVERY`` steps at a time,
    and every step of a period runs over the window of its last step,
    ``K`` class entries and at least 2: ``a[:K]`` and the scratch
    windows are cut once a period and ``b`` once a step, from ``steps -
    s``, so ``b``'s window runs ``K - k_s < _FLUSH_EVERY`` entries past
    E, into the padding.  The extra entries are not live: ``a[k_s:K]``
    lies past ``a``'s window and pairs with entries of ``b`` at or past
    E, so both hold +-0 and stepping them writes +-0.  When the live
    window later grows over such an entry, a +-0 operand leaves every
    nonzero result bit for bit (``x + 0 = x``, ``0 w = 0``), and only
    the sign of an exact zero can change, which
    :class:`~qwalk.core.WaveFunction` holds as +0.0.  So a live entry
    takes the same bits in every window of 2 or more entries, for every
    coin, and ``K`` is at least 2, as the ring's windows are, because
    numpy's in-place complex multiply takes another loop for a 1-element
    array: the module docstring's fold rule rests on both.  The two
    windows of each period's first step are flushed below ``floor``
    through the scratch row ``t1`` (:func:`_flush`; the module docstring
    states the bound), and :func:`_step` steps the period's plans with
    the entries of ``mix``.
    """
    real = not np.any(mix.imag)
    # a real coin never mixes real and imaginary parts: with no
    # imaginary input there is nothing to step but the real parts
    if real and not (np.any(a_in.imag) or np.any(b_in.imag)):
        a_in, b_in = a_in.real, b_in.real
    n = len(a_in)
    work = np.zeros((4, n + steps + _FLUSH_EVERY), dtype=a_in.dtype)
    work[0, :n] = a_in
    work[1, steps:steps + n] = b_in
    np.ldexp(parts := work.view(np.float64), shift, out=parts)
    rows = parts if real else work
    entries = _coin_entries(mix, rows.dtype)
    f = rows.shape[1] // work.shape[1]  # view entries per class entry
    a, b, t1, t2 = rows
    for start in range(first, first + steps, _FLUSH_EVERY):
        stop = min(start + _FLUSH_EVERY, first + steps)
        k = f * max(2, n + stop - 1)  # the window of step stop - 1
        av, x, y = a[:k], t1[:k], t2[:k]
        plans = []
        for lo in range(f * (steps - start), f * (steps - stop), -f):
            bv = b[lo:lo + k]
            plans.append((av, bv, av, av, bv, bv, x, y))
        for v in plans[0][:2]:
            _flush(v.view(np.float64), floor, t1.view(np.float64))
        _step(plans, entries)
    return work[0, :n + steps], work[1, :n + steps]


def evolve_circle(psi: WaveFunction, coin: CoinOperator, steps: int) -> WaveFunction:
    """Evolve a circle wavefunction; same recurrence with indices mod n.

    For ``steps < floor(n/2)`` the result is the line evolution folded
    mod n (the wrapped-around unbounded-line wavefunction), bit for bit
    by the module docstring's fold rule.  The steps run in the
    halo-block ring of :func:`_ring_blocks`, and the result is the last
    row of its last block: memory is O(n), and a step is one
    :func:`_step` over a window of n to n + 2B - 2 sites, with no
    intermediate wavefunction.  Under a real coin, input with no nonzero
    imaginary part steps its real parts alone, a view of the input, at
    half the work, and the result's imaginary parts are +0.0; any other
    input steps its complex rows, with the real walk's bits under a real
    coin (see the module docstring).  The last row is scaled back in
    place by the shift the ring yields with it: the input is not copied.
    """
    if not isinstance(psi.topology, Circle):
        raise DomainError("evolve_circle needs circle topology")
    steps = check_steps(steps)

    if steps == 0:  # no block runs, so there is no ring row to scale back
        return psi
    real = not np.any(coin.matrix.imag) and not np.any(psi.amplitudes.imag)
    rows = psi.amplitudes.T.real if real else psi.amplitudes.T  # the real parts as a view
    # as in evolve_line; the generator runs only while this loop asks it
    # for a block, so the error state covers its steps and no other code
    with np.errstate(over="ignore", invalid="ignore"):
        for block, shift in _ring_blocks(rows, coin, steps):
            pass
    np.ldexp(parts := block[-1].view(np.float64), -shift, out=parts)
    return WaveFunction(psi.topology, block[-1].T, psi.time + steps)


def _ring_blocks(rows, coin, steps):
    """Step a cycle walk ``steps`` times in halo blocks, yielding each block and its scale.

    ``rows`` is the walk at the start: the ``(2, n)`` (L, R) amplitude
    rows of the coined walk, complex, or float64 with a real coin (the
    real walk alone), or with ``coin=None`` the ``(1, n)`` masses of
    the symmetric random walk, ``d'(x) = (d(x-1) + d(x+1)) / 2``.  The
    ring steps in the dtype of ``rows``: float64 rows in real arithmetic,
    complex rows in complex arithmetic for every coin, which under a
    real coin keeps the real walk's bits (see the module docstring).
    Each yield is ``(block, shift)``: ``block`` is the ``(m, c, n)`` view
    of the walk after the next ``m`` steps, in time order (``m = B`` but
    in the last block), times ``2**shift``; the next block overwrites
    it, so copy what must outlive the block.

    The ring holds ``B + 1`` slots of ``n + 2B`` sites.  A block starts
    from a slot whose sites ``B..B+n-1`` hold the walk and whose ``B``
    halo sites per side hold its wrapped ends; step ``j`` of the block
    writes slot ``j + 1`` from slot ``j`` over sites ``j+1 .. n+2B-j-2``,
    a window one site shorter per side than the last, so no step
    copies a ghost column.  After ``B`` steps the core ``B..B+n-1`` is
    exact, and the next block runs the ring backwards from that slot:
    two slice copies refresh its halo, and the core is never copied.
    Each step's plan is cut from one window triple, ``left``, ``right``
    and ``new``: a classical step is two vector operations,
    ``(d(x-1) + d(x+1)) * 0.5``, and a coined one is :func:`_step` on
    the plan of its window, with two scratch rows, so every row is the
    per-step recurrence's row bit for bit.  The views of both ring
    directions are cut once, before the first block: the backward
    direction's plans number ``min(B, steps - B)``, so a walk of one
    block cuts none of them.

    One rule sizes every block by the bytes a slot holds, ``8 f n``,
    ``f`` the float64 entries of one site: 1 classical, 2 for real
    coined rows and 4 for complex ones.  ``B`` is ``min(n, max(8, n //
    4), 2**15 // (f n))``, and at least 1, so ``B n f <= 2**15`` and
    the B slots of a block stay within 256 KiB; past ``n = 2**15 / f``
    a block is one step.  A coined ``B`` is then the largest power of
    two not above ``min(B, 32)``, so it divides the flush period (the
    cap binds only on real rows at n = 256, where both terms are 64).
    The classical walk is never flushed, so its block need divide
    nothing; it is at most 90 steps, at n = 360 to 364, where ``n // 4``
    meets ``2**15 // n``.  From n = 32 on ``B <= n / 4``, so the windows
    of a block add at most a quarter of n to its average step.

    The first slot is scaled in place by ``2**shift`` as
    :func:`_unit_scale` says for ``rows``, and every block is at that
    scale, so its callers undo the yielded ``shift`` and never work it
    out themselves: :func:`evolve_circle` on its last row, and
    :func:`_circle_masses` on its squared rows, by ``2 * shift``.  A
    unit-norm start is scaled when its largest part lies below 1/2, as
    that of ``(1 + 1j, 1 + 1j) / 2`` rounded just short of unit norm
    does; a unit mass is not.  A coined walk is flushed below ``floor =
    2**-600 M``, ``M`` the largest real or imaginary part of the scaled
    slot, at the start of each block that starts at a multiple of 32
    steps, which are the line's flush steps, on the core of the slot
    the block starts from (see the module docstring).  The classical
    walk is not: its nonnegative masses never cancel, and only a few of
    them are subnormal (CHANGES.md records a count).
    """
    c, n = rows.shape
    b = max(1, min(n, max(8, n // 4), _RING_FLOATS * 8 // rows.nbytes))
    if coin is not None:  # a power of two, which divides the flush period
        b = 1 << (min(b, _FLUSH_EVERY).bit_length() - 1)
    width = n + 2 * b
    ring = np.zeros((b + 1, c, width), dtype=rows.dtype)
    ring[0, :, b:b + n] = rows
    shift, floor = _unit_scale(slot := ring[0].view(np.float64))
    np.ldexp(slot, shift, out=slot)
    if coin is None:
        half = np.array(0.5)
    else:
        entries = _coin_entries(coin.matrix, ring.dtype)
        # the scratch rows of a coined step, the first also of the flush
        tmp = np.empty((2, width - 2), dtype=ring.dtype)

    def face(sign, count):
        # the views of one ring direction, cut once, not every step
        slots = ring[::sign]
        first = slots[0]  # the last b core sites wrap left, the first b right
        halo = ((first[:, :b], first[:, n:n + b]), (first[:, n + b:], first[:, b:2 * b]))
        plans = []
        for j in range(count):
            # the window of step j: sites j .. n+2b-j-1 in, j+1 .. n+2b-j-2 out
            w = width - 2 * j - 2
            left, right = slots[j, :, j:j + w], slots[j, :, j + 2:j + w + 2]
            new = slots[j + 1, :, j + 1:j + w + 1]
            # coined: new L at x mixes site x + 1, new R at x site x - 1
            plans.append((*left, *right, *new) if coin is None
                         else (*right, new[0], *left, new[1], *tmp[:, :w]))
        return halo, plans, slots[1:, :, b:b + n]

    # blocks alternate between the forward and the backward direction, so
    # each starts from the slot the one before it ended on
    faces = face(1, min(b, steps)), face(-1, min(b, steps - b))
    multiply, add = np.multiply, np.add
    for start in range(0, steps, b):
        halo, plans, block = faces[start // b % 2]
        if coin is not None and start % _FLUSH_EVERY == 0:
            # the core of the slot the block starts from; its halo is copied below
            for part in ring[start // b % 2 * b, :, b:b + n]:
                _flush(part.view(np.float64), floor, tmp[0].view(np.float64))
        for halo_sites, ends in halo:
            np.copyto(halo_sites, ends)
        if steps - start < b:  # the last block
            plans, block = plans[:steps - start], block[:steps - start]
        if coin is None:
            for d_left, d_right, new in plans:
                add(d_left, d_right, new)
                multiply(new, half, new)
        else:
            _step(plans, entries)
        yield block, shift


def _circle_masses(spec, steps):
    """Yield the ``(m, n)`` site masses of a circle walk, a block of rows at a time.

    The walk is the one ``spec``, a :class:`~qwalk.stats.WalkSpec`,
    runs: with ``spec.coin=None`` the symmetric random walk from a unit
    mass at site 0, and otherwise the coined walk from the checked pair
    ``spec.init`` at site 0, where ``initial_state(init, topology)``
    puts it; the spec's fields are read as given, since the spec checked
    them when it was built.  The start rows are built here, as real rows
    where the ring steps real ones, and no wavefunction is.  The rows
    are the walk after each of a block's ``m`` steps.  The classical
    rows are a view that the next block overwrites; the coined ones are
    squared by :func:`qwalk.core._row_masses` into a new array, on which
    the ring's scale is undone in place, so they are
    ``distribution()``'s bit for bit wherever no mass is subnormal, and
    at every shift of 0.

    With a real coin, a real start steps its real parts alone, and so
    does a mirror start (see the module docstring) if the coin's entries
    pair exactly: the masses of its real walk, ``m(x)``, then become
    ``M(x) = m(x) + m(-x mod n)`` in place on sites 0 .. n // 2, as the
    complex walk's squares are summed, and copied to ``M(n - x)``, the
    same bits since an add commutes, before the scale is undone.  Every
    other start, and every complex coin, steps the complex rows.
    """
    # what the walk holds at site 0: a unit mass, or the chirality pair
    coin, pair, mirror = spec.coin, np.ones(1) if spec.coin is None else spec.init, False
    if coin is not None and not np.any(coin.matrix.imag):
        (w00, w01), (w10, w11) = coin.matrix.real.tolist()
        (re_l, re_r), (im_l, im_r) = np.abs([pair.real, pair.imag]).tolist()
        # a paired coin, and one real and one imaginary part of equal
        # magnitude on opposite chiralities (see the module docstring)
        mirror = ((w00 == w11 and w01 == -w10 or w00 == -w11 and w01 == w10)
                  and re_l == im_r and re_r == im_l and 0 in (re_l, re_r))
        if mirror or not np.any(pair.imag):
            pair = pair.real
    h = (n := spec.topology.size) // 2
    rows = np.zeros((len(pair), n), dtype=pair.dtype)
    rows[:, 0] = pair
    for block, shift in _ring_blocks(rows, coin, steps):
        masses = block[:, 0] if coin is None else _row_masses(block)
        if mirror:  # m(x) + m(-x mod n) on sites 0 .. h, then its mirror image
            masses[:, 1:h + 1] += masses[:, n - 1:n - h - 1:-1]
            masses[:, 0] += masses[:, 0]
            masses[:, h + 1:] = masses[:, n - h - 1:0:-1]
        if shift:  # a unit mass is never scaled, so this is a coined walk
            np.ldexp(masses, -2 * shift, out=masses)
        yield masses


def distribution(psi: WaveFunction) -> ProbabilityDistribution:
    """Site-observation probabilities ``|psi_L|^2 + |psi_R|^2``.

    A mass too large for float64 (an amplitude above about 1e154) is
    inf, and :class:`~qwalk.core.ProbabilityDistribution` refuses it
    with :class:`DomainError`, not an overflow warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        masses = _site_masses(psi.amplitudes)
    return ProbabilityDistribution(psi.topology, masses, psi.time)
