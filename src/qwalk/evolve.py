"""Direct time evolution by the two-term recurrence.

One step sends ``psi(n, t+1) = M+ psi(n-1, t) + M- psi(n+1, t)``.  On
the line the support grows by one site per side per step and is stored
densely, in the co-moving frame of :func:`evolve_line`; on the circle
the indices wrap mod n, in the halo-block ring of :func:`_ring_blocks`.
Inputs are never mutated.  :func:`_step` is the only code that
multiplies or adds coin entries, and :func:`_coin_entries` types them
for the rows a kernel steps.

Fold rule.  Both kernels hand :func:`_step` the windows they cut, flush
at the same steps (below) and cut no window shorter than 2 entries,
because numpy's in-place complex multiply takes another loop for a
1-element array; the line cuts its windows around each flush period's
live pairs, and any entry a window holds past them is zero
(:func:`_mix_steps`).  So numpy takes the same loop for
every multiply and add of both, and every cycle walk, for every coin,
start and cycle size, is the line walk folded onto the cycle bit for
bit until it wraps.

SIMD contract.  A real coin's entries have an imaginary part of exactly
0, so each float64 part of a step takes one rounded multiply or add at
every SIMD level numpy dispatches to, and complex rows keep the real
walk's bits, up to the sign of an exact zero.  So the recurrence of a
real coin, and the mirrored masses of :func:`_circle_masses`, have the
same bits at every level.  A complex coin's recurrence does not:
numpy's complex multiply fuses the multiply-add where the CPU has FMA.
The fold rule compares two kernels of one run, so it holds at every
level for every coin.

Underflow policy.  Far outside the cone the amplitudes decay
exponentially, and float64 arithmetic on the subnormals below
2**-1022 is many times slower.  So each kernel takes the floor of
:func:`_unit_scale`, ``2**-600 M`` with ``M`` the largest real or
imaginary part of the scaled input, and before every 32nd step,
starting with the first, sets each real or imaginary part below it to
+0.0 (:func:`_flush`); the line flushes only the pairs the period
before could have left nonzero, and every other entry is already an
exact zero (:func:`_mix_steps`).  A flush touches at most ``4 width``
float64 entries, ``width`` the line's ``n + 2 steps`` sites or the cycle's n,
so it moves the state by less than ``2 sqrt(width) floor`` in 2-norm,
and the steps are unitary: the result moves by at most
``ceil(steps / 32) * 2 sqrt(width) * floor``.  A step shrinks an entry
by at most a factor ``c``, the smallest nonzero real or imaginary part
of a coin entry, so, cancellation aside, no subnormal is stepped while
``floor * c**32 >= 2**-1022``: with the floor of at least 2**-601 that
the scale rule gives, for every coin with ``c >= 1.1e-4``.  The
classical walk on the ring is not flushed (:func:`_ring_blocks`).

Amplitudes at sites with ``n + t`` odd (origin start) stay exactly
zero, and the results hold them as +0.0, as every
:class:`~qwalk.core.WaveFunction` holds its zeros.
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
    _check_walk,
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
#: Bytes of a cache line: the line kernel's rows and windows start on one.
_LINE = 64


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
    input is skipped (an origin start pays for half the sites).  Both
    classes share one :func:`_unit_scale` and so one flush floor.
    Memory is O(n + 2 steps); a step costs six in-place vector
    operations per occupied parity class, over at most about ``(n + 2s)
    / 2`` entries, the live ones (:func:`_mix_steps` gives the windows
    and the arithmetic).  A one-row mirror start under a paired real
    coin, such as ``"symmetric"`` under the Hadamard or a theta coin,
    steps its real walk alone, on real rows of one float64 part an entry
    where its complex rows would step two, and writes each imaginary
    column as the other column's real parts reversed, times the sign
    :func:`_mirror` gives: half the arithmetic, the same bytes.

    The rounding error grows about as ``t**(2/3)``: from the left start,
    every amplitude of the Hadamard walk lies within ``eps t**(2/3)``,
    ``eps = 2**-52``, of the exact walk in integers (``tests/exact.py``),
    which the tests check at t = 100, 500, 1000 and 2000.
    """
    _check_walk(psi, coin, on=Line)
    steps = check_steps(steps)
    if adjoint and steps > psi.time:
        raise DomainError("cannot rewind past t = 0")

    amps = psi.amplitudes
    shift, floor = _unit_scale(amps.view(np.float64))
    # one row whose imaginary walk is its real walk mirrored steps the real walk alone
    if sign := len(amps) == 1 and _mirror(coin.matrix, amps[0], steps):
        amps = amps.real
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

    if sign:  # Im L(o + x) = sign Re R(o - x) and Im R(o + x) = -sign Re L(o - x)
        np.multiply(out.real[::-1, 1], sign, out=out.imag[:, 0])
        np.multiply(out.real[::-1, 0], -sign, out=out.imag[:, 1])
    if shift:
        np.ldexp(parts := out.view(np.float64), -shift, out=parts)
    t = psi.time - steps if adjoint else psi.time + steps
    return WaveFunction(Line(offset=psi.topology.offset - steps), out, t)


def _unit_scale(parts):
    """``(shift, floor)``: how a kernel steps the float64 array ``parts`` at unit scale.

    The one scale rule of both kernels.  ``M``, the largest magnitude in
    ``parts``, times ``2**shift`` lies in [1/2, 1) if ``M`` lies in (0,
    1/2), as for a unit-norm start such as ``(1 + 1j, 1 + 1j) / 2``
    rounded just short of unit norm; for any other ``M`` the shift is 0,
    so nothing is scaled down and the steps see ``M >= 1/2``.  ``floor =
    2**-600 M 2**shift``, at least 2**-601, is the flush floor of the
    scaled walk.  The kernel scales the buffer it has filled from the
    input in place, ``np.ldexp(view, shift, out=view)``, so the input is
    never copied, and its result back by ``-shift``.  A power of two
    scales exactly, and with the floor relative to ``M`` every step at
    the scaled magnitude is the scaled step, so a scaled input gives the
    scaled result bit for bit, up to the one rounding of the scale-back.
    A negative entry that underflows there leaves -0.0, which
    :class:`~qwalk.core.WaveFunction` holds as +0.0.
    """
    big = np.max(np.abs(parts), initial=0.0)
    shift = max(0, -int(np.frexp(big)[1]))
    return shift, _FLUSH_FLOOR * np.ldexp(big, shift)


def _coin_entries(matrix, dtype):
    """``(w00, w01, w10, w11)`` of a 2x2 coin matrix, typed for the rows they step.

    Each kernel steps its rows in their own dtype, ``dtype``: float64
    rows, in real arithmetic, take the real parts, so a kernel steps
    them only under a real coin (no entry with a nonzero imaginary
    part), and complex rows take the entries as they are.
    Each is a 0-d array: a ufunc converts a numpy scalar operand to an
    array anew on every call, and on windows of a few thousand entries
    that conversion is a measurable share of the step.
    """
    return tuple(map(np.array, (matrix.real if dtype == np.float64 else matrix).ravel()))


def _flush(parts, floor, scratch):
    """Set each entry of the float64 array ``parts`` below ``floor`` in magnitude to +0.0.

    ``scratch`` is a float64 buffer at least as long, overwritten: an
    absolute value, a comparison and a masked copy.  Returns the mask it
    flushed, ``|parts| < floor``, which is False at a NaN: the line
    kernel reads its live pairs off it, and the ring ignores it.
    """
    np.copyto(parts, 0.0, where=(low := np.abs(parts, out=scratch[:len(parts)]) < floor))
    return low


def _step(plans, entries):
    """Apply one step of ``(a, b) <- mix (a, b)`` for each plan, in order: the only coin arithmetic.

    A plan is ``(a_r, b_r, a', a_l, b_l, b', x, y)``: it writes ``a' =
    w00 a_r + w01 b_r`` and ``b' = w10 a_l + w11 b_l`` through the
    scratch windows ``x`` and ``y``, as the six ufunc calls with
    positional outputs of ``x = b_r w01; y = a_l w10; a' = a_r w00 + x;
    b' = b_l w11 + y``, so both kernels share every operand and its
    order.  The order is also safe in place, where the line
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
    The rows ``a, b`` and two scratch rows each start on a 64-byte cache
    line and hold at least ``E + _FLUSH_EVERY`` class entries, ``E = n +
    steps``: ``a`` from entry 0 and ``b`` from entry ``steps``.  They
    are scaled in place by ``2**shift`` and stepped by ``(a, b) <- mix
    (a, b)`` for ``s = first .. first+steps-1``, and the first E entries
    of ``a`` and ``b`` are returned, at that scale.  At step ``s`` entry
    ``i`` of ``a`` and entry ``i + steps - s`` of ``b`` form pair ``i``,
    and the window covers the ``k_s = n + s`` pairs from 0, which end in
    ``b`` at entry E.

    The steps run a flush period of ``_FLUSH_EVERY`` steps at a time.
    A step writes pair ``i`` from pairs ``i`` and ``i - 1`` of the step
    before, so after a period every pair outside its window grown by
    one pair to the right holds +-0.  At the period's first step the
    span that may be live, that grown window (or the input's ``n +
    first`` pairs in the first period), is flushed below ``floor`` in
    ``a`` and in ``b`` through the scratch row ``t1`` (:func:`_flush`),
    and a pair is live if any part of its entries was not flushed, so a
    NaN or an inf is live and the walk that made it is still refused;
    a byte search of the AND of the two masks, from each end, finds the
    first and the last live pair.  Over the period the live pairs never start
    further left and end at most one pair further right a step.  Every
    step of the period runs over one window of pairs: from the first
    live pair, rounded down to a cache line of ``a``, to the last live
    pair grown by the period's later steps, and at least 2 pairs, so it
    ends at most at the ``K = n + s`` pairs of the period's last step
    ``s``, or one pair past ``K``.  ``a`` and the scratch windows are
    cut there once a period, so all three start on a cache line, and
    ``b`` once a step; a period with no live pair ends the walk, whose
    pairs then all hold +-0 and step to +-0.  ``b``'s window runs at
    most ``_FLUSH_EVERY`` entries past E, into the padding.  Every pair
    but the live ones holds +-0: the flush zeroed the dead ones in its
    span, the pairs outside it were stepped only as zeros or never, and
    ``a[k_s:]`` lies past ``a``'s window and pairs with entries of ``b``
    at or past E.  Stepping a pair of zeros
    writes +-0, and when the live pairs later grow over one, a +-0
    operand leaves every nonzero result bit for bit (``x + 0 = x``,
    ``0 w = 0``); only the sign of an exact zero can change, which
    :class:`~qwalk.core.WaveFunction` holds as +0.0.  So a live entry
    takes the same bits in every window of 2 or more entries, for every
    coin, as the module's fold rule needs.  :func:`_step` steps the
    period's plans with the entries of ``mix``.
    """
    real = not np.any(mix.imag)
    # a real coin never mixes real and imaginary parts: with no
    # imaginary input there is nothing to step but the real parts
    if real and not (np.any(a_in.imag) or np.any(b_in.imag)):
        a_in, b_in = a_in.real, b_in.real
    n = len(a_in)
    # four rows of whole cache lines, from the first line of the buffer
    size = -(-(n + steps + _FLUSH_EVERY) * a_in.itemsize // _LINE) * _LINE
    raw = np.zeros(4 * size + _LINE, dtype=np.uint8)
    work = raw[(skip := -raw.ctypes.data % _LINE):skip + 4 * size].view(a_in.dtype).reshape(4, -1)
    work[0, :n] = a_in
    work[1, steps:steps + n] = b_in
    parts = work.view(np.float64)
    if shift:
        np.ldexp(parts, shift, out=parts)
    rows = parts if real else work
    entries = _coin_entries(mix, rows.dtype)
    f = rows.shape[1] // work.shape[1]  # view entries per class entry
    g = rows.itemsize // 8  # float64 parts per view entry
    line = _LINE // rows.itemsize  # view entries per cache line
    a, b, t1, t2 = rows
    p0, p1 = 0, f * (n + first)  # the span that may be live: the input's pairs
    for start in range(first, first + steps, _FLUSH_EVERY):
        m = min(_FLUSH_EVERY, first + steps - start)  # the period's steps
        lo = f * (steps - start)
        # a float64 part is dead where both windows flushed it
        dead = _flush(a[p0:p1].view(np.float64), floor, t1.view(np.float64))
        dead &= _flush(b[lo + p0:lo + p1].view(np.float64), floor, t1.view(np.float64))
        mask = dead.tobytes()  # one byte a part, 0 where it is live
        if (head := mask.find(0)) < 0:
            break  # no live pair, and zeros step to zeros
        tail = mask.rfind(0)
        i0 = (p0 + head // g) // line * line
        i1 = max(f * ((p0 + tail // g) // f + m), i0 + 2 * f)
        av, x, y = a[i0:i1], t1[i0:i1], t2[i0:i1]
        plans = []
        for j in range(lo, lo - f * m, -f):
            bv = b[j + i0:j + i1]
            plans.append((av, bv, av, av, bv, bv, x, y))
        _step(plans, entries)
        p0, p1 = i0, i1 + f  # b moves one pair right of a after each step
    return work[0, :n + steps], work[1, :n + steps]


def _mirror(matrix, pair, steps):
    """The sign that maps the real walk of a mirror start onto its imaginary walk, or 0.

    A real coin never mixes real and imaginary parts, so they evolve as
    two independent real walks.  ``pair``, the start at one site ``o``,
    is a mirror start if it holds a real part on one chirality and an
    imaginary part of equal magnitude on the other, as the named start
    ``"symmetric"``, ``(1, i)/sqrt2``, does; ``matrix``, a real coin, is
    paired if its entries pair exactly: ``w00 = w11, w01 = -w10`` (every
    theta coin, ``e = 1``) or ``w00 = -w11, w01 = w10`` (the Hadamard
    coin, ``e = -1``).  Then the reflection ``Q``, ``(Q psi)(o + x) =
    (psi_R, -psi_L)(o - x)``, takes the coin to ``e`` times itself and
    commutes with the shift, so it commutes with a forward or adjoint
    step up to the factor ``e``.  The imaginary walk is ``c Q`` of the
    real one at the start and ``c e**steps Q`` of it after ``steps``
    steps: ``Im L(o + x) = s Re R(o - x)`` and ``Im R(o + x) = -s Re
    L(o - x)``, with ``s = c e**steps`` returned and ``c = sign(Im L -
    Im R) sign(Re L + Re R)`` of the pair.
    This is the reflection behind ``P(x) = P(-x)`` (Tregenna, Flanagan,
    Maile and Kendon, New J. Phys. 5, 83, 2003), and it holds bit for
    bit, up to the sign of an exact zero: ``Q`` only flips signs and
    swaps the summands of each step, and an add commutes.  Entries that
    pair only to the last bit, as those of a QR-drawn orthogonal coin
    often do, do not pair, and every other pair, a zero one included,
    and every complex coin give 0.  :func:`evolve_line` steps a one-row
    mirror start's real walk alone, and :func:`_circle_masses` the real
    walk of a mirror start on the cycle.
    """
    if np.any(matrix.imag):
        return 0
    (w00, w01), (w10, w11) = matrix.real.tolist()
    (re_l, re_r), (im_l, im_r) = pair.real.tolist(), pair.imag.tolist()
    e = 1 if w00 == w11 and w01 == -w10 else -1 if w00 == -w11 and w01 == w10 else 0
    if e and abs(re_l) == abs(im_r) and abs(re_r) == abs(im_l) and 0 in (re_l, re_r):
        return e ** steps * np.sign(im_l - im_r) * np.sign(re_l + re_r)
    return 0


def evolve_circle(psi: WaveFunction, coin: CoinOperator, steps: int) -> WaveFunction:
    """Evolve a circle wavefunction; same recurrence with indices mod n.

    For ``steps < floor(n/2)`` the result is the line evolution folded
    mod n (the wrapped-around unbounded-line wavefunction), bit for bit
    by the module's fold rule.  The result is the last row of the last
    block of :func:`_ring_blocks`, scaled back in place by the shift the
    ring yields with it: memory is O(n), with no intermediate
    wavefunction and no copy of the input.  Under a real coin, input
    with no nonzero imaginary part steps its real parts alone, a view of
    the input, at half the work, and the result's imaginary parts are
    +0.0; any other input steps its complex rows.
    """
    _check_walk(psi, coin, on=Circle)
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
    if shift:
        np.ldexp(parts := block[-1].view(np.float64), -shift, out=parts)
    return WaveFunction(psi.topology, block[-1].T, psi.time + steps)


def _ring_blocks(rows, coin, steps):
    """Step a cycle walk ``steps`` times in halo blocks, yielding each block and its scale.

    ``rows`` is the walk at the start: the ``(2, n)`` (L, R) amplitude
    rows of the coined walk, complex, or float64 with a real coin (the
    real walk alone), or with ``coin=None`` the ``(1, n)`` masses of
    the symmetric random walk, ``d'(x) = (d(x-1) + d(x+1)) / 2``, and
    the ring steps in the dtype of ``rows``.  Each yield is ``(block,
    shift)``: ``block`` is the ``(m, c, n)`` view of the walk after the
    next ``m`` steps, in time order (``m = B`` but in the last block),
    times ``2**shift``; the next block overwrites it, so copy what must
    outlive the block.

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

    The first slot is scaled in place by :func:`_unit_scale` of
    ``rows``, and every block is at that scale, so its callers undo the
    yielded ``shift`` and never work it out themselves:
    :func:`evolve_circle` on its last row, and :func:`_circle_masses` on
    its squared rows, by ``2 * shift``.  A coined walk is flushed at the
    start of each block that starts at a multiple of 32 steps, the
    line's flush steps, on the core of the slot the block starts from,
    so its halo is copied flushed.  The classical walk is not: its
    nonnegative masses never cancel, and only a few of them are
    subnormal.
    """
    c, n = rows.shape
    b = max(1, min(n, max(8, n // 4), _RING_FLOATS * 8 // rows.nbytes))
    if coin is not None:  # a power of two, which divides the flush period
        b = 1 << (min(b, _FLUSH_EVERY).bit_length() - 1)
    width = n + 2 * b
    ring = np.zeros((b + 1, c, width), dtype=rows.dtype)
    ring[0, :, b:b + n] = rows
    shift, floor = _unit_scale(slot := ring[0].view(np.float64))
    if shift:
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

    A real coin never mixes real and imaginary parts, so a real start
    steps its real parts alone.  So does a mirror start under a paired
    coin, as :func:`_mirror` states them, whose imaginary walk is the
    real one reflected, ``x -> -x`` with L and R swapped, up to signs.
    So the masses of the real walk, ``m(x)``, become ``M(x) = m(x) +
    m(-x mod n)`` in place on sites 0 .. n // 2, as the complex walk's
    squares are summed, and are copied to ``M(n - x)``, the same bits
    since an add commutes, before the scale is undone: they are
    ``distribution()``'s bit for bit, because the reflection only flips
    signs and swaps summands.  Every other start, and every complex
    coin, steps the complex rows.
    """
    # what the walk holds at site 0: a unit mass, or the chirality pair
    coin, pair, mirror = spec.coin, np.ones(1) if spec.coin is None else spec.init, 0
    if coin is not None and not np.any(coin.matrix.imag):
        if (mirror := _mirror(coin.matrix, pair, 0)) or not np.any(pair.imag):
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
    _check_walk(psi)
    with np.errstate(over="ignore", invalid="ignore"):
        masses = _site_masses(psi.amplitudes)
    return ProbabilityDistribution(psi.topology, masses, psi.time)
