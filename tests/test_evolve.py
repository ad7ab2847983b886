"""Direct recurrence evolution on the line and circle."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_cli import traced_peak
from test_spectral import parts, transfer_matrix, u2_coins, unit_pairs
from test_stats import COMPLEX_COIN

from qwalk import (
    Circle,
    CoinOperator,
    DomainError,
    Line,
    WaveFunction,
    distribution,
    evolve_circle,
    evolve_line,
    evolve_spectral,
    hadamard_coin,
    initial_state,
    theta_coin,
)
from qwalk.evolve import _ring_blocks

SQRT2 = math.sqrt(2)


def test_single_step_from_left():
    psi = evolve_line(initial_state("left"), hadamard_coin(), 1)
    assert psi.time == 1
    assert psi.topology.offset == -1
    # site -1 carries (1/sqrt2, 0); site +1 carries (0, 1/sqrt2)
    assert np.allclose(psi.amplitudes[0], [1 / SQRT2, 0])
    assert np.allclose(psi.amplitudes[1], [0, 0])
    assert np.allclose(psi.amplitudes[2], [0, 1 / SQRT2])


def test_two_step_probabilities_from_left():
    psi = evolve_line(initial_state("left"), hadamard_coin(), 2)
    d = distribution(psi)
    assert np.allclose(d.sites, [-2, -1, 0, 1, 2])
    assert np.allclose(d.masses, [0.25, 0.0, 0.5, 0.0, 0.25])


def test_three_step_asymmetry_from_left():
    d = distribution(evolve_line(initial_state("left"), hadamard_coin(), 3))
    by_site = dict(zip(d.sites.tolist(), d.masses.tolist()))
    assert by_site[-3] == pytest.approx(1 / 8)
    assert by_site[-1] == pytest.approx(5 / 8)
    assert by_site[1] == pytest.approx(1 / 8)
    assert by_site[3] == pytest.approx(1 / 8)


def test_identity_coin_moves_ballistically_left():
    d = distribution(evolve_line(initial_state("left"), theta_coin(0.0), 40))
    by_site = dict(zip(d.sites.tolist(), d.masses.tolist()))
    assert by_site[-40] == pytest.approx(1.0)


def test_antidiagonal_coin_confines_the_walker():
    # theta = pi swaps chirality every step: support never leaves {-1, 0, 1}
    psi = evolve_line(initial_state("left"), theta_coin(math.pi), 25)
    d = distribution(psi)
    live = d.sites[d.masses > 1e-15]
    assert set(live.tolist()) <= {-1, 0, 1}


def test_parity_forbidden_sites_are_exact_zeros():
    psi = evolve_line(initial_state("left"), hadamard_coin(), 101)
    odd = (psi.sites + 101) % 2 == 1
    assert np.all(psi.amplitudes[odd] == 0.0)


def test_zeros_of_the_result_are_positive():
    # -1 times a +0.0 entry is -0.0, which the CSV would print as "-0"
    coin = CoinOperator(-np.eye(2))
    for adjoint in (False, True):
        psi = evolve_line(initial_state("left"), coin, 3)
        psi = evolve_line(psi, coin, 3 if adjoint else 0, adjoint=adjoint)
        values = psi.amplitudes.view(np.float64)
        assert not np.any(np.signbit(values[values == 0]))


@pytest.mark.parametrize("coin", [hadamard_coin(), theta_coin(0.7), theta_coin(2.2)])
@pytest.mark.parametrize("adjoint", [False, True])
def test_real_input_steps_the_real_parts_alone(coin, adjoint):
    # a real coin maps i psi to i U psi: the real-input path must give the
    # imaginary parts of the complex path bit for bit, with +0.0 imaginary parts
    psi = evolve_line(initial_state("left"), coin, 37 if adjoint else 0)
    steps = 37 if adjoint else 64
    real = evolve_line(psi, coin, steps, adjoint=adjoint)
    turned = evolve_line(WaveFunction(psi.topology, 1j * psi.amplitudes, psi.time),
                         coin, steps, adjoint=adjoint)
    assert real.amplitudes.real.tobytes() == turned.amplitudes.imag.tobytes()
    assert np.all(real.amplitudes.imag == 0)
    assert not np.any(np.signbit(real.amplitudes.imag))
    forbidden = real.amplitudes[(real.sites + real.time) % 2 == 1].view(np.float64)
    assert np.all(forbidden == 0) and not np.any(np.signbit(forbidden))


def test_adjoint_reverses_evolution():
    psi0 = initial_state("symmetric")
    coin = hadamard_coin()
    fwd = evolve_line(psi0, coin, 200)
    back = evolve_line(fwd, coin, 200, adjoint=True)
    assert back.time == 0
    by_site = dict(zip(back.sites.tolist(), back.amplitudes))
    assert np.max(np.abs(by_site[0] - psi0.amplitudes[0])) < 1e-12
    others = np.array([a for s, a in by_site.items() if s != 0])
    assert np.max(np.abs(others)) < 1e-12


#: The round-trip thetas of the benchmark: midpoints of four equal strata of [pi/4, 3pi/4].
ROUND_TRIP_THETAS = [math.pi / 4 + (k + 0.5) * math.pi / 8 for k in range(4)]


def test_long_walks_step_no_subnormals():
    # the tails outside the cone decay through 2**-1022; an operation
    # that underflows into a subnormal raises here
    pair = np.array([0.6, 0.8j])
    with np.errstate(under="raise"):
        for theta in ROUND_TRIP_THETAS:
            coin = theta_coin(theta)
            back = evolve_line(evolve_line(initial_state(pair), coin, 2000), coin, 2000,
                               adjoint=True)
            expected = np.zeros_like(back.amplitudes)
            expected[back.sites == 0] = pair
            assert np.max(np.abs(back.amplitudes - expected)) < 1e-12
        evolve_line(initial_state("left"), hadamard_coin(), 4000)


#: sha256 of the amplitude bytes of line walks that the CLI pins do not
#: reach, ``steps[0]`` steps forward and then ``steps[1]`` back by the
#: adjoint walk: a theta walk from a complex pair and its round trip, and
#: a 5-row complex input on Line(offset=-3) at time 50 with both parity
#: classes occupied, and a 6-row input there whose even class is real and
#: whose odd class is complex, as it is and scaled by 2**-700: under a
#: real coin each class picks its own arithmetic, the real parts alone for
#: the even class and the float64 view for the odd one, at one shared
#: scale.  A real coin gives each entry one rounded multiply or add, so
#: the bytes hold at every SIMD level, and they hold for any window the
#: kernel steps: entries past the live window are zeros.
FIVE_ROWS = WaveFunction(Line(offset=-3), np.array([
    [0.5 + 0.1j, -0.2 + 0.3j], [0.1 - 0.4j, 0.3j], [-0.25, 0.2 + 0.2j],
    [0.15j, -0.1 - 0.35j], [0.3 + 0.05j, 0.0]]), 50)
MIXED_ROWS = np.array([
    [0.5, -0.2], [0.1 - 0.4j, 0.3j], [-0.25, 0.2], [0.15j, -0.1 - 0.35j],
    [0.3, 0.45], [-0.05 + 0.2j, 0.1]])
LINE_DIGESTS = [
    (theta_coin(0.9817), initial_state(np.array([0.36 + 0.48j, 0.64 - 0.48j])), (2000, 2000),
     ("9d314f9b0b8ce1c57b5a91e94e080be7490020d9addfdf78045b85dfbfe1981b",
      "a461c0d55fca1d35306d4692658736b2b2bedc4d350864d2296a70d806949069")),
    (hadamard_coin(), FIVE_ROWS, (777, 50),
     ("c35f16d32e7c0edc9f3ee00a547a2e4f0357773594c845a486e9785a6aa2527a",
      "300fda15376fcbbd666de6dbbf685c45eaf4aab0276c0388e5128bbbd0ba3568")),
    (theta_coin(1.3), FIVE_ROWS, (777, 50),
     ("1fbc8e564dfbf820b314321af49fdd14f337ae5d9c26d74b173926e9fd890d38",
      "25cb9ee0ef42cd5ebaf9854062a6d98de1d427a9e0000f2df34028dd608477f2")),
    (theta_coin(1.3), WaveFunction(Line(offset=-3), MIXED_ROWS, 50), (777, 50),
     ("d324165ce248db6be44e81eeb7746a4388d40f4bc1e20a7b1ef96822619dfe82",
      "a23fdbdc30d6b8ead365384808d89a0839e56b043d9defb06b017eceac90a9c6")),
    (theta_coin(1.3), WaveFunction(Line(offset=-3), MIXED_ROWS * 2.0 ** -700, 50), (777, 50),
     ("f62ef1f9e0a9c20a1109338e99f74b462fe989532bd41aa3869187e895303016",
      "35dd1a71f8078f2a04ec675e7ac5a4c09c71184f0daaa62a02f5022224b8b92d")),
]


@pytest.mark.parametrize("coin, psi, steps, digests", LINE_DIGESTS,
                         ids=["theta-pair-round-trip", "hadamard-five-rows", "theta-five-rows",
                              "theta-mixed-classes", "theta-mixed-classes-tiny"])
def test_line_walk_bytes_are_pinned(coin, psi, steps, digests):
    forward = evolve_line(psi, coin, steps[0])
    back = evolve_line(forward, coin, steps[1], adjoint=True)
    got = tuple(hashlib.sha256(w.amplitudes.tobytes()).hexdigest() for w in (forward, back))
    assert got == digests


@pytest.mark.parametrize("n, t", [(8191, 6000), (4095, 4088)])
def test_long_circle_walks_step_no_subnormals(n, t):
    # on an odd cycle the class reached the long way round stays in the
    # tail outside the cone until t ~ sqrt(2) n, so the ring flushes too
    with np.errstate(under="raise"):
        psi = evolve_circle(initial_state("symmetric", Circle(n)), hadamard_coin(), t)
    assert abs(psi.norm() - 1.0) < 1e-12


#: Both kernels: the ring on a cycle the walk to t = 4000 does not wrap,
#: whose coined blocks are 1 step long, and on Circle(127), whose 15-step
#: blocks leave a last block of several rows to scale back.
SCALED_WALKS = pytest.mark.parametrize("evolve, topology", [
    (evolve_line, Line()),
    (evolve_circle, Circle(8191)),
    (evolve_circle, Circle(127)),
], ids=["line", "circle", "circle-127"])


@SCALED_WALKS
@pytest.mark.parametrize("scale, steps", [
    # the 4000-step cases keep the ids they had before steps was a parameter
    pytest.param(scale, steps, id=str(scale) if steps == 4000 else f"{scale}-{steps}-steps")
    for steps in (4000, 0, 1) for scale in (2.0 ** -900, 2.0 ** -10, 2.0 ** 900)
])
def test_evolution_commutes_with_scaling(scale, steps, evolve, topology):
    # a state scaled by a power of two gives the scaled walk bit for bit:
    # the steps see its largest part at 1/2 or above (2**-900 and 2**-10
    # are stepped scaled up, 2**900 as given) and the flush floor is
    # relative to it; an entry that underflows in the scale-back is +0.0,
    # never -0.0.  With no step taken the kernels' buffers are not the
    # input, so scaling them back in place leaves the input as it is.
    psi = initial_state(np.array([0.6, 0.8j]), topology)
    shift = math.frexp(scale)[1] - 1
    scaled = np.ldexp(psi.amplitudes.view(np.float64), shift).view(np.complex128)
    unit = evolve(psi, hadamard_coin(), steps).amplitudes
    got = evolve(WaveFunction(psi.topology, scaled, 0), hadamard_coin(), steps).amplitudes
    assert np.any(got)
    expected = np.ldexp(unit.view(np.float64), shift) + 0.0
    assert got.tobytes() == expected.view(np.complex128).tobytes()
    parts = got.view(np.float64)
    assert not np.any(np.signbit(parts[parts == 0]))


@SCALED_WALKS
def test_tiny_input_is_stepped_at_unit_scale(evolve, topology):
    # a 2**-900-scaled input is stepped at scale 1 and scaled back, so no
    # step meets a subnormal and the result is the unit walk's, scaled;
    # an entry that underflows in the scale-back is +0.0, never -0.0
    psi = initial_state(np.array([0.6, 0.8j]), topology)
    scaled = np.ldexp(psi.amplitudes.view(np.float64), -900).view(np.complex128)
    unit = evolve(psi, hadamard_coin(), 4000).amplitudes
    tiny = evolve(WaveFunction(psi.topology, scaled, 0), hadamard_coin(), 4000).amplitudes
    assert np.any(tiny)
    expected = np.ldexp(unit.view(np.float64), -900) + 0.0
    assert tiny.tobytes() == expected.view(np.complex128).tobytes()
    parts = tiny.view(np.float64)
    assert not np.any(np.signbit(parts[parts == 0]))


@pytest.mark.parametrize("evolve, topology, coin, steps, extra, per_row", [
    (evolve_line, Line(), theta_coin(0.9), 4000, {"adjoint": True}, 216),
    (evolve_line, Line(), theta_coin(0.9), 100, {}, 112),
    (evolve_circle, Circle(2047), hadamard_coin(), 2000, {}, 224),
], ids=["line-adjoint", "line-forward", "circle"])
def test_kernels_hold_no_copy_of_the_input(evolve, topology, coin, steps, extra, per_row):
    # traced bytes per input row, on an input with every site of a class
    # occupied (8001 rows on the line, all 2047 sites of the cycle).  The
    # line holds its result, the class buffer of four half-width rows and
    # the frozen result, 32 B a result row each: about 2 result rows an
    # input row on the way back to t = 0 (200 B traced) and 1 to t = 100
    # (103 B).  The ring at n = 2047 holds 5 slots of 32 B a site, then
    # the frozen result (198 B).  A 32 B scaled copy of the input, or a
    # second copy of the result, does not fit.
    psi = evolve(initial_state(np.array([0.6, 0.8j]), topology), coin, 4000)
    peak = traced_peak(lambda: evolve(psi, coin, steps, **extra))
    assert peak <= per_row * len(psi.amplitudes)


def test_adjoint_cannot_rewind_past_origin():
    psi = evolve_line(initial_state("left"), hadamard_coin(), 3)
    with pytest.raises(DomainError):
        evolve_line(psi, hadamard_coin(), 4, adjoint=True)


def test_negative_steps_rejected():
    with pytest.raises(DomainError):
        evolve_line(initial_state("left"), hadamard_coin(), -1)


def test_topology_mismatch_rejected():
    with pytest.raises(DomainError):
        evolve_line(initial_state("left", Circle(5)), hadamard_coin(), 1)
    with pytest.raises(DomainError):
        evolve_circle(initial_state("left"), hadamard_coin(), 1)


def test_circle_single_step():
    psi = evolve_circle(initial_state("left", Circle(9)), hadamard_coin(), 1)
    assert np.allclose(psi.amplitudes[1], [0, 1 / SQRT2])
    assert np.allclose(psi.amplitudes[8], [1 / SQRT2, 0])


def test_circle_wraps_after_half_size():
    # beyond n/2 steps the fold produces genuine interference, norm stays 1
    psi = evolve_circle(initial_state("left", Circle(5)), hadamard_coin(), 10)
    assert abs(psi.norm() - 1.0) < 1e-12


@pytest.mark.parametrize("coin", [
    CoinOperator(-np.eye(2)),
    theta_coin(1.2),
    CoinOperator(-theta_coin(1.2).matrix),
], ids=["minus-identity", "theta", "minus-theta"])
def test_circle_parity_zeros_are_positive(coin):
    # the in-place step multiplies +0.0 by negative coin entries; on an
    # even cycle the forbidden class stays empty at every t
    n = 8
    for t in range(3 * n):
        psi = evolve_circle(initial_state("symmetric", Circle(n)), coin, t)
        forbidden = psi.amplitudes[(np.arange(n) + t) % 2 == 1]
        assert np.all(forbidden == 0)
        values = psi.amplitudes.view(np.float64)
        assert not np.any(np.signbit(values[values == 0]))


@pytest.mark.parametrize("coin, init", [
    (hadamard_coin(), "left"),
    (hadamard_coin(), "symmetric"),
    (theta_coin(1.3), np.array([0.36 + 0.48j, 0.64 - 0.48j])),
    (COMPLEX_COIN, "symmetric"),
], ids=["real-rows", "float64-view", "theta-complex-pair", "complex"])
def test_circle_walk_in_one_step_blocks_is_the_folded_line_walk(coin, init):
    # n = 8193 is past the ring's budget, so every block is one step; at
    # t = 1000 nothing wraps.  The cases step real rows, the float64 view of
    # a generic complex pair and complex arithmetic: each compares two
    # kernels of one run, so it holds at every SIMD level
    n, t = 8193, 1000
    line = evolve_line(initial_state(init), coin, t)
    circ = evolve_circle(initial_state(init, Circle(n)), coin, t)
    folded = np.zeros((n, 2), dtype=np.complex128)
    folded[line.sites % n] = line.amplitudes
    assert circ.amplitudes.tobytes() == folded.tobytes()


#: random U(2) coins (QR of complex Gaussian matrices) and generic complex pairs
RANDOM_U2 = [CoinOperator(np.linalg.qr(z)[0])
             for z in np.random.default_rng(44).normal(size=(4, 2, 2, 2)) @ [1, 1j]]
RANDOM_PAIRS = np.random.default_rng(45).normal(size=(5, 2, 2)) @ [1, 1j]


@pytest.mark.parametrize("coin, init, n, t", [
    # the coined blocks 2, 4, 8, 16 and 32, each a divisor of the flush period
    *[pytest.param(COMPLEX_COIN, np.array([0.6, 0.8j]), n, (n - 1) // 2, id=f"B{b}-{n}")
      for b, n in ((2, 4001), (4, 2047), (8, 1024), (16, 512), (32, 256))],
    # cycles where blocks of 7, 5 and 3 steps would flush off the line's steps
    *[pytest.param(theta_coin(theta), "left", n, (n - 1) // 2, id=f"theta{theta}-{n}")
      for n in (1100, 1500, 2730) for theta in (2.2, 2.6, 2.9)],
    # one step from a parity class of one entry on the line
    *[pytest.param(coin, pair / np.linalg.norm(pair), 127, 1, id=f"u2-{i}-pair{j}")
      for i, coin in enumerate(RANDOM_U2) for j, pair in enumerate(RANDOM_PAIRS)],
])
def test_every_cycle_walk_is_the_folded_line_walk(coin, init, n, t):
    # for every coin, block length and start, until the walk wraps; both
    # walks run in one process, so this holds at every SIMD level
    line = evolve_line(initial_state(init), coin, t)
    circ = evolve_circle(initial_state(init, Circle(n)), coin, t)
    folded = np.zeros((n, 2), dtype=np.complex128)
    folded[line.sites % n] = line.amplitudes
    assert circ.amplitudes.tobytes() == folded.tobytes()


def test_distribution_normalises_and_sites_align():
    psi = evolve_line(initial_state("left"), hadamard_coin(), 100)
    d = distribution(psi)
    assert d.masses.sum() == pytest.approx(1.0, abs=1e-12)
    assert d.sites[0] == -100 and d.sites[-1] == 100
    assert np.all(d.masses >= 0)


# --- property tests over random U(2) coins and states ----------------------


@st.composite
def line_states(draw):
    """Mixed-parity amplitudes (or a single parity class) at any offset and time."""
    n = draw(st.integers(1, 12))
    amps = np.array(draw(st.lists(parts, min_size=4 * n, max_size=4 * n)))
    amps = (amps[0::2] + 1j * amps[1::2]).reshape(n, 2)
    keep = draw(st.sampled_from(["both", "even", "odd"]))
    if keep != "both":
        amps[(np.arange(n) % 2 == 0) == (keep == "odd")] = 0
    offset = draw(st.integers(-20, 20))
    return WaveFunction(Line(offset), amps, draw(st.integers(0, 50)))


def per_site_walk(psi, u, steps):
    """The walk written out site by site: coin, then L moves left, R right."""
    amps, offset = psi.amplitudes, psi.topology.offset
    for _ in range(steps):
        new = np.zeros((amps.shape[0] + 2, 2), dtype=np.complex128)
        for j, pair in enumerate(amps):
            left, right = u @ pair
            new[j, 0] += left  # site offset + j - 1 is row j after the shift
            new[j + 2, 1] += right
        amps, offset = new, offset - 1
    return amps, offset


@settings(max_examples=60, deadline=None)
@given(u2_coins(), line_states(), st.integers(0, 40))
def test_evolve_line_matches_per_site_recurrence(coin, psi, steps):
    out = evolve_line(psi, coin, steps)
    amps, offset = per_site_walk(psi, coin.matrix, steps)
    assert out.time == psi.time + steps
    assert out.topology.offset == offset
    assert out.amplitudes.shape == amps.shape
    assert np.max(np.abs(out.amplitudes - amps), initial=0.0) < 1e-12


@settings(max_examples=60, deadline=None)
@given(u2_coins(), line_states(), st.integers(0, 40))
def test_adjoint_undoes_forward(coin, psi, steps):
    back = evolve_line(evolve_line(psi, coin, steps), coin, steps, adjoint=True)
    n = psi.amplitudes.shape[0]
    assert back.time == psi.time
    assert back.topology.offset == psi.topology.offset - 2 * steps
    inner = back.amplitudes[2 * steps:2 * steps + n]
    assert np.max(np.abs(inner - psi.amplitudes)) < 1e-12
    outer = np.concatenate([back.amplitudes[:2 * steps], back.amplitudes[2 * steps + n:]])
    assert np.max(np.abs(outer), initial=0.0) < 1e-12


@settings(max_examples=60, deadline=None)
@given(u2_coins(), st.tuples(parts, parts, parts, parts), st.integers(0, 40),
       st.integers(0, 40))
def test_origin_start_forbidden_sites_are_positive_zeros(coin, pair, steps, back):
    psi = WaveFunction(Line(), [[pair[0] + 1j * pair[1], pair[2] + 1j * pair[3]]])
    psi = evolve_line(psi, coin, steps)
    psi = evolve_line(psi, coin, min(back, steps), adjoint=True)
    forbidden = psi.amplitudes[(psi.sites + psi.time) % 2 == 1].view(np.float64)
    assert np.all(forbidden == 0) and not np.any(np.signbit(forbidden))


SYMMETRIC = initial_state("symmetric").amplitudes[0]


@st.composite
def state_pairs(draw):
    """Two random multi-site states on one line window or on one cycle."""
    n = draw(st.integers(3, 12))
    raw = np.array(draw(st.lists(parts, min_size=8 * n, max_size=8 * n)))
    amps = (raw[0::2] + 1j * raw[1::2]).reshape(2, n, 2)
    topology = draw(st.sampled_from([Line(draw(st.integers(-20, 20))), Circle(n)]))
    return [WaveFunction(topology, a) for a in amps]


@settings(max_examples=60, deadline=None)
@given(u2_coins(), state_pairs(), st.integers(0, 40))
def test_walk_preserves_inner_products(coin, states, steps):
    # unitarity beyond the norm: <U phi, U psi> = <phi, psi>
    phi, psi = states
    evolve = evolve_circle if isinstance(phi.topology, Circle) else evolve_line
    before = np.vdot(phi.amplitudes, psi.amplitudes)
    after = np.vdot(evolve(phi, coin, steps).amplitudes, evolve(psi, coin, steps).amplitudes)
    assert abs(after - before) < 1e-12


@settings(max_examples=30, deadline=None)
@given(u2_coins(), unit_pairs())
@example(hadamard_coin(), SYMMETRIC)
def test_norm_conserved_along_the_walk(coin, pair):
    psi = initial_state(pair)
    for _ in range(300):
        psi = evolve_line(psi, coin, 1)
        assert abs(psi.norm() - 1.0) < 1e-12


#: A cycle size n in 3..40 and a time t < n // 2, before the walk wraps.
sizes_before_wrap = st.integers(3, 40).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, n // 2 - 1)))


@settings(max_examples=60, deadline=None)
@given(u2_coins(), unit_pairs(), sizes_before_wrap)
@example(hadamard_coin(), SYMMETRIC, (31, 14))
@example(CoinOperator(np.diag([np.exp(0.3j), np.exp(-1.9j)])),
         np.array([0.36 + 0.48j, 0.64 - 0.48j]), (4, 1))
def test_circle_matches_folded_line(coin, pair, size_and_time):
    # before wraparound interference the circle walk is the line walk mod n,
    # bit for bit: the second example steps a complex coin once from a line
    # class of one entry
    n, t = size_and_time
    line = evolve_line(initial_state(pair), coin, t)
    circ = evolve_circle(initial_state(pair, Circle(n)), coin, t)
    folded = np.zeros((n, 2), dtype=np.complex128)
    for site, amp in zip(line.sites.tolist(), line.amplitudes):
        folded[site % n] += amp
    assert circ.amplitudes.tobytes() == folded.tobytes()


@settings(max_examples=60, deadline=None)
@given(u2_coins(), unit_pairs(), st.integers(3, 40), st.data())
def test_evolve_circle_matches_fourier_oracle(coin, pair, n, data):
    # on Circle(n) the walk is diagonal in k = 2 pi j / n: each origin-start
    # mode evolves as M_k^t (a, b), and psi(x) = (1/n) sum_j e^{-ikx} of it
    t = data.draw(st.integers(0, 3 * n))
    psi = evolve_circle(initial_state(pair, Circle(n)), coin, t)
    k = 2 * np.pi * np.arange(n) / n
    modes = np.linalg.matrix_power(transfer_matrix(coin, k), t) @ pair
    expected = np.fft.fft(modes, axis=0) / n
    assert psi.time == t
    assert np.max(np.abs(psi.amplitudes - expected)) < 1e-12
    assert abs(psi.norm() - 1.0) < 1e-12


@settings(max_examples=60, deadline=None)
@given(u2_coins(), unit_pairs(), st.integers(3, 40), st.data())
def test_spectral_matches_recurrence_on_line_and_circle(coin, pair, n, data):
    t = data.draw(st.integers(0, 3 * n))
    for topology, evolve in ((Line(), evolve_line), (Circle(n), evolve_circle)):
        psi0 = initial_state(pair, topology)
        exact = evolve(psi0, coin, t)
        spectral = evolve_spectral(psi0, coin, t)
        assert spectral.topology == exact.topology and spectral.time == t
        assert np.max(np.abs(spectral.amplitudes - exact.amplitudes)) < 1e-12


@pytest.mark.parametrize("n, real", [
    pytest.param(n, real, id=f"real-{n}" if real else str(n))
    for real in (False, True) for n in (3, 8, 64, 248, 255, 256, 257, 264, 511, 2047)])
def test_coined_ring_blocks_are_at_most_32_steps(n, real):
    # a coined block is the largest power of two not above 32 and the
    # budget's bound, so it divides the flush period and the ring flushes
    # at the line's steps.  Real rows need the cap: at n = 256 both
    # max(8, n // 4) and 2**15 // (2 n) are 64
    rows = initial_state("left", Circle(n)).amplitudes.T
    rows = rows.real if real else rows
    assert 32 % len(next(_ring_blocks(rows, hadamard_coin(), 64))[0]) == 0
