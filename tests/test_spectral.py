"""Fourier-domain route: transfer matrices, closed-form powers, exact evolution."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
from qwalk.spectral import _dispersion, _propagate, _split

SQRT2 = math.sqrt(2)

# random U(2) coins and unit (L, R) pairs, shared by the property tests
angles = st.floats(-math.pi, math.pi)
parts = st.floats(-1.0, 1.0)


@st.composite
def u2_coins(draw):
    """A random U(2) coin; about half are real and take the float64 path."""
    phi = draw(angles)
    c, s = math.cos(phi), math.sin(phi)
    if draw(st.booleans()):
        sign = draw(st.sampled_from([1.0, -1.0]))
        matrix = np.array([[c, s], [-sign * s, sign * c]])
    else:
        alpha, beta, gamma = draw(angles), draw(angles), draw(angles)
        matrix = np.exp(1j * alpha) * np.array([
            [np.exp(1j * beta) * c, np.exp(1j * gamma) * s],
            [-np.exp(-1j * gamma) * s, np.exp(-1j * beta) * c],
        ])
    return CoinOperator(matrix)


@st.composite
def unit_pairs(draw):
    z = np.array(draw(st.tuples(parts, parts, parts, parts)))
    assume(np.linalg.norm(z) > 0.1)
    pair = z[0::2] + 1j * z[1::2]
    return pair / np.linalg.norm(pair)


def transfer_matrix(coin, k):
    """The oracle ``M_k = diag(e^{-ik}, e^{ik}) U``: shape (2, 2), or (..., 2, 2) for array k."""
    k = np.asarray(k)[..., None, None]
    return np.exp(1j * k * np.array([[-1.0], [1.0]])) * coin.matrix


def test_transfer_matrix_is_unitary_everywhere():
    rng = np.random.default_rng(3)
    for coin in (hadamard_coin(), theta_coin(0.7), theta_coin(2.4)):
        for k in rng.uniform(-math.pi, math.pi, 100):
            m = transfer_matrix(coin, k)
            assert np.max(np.abs(m.conj().T @ m - np.eye(2))) < 1e-14


def test_hadamard_transfer_matrix_entries():
    k = 0.37
    m = transfer_matrix(hadamard_coin(), k)
    expect = np.array(
        [[np.exp(-1j * k), np.exp(-1j * k)], [np.exp(1j * k), -np.exp(1j * k)]]
    ) / SQRT2
    assert np.max(np.abs(m - expect)) < 1e-15


def trace_of_power(coin, k, t):
    """``tr M_k^t`` from ``_propagate`` applied to the two basis vectors."""
    return (_propagate(coin, k, np.array([1.0, 0.0]), t)[..., 0]
            + _propagate(coin, k, np.array([0.0, 1.0]), t)[..., 1])


def test_dispersion_hadamard_branch():
    # eigenvalues e^{-i w_k} and -e^{i w_k}, with sin w_k = sin k / sqrt2;
    # tr M^t at t = 1 and 2 fixes both eigenvalues
    coin = hadamard_coin()
    ks = np.linspace(-math.pi, math.pi, 41)
    w = np.arcsin(np.sin(ks) / SQRT2)
    for t in (1, 2, 7, 40):
        expect = np.exp(-1j * w * t) + (-1) ** t * np.exp(1j * w * t)
        assert np.max(np.abs(trace_of_power(coin, ks, t) - expect)) < 1e-12


def test_dispersion_theta_branch():
    # eigenvalues e^{+-i w_k}, with cos w_k = cos(theta/2) cos k
    coin = theta_coin(1.1)
    ks = np.linspace(-math.pi, math.pi, 41)
    w = np.arccos(math.cos(0.55) * np.cos(ks))
    for t in (1, 2, 7, 40):
        assert np.max(np.abs(trace_of_power(coin, ks, t) - 2 * np.cos(w * t))) < 1e-12


def test_eigensystem_reconstructs_matrix():
    # the closed-form power rebuilds M^0 = I, M and M^2, and its trace at
    # t = 7 is the power sum of the eigenvalues numpy finds for M
    rng = np.random.default_rng(5)
    z = rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2))
    coins = [hadamard_coin(), theta_coin(0.4), theta_coin(3.0),
             CoinOperator(np.diag([np.exp(0.3j), np.exp(-1.9j)])),
             CoinOperator(np.array([[0, 1j], [np.exp(0.8j), 0]]))]
    coins += [CoinOperator(np.linalg.qr(a)[0]) for a in z]
    ks = np.concatenate([[0.0, math.pi, -math.pi], rng.uniform(-math.pi, math.pi, 100)])
    psi = rng.normal(size=(len(ks), 2)) + 1j * rng.normal(size=(len(ks), 2))
    for coin in coins:
        m = transfer_matrix(coin, ks)
        once = np.einsum("kij,kj->ki", m, psi)
        twice = np.einsum("kij,kj->ki", m, once)
        assert np.max(np.abs(_propagate(coin, ks, psi, 0) - psi)) < 1e-12
        assert np.max(np.abs(_propagate(coin, ks, psi, 1) - once)) < 1e-12
        assert np.max(np.abs(_propagate(coin, ks, psi, 2) - twice)) < 1e-12
        lam = np.linalg.eigvals(m)
        expect = np.sum(lam ** 7, axis=-1)
        assert np.max(np.abs(trace_of_power(coin, ks, 7) - expect)) < 1e-10


def test_eigensystem_degenerate_identity_coin():
    # the identity coin gives M_k = +-I at k = 0 and pi (a repeated
    # eigenvalue, sin w == 0), and M_k = diag(e^{-ik}, e^{ik}) nearby
    ks = np.array([0.0, math.pi, -math.pi, 1e-9, math.pi - 1e-9])
    psi = np.array([0.6, 0.8j])
    for t in (0, 1, 2, 5, 40):
        out = _propagate(theta_coin(0.0), ks, psi, t)
        expect = np.stack([np.exp(-1j * ks * t) * psi[0],
                           np.exp(1j * ks * t) * psi[1]], axis=-1)
        assert np.all(np.isfinite(out))
        assert np.max(np.abs(out - expect)) < 1e-12


# Hadamard has det U = -1; the identity has sin w = 0 at k = 0 and pi
SPLIT_COINS = {
    "hadamard": hadamard_coin(), "theta-0.4": theta_coin(0.4),
    "theta-3.0": theta_coin(3.0), "identity": theta_coin(0.0),
    "diagonal": CoinOperator(np.diag([np.exp(0.3j), np.exp(-1.9j)])),
    "antidiagonal": CoinOperator(np.array([[0, 1j], [np.exp(0.8j), 0]])),
    **{f"random-{i}": CoinOperator(np.linalg.qr(a)[0]) for i, a in enumerate(
        np.random.default_rng(11).normal(size=(4, 2, 2, 2)) @ [1, 1j])},
}


# the wavenumber grid of evolve_spectral at t = 2000 from one site
GRID_4050 = 2 * math.pi * np.arange(4050) / 4050


@pytest.mark.parametrize("name", list(SPLIT_COINS))
def test_split_gives_the_eigenphases_and_projectors(name):
    coin = SPLIT_COINS[name]
    rng = np.random.default_rng(13)
    ks = np.concatenate([[0.0, math.pi, -math.pi], rng.uniform(-math.pi, math.pi, 200)])
    if name == "hadamard":
        # det M_k = -1, but its floating-point angle is +pi at some of these
        # k and -pi at others: a per-k h would swap the branch labels there
        angle = np.angle(np.linalg.det(transfer_matrix(coin, GRID_4050)))
        assert np.any(angle > 0) and np.any(angle < 0)
        ks = np.concatenate([ks, GRID_4050])
    # T's columns are T e_0 and T e_1
    h, w, sin, first = _split(coin, ks, np.array([1.0, 0.0]))
    traceless = np.stack([first, _split(coin, ks, np.array([0.0, 1.0]))[3]], axis=-1)
    assert type(h) is float and h == _dispersion(coin)[0]
    assert w.shape == sin.shape == ks.shape and traceless.shape == ks.shape + (2, 2)
    # T psi of any vectors, broadcast against k, is the matrix's product
    psi = rng.normal(size=(len(ks), 2)) + 1j * rng.normal(size=(len(ks), 2))
    assert np.max(np.abs(_split(coin, ks, psi)[3]
                         - np.einsum("kij,kj->ki", traceless, psi))) < 1e-15
    # one branch labelling for every k: cos w = c cos(k - phi)
    _, c, s, phi = _dispersion(coin)
    assert s == abs(coin.matrix[0, 1])
    assert np.max(np.abs(np.cos(w) - c * np.cos(ks - phi))) < 1e-12
    assert np.all((0 <= w) & (w <= math.pi)) and np.all(sin >= 0)
    m = transfer_matrix(coin, ks)
    eye = np.eye(2)
    assert np.max(np.abs(np.trace(traceless, axis1=-2, axis2=-1))) < 1e-15
    square = traceless @ traceless + (sin * sin)[:, None, None] * eye
    assert np.max(np.abs(square)) < 1e-12
    # e^{i(h +- w)} are the eigenvalues numpy finds, as a set
    lam = np.linalg.eigvals(m)
    up, down = np.exp(1j * (h + w)), np.exp(1j * (h - w))
    as_set = np.minimum(np.maximum(abs(up - lam[:, 0]), abs(down - lam[:, 1])),
                        np.maximum(abs(up - lam[:, 1]), abs(down - lam[:, 0])))
    assert np.max(as_set) < 1e-12
    # P+- = (I -+ i T / sin w) / 2 wherever sin w > 0
    distinct = sin > 0  # two distinct eigenvalues
    assert np.count_nonzero(distinct) >= len(ks) - 3
    turn = -1j * traceless[distinct] / sin[distinct, None, None]
    p_up, p_down = (eye + turn) / 2, (eye - turn) / 2
    assert np.max(np.abs(p_up + p_down - eye)) < 1e-12
    for p, lam_p in ((p_up, up[distinct]), (p_down, down[distinct])):
        assert np.max(np.abs(p @ p - p)) < 1e-12
        assert np.max(np.abs(m[distinct] @ p - lam_p[:, None, None] * p)) < 1e-12


#: The coins whose cone edge c lies strictly inside (0, 1), where w is smooth in k.
EDGE_COINS = [name for name, coin in SPLIT_COINS.items() if 0 < _dispersion(coin)[1] < 1]


@pytest.mark.parametrize("name", EDGE_COINS)
def test_cone_edge_has_slope_c_and_third_derivative_c_u01_squared(name):
    # at q = k - phi = +-pi/2 the group velocity w' = +-c is extremal and
    # w''' = -+c |u01|^2 (w is even in q); O(step^4) central differences
    coin = SPLIT_COINS[name]
    _, c, _, phi = _dispersion(coin)
    u01_squared = abs(coin.matrix[0, 1]) ** 2
    step = 0.01
    d1 = np.array([0, 1, -8, 0, 8, -1, 0]) / (12 * step)
    d3 = np.array([1, -8, 13, 0, -13, 8, -1]) / (8 * step**3)
    for sign in (1, -1):
        w = _split(coin, phi + sign * math.pi / 2 + step * np.arange(-3, 4),
                   np.array([1.0, 0.0]))[1]
        assert d1 @ w == pytest.approx(sign * c, rel=1e-5)
        assert d3 @ w == pytest.approx(-sign * c * u01_squared, rel=1e-5)


def test_fourier_amplitudes_identity_at_t0():
    init = np.array([0.6, 0.8j])
    out = _propagate(hadamard_coin(), 1.234, init, 0)
    assert np.max(np.abs(out - init)) < 1e-13


def test_fourier_amplitudes_one_step_left_start():
    # one step from (1, 0): psi~(k, 1) = (e^{-ik}, e^{ik}) / sqrt2
    for k in (0.0, 0.8, -2.5):
        out = _propagate(hadamard_coin(), k, np.array([1.0, 0.0]), 1)
        expect = np.array([np.exp(-1j * k), np.exp(1j * k)]) / SQRT2
        assert np.max(np.abs(out - expect)) < 1e-13


def test_fourier_amplitudes_match_closed_form():
    # independent closed form for M_k^t (1, 0)^T in terms of the
    # dispersion angle w with sin w = sin k / sqrt2
    coin = hadamard_coin()
    for k in (0.3, 1.1, -2.0, 2.9):
        w = math.asin(math.sin(k) / SQRT2)
        cosw = math.cos(k) / math.sqrt(1 + math.cos(k) ** 2)
        for t in (1, 2, 7, 40):
            el = 0.5 * (1 + cosw) * np.exp(-1j * w * t) + (
                (-1) ** t / 2
            ) * (1 - cosw) * np.exp(1j * w * t)
            er = (
                np.exp(1j * k)
                / (2 * math.sqrt(1 + math.cos(k) ** 2))
                * (np.exp(-1j * w * t) - (-1) ** t * np.exp(1j * w * t))
            )
            out = _propagate(coin, k, np.array([1.0, 0.0]), t)
            assert np.max(np.abs(out - np.array([el, er]))) < 1e-12


@pytest.mark.parametrize("coin_key", ["hadamard", 0.9, 2.6])
@pytest.mark.parametrize("init", ["left", "symmetric"])
def test_spectral_matches_direct_evolution(coin_key, init):
    coin = hadamard_coin() if coin_key == "hadamard" else theta_coin(coin_key)
    psi0 = initial_state(init)
    t = 60
    a = evolve_line(psi0, coin, t)
    b = evolve_spectral(psi0, coin, t)
    assert b.time == t
    assert np.array_equal(a.sites, b.sites)
    assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-12


@pytest.mark.parametrize("offset", [0, 3, -3])
@pytest.mark.parametrize("t", [0, 1, 3])
@pytest.mark.parametrize("rows", [0, 4], ids=["empty", "zero"])
def test_line_routes_agree_on_a_state_with_no_amplitude(rows, t, offset):
    # both routes take the input's rows grown by t per side, from the
    # offsets alone, so an empty input is a window of 2t zero rows
    psi0 = WaveFunction(Line(offset=offset), np.zeros((rows, 2)), 0)
    a = evolve_line(psi0, hadamard_coin(), t)
    b = evolve_spectral(psi0, hadamard_coin(), t)
    assert a.topology == b.topology == Line(offset=offset - t)
    assert a.sites.tolist() == b.sites.tolist() == list(range(offset - t, offset + rows + t))
    assert a.amplitudes.tobytes() == b.amplitudes.tobytes()
    assert not np.any(b.amplitudes)


def test_spectral_identity_coin_point_mass():
    psi = evolve_spectral(initial_state("left"), theta_coin(0.0), 7)
    d = distribution(psi)
    by_site = dict(zip(d.sites.tolist(), d.masses.tolist()))
    assert by_site[-7] == pytest.approx(1.0, abs=1e-12)


def test_spectral_norm_is_exact():
    psi = evolve_spectral(initial_state("symmetric"), hadamard_coin(), 128)
    assert abs(psi.norm() - 1.0) < 1e-12


def test_spectral_rejects_negative_t():
    with pytest.raises(DomainError):
        evolve_spectral(initial_state("left"), hadamard_coin(), -1)
    with pytest.raises(DomainError):
        evolve_spectral(initial_state("left", Circle(5)), hadamard_coin(), -1)


@pytest.mark.parametrize("theta", [1e-10, 1e-8, 1e-6])
def test_spectral_matches_recurrence_near_the_identity_coin(theta):
    # the angle of a near-identity M_k is read off its traceless part,
    # so it keeps full relative precision however small
    coin = theta_coin(theta)
    psi0 = initial_state("symmetric")
    for t in (1, 100, 2000):
        a = evolve_line(psi0, coin, t)
        b = evolve_spectral(psi0, coin, t)
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-12


@pytest.mark.parametrize("diagonal", [(1, 1), (1j, -1)], ids=["identity", "diag-i"])
def test_spectral_error_grows_at_most_linearly_in_t(diagonal):
    # a diagonal coin moves L and R ballistically, so the exact answer is
    # two phases; 1j and -1 raise to exact powers
    pair = np.array([0.6, 0.8j])
    t = 10**5 + 1
    psi = evolve_spectral(initial_state(pair), CoinOperator(np.diag(diagonal)), t)
    exact = np.zeros((2 * t + 1, 2), dtype=np.complex128)
    exact[0, 0] = pair[0] * diagonal[0] ** (t % 4)
    exact[-1, 1] = pair[1] * diagonal[1] ** (t % 4)
    assert np.array_equal(psi.sites, np.arange(-t, t + 1))
    assert np.max(np.abs(psi.amplitudes - exact)) <= 1e-15 * t


@pytest.mark.parametrize(
    "coin", [hadamard_coin(), theta_coin(2.2)], ids=["hadamard", "theta"]
)
def test_spectral_matches_direct_evolution_at_t2000(coin):
    psi0 = initial_state("symmetric")
    a = evolve_line(psi0, coin, 2000)
    b = evolve_spectral(psi0, coin, 2000)
    assert np.array_equal(a.sites, b.sites)
    assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-12


def test_spectral_continues_from_evolved_state():
    # input offset -30 at time 30: rows wrap through sites % N
    coin = theta_coin(1.3)
    psi0 = initial_state(np.array([0.6, 0.8j]))
    mid = evolve_line(psi0, coin, 30)
    a = evolve_spectral(mid, coin, 40)
    b = evolve_line(psi0, coin, 70)
    assert a.time == b.time == 70
    assert np.array_equal(a.sites, b.sites)
    assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-12


# --- exact parity zeros: each class is transformed on its own sublattice ----

#: the line at any offset and even cycles, where a class maps to one class
SUBLATTICE_TOPOLOGIES = st.one_of(st.builds(Line, st.integers(-20, 20)),
                                  st.sampled_from([Circle(4), Circle(64)]))


def assert_positive_zeros(amps):
    values = amps.view(np.float64)
    assert np.all(values == 0) and not np.any(np.signbit(values))


@settings(max_examples=60, deadline=None)
@given(u2_coins(), unit_pairs(), SUBLATTICE_TOPOLOGIES, st.integers(0, 63),
       st.integers(0, 200))
def test_sublattice_forbidden_sites_are_positive_zeros(coin, pair, topology, site, t):
    # a one-site start reaches only the sites n with n - site + t even; the
    # rows of the other class are never written, not cancelled by round-off
    if isinstance(topology, Line):
        psi0, site = WaveFunction(topology, [pair]), topology.offset
    else:
        amps = np.zeros((topology.size, 2), dtype=np.complex128)
        site %= topology.size
        amps[site] = pair
        psi0 = WaveFunction(topology, amps)
    psi = evolve_spectral(psi0, coin, t)
    forbidden = (psi.sites - site + t) % 2 == 1
    assert_positive_zeros(psi.amplitudes[forbidden])
    assert abs(psi.norm() - 1.0) < 1e-12


@st.composite
def two_class_starts(draw):
    """Random amplitudes on 2 to 9 consecutive sites, both parity classes occupied."""
    topology = draw(SUBLATTICE_TOPOLOGIES)
    ring = isinstance(topology, Circle)
    width = draw(st.integers(2, min(9, topology.size) if ring else 9))
    raw = np.array(draw(st.lists(parts, min_size=4 * width, max_size=4 * width)))
    block = (raw[0::2] + 1j * raw[1::2]).reshape(width, 2)
    assume(block[0::2].any() and block[1::2].any())
    if not ring:
        return WaveFunction(topology, block)
    amps = np.zeros((topology.size, 2), dtype=np.complex128)
    amps[(draw(st.integers(0, topology.size - 1)) + np.arange(width)) % topology.size] = block
    return WaveFunction(topology, amps)


@settings(max_examples=60, deadline=None)
@given(u2_coins(), two_class_starts(), st.integers(0, 200))
def test_sublattice_classes_evolve_apart_bit_for_bit(coin, psi0, t):
    # the rows each class reaches hold, bit for bit, what that class alone
    # gives, and each class alone leaves the other rows +0.0
    psi = evolve_spectral(psi0, coin, t)
    for parity in (0, 1):
        alone = psi0.amplitudes.copy()
        alone[psi0.sites % 2 != parity] = 0
        part = evolve_spectral(WaveFunction(psi0.topology, alone), coin, t)
        reached = (part.sites - parity + t) % 2 == 0
        assert part.amplitudes[reached].tobytes() == psi.amplitudes[reached].tobytes()
        assert_positive_zeros(part.amplitudes[~reached])


@pytest.mark.parametrize("n", [7, 31])
def test_spectral_error_on_odd_cycles_grows_at_most_linearly_in_t(n):
    # an odd cycle joins the two classes (d = 1): one length-n transform
    psi0 = initial_state("symmetric", Circle(n))
    for coin in SPLIT_COINS.values():
        for t in (1, 20 * n, 10**4):
            spectral = evolve_spectral(psi0, coin, t)
            assert np.max(np.abs(spectral.amplitudes
                                 - evolve_circle(psi0, coin, t).amplitudes)) <= 1e-15 * t


def test_spectral_memory_is_linear_in_t():
    # the dense n_out x N inverse DFT matrix at t = 4000 alone is 1 GB
    import tracemalloc

    tracemalloc.start()
    try:
        evolve_spectral(initial_state("left"), hadamard_coin(), 4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_spectral_route_builds_no_matrix_per_wavenumber():
    # M_k^t is applied to the (N/2, 2) vectors of each class directly: the
    # route peaked at 139 B a wavenumber here (203 B with length-N
    # transforms of both classes), and at 288 B while it built (N, 2, 2)
    # transfer matrices and their traceless parts (64 B a wavenumber each)
    import tracemalloc

    from qwalk.spectral import _even_smooth_at_least

    t = 20000
    n = _even_smooth_at_least(1 + 2 * t)
    tracemalloc.start()
    try:
        evolve_spectral(initial_state("left"), hadamard_coin(), t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 240 * n


def test_spectral_rejects_too_many_steps():
    from qwalk.core import MAX_STEPS

    with pytest.raises(DomainError):
        evolve_spectral(initial_state("left"), hadamard_coin(), MAX_STEPS + 1)


@pytest.mark.parametrize("width, t", [(1, 0), (1, 1), (1, 2000), (3, 200000), (17, 4321)])
def test_default_grid_is_even_and_5_smooth(width, t):
    from qwalk.spectral import _even_smooth_at_least

    n = _even_smooth_at_least(width + 2 * t)
    assert n % 2 == 0 and n >= width + 2 * t
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    assert n == 1


def test_default_grid_is_the_smallest_such_length():
    # the even 5-smooth lengths up to 2^14, built as products, against
    # the scan's answer for every need up to the last of them
    from qwalk.spectral import _even_smooth_at_least

    top = 2**14
    lengths = sorted(n for n in (2**a * 3**b * 5**c for a in range(1, 15) for b in range(9)
                                 for c in range(7)) if n <= top)
    expected = np.array(lengths)[np.searchsorted(lengths, np.arange(top + 1))]
    assert [_even_smooth_at_least(need) for need in range(top + 1)] == expected.tolist()
