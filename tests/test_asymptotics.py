"""Large-time formulas: stationary phase for any coin, density, frontier."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_spectral import EDGE_COINS, SPLIT_COINS, parts, transfer_matrix, u2_coins

from qwalk import (
    CoinOperator,
    DomainError,
    asymptotic_wavefunction,
    density,
    density_moment,
    distribution,
    evolve_line,
    hadamard_coin,
    initial_state,
    p_asymptotic,
    symmetric_initial,
    theta_coin,
)
from qwalk.asymptotics import _stationary_points, support_edge
from qwalk.spectral import _split
from qwalk.stats import moment

SQRT2 = math.sqrt(2)


def test_support_edge_values():
    assert support_edge(hadamard_coin()) == pytest.approx(1 / SQRT2)
    assert support_edge(theta_coin(math.pi / 2)) == pytest.approx(1 / SQRT2)
    assert support_edge(theta_coin(math.pi / 3)) == pytest.approx(math.cos(math.pi / 6))


def hadamard_left_closed_form(alpha, t):
    """The Hadamard left-start stationary-phase formula, written out by hand.

    Returns ``(k_alpha, |w''|, P)``: ``cos k_alpha = -alpha / sqrt(1 - alpha^2)``
    with ``k_alpha`` in [0, pi], and at a parity-allowed site

        P = (2 / (pi t |w''|)) [(1 - alpha)^2 cos^2(x) + (1 - alpha^2) cos^2(x + k_alpha)],
        x = -(w + alpha k_alpha) t + pi/4,  sin w = sin(k_alpha) / sqrt2.
    """
    k = math.acos(-alpha / math.sqrt(1 - alpha * alpha))
    w = math.asin(math.sin(k) / SQRT2)
    curvature = (1 - alpha * alpha) * math.sqrt(1 - 2 * alpha * alpha)
    x = -(w + alpha * k) * t + math.pi / 4
    prob = 2 / (math.pi * t * curvature) * (
        (1 - alpha) ** 2 * math.cos(x) ** 2 + (1 - alpha * alpha) * math.cos(x + k) ** 2)
    return k, curvature, prob


def interior_sites(coin, t, margin):
    sites = np.arange(-t, t + 1, 2)
    return sites[np.abs(sites / t) <= support_edge(coin) - margin]


def interior_l1(coin, init, t, margin=0.1):
    """Summed |stationary phase - exact walk| over the interior parity-allowed sites."""
    exact = distribution(evolve_line(initial_state(init), coin, t)).masses
    sites = interior_sites(coin, t, margin)
    return float(np.sum(np.abs(p_asymptotic(coin, init, t, sites) - exact[sites + t])))


def test_stationary_point_at_origin():
    # k_alpha = pi/2 and the step phase -(w + alpha k_alpha) = -pi/4, seen
    # through e^{ik} = -e^{+-i k_alpha} and e^{i(h + w)} = -e^{-+i pi/4}
    k, curv = _stationary_points(hadamard_coin(), np.array(0.0))
    h, w, _, _ = _split(hadamard_coin(), k, np.array([1.0, 0.0]))
    assert np.sort(k % (2 * math.pi)) == pytest.approx([math.pi / 2, 3 * math.pi / 2])
    assert -np.exp(1j * (h + w)) == pytest.approx(np.exp([-0.25j * math.pi, 0.25j * math.pi]))
    assert curv == pytest.approx([1.0, -1.0])


def test_stationary_point_at_half():
    k, curv = _stationary_points(hadamard_coin(), np.array(0.5))
    assert np.angle(-np.exp(1j * k)) == pytest.approx(
        [1, -1] * np.array(math.acos(-0.5 / math.sqrt(0.75))))
    assert curv == pytest.approx([0.75 * math.sqrt(0.5), -0.75 * math.sqrt(0.5)])


def test_stationary_condition_residual_hadamard():
    # dw/dk + alpha = 0 at k_alpha, with dw/dk = cos k / sqrt(1 + cos^2 k)
    # and cos k_alpha = -cos k at both roots
    alpha = np.linspace(-0.69, 0.69, 1000)
    k, _ = _stationary_points(hadamard_coin(), alpha)
    cos_k_alpha = -np.cos(k)
    assert np.max(np.abs(cos_k_alpha / np.sqrt(1 + cos_k_alpha**2) + alpha)) < 1e-12


def test_stationary_points_match_the_hadamard_closed_form():
    # the two roots sit at pi -+ k_alpha, with curvatures -+|w''| of the
    # hand-written Hadamard solution
    alpha = np.linspace(-0.69, 0.69, 1001)
    k, curv = _stationary_points(hadamard_coin(), alpha)
    k_alpha, curvature = np.array(
        [hadamard_left_closed_form(a, 100)[:2] for a in alpha.tolist()]).T
    assert curv == pytest.approx(np.stack([curvature, -curvature]), rel=1e-12)
    # e^{ik} = e^{i(pi +- k_alpha)} = -e^{+-i k_alpha}
    assert np.max(np.abs(np.exp(1j * k) + np.exp(1j * np.stack([k_alpha, -k_alpha])))) < 1e-12


COMPLEX_COIN = CoinOperator(np.exp(0.4j) * np.array([
    [np.exp(-1.1j) * math.cos(0.9), np.exp(2.3j) * math.sin(0.9)],
    [-np.exp(-2.3j) * math.sin(0.9), np.exp(1.1j) * math.cos(0.9)],
]))


@pytest.mark.parametrize("coin", [hadamard_coin(), theta_coin(1.2), COMPLEX_COIN],
                         ids=["hadamard", "theta", "complex"])
def test_stationary_points_solve_the_eigenphase_condition(coin):
    # against numpy's eigenvalues of M_k: e^{i(h + w)} is one of them, and
    # its phase has slope alpha and second derivative w'' at each root
    alpha = np.linspace(-0.9, 0.9, 37) * support_edge(coin)
    k, curv = _stationary_points(coin, alpha)
    h, w, _, _ = _split(coin, k, np.array([1.0, 0.0]))
    step = 1e-4

    def upper_phase(kk):
        eig = np.linalg.eigvals(transfer_matrix(coin, kk))
        near = np.exp(1j * (h + w))[..., None]
        return np.angle(np.take_along_axis(
            eig, np.argmin(np.abs(eig - near), axis=-1)[..., None], -1)[..., 0] / near[..., 0])

    assert np.max(np.abs(upper_phase(k))) < 1e-12
    lo, hi = upper_phase(k - step), upper_phase(k + step)
    assert np.max(np.abs((hi - lo) / (2 * step) - alpha)) < 1e-7
    assert np.max(np.abs((hi + lo) / step**2 - curv)) < 1e-5


@pytest.mark.parametrize("name", EDGE_COINS)
def test_stationary_points_have_the_closed_form_sine(name):
    # sin w = |u01| / sqrt(1 - alpha^2) at both roots, which turns
    # w'' = c cos q (1 - alpha^2) / sin w into its branch-free closed form
    coin = SPLIT_COINS[name]
    alpha = np.linspace(-0.99, 0.99, 199) * support_edge(coin)
    k, _ = _stationary_points(coin, alpha)
    sin = _split(coin, k, np.array([1.0, 0.0]))[2]
    expect = abs(coin.matrix[0, 1]) / np.sqrt(1 - alpha**2)
    assert np.max(np.abs(sin - expect)) < 1e-14


def test_stationary_point_refuses_outside_cone():
    for sites in ([-72], [0, 72]):
        with pytest.raises(DomainError):
            p_asymptotic(hadamard_coin(), "left", 100, sites)


def test_interior_evaluation_refuses_near_edge():
    # n/t = |u00| = 0.6 exactly: w'' = 0 there
    with pytest.raises(DomainError):
        p_asymptotic(CoinOperator([[0.6, 0.8], [0.8, -0.6]]), "left", 100, [0, 60])


@pytest.mark.parametrize("coin, sites, t", [
    (theta_coin(0.0), [0], 10),
    (hadamard_coin(), [2], 0),
    (hadamard_coin(), [0.0, 2.0], 100),
    (hadamard_coin(), [[0, 2]], 100),
], ids=["identity", "t-0", "float-sites", "2d"])
def test_stationary_phase_refuses_outside_its_domain(coin, sites, t):
    with pytest.raises(DomainError):
        p_asymptotic(coin, "left", t, sites)


def test_parity_forbidden_sites_give_zero():
    psi = asymptotic_wavefunction(theta_coin(1.2), "symmetric", 100, [-3, 1, 2, 33])
    assert psi.shape == (4, 2)
    assert np.all(psi[[0, 1, 3]] == 0) and not np.any(np.signbit(psi[[0, 1, 3]].real))
    assert np.all(psi[2] != 0)


@pytest.mark.parametrize("t", [2**63, 2**70])
def test_huge_t_keeps_exact_parity_zeros(t):
    # t past the int64 range must not be converted to it
    psi = asymptotic_wavefunction(hadamard_coin(), "left", t, np.array([-3, 0, 1, 2]))
    assert np.all(np.isfinite(psi))
    zeros = psi[[0, 2]].view(np.float64)
    assert np.all(zeros == 0) and not np.any(np.signbit(zeros))


def test_probability_is_squared_wavefunction():
    sites = [-40, -12, 0, 20, 52]
    psi = asymptotic_wavefunction(COMPLEX_COIN, "right", 100, sites)
    assert p_asymptotic(COMPLEX_COIN, "right", 100, sites) == pytest.approx(
        np.sum(np.abs(psi) ** 2, axis=1), abs=1e-15)


@pytest.mark.parametrize("t", [100, 200])
def test_hadamard_left_start_matches_the_closed_form(t):
    sites = interior_sites(hadamard_coin(), t, 0.02)
    expected = [hadamard_left_closed_form(n / t, t)[2] for n in sites.tolist()]
    got = p_asymptotic(hadamard_coin(), "left", t, sites)
    assert np.max(np.abs(got - expected)) < 1e-14


def test_global_phase_of_the_coin_drops_out():
    # h moves with the phase (det -1 -> +1 at gamma = pi/2); the
    # probabilities must not
    sites = interior_sites(hadamard_coin(), 200, 0.02)
    base = p_asymptotic(hadamard_coin(), "symmetric", 200, sites)
    for gamma in (0.5 * math.pi, math.pi, -0.3, 2.0):
        coin = CoinOperator(np.exp(1j * gamma) * hadamard_coin().matrix)
        assert np.max(np.abs(p_asymptotic(coin, "symmetric", 200, sites) - base)) < 1e-13


def test_slow_envelope_at_origin():
    assert density(0.0, hadamard_coin(), "left") / 200 == pytest.approx(1 / (200 * math.pi))
    assert density(0.0, theta_coin(math.pi / 2), "symmetric") / 200 == pytest.approx(
        1 / (200 * math.pi)
    )
    assert density(0.0, hadamard_coin(), "left") == pytest.approx(1 / math.pi)


def test_slow_envelope_start_variants_differ():
    # the left-start envelope carries a (1 - alpha) factor
    a = 0.4
    left = density(a, hadamard_coin(), "left") / 100
    sym = density(a, hadamard_coin(), "symmetric") / 100
    assert left == pytest.approx((1 - a) * sym)


def integrate_density(weight, coin, start, nodes=100):
    """``int weight(alpha) density(alpha) d alpha`` by Gauss-Legendre in ``u``.

    ``alpha = |u00| sin u`` turns the edge singularity into a smooth
    integrand; the rule is split at ``u = 0``, where ``|alpha|`` has a kink.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    u = np.concatenate([x - 1, x + 1]) * math.pi / 4
    edge = support_edge(coin)
    alpha = edge * np.sin(u)
    p = np.array([density(a, coin, start) for a in alpha])
    return float(np.sum(np.tile(w, 2) * math.pi / 4 * weight(alpha) * p * edge * np.cos(u)))


@pytest.mark.parametrize(
    "theta,start",
    [("hadamard", "left"), (math.pi / 3, "symmetric"),
     (math.pi / 2, "symmetric"), (2 * math.pi / 3, "symmetric")],
)
def test_density_normalises(theta, start):
    # the closed-form moments are integrals of the density, to round-off
    coin = hadamard_coin() if theta == "hadamard" else theta_coin(theta)
    assert integrate_density(np.ones_like, coin, start) == pytest.approx(1.0, abs=1e-10)
    for name, weight in (("mean", lambda a: a), ("second", lambda a: a * a),
                         ("abs_mean", np.abs)):
        assert integrate_density(weight, coin, start) == pytest.approx(
            density_moment(coin, start, name), abs=1e-10)


def test_density_moments_hadamard_left():
    coin = hadamard_coin()
    assert density_moment(coin, "left", "mean") == pytest.approx(-(1 - 1 / SQRT2), abs=1e-10)
    assert density_moment(coin, "left", "second") == pytest.approx(1 - 1 / SQRT2, abs=1e-10)
    assert density_moment(coin, "left", "abs_mean") == pytest.approx(0.5, abs=1e-10)


@pytest.mark.parametrize("theta", [math.pi / 3, math.pi / 2, 2 * math.pi / 3, 2.8])
def test_density_abs_mean_theta_family(theta):
    # symmetric start: mean |alpha| = 1 - theta/pi, mean alpha = 0
    coin = theta_coin(theta)
    assert density_moment(coin, "symmetric", "abs_mean") == pytest.approx(
        1 - theta / math.pi, abs=1e-9
    )
    assert density_moment(coin, "symmetric", "mean") == pytest.approx(0.0, abs=1e-12)


def closed_form_moments(coin, pair):
    """Konno's moments: E alpha, E alpha^2, E|alpha| for the pair (a, b)."""
    u, (a, b) = coin.matrix, pair
    edge, width = abs(u[0, 0]), abs(u[0, 1])
    lam = abs(a) ** 2 - abs(b) ** 2 + 2 * (u[0, 0] * a * np.conj(u[0, 1] * b)).real / edge**2
    return {"mean": -lam * (1 - width), "second": 1 - width,
            "abs_mean": 1 - 2 / math.pi * math.acos(min(edge, 1.0))}


unit_pairs = st.tuples(parts, parts, parts, parts).filter(
    lambda p: np.hypot.reduce(p) > 0.1
).map(lambda p: np.array([p[0] + 1j * p[1], p[2] + 1j * p[3]]) / np.hypot.reduce(p))


@settings(max_examples=200, deadline=None)
@given(u2_coins(), unit_pairs)
def test_density_moments_match_closed_forms(coin, pair):
    # every coin is served, never with a nan, inf or wrong value
    for name, value in closed_form_moments(coin, pair).items():
        assert density_moment(coin, pair, name) == pytest.approx(value, abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(u2_coins(), unit_pairs)
def test_density_moments_match_the_walk_for_any_coin(coin, pair):
    t = 2000
    d = distribution(evolve_line(initial_state(pair), coin, t))
    for name in ("mean", "second", "abs_mean"):
        assert moment(d, name) == pytest.approx(density_moment(coin, pair, name), abs=1e-3)


def test_density_follows_the_start():
    # a right start mirrors a left one; the theta family tilts like Hadamard
    h = hadamard_coin()
    assert density_moment(h, "right", "mean") == pytest.approx(1 - 1 / SQRT2, abs=1e-10)
    assert density_moment(theta_coin(1.2), "left", "mean") == pytest.approx(
        -(1 - math.sin(0.6)), abs=1e-10
    )
    assert density(0.3, h, "right") == pytest.approx(density(-0.3, h, "left"), abs=1e-15)


@pytest.mark.parametrize("theta", [0.0, 1e-13, 1e-4, 0.02])
def test_unresolvable_density_is_a_domain_error(theta):
    # the name predates the closed forms: |u01| = sin(theta/2) near 0 is
    # served, and theta = 0 moves ballistically to the left
    coin = theta_coin(theta)
    served = {name: density_moment(coin, "left", name) for name in ("mean", "second", "abs_mean")}
    assert served == pytest.approx(closed_form_moments(coin, np.array([1, 0])), abs=1e-12)
    if theta == 0:
        assert served == {"mean": -1.0, "second": 1.0, "abs_mean": 1.0}


@pytest.mark.parametrize("alpha", [math.nan, -math.inf, -1 / SQRT2, 1 / SQRT2, 0.9, math.inf])
def test_density_refuses_alpha_outside_its_support(alpha):
    with pytest.raises(DomainError):
        density(alpha, hadamard_coin(), "left")


def test_density_needs_an_off_diagonal_coin_entry():
    with pytest.raises(DomainError):
        density(0.5, theta_coin(0.0), "left")


@pytest.mark.parametrize("coin", [theta_coin(math.pi), CoinOperator([[0, 1], [1, 0]])],
                         ids=["theta-pi", "sigma-x"])
def test_confined_walk_has_zero_moments(coin):
    # |u00| = 0: X_t / t tends to a point mass at 0, which the closed
    # forms reproduce without dividing by |u00|
    for name in ("mean", "second", "abs_mean"):
        value = density_moment(coin, "symmetric", name)
        assert math.isfinite(value) and abs(value) < 1e-15
    with pytest.raises(DomainError):
        density(0.0, CoinOperator([[0, 1], [1, 0]]), "left")


FIXED_WALKS = [
    (hadamard_coin(), "left"),
    (hadamard_coin(), "symmetric"),
    (theta_coin(1.2), "symmetric"),
    (COMPLEX_COIN, "right"),
]


def test_interior_l1_agreement_with_exact_walk():
    for coin, init in FIXED_WALKS:
        assert interior_l1(coin, init, 100) < 0.01


@pytest.mark.parametrize("coin, init", FIXED_WALKS,
                         ids=["hadamard-left", "hadamard-symmetric", "theta-symmetric",
                              "complex-right"])
@pytest.mark.parametrize("t, bound", [(400, 0.002), (1600, 0.0005)])
def test_interior_l1_falls_with_t(coin, init, t, bound):
    assert interior_l1(coin, init, t) <= bound


@settings(max_examples=100, deadline=None)
@given(u2_coins(), unit_pairs)
def test_stationary_phase_matches_the_recurrence_for_any_coin(coin, pair):
    # tested against evolve_line, so this route stays an independent oracle
    assume(0.15 <= support_edge(coin) <= 0.95)
    assert interior_l1(coin, pair, 400) <= 0.005


#: a complex coin with |u00| = 0.6: e^{0.3i} [[0.6, 0.8i], [0.8i, 0.6]]
PHASED_COIN = CoinOperator(np.exp(0.3j) * np.array([[0.6, 0.8j], [0.8j, 0.6]]))


@pytest.mark.parametrize("coin", [hadamard_coin(), theta_coin(1.2), PHASED_COIN],
                         ids=["hadamard", "theta-1.2", "phased"])
@pytest.mark.parametrize("start", ["left", "symmetric"])
@pytest.mark.parametrize("t", [100, 400])
def test_stationary_phase_amplitudes_are_within_c_over_t(coin, start, t):
    # on the interior the leading order misses the recurrence by O(1/t) of
    # the largest amplitude there: max |psi_asym - psi_rec| <= C max|psi_rec| / t.
    # C = 3; these twelve walks measured 1.48 to 2.00, and random coins
    # with 0.25 < |u00| < 0.95 up to 2.6.  Amplitudes, not masses, so a
    # wrong constant phase fails it: a phase of pi/2 on every amplitude
    # leaves the masses as they are and moves the amplitudes by about
    # sqrt2 of their size
    init = "left" if start == "left" else symmetric_initial(coin)
    sites = interior_sites(coin, t, 0.1)  # the parity-allowed ones
    rec = evolve_line(initial_state(init), coin, t).amplitudes[sites + t]
    asym = asymptotic_wavefunction(coin, init, t, sites)
    assert np.max(np.abs(asym - rec)) <= 3 * np.max(np.abs(rec)) / t


def test_slow_envelope_tracks_local_average():
    # averaging the oscillatory exact probabilities over a window of
    # neighbouring sites reproduces the smooth envelope
    t = 400
    d = distribution(evolve_line(initial_state("left"), hadamard_coin(), t))
    by_site = dict(zip(d.sites.tolist(), d.masses.tolist()))
    for centre in (-120, 0, 80, 160):
        window = [by_site[centre + 2 * j] for j in range(-5, 6)]
        avg = sum(window) / len(window)
        envelope = density(centre / t, hadamard_coin(), "left") / t * 2  # one parity class
        assert avg == pytest.approx(envelope, rel=0.15)


def test_moment_deviation_decays_like_inverse_t():
    # exact moments approach the density moments with an O(1/t) defect
    coin = hadamard_coin()
    devs = {}
    for t in (200, 400):
        d = distribution(evolve_line(initial_state("left"), coin, t))
        devs[t] = (
            abs(moment(d, "mean") - density_moment(coin, "left", "mean")),
            abs(moment(d, "second") - density_moment(coin, "left", "second")),
        )
    assert devs[200][0] / devs[400][0] > 1.6
    assert devs[200][1] / devs[400][1] > 1.6


def test_frontier_probability_decay_exponent():
    # exact probability at the left cone edge falls off roughly as t^{-2/3}
    coin = hadamard_coin()
    masses = {}
    for t in (200, 800):
        d = distribution(evolve_line(initial_state("left"), coin, t))
        by_site = dict(zip(d.sites.tolist(), d.masses.tolist()))
        edge_site = 2 * round(-t / SQRT2 / 2)
        masses[t] = max(by_site[edge_site + 2 * j] for j in range(-2, 3))
    slope = math.log(masses[800] / masses[200]) / math.log(800 / 200)
    assert slope == pytest.approx(-2 / 3, abs=0.15)


def test_tail_mass_outside_cone_is_negligible():
    t = 200
    for coin in (hadamard_coin(), theta_coin(math.pi / 3)):
        d = distribution(evolve_line(initial_state("symmetric"), coin, t))
        cut = (support_edge(coin) + 0.08) * t
        tail = float(np.sum(d.masses[np.abs(d.sites) >= cut]))
        assert tail < 1e-8
