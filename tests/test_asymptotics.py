"""Stationary-phase formulas: interior wavefunction, density, frontier."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_evolve import parts, u2_coins

from qwalk import (
    CoinOperator,
    DomainError,
    density,
    density_integral,
    density_moment,
    distribution,
    evolve_line,
    frontier_peak,
    hadamard_coin,
    initial_state,
    p_asymptotic,
    stationary_point,
    theta_coin,
)
from qwalk.asymptotics import MIN_PANELS_PER_WIDTH, QUADRATURE_PANELS, support_edge
from qwalk.stats import analytic_moment, moment

SQRT2 = math.sqrt(2)


def test_support_edge_values():
    assert support_edge(hadamard_coin()) == pytest.approx(1 / SQRT2)
    assert support_edge(theta_coin(math.pi / 2)) == pytest.approx(1 / SQRT2)
    assert support_edge(theta_coin(math.pi / 3)) == pytest.approx(math.cos(math.pi / 6))


def test_stationary_point_at_origin():
    sp = stationary_point(0.0)
    assert sp.k_alpha == pytest.approx(math.pi / 2)
    assert sp.phase == pytest.approx(-math.pi / 4)
    assert sp.curvature == pytest.approx(1.0)


def test_stationary_point_at_half():
    sp = stationary_point(0.5)
    assert sp.k_alpha == pytest.approx(math.acos(-0.5 / math.sqrt(0.75)))
    assert sp.curvature == pytest.approx(0.75 * math.sqrt(0.5))


def test_stationary_condition_residual_hadamard():
    # dw/dk + alpha = 0 at k_alpha, with dw/dk = cos k / sqrt(1 + cos^2 k)
    for alpha in np.linspace(-0.69, 0.69, 1000):
        sp = stationary_point(float(alpha))
        slope = math.cos(sp.k_alpha) / math.sqrt(1 + math.cos(sp.k_alpha) ** 2)
        assert abs(slope + alpha) < 1e-12


def test_stationary_point_refuses_outside_cone():
    with pytest.raises(DomainError):
        stationary_point(0.71)


def test_interior_evaluation_refuses_near_edge():
    with pytest.raises(DomainError):
        p_asymptotic(0.70, 100, epsilon=0.02)


def test_parity_forbidden_sites_give_zero():
    assert p_asymptotic(1 / 100, 100) == 0.0
    psi = __import__("qwalk").asymptotic_wavefunction(3 / 100, 100)
    assert np.all(psi == 0)


def test_probability_is_squared_wavefunction():
    from qwalk import asymptotic_wavefunction

    for n in (-40, -12, 0, 20, 52):
        psi = asymptotic_wavefunction(n / 100, 100)
        assert p_asymptotic(n / 100, 100) == pytest.approx(
            float(np.sum(np.abs(psi) ** 2)), abs=1e-15
        )


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


@pytest.mark.parametrize(
    "theta,start",
    [("hadamard", "left"), (math.pi / 3, "symmetric"),
     (math.pi / 2, "symmetric"), (2 * math.pi / 3, "symmetric")],
)
def test_density_normalises(theta, start):
    coin = hadamard_coin() if theta == "hadamard" else theta_coin(theta)
    assert density_integral(lambda a: np.ones_like(a), coin, start) == pytest.approx(
        1.0, abs=1e-10
    )


def test_density_moments_hadamard_left():
    coin = hadamard_coin()
    assert density_moment(1, coin, "left") == pytest.approx(-(1 - 1 / SQRT2), abs=1e-10)
    assert density_moment(2, coin, "left") == pytest.approx(1 - 1 / SQRT2, abs=1e-10)
    assert density_moment(1, coin, "left", absolute=True) == pytest.approx(0.5, abs=1e-10)


@pytest.mark.parametrize("theta", [math.pi / 3, math.pi / 2, 2 * math.pi / 3, 2.8])
def test_density_abs_mean_theta_family(theta):
    # symmetric start: mean |alpha| = 1 - theta/pi, mean alpha = 0
    coin = theta_coin(theta)
    assert density_moment(1, coin, "symmetric", absolute=True) == pytest.approx(
        1 - theta / math.pi, abs=1e-9
    )
    assert density_moment(1, coin, "symmetric") == pytest.approx(0.0, abs=1e-12)


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
    # quadrature within 1e-9 of the closed forms, or a DomainError when the
    # panels cannot resolve the density; never a nan, inf or wrong value
    width = abs(coin.matrix[0, 1])
    for name, value in closed_form_moments(coin, pair).items():
        if width * QUADRATURE_PANELS < MIN_PANELS_PER_WIDTH:
            with pytest.raises(DomainError):
                analytic_moment(coin, pair, name)
        else:
            assert analytic_moment(coin, pair, name) == pytest.approx(value, abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(u2_coins(), unit_pairs)
def test_density_moments_match_the_walk_for_any_coin(coin, pair):
    t = 2000
    if abs(coin.matrix[0, 1]) * QUADRATURE_PANELS < MIN_PANELS_PER_WIDTH:
        return
    d = distribution(evolve_line(initial_state(pair), coin, t))
    for name, (m, absolute) in (("mean", (1, False)), ("second", (2, False)),
                                ("abs_mean", (1, True))):
        exact = moment(d, m, absolute=absolute)
        assert exact == pytest.approx(analytic_moment(coin, pair, name), abs=1e-3)


def test_density_follows_the_start():
    # a right start mirrors a left one; the theta family tilts like Hadamard
    h = hadamard_coin()
    assert density_moment(1, h, "right") == pytest.approx(1 - 1 / SQRT2, abs=1e-10)
    assert density_moment(1, theta_coin(1.2), "left") == pytest.approx(
        -(1 - math.sin(0.6)), abs=1e-10
    )
    assert density(0.3, h, "right") == pytest.approx(density(-0.3, h, "left"), abs=1e-15)


@pytest.mark.parametrize("theta", [0.0, 1e-13, 1e-4, 0.02])
def test_unresolvable_density_is_a_domain_error(theta):
    # |u01| = sin(theta/2) below 24 / 2000 = 0.012
    with pytest.raises(DomainError):
        analytic_moment(theta_coin(theta), "left", "abs_mean")


def test_density_needs_an_off_diagonal_coin_entry():
    with pytest.raises(DomainError):
        density(0.5, theta_coin(0.0), "left")


@pytest.mark.parametrize("coin", [theta_coin(math.pi), CoinOperator([[0, 1], [1, 0]])],
                         ids=["theta-pi", "sigma-x"])
def test_confined_walk_has_zero_moments(coin):
    # |u00| ~ 0: X_t / t tends to a point mass at 0, which the quadrature
    # reproduces without dividing by |u00|
    for name in ("mean", "second", "abs_mean"):
        value = analytic_moment(coin, "symmetric", name)
        assert math.isfinite(value) and abs(value) < 1e-15
    with pytest.raises(DomainError):
        density(0.0, CoinOperator([[0, 1], [1, 0]]), "left")


def test_interior_l1_agreement_with_exact_walk():
    t = 100
    d = distribution(evolve_line(initial_state("left"), hadamard_coin(), t))
    by_site = dict(zip(d.sites.tolist(), d.masses.tolist()))
    eps = 0.1
    l1 = 0.0
    for n in range(-t, t + 1, 2):
        if abs(n / t) > 1 / SQRT2 - eps:
            continue
        l1 += abs(p_asymptotic(n / t, t, eps) - by_site[n])
    assert l1 < 0.01


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
            abs(moment(d, 1) - analytic_moment(coin, "left", "mean")),
            abs(moment(d, 2) - analytic_moment(coin, "left", "second")),
        )
    assert devs[200][0] / devs[400][0] > 1.6
    assert devs[200][1] / devs[400][1] > 1.6


def test_frontier_peak_scale_ratio():
    # the t^{-1/3} law gives an exact factor 2 between t and 8t
    for t in (50, 100, 400):
        left_t = frontier_peak(t, "left")
        left_8t = frontier_peak(8 * t, "left")
        assert abs(left_t / left_8t) == pytest.approx(2.0, abs=1e-12)


def test_frontier_peak_values():
    val = frontier_peak(100, "left")
    expect = (1 / (6 * math.pi)) * math.sqrt(1.5) * math.gamma(1 / 3) * (6 / 100) ** (1 / 3)
    assert val == pytest.approx(expect, abs=1e-15)
    osc = frontier_peak(100, "right")
    amp = (SQRT2 / (3 * math.pi)) * math.gamma(1 / 3) * (6 / 100) ** (1 / 3)
    assert abs(osc) <= amp + 1e-15
    with pytest.raises(DomainError):
        frontier_peak(10, "top")


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
