"""Moments, interval masses, TV distances, mixing and the classical walk."""

import math
import tracemalloc

import numpy as np
import pytest

from qwalk import (
    Circle,
    CoinOperator,
    DomainError,
    Line,
    WalkSpec,
    cesaro_average,
    classical_walk,
    density_moment,
    distribution,
    evolve_circle,
    evolve_line,
    hadamard_coin,
    initial_state,
    interval_mass,
    mixing_time,
    moment,
    theta_coin,
    total_variation,
    tv_distance,
)
from qwalk.core import MAX_STEPS
from qwalk.evolve import ProbabilityDistribution
from qwalk.stats import _masses

SQRT2 = math.sqrt(2)

#: a complex U(2) coin: e^{0.3i} [[e^{0.7i} c, e^{-0.2i} s], [-e^{0.2i} s, e^{-0.7i} c]]
COMPLEX_COIN = CoinOperator(np.exp(0.3j) * np.array([
    [np.exp(0.7j) * math.cos(0.9), np.exp(-0.2j) * math.sin(0.9)],
    [-np.exp(0.2j) * math.sin(0.9), np.exp(-0.7j) * math.cos(0.9)],
]))


@pytest.fixture(scope="module")
def had_left_t80():
    return distribution(evolve_line(initial_state("left"), hadamard_coin(), 80))


def test_moments_at_t80_match_known_values(had_left_t80):
    # mean drifts left toward -(1 - 1/sqrt2); second moment toward 1/2
    assert moment(had_left_t80, "mean") == pytest.approx(-0.293, abs=0.005)
    assert moment(had_left_t80, "second") == pytest.approx(0.293, abs=0.005)
    assert moment(had_left_t80, "abs_mean") == pytest.approx(0.5, abs=0.005)


def test_symmetric_start_mean_vanishes():
    d = distribution(evolve_line(initial_state("symmetric"), hadamard_coin(), 60))
    assert moment(d, "mean") == pytest.approx(0.0, abs=1e-12)


def test_moment_needs_positive_time():
    d = distribution(initial_state("left"))
    with pytest.raises(DomainError):
        moment(d, "mean")


def test_moment_and_interval_mass_refuse_circles():
    # sites 0..30 of a cycle are no line positions
    psi = evolve_circle(initial_state("symmetric", Circle(31)), hadamard_coin(), 10)
    d = distribution(psi)
    with pytest.raises(DomainError):
        moment(d, "mean")
    with pytest.raises(DomainError):
        interval_mass(d, hadamard_coin(), 0.05)


def test_moment_names_are_those_of_the_density(had_left_t80):
    with pytest.raises(DomainError, match="bogus"):
        moment(had_left_t80, "bogus")


def test_analytic_moment_values():
    h = hadamard_coin()
    assert density_moment(h, "left", "mean") == pytest.approx(
        -(1 - 1 / SQRT2), abs=1e-9
    )
    assert density_moment(h, "left", "second") == pytest.approx(
        1 - 1 / SQRT2, abs=1e-9
    )
    assert density_moment(h, "left", "abs_mean") == pytest.approx(
        0.5, abs=1e-9
    )
    assert density_moment(theta_coin(math.pi / 3), "symmetric", "abs_mean") == (
        pytest.approx(2 / 3, abs=1e-9)
    )
    with pytest.raises(DomainError):
        density_moment(theta_coin(math.pi / 2), "symmetric", "median")
    assert density_moment(theta_coin(0.0), "symmetric", "abs_mean") == 1


def test_interval_mass_alpha_margin_monotone(had_left_t80):
    # the cut lies about 0.18 eps^2 inside the edge: at eps = 0.05 that
    # is less than the site spacing 1/80 and drops no site
    masses = [interval_mass(had_left_t80, hadamard_coin(), eps) for eps in (0.0, 0.2, 0.5)]
    assert masses[0] > masses[1] > masses[2] > 0
    assert masses[0] <= 1.0


def test_interval_mass_wavenumber_law():
    # interior mass approaches 1 - 2 eps / pi when eps margins the
    # stationary wavenumber
    t = 400
    d = distribution(evolve_line(initial_state("left"), hadamard_coin(), t))
    for eps in (0.05, 0.2):
        got = interval_mass(d, hadamard_coin(), eps)
        assert got == pytest.approx(1 - 2 * eps / math.pi, abs=5.0 / t)


@pytest.mark.parametrize(
    "coin",
    [theta_coin(math.pi / 3), theta_coin(1.2), theta_coin(2 * math.pi / 3),
     theta_coin(2.6), COMPLEX_COIN],
    ids=["theta-1.05", "theta-1.2", "theta-2.09", "theta-2.6", "complex"])
def test_interval_mass_law_reads_the_cone_off_the_coin(coin):
    # at eps = 1 the cut lies well clear of the t^(-2/3) edge layer
    t, eps = 1600, 1.0
    d = distribution(evolve_line(initial_state(np.array([0.6, 0.8j])), coin, t))
    assert interval_mass(d, coin, eps) == pytest.approx(1 - 2 * eps / math.pi, abs=5.0 / t)


def test_interval_mass_of_theta_half_pi_is_the_hadamard_one():
    d = distribution(evolve_line(initial_state("symmetric"), hadamard_coin(), 400))
    for eps in (0.0, 0.05, 0.2, 1.0):
        assert interval_mass(d, theta_coin(math.pi / 2), eps) == interval_mass(
            d, hadamard_coin(), eps)


def test_mass_concentrates_inside_the_cone(had_left_t80):
    inside = interval_mass(had_left_t80, hadamard_coin(), 0.0)
    assert inside >= 1 - 1.0 * 80 ** (-1 / 3)


def test_total_variation_basics():
    p = np.array([0.5, 0.5, 0.0])
    q = np.array([0.0, 0.5, 0.5])
    assert total_variation(p, p) == 0.0
    assert total_variation(p, q) == pytest.approx(0.5)
    r = np.array([1 / 3, 1 / 3, 1 / 3])
    assert total_variation(p, q) <= total_variation(p, r) + total_variation(r, q)


def test_tv_distance_point_mass_on_circle():
    d = distribution(initial_state("left", Circle(7)))
    assert tv_distance(d, "uniform_all") == pytest.approx(1 - 1 / 7)


def test_tv_distance_uniform_is_zero():
    n = 9
    d = ProbabilityDistribution(Circle(n), np.full(n, 1 / n), 4)
    assert tv_distance(d, "uniform_all") == pytest.approx(0.0, abs=1e-15)


def test_tv_distance_even_circle_parity_floor():
    # on an even cycle half the sites are empty at any instant
    psi = evolve_circle(initial_state("symmetric", Circle(8)), hadamard_coin(), 50)
    d = distribution(psi)
    assert tv_distance(d, "uniform_all") >= 0.5 - 1e-12
    assert tv_distance(d, "uniform_parity") < 0.5


def test_tv_distance_refuses_line():
    # a line's cone depends on the coin, which a distribution does not carry
    d = distribution(evolve_line(initial_state("left"), hadamard_coin(), 100))
    with pytest.raises(DomainError):
        tv_distance(d, "uniform_all")
    with pytest.raises(DomainError):
        tv_distance(distribution(initial_state("left", Circle(7))), "gaussian")


def test_mixing_time_quantum_linear_instance():
    rep = mixing_time(WalkSpec(Circle(31)), 0.4446, t_cap=500)
    assert rep.time == 23
    assert rep.tv_trace[-1] <= 0.4446
    assert np.all(rep.tv_trace[:-1] > 0.4446)


def test_mixing_time_classical_instance():
    rep = mixing_time(WalkSpec(Circle(31), classical=True), 0.4446, t_cap=5000)
    assert rep.time == 77


def test_mixing_time_classical_even_cycle_uses_parity_class():
    rep = mixing_time(WalkSpec(Circle(64), classical=True), 0.3, t_cap=2000)
    assert rep.time == 157
    for t in (1, 2, 156, 157):
        parity_tv = tv_distance(classical_walk(Circle(64), t), "uniform_parity")
        assert rep.tv_trace[t - 1] == pytest.approx(parity_tv, abs=1e-12)


def test_mixing_time_can_fail_to_reach():
    # theta = pi never spreads beyond three sites
    spec = WalkSpec(Circle(9), theta_coin(math.pi))
    rep = mixing_time(spec, 0.1, t_cap=300)
    assert rep.time is None
    assert len(rep.tv_trace) == 300


def test_mixing_time_trace_memory():
    # a 3-cycle classical walk never reaches TV 0; a list of Python floats
    # peaked at about 4 MB over 10^5 steps, 32 bytes a step plus the copy
    spec = WalkSpec(Circle(3), classical=True)
    tracemalloc.start()
    try:
        rep = mixing_time(spec, 0.0, t_cap=10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.time is None and len(rep.tv_trace) == 10**5
    assert peak < 1.2e6


def test_mixing_time_requires_circle():
    with pytest.raises(DomainError):
        mixing_time(WalkSpec(Line()), 0.3, 100)


@pytest.mark.parametrize("t_cap", [0, -5])
def test_mixing_time_rejects_cap_below_one(t_cap):
    with pytest.raises(DomainError):
        mixing_time(WalkSpec(Circle(31)), 0.3, t_cap)


@pytest.mark.parametrize("call", [
    lambda: classical_walk(Line(), 2**60),
    lambda: cesaro_average(WalkSpec(Circle(3), classical=True), MAX_STEPS + 1),
], ids=["classical_walk", "cesaro_average"])
def test_step_counts_are_capped_before_allocation(call):
    with pytest.raises(DomainError):
        call()


def test_mixing_scan_stops_at_the_step_cap(monkeypatch):
    # a t_cap above the cap is accepted, because the scan stops at the
    # crossing; a scan that reaches the cap without one is refused
    monkeypatch.setattr("qwalk.stats.MAX_STEPS", 40)
    spec = WalkSpec(Circle(31))
    assert mixing_time(spec, 1.0, 2**60).time == 1
    rep = mixing_time(spec, -1.0, 40)
    assert rep.time is None and len(rep.tv_trace) == 40
    with pytest.raises(DomainError):
        mixing_time(spec, -1.0, 41)


def test_cesaro_average_single_term():
    spec = WalkSpec(Circle(9), init="left")
    avg = cesaro_average(spec, 1)
    inst = distribution(evolve_circle(initial_state("left", Circle(9)), hadamard_coin(), 1))
    assert np.allclose(avg.masses, inst.masses)


def test_cesaro_identity_coin_uniformises():
    # a ballistic walker visits each of the n sites once per lap
    n = 7
    avg = cesaro_average(WalkSpec(Circle(n), theta_coin(0.0), init="left"), n)
    assert np.allclose(avg.masses, np.full(n, 1 / n), atol=1e-14)


def test_cesaro_average_beats_instantaneous_floor():
    # time averaging converges although the instantaneous distribution
    # keeps oscillating well away from uniform
    n = 63
    spec = WalkSpec(Circle(n))
    psi = initial_state("symmetric", Circle(n))
    inst = []
    for _ in range(8 * n):
        psi = evolve_circle(psi, hadamard_coin(), 1)
        inst.append(tv_distance(distribution(psi), "uniform_all"))
    avg_tv = tv_distance(cesaro_average(spec, 8 * n), "uniform_all")
    assert avg_tv < min(inst)
    assert avg_tv < 0.05


def test_cesaro_average_of_the_classical_walk():
    n, big_t = 9, 5
    avg = cesaro_average(WalkSpec(Circle(n), classical=True), big_t)
    mean = sum(classical_walk(Circle(n), t).masses for t in range(1, big_t + 1)) / big_t
    assert np.max(np.abs(avg.masses - mean)) < 1e-16


SCAN_COINS = pytest.mark.parametrize(
    "coin", [hadamard_coin(), theta_coin(1.2), COMPLEX_COIN],
    ids=["hadamard", "theta-1.2", "complex"])


@pytest.mark.parametrize("n", [31, 64])
@SCAN_COINS
def test_mixing_scan_equals_the_stepwise_definition(n, coin):
    reference = "uniform_all" if n % 2 else "uniform_parity"
    rep = mixing_time(WalkSpec(Circle(n), coin), 0.0, t_cap=3 * n)
    assert rep.time is None and len(rep.tv_trace) == 3 * n
    psi = initial_state("symmetric", Circle(n))
    for tv in rep.tv_trace:
        psi = evolve_circle(psi, coin, 1)
        assert tv == tv_distance(distribution(psi), reference)


@pytest.mark.parametrize("n", [31, 64])
@SCAN_COINS
def test_scan_masses_are_the_distribution_bit_for_bit(n, coin):
    # the scan squares its buffers in the order distribution() does
    psi = initial_state("symmetric", Circle(n))
    spec = WalkSpec(Circle(n), coin)
    for t, masses in enumerate(_masses(spec, 2 * n), start=1):
        expected = distribution(evolve_circle(psi, coin, t)).masses
        assert masses.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [31, 64])
def test_classical_scan_equals_the_classical_walk(n):
    rep = mixing_time(WalkSpec(Circle(n), classical=True), 0.0, t_cap=4 * n)
    for t, tv in enumerate(rep.tv_trace, start=1):
        if n % 2:
            target = np.full(n, 1 / n)
        else:
            target = np.where((np.arange(n) + t) % 2 == 0, 2 / n, 0.0)
        assert tv == total_variation(classical_walk(Circle(n), t).masses, target)


@pytest.mark.parametrize("n", [31, 64])
@SCAN_COINS
def test_cesaro_average_is_the_mean_of_the_distributions(n, coin):
    big_t = 3 * n
    avg = cesaro_average(WalkSpec(Circle(n), coin), big_t)
    psi = initial_state("symmetric", Circle(n))
    total = np.zeros(n)
    for _ in range(big_t):
        psi = evolve_circle(psi, coin, 1)
        total += distribution(psi).masses
    assert np.max(np.abs(avg.masses - total / big_t)) < 1e-14


def test_classical_walk_line_exact():
    d = classical_walk(Line(), 2)
    assert np.allclose(d.masses, [0.25, 0, 0.5, 0, 0.25])
    d = classical_walk(Line(), 300)
    # diffusive scaling: variance of n is exactly t
    assert moment(d, "second") * 300 == pytest.approx(1.0, abs=1e-12)
    assert moment(d, "mean") == pytest.approx(0.0, abs=1e-14)


def test_classical_walk_odd_circle_converges_to_uniform():
    d = classical_walk(Circle(5), 2000)
    assert np.max(np.abs(d.masses - 0.2)) < 1e-12


def test_classical_walk_rejects_negative_time():
    with pytest.raises(DomainError):
        classical_walk(Line(), -1)
