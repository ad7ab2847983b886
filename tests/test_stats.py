"""Moments, interval masses, TV distances, mixing and the classical walk."""

import math

import numpy as np
import pytest

from qwalk import (
    Circle,
    DomainError,
    Line,
    WalkSpec,
    analytic_moment,
    cesaro_average,
    classical_walk,
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
from qwalk.evolve import ProbabilityDistribution

SQRT2 = math.sqrt(2)


@pytest.fixture(scope="module")
def had_left_t80():
    return distribution(evolve_line(initial_state("left"), hadamard_coin(), 80))


def test_moment_zeroth_is_total_mass(had_left_t80):
    assert moment(had_left_t80, 0).value == pytest.approx(1.0, abs=1e-12)


def test_moments_at_t80_match_known_values(had_left_t80):
    # mean drifts left toward -(1 - 1/sqrt2); second moment toward 1/2
    assert moment(had_left_t80, 1).value == pytest.approx(-0.293, abs=0.005)
    assert moment(had_left_t80, 2).value == pytest.approx(0.293, abs=0.005)
    assert moment(had_left_t80, 1, absolute=True).value == pytest.approx(
        0.5, abs=0.005
    )


def test_symmetric_start_mean_vanishes():
    d = distribution(evolve_line(initial_state("symmetric"), hadamard_coin(), 60))
    assert moment(d, 1).value == pytest.approx(0.0, abs=1e-12)


def test_moment_needs_positive_time():
    d = distribution(initial_state("left"))
    with pytest.raises(DomainError):
        moment(d, 1)


def test_analytic_moment_values():
    h = hadamard_coin()
    assert analytic_moment(h, "left", "mean").value == pytest.approx(
        -(1 - 1 / SQRT2), abs=1e-9
    )
    assert analytic_moment(h, "left", "second").value == pytest.approx(
        1 - 1 / SQRT2, abs=1e-9
    )
    assert analytic_moment(h, "left", "abs_mean").value == pytest.approx(
        0.5, abs=1e-9
    )
    assert analytic_moment(theta_coin(math.pi / 3), "symmetric", "abs_mean").value == (
        pytest.approx(2 / 3, abs=1e-9)
    )
    with pytest.raises(DomainError):
        analytic_moment(theta_coin(math.pi / 2), "symmetric", "median")
    with pytest.raises(DomainError):
        analytic_moment(theta_coin(0.0), "symmetric", "abs_mean")


def test_interval_mass_alpha_margin_monotone(had_left_t80):
    masses = [interval_mass(had_left_t80, eps) for eps in (0.0, 0.05, 0.2)]
    assert masses[0] > masses[1] > masses[2] > 0
    assert masses[0] <= 1.0


def test_interval_mass_wavenumber_law():
    # interior mass approaches 1 - 2 eps / pi when eps margins the
    # stationary wavenumber
    t = 400
    d = distribution(evolve_line(initial_state("left"), hadamard_coin(), t))
    for eps in (0.05, 0.2):
        got = interval_mass(d, eps, margin="wavenumber")
        assert got == pytest.approx(1 - 2 * eps / math.pi, abs=5.0 / t)


def test_interval_mass_rejects_bad_margin(had_left_t80):
    with pytest.raises(DomainError):
        interval_mass(had_left_t80, 0.1, margin="site")


def test_mass_concentrates_inside_the_cone(had_left_t80):
    inside = interval_mass(had_left_t80, 0.0)
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


def test_tv_distance_line_window_golden():
    # window is [-ceil(t/sqrt2), ceil(t/sqrt2)]; mass outside counts fully
    d = distribution(evolve_line(initial_state("left"), hadamard_coin(), 100))
    assert tv_distance(d, "uniform_all") == pytest.approx(
        0.5635197476244872, abs=1e-12
    )
    assert tv_distance(d, "uniform_parity") == pytest.approx(
        0.4195155443728212, abs=1e-12
    )
    with pytest.raises(DomainError):
        tv_distance(d, "gaussian")


def test_mixing_time_quantum_linear_instance():
    rep = mixing_time(WalkSpec(Circle(31)), 0.4446, t_cap=500)
    assert rep.reached and rep.time == 23
    assert rep.tv_trace[-1] <= 0.4446
    assert np.all(rep.tv_trace[:-1] > 0.4446)


def test_mixing_time_classical_instance():
    rep = mixing_time(WalkSpec(Circle(31), classical=True), 0.4446, t_cap=5000)
    assert rep.reached and rep.time == 77


def test_mixing_time_classical_even_cycle_uses_parity_class():
    rep = mixing_time(WalkSpec(Circle(64), classical=True), 0.3, t_cap=2000)
    assert rep.reached and rep.time == 157
    for t in (1, 2, 156, 157):
        parity_tv = tv_distance(classical_walk(64, t), "uniform_parity")
        assert rep.tv_trace[t - 1] == pytest.approx(parity_tv, abs=1e-12)


def test_mixing_time_can_fail_to_reach():
    # theta = pi never spreads beyond three sites
    spec = WalkSpec(Circle(9), theta_coin(math.pi))
    rep = mixing_time(spec, 0.1, t_cap=300)
    assert not rep.reached and rep.time is None
    assert len(rep.tv_trace) == 300


def test_mixing_time_requires_circle():
    with pytest.raises(DomainError):
        mixing_time(WalkSpec(Line()), 0.3, 100)


@pytest.mark.parametrize("t_cap", [0, -5])
def test_mixing_time_rejects_cap_below_one(t_cap):
    with pytest.raises(DomainError):
        mixing_time(WalkSpec(Circle(31)), 0.3, t_cap)


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


def test_classical_walk_line_exact():
    d = classical_walk(Line(), 2)
    assert np.allclose(d.masses, [0.25, 0, 0.5, 0, 0.25])
    d = classical_walk(Line(), 300)
    # diffusive scaling: variance of n is exactly t
    assert moment(d, 2).value * 300 == pytest.approx(1.0, abs=1e-12)
    assert moment(d, 1).value == pytest.approx(0.0, abs=1e-14)


def test_classical_walk_odd_circle_converges_to_uniform():
    d = classical_walk(5, 2000)
    assert np.max(np.abs(d.masses - 0.2)) < 1e-12


def test_classical_walk_rejects_negative_time():
    with pytest.raises(DomainError):
        classical_walk(Line(), -1)
