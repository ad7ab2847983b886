"""Moments, interval masses, TV distances, mixing and the classical walk."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from qwalk import (
    Circle,
    CoinOperator,
    DomainError,
    Line,
    MixingReport,
    WalkSpec,
    cesaro_average,
    classical_walk,
    density,
    density_moment,
    distribution,
    evolve_circle,
    evolve_line,
    hadamard_coin,
    initial_state,
    interval_mass,
    mixing_time,
    moment,
    symmetric_initial,
    theta_coin,
    tv_distance,
)
from qwalk.core import MAX_STEPS, ProbabilityDistribution, WaveFunction, _row_masses
from qwalk.evolve import _circle_masses, _ring_blocks

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


def test_velocity_is_the_site_label_over_t():
    # alpha = n/t reads the site label, as for the paper's walk from the
    # origin: a start at site 5 shifts the mean by 5/t
    t, coin = 100, hadamard_coin()
    origin = distribution(evolve_line(initial_state("symmetric"), coin, t))
    moved = distribution(evolve_line(initial_state("symmetric", Line(offset=5)), coin, t))
    assert np.array_equal(moved.masses, origin.masses)
    assert abs(moment(moved, "mean") - (moment(origin, "mean") + 5 / t)) < 1e-12


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


@pytest.mark.parametrize("eps", [math.nan, -math.inf, -0.1, 2.0, math.inf])
def test_interval_mass_refuses_eps_outside_its_law(had_left_t80, eps):
    # the law 1 - 2 eps / pi holds for eps in [0, pi/2], both ends served
    with pytest.raises(DomainError):
        interval_mass(had_left_t80, hadamard_coin(), eps)
    for end in (0.0, math.pi / 2):
        assert 0 < interval_mass(had_left_t80, hadamard_coin(), end) <= 1


@pytest.mark.parametrize("coin", [theta_coin(0.0), CoinOperator(np.diag([1 + 4e-15, 1.0]))],
                         ids=["identity", "u00-above-1"])
def test_interval_mass_of_a_ballistic_coin_at_the_far_end(coin):
    # |u00| = 1 makes 1 - c^2 sin^2(eps) vanish at eps = pi/2, and a |u00|
    # that passes the unitarity check just above 1 makes it negative
    assert abs(coin.matrix[0, 0]) >= 1
    d = distribution(evolve_line(initial_state("left"), theta_coin(0.0), 50))
    for eps in (0.0, 1.0, math.pi / 2):
        assert interval_mass(d, coin, eps) == 1.0


def test_mass_concentrates_inside_the_cone(had_left_t80):
    inside = interval_mass(had_left_t80, hadamard_coin(), 0.0)
    assert inside >= 1 - 1.0 * 80 ** (-1 / 3)


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


@pytest.mark.parametrize("n, reference", [(8, "uniform_parity"), (10, "uniform_parity"),
                                          (9, "uniform_all")])
def test_tv_distance_against_an_explicit_reference(n, reference):
    # the reference built site by site, apart from stats: 2/n on the
    # class x = t (mod 2) a walk from site 0 occupies, or 1/n everywhere;
    # the masses fill both classes, so off-class mass counts too
    rng = np.random.default_rng(n)
    for t in range(4):
        p = rng.random(n)
        p /= p.sum()
        if reference == "uniform_parity":
            ref = np.array([2 / n if x % 2 == t % 2 else 0.0 for x in range(n)])
        else:
            ref = np.array([1 / n for _ in range(n)])
        expected = 0.5 * sum(abs(p[x] - ref[x]) for x in range(n))
        got = tv_distance(ProbabilityDistribution(Circle(n), p, t), reference)
        assert got == pytest.approx(expected, rel=1e-14, abs=0)


def test_tv_distance_refuses_line():
    # a line's cone depends on the coin, which a distribution does not carry
    d = distribution(evolve_line(initial_state("left"), hadamard_coin(), 100))
    with pytest.raises(DomainError):
        tv_distance(d, "uniform_all")
    with pytest.raises(DomainError):
        tv_distance(distribution(initial_state("left", Circle(7))), "gaussian")


def test_tv_distance_refuses_parity_on_an_odd_cycle():
    # an odd cycle wraps the parity classes into each other, so there is
    # no class to be uniform on; a point mass used to read 0.75 here
    d = distribution(initial_state("left", Circle(7)))
    with pytest.raises(DomainError, match="even cycle"):
        tv_distance(d, "uniform_parity")


def test_mixing_time_quantum_linear_instance():
    rep = mixing_time(WalkSpec(Circle(31), hadamard_coin(), "symmetric"), 0.4446, t_cap=500)
    assert rep.time == 23
    assert rep.tv_trace[-1] <= 0.4446
    assert np.all(rep.tv_trace[:-1] > 0.4446)


def test_mixing_time_classical_instance():
    rep = mixing_time(WalkSpec(Circle(31), None, None), 0.4446, t_cap=5000)
    assert rep.time == 77


def test_mixing_time_classical_even_cycle_uses_parity_class():
    rep = mixing_time(WalkSpec(Circle(64), None, None), 0.3, t_cap=2000)
    assert rep.time == 157
    for t in (1, 2, 156, 157):
        parity_tv = tv_distance(classical_walk(Circle(64), t), "uniform_parity")
        assert rep.tv_trace[t - 1] == pytest.approx(parity_tv, abs=1e-12)


def test_mixing_time_can_fail_to_reach():
    # theta = pi never spreads beyond three sites
    spec = WalkSpec(Circle(9), theta_coin(math.pi), "symmetric")
    rep = mixing_time(spec, 0.1, t_cap=300)
    assert rep.time is None
    assert len(rep.tv_trace) == 300


@pytest.mark.parametrize("time, trace, message", [
    ("x", [0.5], "time must be an integer"),
    (2.5, [0.1, 0.2, 0.3], "time must be an integer"),
    (0, [0.5], "time must be None or in 1..1"),
    (-2, [0.5], "time must be None or in 1..1"),
    (5, [0.5], "time must be None or in 1..1"),
    (3, [[0.5, 0.1]], "1-D array of finite numbers"),
    (3, [math.nan], "1-D array of finite numbers"),
    (None, [math.inf], "1-D array of finite numbers"),
], ids=["str-time", "float-time", "time-0", "negative-time", "time-past-trace", "2-d-trace",
        "nan-trace", "inf-trace"])
def test_a_mixing_report_refuses_what_no_scan_reports(time, trace, message):
    with pytest.raises(DomainError, match=message):
        MixingReport(time, trace)


def test_a_mixing_report_copies_a_trace_something_writeable_underlies():
    # a read-only view of a writeable array, and a read-only array that
    # owns its memory, whose holder may make it writeable again
    given = np.zeros(3)
    view = given.view()
    view.flags.writeable = False
    owner = np.zeros(3)
    owner.flags.writeable = False
    reports = [MixingReport(None, view), MixingReport(1, owner)]
    given[0] = 7
    owner.flags.writeable = True
    owner[0] = 7
    assert [report.tv_trace.tolist() for report in reports] == [[0, 0, 0]] * 2
    assert not any(report.tv_trace.flags.writeable for report in reports)
    # held as the Python int, as WaveFunction holds its time
    assert type(MixingReport(np.int64(3), [0.5, 0.4, 0.3]).time) is int


def test_mixing_time_trace_memory():
    # a 3-cycle classical walk never reaches TV 0; a list of Python floats
    # peaked at about 4 MB over 10^5 steps, 32 bytes a step plus the copy
    spec = WalkSpec(Circle(3), None, None)
    tracemalloc.start()
    try:
        rep = mixing_time(spec, 0.0, t_cap=10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.time is None and len(rep.tv_trace) == 10**5
    assert peak < 1.2e6
    # the report holds the scan's trace read-only, with no copy of it
    assert not rep.tv_trace.flags.writeable


def test_real_ring_scan_memory():
    # the symmetric Hadamard scan on Circle(2047) steps the real walk in
    # 8-step blocks; the ring, each block's masses and the trace peaked at
    # 0.92 MB, against 0.59 MB with the 4-step blocks of complex rows
    spec = WalkSpec(Circle(2047), hadamard_coin(), "symmetric")
    tracemalloc.start()
    try:
        rep = mixing_time(spec, 0.4446, t_cap=10 * 2047)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.time == 1914
    assert peak < 1.2e6


@pytest.mark.parametrize("topology, coin, init", [
    (Line(), hadamard_coin(), "left"),
    (Circle(5), None, "left"),
    (Circle(5), hadamard_coin(), None),
    (Circle(5), hadamard_coin(), "sideways"),
    (Circle(5), hadamard_coin(), np.array([1.0, 0.0, 0.0])),
    (Circle(5), hadamard_coin(), np.array([1.0, 1.0])),
], ids=["line", "classical-with-start", "coin-without-start", "unknown-start",
        "length-3-start", "non-unit-start"])
def test_walk_spec_refuses_a_walk_it_cannot_run(topology, coin, init):
    # refused once, when the spec is built, and by no scan that takes it
    with pytest.raises(DomainError):
        WalkSpec(topology, coin, init)


def test_walk_spec_keeps_its_checked_start():
    # a later write to the caller's array reaches neither the spec nor
    # its scans, so the start it was checked with is the start it runs
    init = np.array([0.6, 0.8j])
    spec = WalkSpec(Circle(5), hadamard_coin(), init)
    trace = mixing_time(spec, -1.0, 10).tv_trace
    init[:] = [3.0, 4.0]
    assert mixing_time(spec, -1.0, 10).tv_trace.tobytes() == trace.tobytes()


@pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
def test_mixing_time_rejects_a_non_finite_delta(delta):
    # NaN and -inf are never reached and +inf always is: none is a target
    with pytest.raises(DomainError, match="delta must be finite"):
        mixing_time(WalkSpec(Circle(5), hadamard_coin(), "symmetric"), delta, 50)


@pytest.mark.parametrize("value", ["0.3", None, 0.3 + 0j])
@pytest.mark.parametrize("call", [
    lambda value: mixing_time(WalkSpec(Circle(5), hadamard_coin(), "symmetric"), value, 10),
    lambda value: theta_coin(value),
    lambda value: interval_mass(distribution(evolve_line(initial_state("left"),
                                                         hadamard_coin(), 4)),
                                hadamard_coin(), value),
    lambda value: density(value, hadamard_coin(), "left"),
], ids=["mixing_time-delta", "theta_coin-theta", "interval_mass-eps", "density-alpha"])
def test_numeric_parameters_refuse_what_is_not_a_real(call, value):
    # a string, None or a complex number is a domain error, not a TypeError
    with pytest.raises(DomainError, match="must be a real number"):
        call(value)


@pytest.mark.parametrize("t_cap", [0, -5])
def test_mixing_time_rejects_cap_below_one(t_cap):
    with pytest.raises(DomainError):
        mixing_time(WalkSpec(Circle(31), hadamard_coin(), "symmetric"), 0.3, t_cap)


@pytest.mark.parametrize("call", [
    lambda: classical_walk(Line(), 2**60),
    lambda: cesaro_average(WalkSpec(Circle(3), None, None), MAX_STEPS + 1),
], ids=["classical_walk", "cesaro_average"])
def test_step_counts_are_capped_before_allocation(call):
    with pytest.raises(DomainError):
        call()


def test_mixing_scan_stops_at_the_step_cap(monkeypatch):
    # a t_cap above the cap is accepted, because the scan stops at the
    # crossing; a scan that reaches the cap without one is refused
    monkeypatch.setattr("qwalk.stats.MAX_STEPS", 40)
    spec = WalkSpec(Circle(31), hadamard_coin(), "symmetric")
    assert mixing_time(spec, 1.0, 2**60).time == 1
    rep = mixing_time(spec, -1.0, 40)
    assert rep.time is None and len(rep.tv_trace) == 40
    with pytest.raises(DomainError):
        mixing_time(spec, -1.0, 41)


def test_cesaro_average_refuses_a_line_and_zero_terms():
    with pytest.raises(DomainError, match="WalkSpec is defined on the circle"):
        cesaro_average(WalkSpec(Line(), hadamard_coin(), "symmetric"), 10)
    with pytest.raises(DomainError, match="T must be at least 1"):
        cesaro_average(WalkSpec(Circle(5), hadamard_coin(), "symmetric"), 0)


def test_cesaro_average_single_term():
    spec = WalkSpec(Circle(9), hadamard_coin(), "left")
    avg = cesaro_average(spec, 1)
    inst = distribution(evolve_circle(initial_state("left", Circle(9)), hadamard_coin(), 1))
    assert np.allclose(avg.masses, inst.masses)


def test_cesaro_identity_coin_uniformises():
    # a ballistic walker visits each of the n sites once per lap
    n = 7
    avg = cesaro_average(WalkSpec(Circle(n), theta_coin(0.0), "left"), n)
    assert np.allclose(avg.masses, np.full(n, 1 / n), atol=1e-14)


def test_cesaro_average_beats_instantaneous_floor():
    # time averaging converges although the instantaneous distribution
    # keeps oscillating well away from uniform
    n = 63
    spec = WalkSpec(Circle(n), hadamard_coin(), "symmetric")
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
    avg = cesaro_average(WalkSpec(Circle(n), None, None), big_t)
    mean = sum(classical_walk(Circle(n), t).masses for t in range(1, big_t + 1)) / big_t
    assert np.max(np.abs(avg.masses - mean)) < 1e-16


SCAN_COINS = pytest.mark.parametrize(
    "coin", [hadamard_coin(), theta_coin(1.2), COMPLEX_COIN],
    ids=["hadamard", "theta-1.2", "complex"])


@pytest.mark.parametrize("n", [31, 64])
@SCAN_COINS
def test_mixing_scan_equals_the_stepwise_definition(n, coin):
    reference = "uniform_all" if n % 2 else "uniform_parity"
    rep = mixing_time(WalkSpec(Circle(n), coin, "symmetric"), 0.0, t_cap=3 * n)
    assert rep.time is None and len(rep.tv_trace) == 3 * n
    psi = initial_state("symmetric", Circle(n))
    for tv in rep.tv_trace:
        psi = evolve_circle(psi, coin, 1)
        assert tv == tv_distance(distribution(psi), reference)


#: a start that chirality_pair accepts, whose largest part lies just
#: below 1/2, so the ring steps it scaled by 2 and its masses by 4
BORDERLINE_START = np.array([0.5 + 0.5j, 0.5 + 0.5j]) * (1 - 4e-13)


@pytest.mark.parametrize("n, init", [
    # the symmetric cases keep the ids they had before init was a parameter
    # 3 and 4 are the smallest odd and even cycles of the mirror fold,
    # which sums sites 0 .. n // 2 and copies the rest
    *[pytest.param(n, "symmetric", id=str(n)) for n in (3, 4, 31, 64)],
    *[pytest.param(n, BORDERLINE_START, id=f"borderline-{n}") for n in (9, 64, 127)],
])
@SCAN_COINS
def test_scan_masses_are_the_distribution_bit_for_bit(n, init, coin):
    # the scan squares its blocks in the order distribution() does, and
    # undoes the ring's scale on the squares
    psi = initial_state(init, Circle(n))
    spec = WalkSpec(Circle(n), coin, init)
    rows = [row.copy() for block in _circle_masses(spec, 2 * n)
            for row in block]
    assert len(rows) == 2 * n
    for t, masses in enumerate(rows, start=1):
        expected = distribution(evolve_circle(psi, coin, t)).masses
        assert masses.tobytes() == expected.tobytes()
    assert mixing_time(spec, -1.0, 2 * n).tv_trace.max() <= 1
    assert abs(cesaro_average(spec, 2 * n).masses.sum() - 1) < 1e-12


def test_theta_cesaro_average_bytes_are_pinned():
    # taken when the real ring on Circle(511) stepped 16-step blocks and
    # its mirror fold summed the whole cycle: 32-step blocks and a fold
    # over half the cycle must not change a byte
    avg = cesaro_average(WalkSpec(Circle(511), theta_coin(1.3), "symmetric"), 4088)
    assert hashlib.sha256(avg.masses.tobytes()).hexdigest() == (
        "d518fd455520f73df1fd2920b017ff781f641c554e1a2808d2d9a12144cc907b")


def block_length(n, coin, dtype=np.complex128):
    """The steps per block of the ring on ``Circle(n)``, read off its first block.

    A coined ring holds rows of ``dtype``: complex, or float64 for the
    real walk that a real coin's scans step from a real or mirror start.
    """
    rows = np.zeros((1, n)) if coin is None else np.zeros((2, n), dtype=dtype)
    return len(next(_ring_blocks(rows, coin, 10**4))[0])


def classical_steps(n, steps):
    """The symmetric random walk from site 0, one step at a time."""
    d = np.zeros(n)
    d[0] = 1.0
    for _ in range(steps):
        d = (np.roll(d, 1) + np.roll(d, -1)) * 0.5
        yield d


def boundary_steps(b):
    """Step counts short of, on and just past the first block boundaries."""
    return sorted({1, b - 1, b, b + 1, 2 * b - 1, 2 * b, 2 * b + 1, 3 * b} - {0})


#: block lengths 3 and 2 (the classical and the coined walk, capped by
#: n), 8, 16 (odd and even cycles), 18 and 16, 31 and 16, 64 and 16
#: (n = 511), and 3 and 1 on an even cycle past the ring's budget, whose
#: parity targets alternate across its one-step coined blocks: a coined
#: block is a power of two, and the classical blocks cover odd lengths too
BLOCK_CYCLES = pytest.mark.parametrize("n", [3, 31, 64, 72, 127, 511, 8194])


def test_block_lengths_of_the_boundary_cycles():
    lengths = {n: (block_length(n, None), block_length(n, hadamard_coin()))
               for n in (3, 31, 64, 72, 127, 511, 2047, 8193, 8194)}
    assert lengths == {3: (3, 2), 31: (8, 8), 64: (16, 16), 72: (18, 16), 127: (31, 16),
                       511: (64, 16), 2047: (16, 4), 8193: (3, 1), 8194: (3, 1)}


def test_block_lengths_of_real_rows():
    # a real row holds half the bytes of a complex one, so where the ring's
    # 256 KiB budget binds its blocks take twice the steps, up to the flush
    # period of 32: uncapped, n = 256 would take 64-step blocks
    lengths = {n: block_length(n, hadamard_coin(), np.float64)
               for n in (127, 256, 300, 511, 1023, 2047, 4095, 8191, 16383)}
    assert lengths == {127: 16, 256: 32, 300: 32, 511: 32, 1023: 16, 2047: 8, 4095: 4,
                       8191: 2, 16383: 1}


@BLOCK_CYCLES
@SCAN_COINS
def test_circle_walk_is_stepwise_across_block_boundaries(n, coin):
    psi = initial_state("symmetric", Circle(n))
    b = block_length(n, coin)
    stepwise = [psi]
    for _ in range(3 * b + 1):
        stepwise.append(evolve_circle(stepwise[-1], coin, 1))
    for steps in boundary_steps(b):
        got = evolve_circle(psi, coin, steps).amplitudes
        assert got.tobytes() == stepwise[steps].amplitudes.tobytes()


@BLOCK_CYCLES
def test_classical_walk_is_stepwise_across_block_boundaries(n):
    b = block_length(n, None)
    stepwise = list(classical_steps(n, 3 * b + 1))
    for steps in boundary_steps(b):
        assert classical_walk(Circle(n), steps).masses.tobytes() == stepwise[steps - 1].tobytes()


@BLOCK_CYCLES
@pytest.mark.parametrize("coin", [None, hadamard_coin(), COMPLEX_COIN],
                         ids=["classical", "hadamard", "complex"])
def test_scans_are_stepwise_across_block_boundaries(n, coin):
    # traces and Cesaro sums cut short of, on and past a block's end
    spec = WalkSpec(Circle(n), coin, None if coin is None else "symmetric")
    # the Hadamard scan from the symmetric start steps the real walk alone
    b = block_length(n, coin, np.complex128 if coin is COMPLEX_COIN else np.float64)
    if coin is None:
        masses = list(classical_steps(n, 3 * b + 1))
    else:
        psi, masses = initial_state("symmetric", Circle(n)), []
        for _ in range(3 * b + 1):
            psi = evolve_circle(psi, coin, 1)
            masses.append(distribution(psi).masses)
    reference = "uniform_all" if n % 2 else "uniform_parity"
    tvs = np.array([tv_distance(ProbabilityDistribution(Circle(n), m, t), reference)
                    for t, m in enumerate(masses, start=1)])
    for steps in boundary_steps(b):
        rep = mixing_time(spec, -1.0, steps)
        assert rep.time is None
        assert rep.tv_trace.tobytes() == tvs[:steps].tobytes()
        total = np.zeros(n)
        for m in masses[:steps]:
            total += m
        assert cesaro_average(spec, steps).masses.tobytes() == (total / steps).tobytes()


@pytest.fixture
def ring_starts(monkeypatch):
    """The start rows ``qwalk.evolve`` hands its ring, one array per ring built."""
    starts = []

    def spy(rows, coin, steps):
        starts.append(rows)
        return _ring_blocks(rows, coin, steps)

    monkeypatch.setattr("qwalk.evolve._ring_blocks", spy)
    return starts


def complex_ring_masses(n, coin, init, steps):
    """The site masses after each step, the start stepped as complex rows on the ring."""
    masses = []
    for block, shift in _ring_blocks(initial_state(init, Circle(n)).amplitudes.T, coin, steps):
        squares = _row_masses(block)
        np.ldexp(squares, -2 * shift, out=squares)
        masses.extend(squares)
    return masses


#: a real orthogonal coin from a QR draw: its entries pair in magnitude
#: only up to the last bit, so its walk has no exact mirror image
QR_COIN = CoinOperator(np.linalg.qr(np.random.default_rng(0).normal(size=(2, 2)))[0])


@pytest.mark.parametrize("n", [31, 64])
@pytest.mark.parametrize("init", [np.array([1, 1j]) / SQRT2, np.array([1, -1j]) / SQRT2, "left"],
                         ids=["plus-i", "minus-i", "left"])
@pytest.mark.parametrize("coin", [
    theta_coin(0.0), theta_coin(1.2), theta_coin(math.pi), hadamard_coin(),
    CoinOperator(np.array([[0.6, 0.8], [0.8, -0.6]])),
], ids=["theta-0", "theta-1.2", "theta-pi", "hadamard", "reflection-0.6"])
def test_real_ring_scans_are_the_complex_ring_bit_for_bit(n, init, coin, ring_starts):
    # a real coin steps a real start's real walk alone, and from (1, +-i)/sqrt2,
    # if its entries pair, also adds the masses at x and -x, where the
    # imaginary walk's would be
    spec = WalkSpec(Circle(n), coin, init)
    b = block_length(n, coin)
    steps = 5 * b + 1  # past the flush at the start of block 32 // b
    expected = complex_ring_masses(n, coin, init, steps)
    got = [row.copy() for block in _circle_masses(spec, steps)
           for row in block]
    assert [rows.dtype for rows in ring_starts] == [np.float64]
    assert np.array(got).tobytes() == np.array(expected).tobytes()
    reference = "uniform_all" if n % 2 else "uniform_parity"
    tvs = np.array([tv_distance(ProbabilityDistribution(Circle(n), m, t), reference)
                    for t, m in enumerate(expected, start=1)])
    for t in [*boundary_steps(b), steps]:
        assert mixing_time(spec, -1.0, t).tv_trace.tobytes() == tvs[:t].tobytes()
        total = np.zeros(n)
        for m in expected[:t]:
            total += m
        assert cesaro_average(spec, t).masses.tobytes() == (total / t).tobytes()


@pytest.mark.parametrize("n", [31, 64])
@pytest.mark.parametrize("coin, init", [
    (QR_COIN, np.array([1, 1j]) / SQRT2),
    (hadamard_coin(), BORDERLINE_START),
], ids=["qr-coin-symmetric", "hadamard-borderline"])
def test_starts_without_a_mirror_image_step_the_complex_ring(n, coin, init, ring_starts):
    (w00, _), (_, w11) = coin.matrix.real
    assert coin is not QR_COIN or abs(w00) != abs(w11)
    b = block_length(n, coin)
    expected = complex_ring_masses(n, coin, init, 5 * b + 1)
    got = [row.copy() for block in _circle_masses(WalkSpec(Circle(n), coin, init), 5 * b + 1)
           for row in block]
    assert [rows.dtype for rows in ring_starts] == [np.complex128]
    assert np.array(got).tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("coin", [
    CoinOperator(np.array([[0.6, -0.8], [0.8, 0.6]])),
    CoinOperator(np.array([[-0.6, 0.8], [0.8, 0.6]])),
], ids=["rotation", "reflection"])
def test_symmetric_start_of_an_opposite_sign_coin_is_a_mirror_start(coin, ring_starts):
    # u00 and u01 of opposite signs: the start is (1, -i)/sqrt2 exactly, so
    # the scan steps the real walk alone, and the line walk is mirror-symmetric
    # bit for bit, where a rounded phase leaves a real part on both chiralities
    pair = symmetric_initial(coin)
    cesaro_average(WalkSpec(Circle(31), coin, pair), 40)
    assert [rows.dtype for rows in ring_starts] == [np.float64]
    masses = distribution(evolve_line(initial_state(pair), coin, 200)).masses
    assert masses.tobytes() == masses[::-1].tobytes()


#: real inputs on Circle(31): a unit mass on L, and real parts whose
#: largest lies below 1/2, so the ring scales its first slot up by 2
REAL_INPUTS = {
    "left": initial_state("left", Circle(31)).amplitudes,
    "scaled": np.random.default_rng(3).uniform(-0.3, 0.3, size=(31, 2)) + 0j,
}


@pytest.mark.parametrize("coin", [hadamard_coin(), theta_coin(1.2), QR_COIN],
                         ids=["hadamard", "theta-1.2", "qr-coin"])
@pytest.mark.parametrize("name", list(REAL_INPUTS))
def test_real_input_steps_the_real_ring_in_evolve_circle(name, coin, ring_starts):
    psi = WaveFunction(Circle(31), REAL_INPUTS[name], 0)
    steps = 5 * block_length(31, coin) + 1
    for block, shift in _ring_blocks(psi.amplitudes.T, coin, steps):
        pass
    row = block[-1].copy()
    np.ldexp(row.view(np.float64), -shift, out=row.view(np.float64))
    assert shift == (name == "scaled")
    got = evolve_circle(psi, coin, steps)
    # the real parts are handed over as a view of the input, not a copy
    assert [rows.dtype for rows in ring_starts] == [np.float64]
    assert np.shares_memory(ring_starts[0], psi.amplitudes)
    assert got.amplitudes.tobytes() == WaveFunction(Circle(31), row.T, steps).amplitudes.tobytes()


@pytest.mark.parametrize("n", [31, 72])
def test_crossing_on_the_first_and_last_row_of_a_block(n):
    # the classical TV falls strictly at first, so each trace value is
    # first reached at its own step
    spec = WalkSpec(Circle(n), None, None)
    b = block_length(n, None)
    full = mixing_time(spec, -1.0, 4 * b).tv_trace
    assert np.all(np.diff(full) < 0)
    for t in (b, b + 1, 2 * b, 2 * b + 1):  # last row of a block, first of the next
        rep = mixing_time(spec, full[t - 1], 10**4)
        assert rep.time == t
        assert rep.tv_trace.tobytes() == full[:t].tobytes()


@pytest.mark.parametrize("n", [31, 64])
def test_classical_scan_equals_the_classical_walk(n):
    rep = mixing_time(WalkSpec(Circle(n), None, None), 0.0, t_cap=4 * n)
    for t, tv in enumerate(rep.tv_trace, start=1):
        if n % 2:
            target = np.full(n, 1 / n)
        else:
            target = np.where((np.arange(n) + t) % 2 == 0, 2 / n, 0.0)
        assert tv == 0.5 * float(np.sum(np.abs(classical_walk(Circle(n), t).masses - target)))


@pytest.mark.parametrize("n", [31, 64])
@SCAN_COINS
def test_cesaro_average_is_the_mean_of_the_distributions(n, coin):
    big_t = 3 * n
    avg = cesaro_average(WalkSpec(Circle(n), coin, "symmetric"), big_t)
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


def test_classical_walk_at_zero_steps_is_the_start():
    d = classical_walk(Line(), 0)
    assert d.sites.tolist() == [0] and d.masses.tolist() == [1.0]
    assert classical_walk(Circle(4), 0).masses.tolist() == [1.0, 0.0, 0.0, 0.0]


def test_classical_walk_starts_at_the_line_offset():
    # the walker starts on row 0 of the line, as initial_state puts it
    d = classical_walk(Line(offset=5), 3)
    assert d.sites.tolist() == list(range(2, 9))
    assert d.masses.tobytes() == classical_walk(Line(), 3).masses.tobytes()


def _closed_form_tv(n, times):
    """TV of the classical walk from site 0 on ``Circle(n)`` to the scan's target.

    ``P_t = irfft(cos(2 pi j / n)^t)``, j = 0..n/2: the walk's own
    eigenmodes, with no step of the ring.  The target is uniform on all
    sites of an odd cycle, and on the parity class ``x + t`` even of an
    even one.
    """
    times = np.asarray(times)[:, None]
    p = np.fft.irfft(np.cos(2 * np.pi * np.arange(n // 2 + 1) / n) ** times, n)
    if n % 2:
        target = np.full(p.shape, 1.0 / n)
    else:
        target = np.where((np.arange(n) + times) % 2 == 0, 2.0 / n, 0.0)
    return 0.5 * np.abs(p - target).sum(axis=1)


@pytest.mark.parametrize("n, delta, crossing", [
    (31, 0.4446, 77), (64, 0.3, 157), (127, 0.4446, 1280), (511, 0.4446, 20710),
])
def test_classical_scan_matches_its_closed_form(n, delta, crossing):
    # The bound is t eps at the crossing t, the relative error of cos(k)^t
    # in the slowest mode; the largest differences measured were 3.3e-15,
    # 2.1e-15, 4.7e-15 and 4.9e-13 against bounds of 1.7e-14, 3.5e-14,
    # 2.8e-13 and 4.6e-12.  The full trace is compared up to n = 127, and
    # at n = 511 the crossing and the step before it.
    rep = mixing_time(WalkSpec(Circle(n), None, None), delta, t_cap=20 * n * n)
    assert rep.time == crossing
    times = np.arange(1, crossing + 1) if n < 511 else np.array([crossing - 1, crossing])
    oracle = _closed_form_tv(n, times)
    assert np.max(np.abs(rep.tv_trace[times - 1] - oracle)) <= crossing * np.finfo(float).eps
    assert oracle[-1] <= delta < oracle[-2]
    assert np.all(oracle[:-1] > delta)


def test_classical_walk_odd_circle_converges_to_uniform():
    d = classical_walk(Circle(5), 2000)
    assert np.max(np.abs(d.masses - 0.2)) < 1e-12


def test_classical_walk_rejects_negative_time():
    with pytest.raises(DomainError):
        classical_walk(Line(), -1)
