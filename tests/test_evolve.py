"""Direct recurrence evolution on the line and circle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
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
    hadamard_coin,
    initial_state,
    theta_coin,
)

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


def test_norm_conserved_along_the_walk():
    psi = initial_state("symmetric")
    coin = hadamard_coin()
    for _ in range(300):
        psi = evolve_line(psi, coin, 1)
        assert abs(psi.norm() - 1.0) < 1e-12


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


def test_circle_matches_folded_line():
    # before wraparound interference the circle walk is the line walk mod n
    n, t = 31, 14
    coin = hadamard_coin()
    line = evolve_line(initial_state("symmetric"), coin, t)
    circ = evolve_circle(initial_state("symmetric", Circle(n)), coin, t)
    folded = np.zeros((n, 2), dtype=np.complex128)
    for site, amp in zip(line.sites.tolist(), line.amplitudes):
        folded[site % n] += amp
    assert np.max(np.abs(folded - circ.amplitudes)) < 1e-13


def test_circle_wraps_after_half_size():
    # beyond n/2 steps the fold produces genuine interference, norm stays 1
    psi = evolve_circle(initial_state("left", Circle(5)), hadamard_coin(), 10)
    assert abs(psi.norm() - 1.0) < 1e-12


def test_distribution_normalises_and_sites_align():
    psi = evolve_line(initial_state("left"), hadamard_coin(), 100)
    d = distribution(psi)
    assert d.masses.sum() == pytest.approx(1.0, abs=1e-12)
    assert d.sites[0] == -100 and d.sites[-1] == 100
    assert np.all(d.masses >= 0)


# --- property tests over random U(2) coins and states ----------------------

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
