"""Tests of the benchmark's reference routes against direct position-space
loops written here, one more route apart from both them and ``qwalk``.

Run with ``python -m pytest qwbench``.
"""

import math

import numpy as np
import pytest

import reference


def walk_line(coin, pair, t):
    """Step the amplitudes site by site; returns psi(x, t) for x = -t..t."""
    psi = {0: np.asarray(pair, dtype=complex)}
    for _ in range(t):
        nxt = {}
        for x, amp in psi.items():
            turned = coin @ amp
            nxt.setdefault(x - 1, np.zeros(2, complex))[0] += turned[0]
            nxt.setdefault(x + 1, np.zeros(2, complex))[1] += turned[1]
        psi = nxt
    return np.array([psi.get(x, np.zeros(2)) for x in range(-t, t + 1)])


def walk_cycle_classical(n, t_max):
    p = np.zeros(n)
    p[0] = 1.0
    rows = []
    for _ in range(t_max):
        p = 0.5 * (np.roll(p, 1) + np.roll(p, -1))
        rows.append(p)
    return np.array(rows)


def random_pair(rng):
    z = rng.normal(size=4)
    pair = np.array([z[0] + 1j * z[1], z[2] + 1j * z[3]])
    return pair / np.linalg.norm(pair)


@pytest.mark.parametrize("seed", range(4))
def test_line_amplitudes_match_the_site_loop(seed):
    rng = np.random.default_rng(seed)
    coin = reference.rotation_coin(rng.uniform(0.1, 3.0))
    pair = random_pair(rng)
    for t in (0, 1, 2, 7, 30):
        np.testing.assert_allclose(reference.line_amplitudes(coin, pair, t),
                                   walk_line(coin, pair, t), rtol=0, atol=1e-13)


def test_hadamard_line_keeps_norm_parity_and_the_asymmetric_mean():
    t = 400
    amps = reference.line_amplitudes(reference.HADAMARD, reference.LEFT, t)
    p = np.sum(np.abs(amps) ** 2, axis=1)
    x = np.arange(-t, t + 1)
    assert abs(p.sum() - 1) < 1e-13
    assert np.max(p[(x + t) % 2 == 1]) < 1e-28
    # left start drifts left: E[x/t] -> -1 + 1/sqrt2
    assert abs(np.sum(x / t * p) - (-1 + 1 / math.sqrt(2))) < 0.01


def test_symmetric_start_gives_a_mirror_symmetric_line_distribution():
    amps = reference.line_amplitudes(reference.rotation_coin(1.1), reference.SYMMETRIC, 300)
    p = np.sum(np.abs(amps) ** 2, axis=1)
    assert np.max(np.abs(p - p[::-1])) < 1e-15


@pytest.mark.parametrize("n", [7, 12])
def test_cycle_walk_is_the_folded_line_walk(n):
    coin = reference.rotation_coin(0.9)
    t_max = 3 * n
    blocks = list(reference.cycle_quantum_masses(coin, reference.SYMMETRIC, n, t_max, block=5))
    times = np.concatenate([b[0] for b in blocks])
    masses = np.concatenate([b[1] for b in blocks])
    assert np.array_equal(times, np.arange(1, t_max + 1))
    for t in (1, n // 2, t_max):
        amps = walk_line(coin, reference.SYMMETRIC, t)
        folded = np.zeros((n, 2), complex)
        np.add.at(folded, np.arange(-t, t + 1) % n, amps)
        np.testing.assert_allclose(masses[t - 1], np.sum(np.abs(folded) ** 2, axis=1),
                                   rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", [9, 16])
def test_classical_cosine_expansion_matches_the_step_loop(n):
    blocks = list(reference.cycle_classical_masses(n, 200, block=64))
    masses = np.concatenate([b[1] for b in blocks])
    np.testing.assert_allclose(masses, walk_cycle_classical(n, 200), rtol=0, atol=1e-14)


@pytest.mark.parametrize("n, delta", [(31, 0.4446), (63, 0.4446), (64, 0.3)])
def test_classical_crossing_matches_the_step_loop(n, delta):
    rows = walk_cycle_classical(n, 5000)
    tv = reference.occupied_uniform_tv(rows, np.arange(1, 5001))
    expected = int(np.flatnonzero(tv <= delta)[0]) + 1
    crossing, trace = reference.tv_crossing(reference.cycle_classical_masses(n, 5000), delta)
    assert crossing == expected
    np.testing.assert_allclose(trace, tv[:expected], rtol=0, atol=1e-13)


def test_even_cycle_distance_is_taken_over_the_occupied_parity_class():
    n = 8
    masses = np.zeros((2, n))
    masses[0, ::2] = 2 / n  # t = 2: uniform on the even sites
    masses[1, 1::2] = 2 / n  # t = 3: uniform on the odd sites
    assert np.allclose(reference.occupied_uniform_tv(masses, np.array([2, 3])), 0)
    # on an odd cycle every site is reachable
    assert reference.occupied_uniform_tv(np.full((1, 7), 1 / 7), np.array([4]))[0] < 1e-16


def test_crossing_is_none_when_the_cap_comes_first():
    crossing, trace = reference.tv_crossing(reference.cycle_classical_masses(101, 50), 0.1)
    assert crossing is None and len(trace) == 50


def test_cesaro_average_is_the_mean_of_the_cycle_distributions():
    coin, n, big_t = reference.rotation_coin(2.0), 11, 40
    rows = np.concatenate([b[1] for b in reference.cycle_quantum_masses(
        coin, reference.SYMMETRIC, n, big_t)])
    avg = reference.cesaro_masses(coin, reference.SYMMETRIC, n, big_t)
    np.testing.assert_allclose(avg, rows.mean(axis=0), rtol=0, atol=1e-15)
    assert abs(avg.sum() - 1) < 1e-13
