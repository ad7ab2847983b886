"""Fourier-domain route: transfer matrices, eigensystems, exact evolution."""

import math

import numpy as np
import pytest

from qwalk import (
    DomainError,
    distribution,
    evolve_line,
    evolve_spectral,
    fourier_amplitudes,
    hadamard_coin,
    initial_state,
    theta_coin,
    transfer_matrix,
)
from qwalk.spectral import _eig_unitary_2x2

SQRT2 = math.sqrt(2)


def same_pairs(a, b):
    """Largest distance between two (..., 2) arrays of unordered pairs."""
    direct = np.abs(a - b).max(axis=-1)
    swapped = np.abs(a - b[..., ::-1]).max(axis=-1)
    return float(np.max(np.minimum(direct, swapped)))


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


def test_dispersion_hadamard_branch():
    # eigenvalues e^{-i w_k} and -e^{i w_k}, with sin w_k = sin k / sqrt2
    ks = np.linspace(-math.pi, math.pi, 41)
    lams, _ = _eig_unitary_2x2(transfer_matrix(hadamard_coin(), ks))
    w = np.arcsin(np.sin(ks) / SQRT2)
    assert same_pairs(lams, np.stack([np.exp(-1j * w), -np.exp(1j * w)], axis=-1)) < 1e-12


def test_dispersion_theta_branch():
    # eigenvalues e^{+-i w_k}, with cos w_k = cos(theta/2) cos k
    ks = np.linspace(-math.pi, math.pi, 41)
    lams, _ = _eig_unitary_2x2(transfer_matrix(theta_coin(1.1), ks))
    w = np.arccos(math.cos(0.55) * np.cos(ks))
    assert same_pairs(lams, np.stack([np.exp(1j * w), np.exp(-1j * w)], axis=-1)) < 1e-12


def test_eigensystem_reconstructs_matrix():
    rng = np.random.default_rng(5)
    for coin in (hadamard_coin(), theta_coin(0.4), theta_coin(3.0)):
        for k in rng.uniform(-math.pi, math.pi, 100):
            m = transfer_matrix(coin, k)
            lam, v = _eig_unitary_2x2(m)
            assert np.max(np.abs(v.conj().T @ v - np.eye(2))) < 1e-12
            rebuilt = v @ np.diag(lam) @ v.conj().T
            assert np.max(np.abs(rebuilt - m)) < 1e-12
            assert np.max(np.abs(m @ v - v * lam)) < 1e-12


def test_eigensystem_degenerate_identity_coin():
    lam, v = _eig_unitary_2x2(transfer_matrix(theta_coin(0.0), 0.0))
    assert abs(lam[0] - lam[1]) < 1e-12
    assert np.allclose(np.abs(lam), 1.0)
    assert np.max(np.abs(v.conj().T @ v - np.eye(2))) < 1e-12


def test_fourier_amplitudes_identity_at_t0():
    init = np.array([0.6, 0.8j])
    out = fourier_amplitudes(hadamard_coin(), init, 1.234, 0)
    assert np.max(np.abs(out - init)) < 1e-13


def test_fourier_amplitudes_one_step_left_start():
    # one step from (1, 0): psi~(k, 1) = (e^{-ik}, e^{ik}) / sqrt2
    for k in (0.0, 0.8, -2.5):
        out = fourier_amplitudes(hadamard_coin(), np.array([1.0, 0.0]), k, 1)
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
            out = fourier_amplitudes(coin, np.array([1.0, 0.0]), k, t)
            assert np.max(np.abs(out - np.array([el, er]))) < 1e-12


def test_fourier_amplitudes_rejects_unnormalised_init():
    with pytest.raises(DomainError):
        fourier_amplitudes(hadamard_coin(), np.array([1.0, 1.0]), 0.0, 1)


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


def test_spectral_identity_coin_point_mass():
    psi = evolve_spectral(initial_state("left"), theta_coin(0.0), 7)
    d = distribution(psi)
    by_site = dict(zip(d.sites.tolist(), d.masses.tolist()))
    assert by_site[-7] == pytest.approx(1.0, abs=1e-12)


def test_spectral_norm_is_exact():
    psi = evolve_spectral(initial_state("symmetric"), hadamard_coin(), 128)
    assert abs(psi.norm() - 1.0) < 1e-12


def test_spectral_oversampling_changes_nothing():
    psi0 = initial_state("left")
    a = evolve_spectral(psi0, hadamard_coin(), 20)
    b = evolve_spectral(psi0, hadamard_coin(), 20, n_samples=137)
    by_a = dict(zip(a.sites.tolist(), a.amplitudes))
    by_b = dict(zip(b.sites.tolist(), b.amplitudes))
    for s in by_a:
        assert np.max(np.abs(by_a[s] - by_b[s])) < 1e-12


def test_spectral_rejects_undersampling():
    with pytest.raises(DomainError):
        evolve_spectral(initial_state("left"), hadamard_coin(), 20, n_samples=11)


def test_spectral_rejects_circle_and_negative_t():
    from qwalk import Circle

    with pytest.raises(DomainError):
        evolve_spectral(initial_state("left", Circle(5)), hadamard_coin(), 3)
    with pytest.raises(DomainError):
        evolve_spectral(initial_state("left"), hadamard_coin(), -1)


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


def test_spectral_odd_sample_count():
    psi0 = initial_state("symmetric")
    a = evolve_line(psi0, hadamard_coin(), 20)
    b = evolve_spectral(psi0, hadamard_coin(), 20, n_samples=45)
    assert np.array_equal(a.sites, b.sites)
    assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-12


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


def test_spectral_rejects_too_many_steps():
    from qwalk.core import MAX_STEPS

    with pytest.raises(DomainError):
        evolve_spectral(initial_state("left"), hadamard_coin(), MAX_STEPS + 1)


@pytest.mark.parametrize("width, t", [(1, 0), (1, 1), (1, 2000), (3, 200000), (17, 4321)])
def test_default_grid_is_even_and_5_smooth(width, t):
    from qwalk.spectral import _grid_size

    n = _grid_size(width, t, None)
    assert n % 2 == 0 and n >= width + 2 * t
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    assert n == 1


def test_explicit_sample_count_is_kept():
    from qwalk.spectral import _grid_size

    assert _grid_size(1, 20, 45) == 45
    assert _grid_size(1, 20, 137) == 137
