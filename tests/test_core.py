"""Coin matrices, the transfer matrix at k = 0, topologies, initial states
and the defaulted parameters of the public functions."""

import inspect
import math

import numpy as np
import pytest

import qwalk
from qwalk import (
    Circle,
    CoinOperator,
    DomainError,
    Line,
    WaveFunction,
    distribution,
    evolve_line,
    hadamard_coin,
    initial_state,
    theta_coin,
    transfer_matrix,
)

SQRT2 = math.sqrt(2)


def test_hadamard_matrix_values():
    h = hadamard_coin().matrix
    assert np.allclose(h, np.array([[1, 1], [1, -1]]) / SQRT2)
    assert np.allclose(h @ h, np.eye(2))


def test_theta_coin_endpoints():
    assert np.allclose(theta_coin(0.0).matrix, np.eye(2))
    assert np.allclose(theta_coin(math.pi).matrix, [[0, 1], [-1, 0]])
    # the singular ends are exact: no 6e-17 diagonal entry at theta = pi
    assert np.array_equal(theta_coin(0.0).matrix, np.eye(2))
    assert np.array_equal(np.diag(theta_coin(math.pi).matrix), [0, 0])


def test_theta_coin_is_unitary_across_family():
    for theta in np.linspace(0, math.pi, 23):
        u = theta_coin(float(theta)).matrix
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-15


def test_theta_coin_rejects_out_of_range():
    with pytest.raises(DomainError):
        theta_coin(-0.1)
    with pytest.raises(DomainError):
        theta_coin(math.pi + 0.1)


def test_coin_operator_rejects_non_unitary():
    with pytest.raises(DomainError):
        CoinOperator(np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_transfer_matrix_at_zero_is_the_coin():
    # M_0 = M+ + M-: the two shift directions together make one coin step
    complex_coin = CoinOperator(np.array([[1, 1j], [1j, 1]]) / SQRT2)
    for coin in (hadamard_coin(), theta_coin(1.0), theta_coin(2.5), complex_coin):
        assert np.array_equal(transfer_matrix(coin, 0.0), coin.matrix)


def test_initial_states():
    psi = initial_state("left")
    assert isinstance(psi.topology, Line)
    assert psi.time == 0
    assert np.allclose(psi.amplitudes, [[1, 0]])
    assert np.allclose(initial_state("right").amplitudes, [[0, 1]])
    sym = initial_state("symmetric").amplitudes[0]
    assert np.allclose(sym, [1 / SQRT2, 1j / SQRT2])


def test_initial_state_custom_pair():
    psi = initial_state(np.array([0.6, 0.8j]))
    assert psi.norm() == pytest.approx(1.0)
    with pytest.raises(DomainError):
        initial_state(np.array([1.0, 1.0]))  # not unit norm
    with pytest.raises(DomainError):
        initial_state("sideways")


def test_initial_state_on_circle():
    psi = initial_state("left", Circle(9))
    assert psi.amplitudes.shape == (9, 2)
    assert psi.amplitudes[0, 0] == 1.0
    assert np.count_nonzero(psi.amplitudes) == 1


def test_circle_size_floor():
    with pytest.raises(DomainError):
        Circle(2)


def test_circle_size_cap_is_the_widest_line_walk():
    from qwalk.core import MAX_STEPS

    assert Circle(2 * MAX_STEPS + 1).size == 2 * MAX_STEPS + 1
    for size in (2 * MAX_STEPS + 2, 2**60):
        with pytest.raises(DomainError):
            Circle(size)


def test_wavefunction_validation():
    with pytest.raises(DomainError):
        WaveFunction(Line(), np.zeros((3, 3)))
    with pytest.raises(DomainError):
        WaveFunction(Circle(5), np.zeros((4, 2)))
    with pytest.raises(DomainError):
        WaveFunction(Line(), np.array([[np.nan, 0.0]]))


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_wavefunction_accepts_non_contiguous_amplitudes(dtype):
    rows = np.zeros((2, 3), dtype=dtype)
    rows[0, 1] = 1.0
    psi = WaveFunction(Circle(3), rows.T)
    assert psi.amplitudes.flags.c_contiguous
    assert np.array_equal(psi.amplitudes, rows.T)
    rows[1, 2] = np.nan
    with pytest.raises(DomainError):
        WaveFunction(Circle(3), rows.T)
    with pytest.raises(DomainError):
        WaveFunction(Line(), np.repeat(rows.T, 2, axis=0)[::2])


def test_amplitudes_are_read_only():
    psi = initial_state("left")
    with pytest.raises(ValueError):
        psi.amplitudes[0, 0] = 0.0


def test_norm_preserved_for_many_random_states():
    # one step of each of 1000 random unit chirality pairs
    rng = np.random.default_rng(11)
    coin = hadamard_coin()
    for _ in range(1000):
        raw = rng.normal(size=2) + 1j * rng.normal(size=2)
        pair = raw / np.linalg.norm(raw)
        psi = evolve_line(initial_state(pair), coin, 1)
        assert abs(psi.norm() - 1.0) < 1e-12


def test_theta_half_pi_matches_hadamard_distributions():
    # same initial state, identical distributions at every step
    h, q = hadamard_coin(), theta_coin(math.pi / 2)
    for init in ("left", "symmetric"):
        ph = distribution(evolve_line(initial_state(init), h, 50))
        pq = distribution(evolve_line(initial_state(init), q, 50))
        assert np.max(np.abs(ph.masses - pq.masses)) < 1e-13


def test_public_defaults_are_pinned():
    # every defaulted parameter of a public function is a setting to
    # test; a new one must be added here on purpose
    defaulted = {
        f"{name}.{p.name}"
        for name in qwalk.__all__
        if inspect.isfunction(fn := getattr(qwalk, name))
        for p in inspect.signature(fn).parameters.values()
        if p.default is not p.empty
    }
    assert defaulted == {
        "evolve_line.adjoint",
        "initial_state.topology",
        "tv_distance.reference",
    }
