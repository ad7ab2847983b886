"""Symmetrizer verification and symmetric initial states."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_spectral import angles, u2_coins, unit_pairs

from qwalk import (
    CoinOperator,
    DomainError,
    SymmetrizerReport,
    density_moment,
    distribution,
    evolve_line,
    evolve_spectral,
    hadamard_coin,
    initial_state,
    symmetric_initial,
    theta_coin,
    verify_symmetrizer,
)
from qwalk.asymptotics import _density_terms
from qwalk.core import chirality_pair
from qwalk.symmetry import PAULIS, SIGMA_X, SIGMA_Y, SIGMA_Z

SQRT2 = math.sqrt(2)
EPS = np.finfo(float).eps


def mirror_map(coin):
    """``S_U = D_gamma^-1 sigma_y D_gamma``, ``D_gamma = diag(e^{i gamma}, e^{-i gamma})``.

    ``gamma = (arg u00 - arg u01)/2``: the map that takes every start of
    the coin's walk to its mirror image, built here, not by the package.
    """
    u = coin.matrix
    gamma = (np.angle(u[0, 0]) - np.angle(u[0, 1])) / 2
    d = np.diag([np.exp(1j * gamma), np.exp(-1j * gamma)])
    return d.conj().T @ SIGMA_Y @ d


def asymmetry(psi):
    """Largest ``|P(n) - P(-n)|`` of a line wavefunction centred on the origin."""
    m = distribution(psi).masses
    return np.max(np.abs(m - m[::-1]))


def test_sigma_y_reverses_hadamard_with_minus_sign():
    rep = verify_symmetrizer(hadamard_coin(), SIGMA_Y)
    assert rep.verdict
    assert rep.sign == -1
    assert rep.max_residual < 1e-13


@pytest.mark.parametrize("theta", [0.4, math.pi / 3, math.pi / 2, 2.7])
def test_sigma_y_reverses_rotation_family_with_plus_sign(theta):
    rep = verify_symmetrizer(theta_coin(theta), SIGMA_Y)
    assert rep.verdict
    assert rep.sign == +1
    assert rep.max_residual < 1e-13


def test_other_paulis_fail_for_hadamard():
    assert not verify_symmetrizer(hadamard_coin(), SIGMA_X).verdict
    assert not verify_symmetrizer(hadamard_coin(), SIGMA_Z).verdict


def test_verify_rejects_bad_candidates():
    with pytest.raises(DomainError):
        verify_symmetrizer(hadamard_coin(), np.array([[1, 1], [0, 1]]))
    with pytest.raises(DomainError):
        verify_symmetrizer(hadamard_coin(), np.eye(3))
    # refused, not warned about: inf^2 - inf is NaN in the unitarity check
    with pytest.raises(DomainError, match="candidate must be a 2x2 unitary"):
        verify_symmetrizer(hadamard_coin(), np.full((2, 2), np.inf))


def test_verify_rejects_a_nan_candidate():
    with pytest.raises(DomainError, match="candidate must be a 2x2 unitary"):
        verify_symmetrizer(hadamard_coin(), np.full((2, 2), np.nan))


@pytest.mark.parametrize("sign, residual, message", [
    ("x", "y", "sign must be an integer"),
    (1.0, 0.0, "sign must be an integer"),
    (0, 0.0, "sign must be 1 or -1"),
    (2, 0.0, "sign must be 1 or -1"),
    (1, "y", "max_residual must be a real number"),
    (1, -1e-3, "max_residual must be finite and at least 0"),
    (-1, math.nan, "max_residual must be finite and at least 0"),
    (-1, math.inf, "max_residual must be finite and at least 0"),
], ids=["strings", "float-sign", "sign-0", "sign-2", "str-residual", "negative-residual",
        "nan-residual", "inf-residual"])
def test_a_symmetrizer_report_refuses_what_no_check_reports(sign, residual, message):
    with pytest.raises(DomainError, match=message):
        SymmetrizerReport(sign, residual)


def test_a_symmetrizer_report_holds_python_numbers():
    report = SymmetrizerReport(np.int64(-1), np.float32(0.5))
    assert (type(report.sign), type(report.max_residual)) == (int, float)
    assert report == SymmetrizerReport(-1, 0.5)


@pytest.mark.parametrize("residual", [-0.0, np.float64(-0.0), 0.0],
                         ids=["minus-zero", "numpy-minus-zero", "plus-zero"])
def test_a_symmetrizer_report_holds_a_zero_residual_as_plus_zero(residual):
    # as every value object of core holds its arrays: a printed residual
    # never reads -0
    for sign in (1, -1):
        held = SymmetrizerReport(sign, residual).max_residual
        assert held == 0.0 and math.copysign(1, held) == 1.0


def test_symmetric_initial_serves_a_coin_without_a_pauli_symmetrizer():
    # diag(1, i) R diag(1, e^{0.7i}) for a real rotation R: no Pauli passes
    # the sigma-check, yet the closed-form start is symmetric
    rotation = np.array([[0.6, 0.8], [-0.8, 0.6]])
    coin = CoinOperator(np.diag([1, 1j]) @ rotation @ np.diag([1, np.exp(0.7j)]))
    assert not any(verify_symmetrizer(coin, pauli).verdict for _, pauli in PAULIS)
    pair = symmetric_initial(coin)
    assert np.allclose(pair, np.array([1, 1j * np.exp(-0.7j)]) / SQRT2)
    assert asymmetry(evolve_line(initial_state(pair), coin, 100)) <= 8 * EPS * 100


@pytest.mark.bitwise
@pytest.mark.parametrize("coin", [hadamard_coin()] + [
    theta_coin(theta) for theta in (0.0, 1e-13, 0.3, math.pi / 2, 2.9, math.pi)],
    ids=["hadamard", "0", "1e-13", "0.3", "pi/2", "2.9", "pi"])
def test_symmetric_initial_is_the_named_pair_byte_for_byte(coin):
    # so the CLI's --init symmetric is the library's symmetric start for
    # every coin the CLI takes, at every SIMD level
    pair, named = symmetric_initial(coin), chirality_pair("symmetric")
    assert pair.dtype == named.dtype
    assert pair.tobytes() == named.tobytes()


#: coins and the second entry of sqrt2 times their exact symmetric start:
#: a real coin of each sign pattern of (u00, u01), rotations and
#: reflections, whose start is (1, +-i)/sqrt2 with the sign of u00 u01, and
#: an imaginary off-diagonal, whose start is (1, 1)/sqrt2
EXACT_STARTS = {
    "++": ([[0.6, 0.8], [0.8, -0.6]], complex(0.0, 1.0)),
    "+-": ([[0.6, -0.8], [0.8, 0.6]], complex(0.0, -1.0)),
    "-+": ([[-0.6, 0.8], [0.8, 0.6]], complex(0.0, -1.0)),
    "--": ([[-0.6, -0.8], [0.8, -0.6]], complex(0.0, 1.0)),
    "imaginary-off-diagonal": (np.array([[1, 1j], [1j, 1]]) / SQRT2, complex(1.0, 0.0)),
}


@pytest.mark.bitwise
@pytest.mark.parametrize("name", list(EXACT_STARTS))
def test_symmetric_initial_is_exact_byte_for_byte(name):
    # with no -0.0 part: a rounded phase would leave a part of about 1e-16
    # where the exact start holds 0
    matrix, second = EXACT_STARTS[name]
    pair = symmetric_initial(CoinOperator(np.array(matrix)))
    assert pair.tobytes() == (np.array([1, second]) / SQRT2).tobytes()


def test_symmetric_initial_of_a_subnormal_entry_is_a_unit_pair():
    # a subnormal u01 holds some 35 bits: divided by its own modulus as it
    # is, it leaves a pair about 1e-11 off unit norm
    tiny = complex(1.2e-313, 1.9e-313)
    pair = symmetric_initial(CoinOperator(np.array([[1, tiny], [-tiny.conjugate(), 1]])))
    assert abs(np.linalg.norm(pair) - 1.0) <= EPS
    expected = np.array([1, 1j * np.exp(-1j * np.angle(tiny))]) / SQRT2
    assert np.max(np.abs(pair - expected)) <= EPS


# C in the bounds below: over about 20 000 random coins the worst reading was
# 3.75 eps t on the recurrence and 4.75 eps t on the spectral route, both
# at t = 1, where a few roundings of masses near 1/2 dominate; per step
# it falls with t, to 0.28 eps t at t = 301 on the recurrence and
# 0.003 eps t at t = 5000 on the spectral route.
@pytest.mark.parametrize("evolve, t_max", [(evolve_line, 301), (evolve_spectral, 5000)],
                         ids=["recurrence", "spectral"])
@settings(max_examples=200, deadline=None)
@given(coin=u2_coins(), data=st.data())
def test_symmetric_start_is_mirror_symmetric(evolve, t_max, coin, data):
    t = data.draw(st.integers(0, t_max), label="t")
    assert asymmetry(evolve(initial_state(symmetric_initial(coin)), coin, t)) <= 8 * EPS * t


@settings(max_examples=200, deadline=None)
@given(u2_coins())
def test_symmetric_start_has_no_tilt(coin):
    # Konno's tilt lam |u00|; the worst of 6000 random coins read 3.2 eps
    pair = symmetric_initial(coin)
    assert abs(_density_terms(coin, pair)[2]) <= 8 * EPS
    assert abs(density_moment(coin, pair, "mean")) <= 8 * EPS


def grid_oracle(coin, s, n_k=2001):
    """Best sign and largest entry of ``S^dag M_k S -+ M_{-k}`` on a k-grid.

    ``M_k = e^{ik} M+ + e^{-ik} M-`` is built here from the coin's rows,
    not through the package.
    """
    u = coin.matrix
    m_plus = np.array([[0, 0], [u[1, 0], u[1, 1]]])
    m_minus = np.array([[u[0, 0], u[0, 1]], [0, 0]])
    k = np.linspace(-math.pi, math.pi, n_k)[:, None, None]
    lhs = s.conj().T @ (np.exp(1j * k) * m_plus + np.exp(-1j * k) * m_minus) @ s
    mirror = np.exp(-1j * k) * m_plus + np.exp(1j * k) * m_minus
    residuals = {sign: float(np.max(np.abs(lhs - sign * mirror))) for sign in (1, -1)}
    sign = min(residuals, key=residuals.get)
    return sign, residuals[sign]


candidates = st.one_of(
    st.sampled_from([SIGMA_X, SIGMA_Y, SIGMA_Z]),
    angles.map(lambda chi: np.exp(1j * chi) * SIGMA_Y),
    u2_coins().map(lambda coin: coin.matrix),
)


@settings(max_examples=300, deadline=None)
@given(u2_coins(), candidates)
def test_exact_check_matches_the_k_grid_oracle(coin, s):
    sign, grid_residual = grid_oracle(coin, s)
    # residuals near the tolerance may round to either verdict
    assume(not 1e-13 < grid_residual < 1e-11)
    rep = verify_symmetrizer(coin, s)
    assert rep.verdict == (grid_residual < 1e-12)
    if rep.verdict:
        assert rep.sign == sign
    # the exact residual is the supremum over k, which the grid approaches
    # from below to within a factor 1 - (1 - cos(pi / 1000)) / 4, about 1 - 1.2e-6
    assert grid_residual - 1e-14 <= rep.max_residual <= grid_residual * (1 + 1e-5) + 1e-14


def sigma_x_coin(theta):
    """``[[cos, i sin], [i sin, cos]]`` of half-angle theta/2, which sigma_x reverses."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return CoinOperator(np.array([[c, 1j * s], [1j * s, c]]))


def test_symmetric_initial_is_the_sigma_y_eigenvector():
    # and the sigma_x eigenvector for a coin that sigma_x reverses
    for coin, expected in ((hadamard_coin(), np.array([1.0, 1.0j]) / SQRT2),
                           (sigma_x_coin(1.2), np.array([1.0, 1.0]) / SQRT2)):
        pair = symmetric_initial(coin)
        assert np.allclose(pair, expected)
        assert np.linalg.norm(pair) == pytest.approx(1.0)


@pytest.mark.parametrize("coin", [hadamard_coin(), theta_coin(1.0), theta_coin(2.2)])
def test_symmetric_start_gives_symmetric_distribution(coin):
    pair = symmetric_initial(coin)
    d = distribution(evolve_line(initial_state(pair), coin, 100))
    assert np.max(np.abs(d.masses - d.masses[::-1])) < 1e-13


@settings(max_examples=200, deadline=None)
@given(u2_coins(), unit_pairs(), st.integers(0, 200))
@example(theta_coin(1.1), np.array([1.0, 0.0]), 80)
@example(theta_coin(1e-13), np.array([0.7194014606174091j, 0.6945945136995674j]), 1)
def test_left_right_starts_are_mirror_images(coin, pair, t):
    # P_{S_U psi0}(n, t) = P_{psi0}(-n, t) for every coin; the first example
    # is the old rotation-coin case, where S maps left to right; in the
    # second, sigma_x verifies within 1e-13 of the identity, but only the
    # exact sigma_y, which is S_U there, mirrors the walk to round-off.
    # Over 6000 random coins and starts the worst reading at t = 200 was 2.5e-14.
    s = mirror_map(coin)
    d = distribution(evolve_line(initial_state(pair), coin, t))
    mirror = distribution(evolve_line(initial_state(s @ pair), coin, t))
    assert np.max(np.abs(mirror.masses - d.masses[::-1])) < 1e-13


def test_mirror_starts_have_opposite_means():
    from qwalk import moment

    coin = hadamard_coin()
    dl = distribution(evolve_line(initial_state("left"), coin, 80))
    dr = distribution(evolve_line(initial_state("right"), coin, 80))
    assert moment(dl, "mean") + moment(dr, "mean") == pytest.approx(0.0, abs=1e-13)
