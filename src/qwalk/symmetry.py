"""Unbiasedness diagnostics: chirality conjugations reversing the walk.

A walk is unbiased when some chirality unitary S conjugates the
transfer matrix into its mirror image, ``S^dag M_k S = +-M_{-k}``, with
one consistent sign for the whole k-family.  Such an S reverses any
bias coming from the initial chirality, and starting from an
eigenvector of S yields an exactly symmetric distribution.

``M_k = e^{ik} P_R U + e^{-ik} P_L U`` is a trigonometric polynomial of
degree one, so the identity holds for every k exactly when it holds for
its two coefficients: ``S^dag (P_R U) S = +-P_L U`` and ``S^dag (P_L U) S
= +-P_R U``.  The check reads these off the coin, with no k-grid.

For the rotation family (Hadamard included) ``S = sigma_y`` works; the
minus sign shows up for the Hadamard coin.  No search over candidate
unitaries is attempted: the checker verifies supplied candidates, and a
convenience sweep tries the three Pauli matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import CoinOperator, DomainError

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)

#: The Pauli matrices by name, in the order every sweep tries them.
PAULIS = (("sigma_x", SIGMA_X), ("sigma_y", SIGMA_Y), ("sigma_z", SIGMA_Z))

RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class SymmetrizerReport:
    """Outcome of checking one candidate S against a coin's M_k family.

    The ``sign`` that fits better and the ``max_residual`` under it;
    the candidate is the caller's own argument.
    """

    sign: int
    max_residual: float

    @property
    def verdict(self) -> bool:
        """Whether ``max_residual`` lies below :data:`RESIDUAL_TOL`."""
        return self.max_residual < RESIDUAL_TOL


def verify_symmetrizer(
    coin: CoinOperator, candidate: NDArray[np.complex128]
) -> SymmetrizerReport:
    """Check ``S^dag M_k S = +-M_{-k}`` for every k, exactly.

    Compares the coefficients of ``e^{ik}`` and ``e^{-ik}`` on both
    sides, under the sign that fits them better; one sign must hold for
    both (a per-k sign flip would not be a single phase redefinition).
    ``max_residual`` is the largest entry of ``S^dag M_k S - sign
    M_{-k}`` over all k, the sum of the two coefficient residuals.  A
    negative verdict is a valid result, not an error.
    """
    s = np.asarray(candidate, dtype=np.complex128)
    # written so that a NaN entry fails it too
    if s.shape != (2, 2) or not np.max(np.abs(s.conj().T @ s - np.eye(2))) <= 1e-13:
        raise DomainError("candidate must be a 2x2 unitary")
    u = coin.matrix
    m_plus, m_minus = u * [[0], [1]], u * [[1], [0]]  # P_R U, P_L U
    lhs_plus, lhs_minus = s.conj().T @ m_plus @ s, s.conj().T @ m_minus @ s
    residuals = {
        sign: float(np.max(np.abs(lhs_plus - sign * m_minus)
                           + np.abs(lhs_minus - sign * m_plus)))
        for sign in (1, -1)
    }
    sign = min(residuals, key=residuals.get)
    return SymmetrizerReport(sign=sign, max_residual=residuals[sign])


def _find_symmetrizer(coin: CoinOperator) -> NDArray[np.complex128] | None:
    """The verified Pauli matrix with the least residual, or None.

    Ties go to the earlier Pauli in :data:`PAULIS`.  A coin within
    ``RESIDUAL_TOL`` of the identity verifies more than one Pauli; the
    exact one among them mirrors the walk to round-off, the others only
    to about their residual.
    """
    verified = [(r.max_residual, pauli) for _, pauli in PAULIS
                if (r := verify_symmetrizer(coin, pauli)).verdict]
    return min(verified, key=lambda v: v[0], default=(None, None))[1]


def symmetric_initial(coin: CoinOperator) -> NDArray[np.complex128]:
    """Unit +1 eigenvector of a verified symmetrizer for this coin.

    The symmetrizer S is the Pauli matrix :func:`_find_symmetrizer`
    returns, Hermitian and unitary, so ``(I + S)/2`` projects onto its
    +1 eigenspace; the first column of that projector is nonzero for
    all three and has a real positive L component.  For ``S = sigma_y``
    this is ``(1, i)/sqrt2``; evolving from it gives ``P(n, t) = P(-n,
    t)`` to round-off at every t.  A coin that no Pauli verifies raises
    :class:`DomainError`.
    """
    pauli = _find_symmetrizer(coin)
    if pauli is None:
        raise DomainError("no symmetrizer verified for this coin")
    v = np.eye(2) + pauli
    return v[:, 0] / np.linalg.norm(v[:, 0])
