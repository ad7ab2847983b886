"""Unbiasedness diagnostics: chirality conjugations reversing the walk.

A walk is unbiased when some chirality unitary S conjugates the
transfer matrix into its mirror image, ``S^dag M_k S = +-M_{-k}``, with
one consistent sign for the whole k-family.  Such an S reverses any
bias coming from the initial chirality, and starting from an
eigenvector of S yields an exactly symmetric distribution.

For the rotation family (Hadamard included) ``S = sigma_y`` works; the
minus sign shows up for the Hadamard coin.  No search over candidate
unitaries is attempted: the checker verifies supplied candidates, and a
convenience sweep tries the three Pauli matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import CoinOperator, DomainError
from .spectral import transfer_matrix

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "SymmetrizerReport",
    "verify_symmetrizer",
    "find_symmetrizer",
    "symmetric_initial",
]

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)

RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class SymmetrizerReport:
    """Outcome of checking one candidate S against a coin's M_k family."""

    candidate: NDArray[np.complex128]
    sign: int
    max_residual: float
    verdict: bool


def verify_symmetrizer(
    coin: CoinOperator,
    candidate: NDArray[np.complex128],
    k_samples: int = 64,
) -> SymmetrizerReport:
    """Check ``S^dag M_k S = +-M_{-k}`` over a uniform k-sample.

    The sign is fixed by the first sample and must hold globally (a
    per-k sign flip would not be a single phase redefinition).  A
    negative verdict is a valid result, not an error.
    """
    s = np.asarray(candidate, dtype=np.complex128)
    if s.shape != (2, 2) or np.max(np.abs(s.conj().T @ s - np.eye(2))) > 1e-13:
        raise DomainError("candidate must be a 2x2 unitary")
    if k_samples < 16:
        raise DomainError("need at least 16 k samples")

    ks = np.linspace(-math.pi, math.pi, k_samples)
    sign = 0
    worst = 0.0
    for k in ks:
        lhs = s.conj().T @ transfer_matrix(coin, k) @ s
        rhs = transfer_matrix(coin, -k)
        if sign == 0:
            sign = 1 if np.max(np.abs(lhs - rhs)) <= np.max(np.abs(lhs + rhs)) else -1
        worst = max(worst, float(np.max(np.abs(lhs - sign * rhs))))
    return SymmetrizerReport(
        candidate=s, sign=sign, max_residual=worst,
        verdict=worst < RESIDUAL_TOL,
    )


def find_symmetrizer(coin: CoinOperator, k_samples: int = 64) -> SymmetrizerReport | None:
    """Try the Pauli matrices in turn; return the first verified report."""
    for cand in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        report = verify_symmetrizer(coin, cand, k_samples)
        if report.verdict:
            return report
    return None


def symmetric_initial(coin: CoinOperator) -> NDArray[np.complex128]:
    """Unit eigenvector of a verified symmetrizer for this coin.

    For ``S = sigma_y`` this is ``(1, i)/sqrt2``; evolving from it
    gives ``P(n, t) = P(-n, t)`` to round-off at every t.
    """
    report = find_symmetrizer(coin)
    if report is None:
        raise DomainError("no symmetrizer verified for this coin")
    vals, vecs = np.linalg.eigh(report.candidate)
    v = vecs[:, -1]
    # fix the global phase so the L component is real nonnegative
    phase = v[0] / abs(v[0]) if abs(v[0]) > 1e-12 else 1.0
    return v / phase
