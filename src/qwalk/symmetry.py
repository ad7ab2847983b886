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
minus sign shows up for the Hadamard coin.  :func:`verify_symmetrizer`
is this exact check for a candidate the caller supplies, such as one of
:data:`PAULIS`; nothing searches over candidates.  The symmetric start
of every U(2) coin is in closed form (:func:`symmetric_initial`), also
for the coins no such S verifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import CoinOperator, DomainError, _as_index, _as_real, _numbers, _unitarity_error

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)

#: The Pauli matrices by name, in the order the ``symmetry`` subcommand prints its rows.
PAULIS = (("sigma_x", SIGMA_X), ("sigma_y", SIGMA_Y), ("sigma_z", SIGMA_Z))

RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class SymmetrizerReport:
    """Outcome of checking one candidate S against a coin's M_k family.

    The ``sign`` that fits better, 1 or -1, and the ``max_residual``
    under it, a finite real of at least 0, held as a Python int and
    float, a residual of -0.0 as +0.0; any other value is refused with
    :class:`DomainError`.  The candidate is the caller's own argument.
    """

    sign: int
    max_residual: float

    def __post_init__(self):
        if (sign := _as_index(self.sign, "sign")) not in (1, -1):
            raise DomainError(f"sign must be 1 or -1, got {sign}")
        if not 0 <= (residual := _as_real(self.max_residual, "max_residual")) < math.inf:
            raise DomainError(f"max_residual must be finite and at least 0, got {residual}")
        object.__setattr__(self, "sign", sign)
        # + 0.0 holds a -0.0 residual as +0.0, as core._freeze does for arrays
        object.__setattr__(self, "max_residual", residual + 0.0)

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
    negative verdict is a valid result, not an error; a candidate that
    is not a 2x2 unitary of numbers raises :class:`DomainError`.
    """
    s = _numbers(candidate, np.complex128, "candidate entries")
    # written so that a NaN entry fails it too
    if s.shape != (2, 2) or not _unitarity_error(s) <= 1e-13:
        raise DomainError("candidate must be a 2x2 unitary")
    u = coin.matrix
    m_plus, m_minus = u * [[0], [1]], u * [[1], [0]]  # P_R U, P_L U
    lhs_plus, lhs_minus = s.conj().T @ m_plus @ s, s.conj().T @ m_minus @ s
    reports = [SymmetrizerReport(sign, float(np.max(np.abs(lhs_plus - sign * m_minus)
                                                    + np.abs(lhs_minus - sign * m_plus))))
               for sign in (1, -1)]
    return min(reports, key=lambda report: report.max_residual)


def symmetric_initial(coin: CoinOperator) -> NDArray[np.complex128]:
    """The mirror-symmetric start ``(1, i p)/sqrt2``, ``p = (u00/|u00|) conj(u01/|u01|)``.

    Every coin factors as ``U = e^{ih} D_beta R D_gamma``, where ``D_d =
    diag(e^{id}, e^{-id})`` and R is a real rotation (Tregenna,
    Flanagan, Maile and Kendon, New J. Phys. 5, 83, 2003).  The shift
    commutes with every D, and ``D_{beta+gamma}`` in front of R only
    moves k by ``beta + gamma``, which from a one-site start multiplies
    each site by a phase.  So the walk of U from psi0 has the site
    masses of the walk of R from ``D_gamma psi0``, which sigma_y
    mirrors: the mirror map of U is ``S_U = D_gamma^-1 sigma_y
    D_gamma`` with ``gamma = (arg u00 - arg u01)/2``, and this start,
    with ``p = e^{2 i gamma}``, is its +1 eigenvector.  Evolving from it
    gives ``P(n, t) = P(-n, t)`` to round-off at every t.  A zero u00 or
    u01 counts as phase factor 1, which still gives ``|a| = |b|``, all
    a ballistic walk or a pure swap needs.  In k, ``S_U`` reflects about
    ``beta + gamma``, and :func:`verify_symmetrizer` about 0, so unless
    ``2 (beta + gamma)`` is a multiple of pi no Pauli matrix passes that
    check for the coin, though this start is symmetric all the same.

    The phase factor is arithmetic on the coin's two entries, with no
    transcendental, and exact where they lie on the real or imaginary
    axis: ``p = +-1`` for every real coin, so its start is ``(1, +-i)/
    sqrt2`` exactly, the mirror start of :mod:`qwalk.evolve`.  For the
    Hadamard coin and every :func:`qwalk.core.theta_coin` the result is
    ``chirality_pair("symmetric")`` bit for bit, and for ``[[1, i], [i,
    1]]/sqrt2`` it is ``(1, 1)/sqrt2``.  No part of the result is -0.0.
    """
    # each nonzero entry over its largest part first, so that a subnormal
    # entry's |z| keeps every bit of its direction
    scaled = (z / max(abs(z.real), abs(z.imag)) if z else 1 for z in coin.matrix[0].tolist())
    p00, p01 = (z / abs(z) for z in scaled)
    # + 0.0 turns the -0.0 that a sign pattern leaves in i p into +0.0
    return np.array([1, 1j * p00 * p01.conjugate()]) / math.sqrt(2) + 0.0
