"""Large-time closed forms: the limiting density and stationary phase.

Weak limit (any U(2) coin, any initial pair).  ``X_t / t`` converges in
law to a density on ``|alpha| < |u00|`` that depends only on ``|u00|``,
``|u01|`` and the initial chirality (N. Konno, J. Math. Soc. Japan 57
(2005); Grimmett, Janson and Scudo, Phys. Rev. E 69, 026119 (2004)):

    p(alpha) = |u01| (1 - lam alpha) / (pi (1 - alpha^2) sqrt(|u00|^2 - alpha^2)),
    lam = |a|^2 - |b|^2 + 2 Re(u00 a conj(u01 b)) / |u00|^2

for the initial pair ``(a, b)``.  Its moments have closed forms, which
:func:`density_moment` serves: ``E alpha = -lam (1 - |u01|)``,
``E alpha^2 = 1 - |u01|`` and ``E|alpha| = (2/pi) arcsin|u00|``.  With
``1 - |u01| = |u00|^2 / (1 + |u01|)`` they stay exact as ``|u00| -> 0``
(a walker confined near the origin) and as ``|u01| -> 0`` (a ballistic
walker, where the density itself does not exist).

Stationary phase (any U(2) coin with ``0 < |u00| < 1``, any initial
pair).  The walk is ``psi(n, t) = (1/2pi) int e^{-ikn} M_k^t psi0 dk``
with ``M_k`` the transfer matrix of :mod:`qwalk.spectral`.  Since
``det M_k = det U``, the eigenvalues of ``M_k`` are ``e^{i(h +- w)}``
with ``h = arg(det U) / 2`` the same for every k, and

    cos w(k) = c cos q,    c = |u00|,  q = k - phi,  phi = arg u00 - h.

``h`` is taken once per coin: a per-k value can jump by pi when
``det U = -1`` and swap the branches.  The lower branch at k is the
upper one at ``k + pi`` times ``(-1)^(n+t)``, so the two add on the
parity-allowed sites and cancel on the others.  On the upper branch the
phase ``t (h + w) - k n`` is stationary where ``w'(k) = alpha = n/t``.
Inside the cone ``|alpha| < c`` that has two roots,

    cos q = +-sqrt((c^2 - alpha^2) / (c^2 (1 - alpha^2))),  sign(sin q) = sign(alpha),

with curvature ``w'' = c cos q (1 - alpha^2) / sin w``, and each adds

    sqrt(2 / (pi t |w''|)) e^{i(t (h + w) - k n + sign(w'') pi/4)} P+ psi0,
    P+ = (I - i T / sin w) / 2,

where ``M_k = e^{ih} (cos(w) I + T)`` is the split of the transfer
matrix into a phase and an SU(2) rotation with traceless part ``T``.
The spectral route powers ``M_k`` from the same split
(:func:`qwalk.spectral._split`), so both read ``h``, ``w`` and ``T``
from one place, and both are tested against the recurrence.

The amplitude is ``O(1/sqrt(t))``.  At the cone edge ``w'' -> 0``: the
``O(t^{-2/3})``-wide transition layer there is deliberately unmodeled,
so callers keep a margin inside the edge.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray

from .core import CoinOperator, DomainError, _site_masses, chirality_pair
from .spectral import _split

__all__ = [
    "p_asymptotic",
    "support_edge",
    "density",
    "density_moment",
    "frontier_peak",
    "asymptotic_wavefunction",
]

SQRT2 = math.sqrt(2)


def support_edge(coin: CoinOperator) -> float:
    """Edge velocity ``|u00|`` of the propagation cone."""
    return float(abs(coin.matrix[0, 0]))


def _stationary_points(
    coin: CoinOperator, alpha: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """``(h, k, w, w'')`` at the two upper-branch roots of ``w'(k) = alpha``.

    ``k``, ``w`` and ``w''`` have shape ``(2,) + alpha.shape``: row 0 is
    the root with ``cos q > 0``, row 1 the one with ``cos q < 0``.
    Needs ``|alpha| < |u00|``.
    """
    u = coin.matrix
    c = abs(u[0, 0])
    h = _split(coin, 0.0)[0]  # the same at every k
    root = np.sqrt((c - alpha) * (c + alpha) / (c * c * (1 - alpha) * (1 + alpha)))
    cos_q = np.stack([root, -root])
    k = np.copysign(np.arccos(cos_q), alpha) + np.angle(u[0, 0]) - h
    w = np.arccos(c * cos_q)
    return h, k, w, c * cos_q * (1 - alpha * alpha) / np.sin(w)


def asymptotic_wavefunction(
    coin: CoinOperator, init: str | NDArray[np.complex128], t: int, sites: NDArray[np.int64]
) -> np.ndarray:
    """Leading-order ``(psi_L, psi_R)`` at ``sites`` after ``t`` steps.

    Returns shape ``(len(sites), 2)``.  ``init`` is anything
    :func:`qwalk.core.chirality_pair` accepts; the walk starts at site 0.
    Parity-forbidden sites hold exact zeros.  Needs ``0 < |u00| < 1``,
    ``t >= 1``, integer ``sites`` and ``|n/t| < |u00|`` at every site;
    the error grows without bound towards the edge, where ``w'' -> 0``.
    """
    edge = support_edge(coin)
    if not 0 < edge < 1:
        raise DomainError(f"stationary phase needs 0 < |u00| < 1, got |u00| = {edge:.6g}")
    if t < 1:
        raise DomainError("stationary phase needs t >= 1")
    sites = np.asarray(sites)
    if sites.ndim != 1 or sites.dtype.kind not in "iu":
        raise DomainError("sites must be a 1-D array of integers")
    alpha = sites / t
    if np.any(np.abs(alpha) >= edge):
        raise DomainError(f"every |n/t| must lie inside the cone edge {edge:.6g}")
    pair = chirality_pair(init)
    _, k, _, curv = _stationary_points(coin, alpha)
    h, w, sin, traceless = _split(coin, k)
    projected = (pair - 1j * (traceless @ pair) / sin[..., None]) / 2
    amp = np.sqrt(2 / (math.pi * t * np.abs(curv))) * np.exp(
        1j * (t * (h + w) - k * sites + np.sign(curv) * math.pi / 4))
    psi = np.sum(amp[..., None] * projected, axis=0)
    psi[(sites + t) % 2 == 1] = 0
    return psi


def p_asymptotic(
    coin: CoinOperator, init: str | NDArray[np.complex128], t: int, sites: NDArray[np.int64]
) -> np.ndarray:
    """Per-site squared norms of :func:`asymptotic_wavefunction`."""
    return _site_masses(asymptotic_wavefunction(coin, init, t, sites))


def _density_terms(
    coin: CoinOperator, init: str | NDArray[np.complex128]
) -> tuple[float, float, float]:
    """``(|u00|, |u01|, lam |u00|)`` of the limiting density.

    ``lam`` only ever multiplies an ``alpha`` with ``|alpha| < |u00|``,
    so the product is what is returned: it stays bounded (by 1) as
    ``|u00| -> 0``, where ``lam`` itself diverges.
    """
    u = coin.matrix
    a, b = chirality_pair(init)
    edge, width = abs(u[0, 0]), abs(u[0, 1])
    tilt = edge * (abs(a) ** 2 - abs(b) ** 2)
    if edge > 0:
        tilt += 2 * (u[0, 0] * a * np.conj(u[0, 1] * b)).real / edge
    return float(edge), float(width), float(tilt)


def density(
    alpha: float, coin: CoinOperator, init: str | NDArray[np.complex128]
) -> float:
    """Limiting density of ``X_t / t`` at ``alpha`` (Konno's formula).

    ``init`` is anything :func:`qwalk.core.initial_state` accepts.
    Diverges integrably like ``(|u00|^2 - alpha^2)^{-1/2}`` at the cone
    edge.  A coin with ``u01 = 0`` has no density: the walker moves
    ballistically.
    """
    edge, width, tilt = _density_terms(coin, init)
    if abs(alpha) >= edge:
        raise DomainError(f"density support is |alpha| < {edge:.6g}")
    if width == 0:
        raise DomainError("u01 = 0: the walk moves ballistically and has no density")
    root = math.sqrt((edge - alpha) * (edge + alpha))
    return width * (1 - tilt * alpha / edge) / (math.pi * (1 - alpha) * (1 + alpha) * root)


def density_moment(
    coin: CoinOperator, init: str | NDArray[np.complex128], m_spec: str
) -> float:
    """Named moment of alpha under the limiting density, in closed form.

    ``m_spec`` is ``"mean"``, ``"second"`` or ``"abs_mean"`` (the mean
    of ``|alpha|``).  Every coin and start is served, including the
    ballistic ``u01 = 0``, whose limit law is a pair of point masses at
    ``+-1``.  The Hadamard coin with a left start gives
    (-1 + 1/sqrt2, 1 - 1/sqrt2, 1/2); ``theta_coin(theta)`` with a
    symmetric start gives mean |alpha| = 1 - theta/pi.
    """
    edge, width, tilt = _density_terms(coin, init)
    if m_spec == "mean":
        # 0.0 - x rather than -x: an unbiased walk prints 0, not -0
        return (0.0 - tilt * edge) / (1 + width)
    if m_spec == "second":
        return edge * edge / (1 + width)
    if m_spec == "abs_mean":
        # a coin passes the 1e-14 unitarity check with |u00| up to 1 + 5e-15
        return 2 * math.asin(min(edge, 1.0)) / math.pi
    raise DomainError(f"m_spec must be 'mean', 'second' or 'abs_mean', got {m_spec!r}")


def frontier_peak(t: int, side: str) -> float:
    """Leading ``t^{-1/3}`` term of the generic integral at the cone edge.

    The phase has a third-order stationary point at ``k = 0`` (left
    edge, ``alpha = -1/sqrt2``) or ``k = pi`` (right edge); the envelope
    is taken as 1 at that point.
    """
    if t < 1:
        raise DomainError("t must be at least 1")
    scale = math.gamma(1 / 3) * (6 / t) ** (1 / 3)
    if side == "right":
        return (1 / (3 * math.pi)) * SQRT2 * scale * math.cos(
            math.pi * t / SQRT2 + math.pi / 6
        )
    if side == "left":
        return (1 / (6 * math.pi)) * math.sqrt(1.5) * scale
    raise DomainError(f"side must be 'left' or 'right', got {side!r}")
