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
with ``M_k`` the transfer matrix of :mod:`qwalk.spectral`, whose
eigenphases ``h +- w(k)`` and dispersion ``cos w = c cos q``, ``q = k -
phi``, are those of :func:`qwalk.spectral._dispersion`.  The lower
branch at k is the upper one at ``k + pi`` times ``(-1)^(n+t)``, so the
two add on the parity-allowed sites and cancel on the others.  On the
upper branch the phase ``t (h + w) - k n`` is stationary where ``w'(k)
= alpha = n/t``.  Inside the cone ``|alpha| < c`` that has two roots,

    cos q = +-sqrt((c^2 - alpha^2) / (c^2 (1 - alpha^2))),  sign(sin q) = sign(alpha).

Both have ``sin w = |u01| / sqrt(1 - alpha^2)``, so the curvature
``w'' = c cos q (1 - alpha^2) / sin w`` takes the branch-free closed
form

    w'' = sign(cos q) (1 - alpha^2) sqrt(c^2 - alpha^2) / |u01|,

and each root adds

    sqrt(2 / (pi t |w''|)) e^{i(t (h + w) - k n + sign(w'') pi/4)} P+ psi0,

with ``h``, ``w`` and the projection ``P+ psi0`` from
:func:`qwalk.spectral._split`, the split the spectral route powers; both
routes are tested against the recurrence.  The amplitude is
``O(1/sqrt(t))``; the ``O(t^{-2/3})``-wide layer at the cone edge, where
``w'' -> 0``, is not modeled.

The bits are not the same at every SIMD level numpy dispatches to: the
phase ``t (h + w)`` multiplies a last-bit difference in ``w`` by t.  A
part differs between levels by at most ``3.4 eps t`` times the largest
part, ``eps = 2**-52`` (measured at t = 10^5).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray

from .core import (
    CoinOperator,
    DomainError,
    _as_index,
    _as_real,
    _choose,
    _numbers,
    _site_masses,
    chirality_pair,
)
from .spectral import _dispersion, _split


def support_edge(coin: CoinOperator) -> float:
    """Edge velocity ``|u00|`` of the propagation cone, the ``c`` of the dispersion."""
    return _dispersion(coin)[1]


def _check_time(t: int) -> None:
    """Refuse a ``t`` that is not an integer of at least 1, as stationary phase needs.

    The one owner of that rule: :func:`asymptotic_wavefunction` checks
    ``t`` here, and so does the CLI before it lays out the sites of a
    walk of ``t`` steps.
    """
    if _as_index(t, "t") < 1:
        raise DomainError("stationary phase needs t >= 1")


def _stationary_points(
    coin: CoinOperator, alpha: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(k, w'')`` at the two upper-branch roots of ``w'(k) = alpha``.

    Both have shape ``(2,) + alpha.shape``: row 0 is the root with ``cos
    q > 0`` and ``w'' > 0``, row 1 the one with ``cos q < 0`` and ``w''
    < 0``.  Needs ``|alpha| < |u00| < 1``.
    """
    _, c, s, phi = _dispersion(coin)
    root = np.sqrt((c - alpha) * (c + alpha) / (c * c * (1 - alpha) * (1 + alpha)))
    k = np.copysign(np.arccos(np.stack([root, -root])), alpha) + phi
    curv = (1 - alpha) * (1 + alpha) * np.sqrt((c - alpha) * (c + alpha)) / s
    return k, np.stack([curv, -curv])


def asymptotic_wavefunction(
    coin: CoinOperator, init: str | NDArray[np.complex128], t: int, sites: NDArray[np.int64]
) -> np.ndarray:
    """Leading-order ``(psi_L, psi_R)`` at ``sites`` after ``t`` steps.

    Returns shape ``(len(sites), 2)``.  ``init`` is anything
    :func:`qwalk.core.chirality_pair` accepts; the walk starts at site 0.
    Parity-forbidden sites hold exact zeros.  Needs ``0 < |u00| < 1``,
    a ``t`` that :func:`_check_time` takes, integer ``sites`` and
    ``|n/t| < |u00|`` at every site; the error grows without bound
    towards the edge, where ``w'' -> 0``.  Any Python int ``t`` is
    taken, but the phase ``t (h + w)`` is a float64, so it loses its
    meaning once ``t`` times the rounding error of ``h + w`` nears a
    radian.
    """
    edge = support_edge(coin)
    if not 0 < edge < 1:
        raise DomainError(f"stationary phase needs 0 < |u00| < 1, got |u00| = {edge:.6g}")
    _check_time(t)
    sites = _numbers(sites, None, "sites")
    if sites.ndim != 1 or sites.dtype.kind not in "iu":
        raise DomainError("sites must be a 1-D array of integers")
    alpha = sites / t
    if np.any(np.abs(alpha) >= edge):
        raise DomainError(f"every |n/t| must lie inside the cone edge {edge:.6g}")
    pair = chirality_pair(init)
    k, curv = _stationary_points(coin, alpha)
    h, w, sin, turned = _split(coin, k, pair)
    projected = (pair - 1j * turned / sin[..., None]) / 2
    amp = np.sqrt(2 / (math.pi * t * np.abs(curv))) * np.exp(
        1j * (t * (h + w) - k * sites + np.sign(curv) * math.pi / 4))
    psi = np.sum(amp[..., None] * projected, axis=0)
    psi[sites % 2 != t % 2] = 0
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
    _, edge, width, _ = _dispersion(coin)
    u = coin.matrix
    a, b = chirality_pair(init)
    tilt = edge * (abs(a) ** 2 - abs(b) ** 2)
    if edge > 0:
        tilt += 2 * (u[0, 0] * a * np.conj(u[0, 1] * b)).real / edge
    return edge, width, float(tilt)


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
    if not abs(_as_real(alpha, "alpha")) < edge:
        raise DomainError(f"density support is |alpha| < {edge:.6g}, got {alpha}")
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
    _choose(m_spec, ("mean", "second", "abs_mean"), "m_spec")
    edge, width, tilt = _density_terms(coin, init)
    if m_spec == "mean":
        # 0.0 - x rather than -x: an unbiased walk prints 0, not -0
        return (0.0 - tilt * edge) / (1 + width)
    if m_spec == "second":
        return edge * edge / (1 + width)
    # a coin passes the 1e-14 unitarity check with |u00| up to 1 + 5e-15
    return 2 * math.asin(min(edge, 1.0)) / math.pi

