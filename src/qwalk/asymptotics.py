"""Large-time closed forms: the limiting density and stationary phase.

Weak limit (any U(2) coin, any initial pair).  ``X_t / t`` converges in
law to a density on ``|alpha| < |u00|`` that depends only on ``|u00|``,
``|u01|`` and the initial chirality (N. Konno, J. Math. Soc. Japan 57
(2005); Grimmett, Janson and Scudo, Phys. Rev. E 69, 026119 (2004)):

    p(alpha) = |u01| (1 - lam alpha) / (pi (1 - alpha^2) sqrt(|u00|^2 - alpha^2)),
    lam = |a|^2 - |b|^2 + 2 Re(u00 a conj(u01 b)) / |u00|^2

for the initial pair ``(a, b)``.  Its moments have closed forms, which
the tests use as the regression gate: ``E alpha = -lam (1 - |u01|)``,
``E alpha^2 = 1 - |u01|`` and ``E|alpha| = 1 - (2/pi) arccos|u00|``.

Stationary phase (Hadamard coin, left start).  At scaled position
``alpha = n/t`` the inverse-transform integrals are dominated by the
stationary points of the phase ``-(w_k + alpha k)``, where ``sin w_k =
sin k / sqrt2``.  Inside the propagation cone ``|alpha| < 1/sqrt2`` this
yields a ``1/sqrt(t)`` wavefunction with an explicit oscillatory
structure; at the cone edges the stationary point degenerates to third
order and the amplitude drops to ``t^{-1/3}`` (the frontier peaks);
outside, the amplitude decays faster than any inverse polynomial.

All interior formulas refuse evaluation within ``epsilon`` of the edge:
the ``O(t^{-2/3})``-wide transition profile there is deliberately
unmodeled, and the leading curvature term blows up as ``w'' -> 0``.

A note on the oscillatory probability formula: expanding the probability
as |psi_L|^2 + |psi_R|^2 is consistent with the right-chirality envelope
``sqrt(1 - alpha^2) cos(phi t + k_alpha + pi/4)`` (equivalently
``-alpha cos(.) - sqrt(1 - 2 alpha^2) sin(.)``); this rendering is the
one validated against the exact walk and is used throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import CoinOperator, DomainError, chirality_pair

__all__ = [
    "StationaryPointData",
    "stationary_point",
    "p_asymptotic",
    "support_edge",
    "density",
    "density_moment",
    "density_integral",
    "frontier_peak",
    "asymptotic_wavefunction",
]

SQRT2 = math.sqrt(2)

#: Default interior margin (in alpha units) before the cone edge.
DEFAULT_EPSILON = 0.02

#: Panels of the composite Simpson rule used for density quadrature
#: (even, as the rule needs).
QUADRATURE_PANELS = 2000

#: Least ``panels * |u01|`` the quadrature accepts.  The substituted
#: integrand has poles ``|u01|`` off the real axis, so the Simpson error
#: falls like ``exp(-panels |u01|)``: about 4e-11 at this floor.
MIN_PANELS_PER_WIDTH = 24


def support_edge(coin: CoinOperator) -> float:
    """Edge velocity ``|u00|`` of the propagation cone."""
    return float(abs(coin.matrix[0, 0]))


@dataclass(frozen=True)
class StationaryPointData:
    """Stationary point of the inverse-transform phase at one alpha.

    ``curvature`` is ``|w''|`` at the stationary point; ``phase`` is
    ``phi(alpha) = -(w_{k_alpha} + alpha k_alpha)``.
    """

    k_alpha: float
    phase: float
    curvature: float


def _require_interior(alpha: float, epsilon: float) -> None:
    edge = 1 / SQRT2
    if abs(alpha) > edge - epsilon:
        raise DomainError(
            f"|alpha| = {abs(alpha):.6g} is within {epsilon} of the cone edge "
            f"{edge:.6g}; the transition region is unmodeled"
        )


def stationary_point(alpha: float) -> StationaryPointData:
    """Solve the Hadamard stationary-phase condition at ``alpha``.

    Requires ``|alpha| < 1/sqrt2`` strictly (use the frontier/decay
    results otherwise).  ``k_alpha`` lies in [0, pi], with ``cos k_alpha
    = -alpha / sqrt(1 - alpha^2)``.
    """
    if abs(alpha) >= 1 / SQRT2:
        raise DomainError(f"stationary point needs |alpha| < {1 / SQRT2:.6g}")
    k = math.acos(-alpha / math.sqrt(1 - alpha * alpha))
    w = math.asin(math.sin(k) / SQRT2)
    phase = -(w + alpha * k)
    curv = (1 - alpha * alpha) * math.sqrt(1 - 2 * alpha * alpha)
    return StationaryPointData(k_alpha=k, phase=phase, curvature=curv)


def asymptotic_wavefunction(
    alpha: float, t: int, epsilon: float = DEFAULT_EPSILON
) -> np.ndarray:
    """Leading-order ``(psi_L, psi_R)`` for the Hadamard walk, left start.

    ``alpha * t`` must be an integer; parity-forbidden sites give an
    exact ``(0, 0)`` through the vanishing parity prefactor.
    """
    _require_interior(alpha, epsilon)
    n = round(alpha * t)
    if abs(alpha * t - n) > 1e-9:
        raise DomainError("alpha * t must be an integer site")
    if (n + t) % 2:
        return np.zeros(2, dtype=np.complex128)
    sp = stationary_point(alpha)
    x = sp.phase * t + math.pi / 4
    pref = 2 / math.sqrt(2 * math.pi * t * sp.curvature)
    psi_l = (1 - alpha) * math.cos(x)
    psi_r = math.sqrt(1 - alpha * alpha) * math.cos(x + sp.k_alpha)
    return pref * np.array([psi_l, psi_r], dtype=np.complex128)


def p_asymptotic(alpha: float, t: int, epsilon: float = DEFAULT_EPSILON) -> float:
    """Full oscillatory site probability for the Hadamard walk, left start.

    Evaluates, for ``n = alpha t`` of the right parity,

        P = (2 / (pi t |w''|)) [ (1-alpha)^2 cos^2(phi t + pi/4)
            + (1-alpha^2) cos^2(phi t + k_alpha + pi/4) ]

    and 0 at parity-forbidden sites.
    """
    psi = asymptotic_wavefunction(alpha, t, epsilon)
    return float(np.sum(np.abs(psi) ** 2))


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


def _density_u(sin_u, cos_u, width: float, tilt: float):
    """Density times ``d alpha / d u`` under ``alpha = |u00| sin u``.

    The ``|u00| cos u`` Jacobian cancels the edge singularity, and
    ``1 - alpha^2`` is written as ``cos^2 u + |u01|^2 sin^2 u`` to avoid
    cancellation near the edge.  This is the one place the formula lives.
    """
    return width * (1 - tilt * sin_u) / (math.pi * (cos_u**2 + (width * sin_u) ** 2))


def density(
    alpha: float, coin: CoinOperator, init: str | NDArray[np.complex128]
) -> float:
    """Limiting density of ``X_t / t`` at ``alpha`` (Konno's formula).

    ``init`` is anything :func:`qwalk.core.initial_state` accepts.
    Diverges integrably like ``(|u00|^2 - alpha^2)^{-1/2}`` at the cone
    edge; quadrature goes through :func:`density_integral`.  A coin with
    ``u01 = 0`` has no density: the walker moves ballistically.
    """
    edge, width, tilt = _density_terms(coin, init)
    if abs(alpha) >= edge:
        raise DomainError(f"density support is |alpha| < {edge:.6g}")
    if width == 0:
        raise DomainError("u01 = 0: the walk moves ballistically and has no density")
    root = math.sqrt(edge * edge - alpha * alpha)
    return _density_u(alpha / edge, root / edge, width, tilt) / root


def density_integral(
    weight, coin: CoinOperator, init: str | NDArray[np.complex128]
) -> float:
    """Integrate ``weight(alpha) p(alpha)`` over the open support.

    Composite Simpson rule in ``u``, where ``alpha = |u00| sin u``, on
    :data:`QUADRATURE_PANELS` subintervals.  Coins with ``|u01|`` below
    ``MIN_PANELS_PER_WIDTH / QUADRATURE_PANELS`` (0.012) are rejected:
    their density peaks at the edges more sharply than the panels
    resolve.
    """
    edge, width, tilt = _density_terms(coin, init)
    n = QUADRATURE_PANELS
    if n * width < MIN_PANELS_PER_WIDTH:
        raise DomainError(
            f"|u01| = {width:.3g} is below {MIN_PANELS_PER_WIDTH / n:.3g}: "
            f"{n} quadrature panels cannot resolve this density"
        )
    u = np.linspace(-math.pi / 2, math.pi / 2, n + 1)
    sin_u = np.sin(u)
    y = weight(edge * sin_u) * _density_u(sin_u, np.cos(u), width, tilt)
    h = math.pi / n
    return float(h / 3 * (y[0] + y[-1] + 4 * np.sum(y[1:-1:2]) + 2 * np.sum(y[2:-1:2])))


def density_moment(
    m: int,
    coin: CoinOperator,
    init: str | NDArray[np.complex128],
    absolute: bool = False,
) -> float:
    """m-th moment of alpha under the limiting density."""
    if absolute:
        return density_integral(lambda a: np.abs(a) ** m, coin, init)
    return density_integral(lambda a: a**m, coin, init)


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
