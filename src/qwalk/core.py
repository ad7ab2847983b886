"""Core types for discrete-time coined walks on the line and circle.

The walker carries a two-valued internal "chirality" (left/right) that
directs its motion: each step first rotates the chirality by a 2x2
unitary coin, then shifts the walker one site left or right according
to the resulting chirality component.  Everything in this module is an
immutable value object; all operations are pure functions.

Chirality basis order is (L, R) throughout, so a per-site amplitude is
a length-2 complex vector ``(psi_L, psi_R)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "Line",
    "Circle",
    "WaveFunction",
    "CoinOperator",
    "DomainError",
    "hadamard_coin",
    "theta_coin",
    "chirality_pair",
    "initial_state",
]

NORM_TOL = 1e-12

#: Maximum number of steps accepted by the evolvers (memory guard).
MAX_STEPS = 2**20


class DomainError(ValueError):
    """A parameter violates an operation's stated precondition."""


def check_steps(steps: int) -> None:
    """Reject a negative step count or one above :data:`MAX_STEPS`.

    Evolvers call this before they allocate anything sized by ``steps``.
    """
    if steps < 0:
        raise DomainError("steps must be nonnegative")
    if steps > MAX_STEPS:
        raise DomainError(f"steps capped at {MAX_STEPS}")


@dataclass(frozen=True)
class Line:
    """Unbounded line topology; ``offset`` is the site of the first entry."""

    offset: int = 0


@dataclass(frozen=True)
class Circle:
    """Cycle with ``size`` sites, labelled 0..size-1.

    ``size`` runs from 3 to ``2 * MAX_STEPS + 1``, the widest window a
    line walk from one site reaches, so no cycle outgrows the memory
    guard of the evolvers.
    """

    size: int

    def __post_init__(self):
        if not 3 <= self.size <= 2 * MAX_STEPS + 1:
            raise DomainError(f"circle needs 3 to {2 * MAX_STEPS + 1} sites, got {self.size}")


Topology = Line | Circle


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.complex128)
    a.flags.writeable = False
    return a


def _site_masses(amps: NDArray[np.complex128]) -> NDArray[np.float64]:
    """``|psi_L|^2 + |psi_R|^2`` per row of ``(n, 2)`` amplitudes.

    Every route squares amplitudes here, in one order, so they report
    the same bits: ``(L.re^2 + R.re^2) + (L.im^2 + R.im^2)`` over the
    float64 view, the order the circle scans of :mod:`qwalk.stats` sum
    in from their buffers.
    """
    sq = np.square(amps.view(np.float64))  # columns L.re, L.im, R.re, R.im
    return (sq[:, 0] + sq[:, 2]) + (sq[:, 1] + sq[:, 3])


@dataclass(frozen=True)
class WaveFunction:
    """Two-component amplitude field over lattice sites at a fixed time.

    ``amplitudes`` has shape ``(n_sites, 2)`` with columns (L, R).
    On the line, entry ``j`` lives at site ``topology.offset + j``; on
    the circle, entry ``j`` lives at site ``j``.
    """

    topology: Topology
    amplitudes: NDArray[np.complex128]
    time: int = 0

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 2 or amps.shape[1] != 2:
            raise DomainError(f"amplitudes must have shape (n, 2), got {amps.shape}")
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise DomainError("amplitudes must be finite")
        if isinstance(self.topology, Circle) and amps.shape[0] != self.topology.size:
            raise DomainError("amplitude count must equal circle size")
        if self.time < 0:
            raise DomainError("time must be nonnegative")
        object.__setattr__(self, "amplitudes", _freeze(amps))

    @property
    def sites(self) -> NDArray[np.int64]:
        """Absolute site index for each row of ``amplitudes``."""
        n = self.amplitudes.shape[0]
        start = self.topology.offset if isinstance(self.topology, Line) else 0
        return np.arange(start, start + n)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(_site_masses(self.amplitudes))))


@dataclass(frozen=True)
class CoinOperator:
    """A 2x2 unitary acting on the chirality.

    Everything the package derives for a coin (the transfer matrix
    ``diag(e^{-ik}, e^{ik}) matrix``, the symmetrizer check, the cone
    edge ``|u00|``, the limiting density) is read off ``matrix``;
    :func:`hadamard_coin` and :func:`theta_coin` are two ways to build
    one.
    """

    matrix: NDArray[np.complex128]

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.shape != (2, 2):
            raise DomainError("coin matrix must be 2x2")
        if np.max(np.abs(m.conj().T @ m - np.eye(2))) >= 1e-14:
            raise DomainError("coin matrix must be unitary")
        object.__setattr__(self, "matrix", _freeze(m))


def hadamard_coin() -> CoinOperator:
    """Return the Hadamard coin ``(1/sqrt2) [[1, 1], [1, -1]]``."""
    return CoinOperator(np.array([[1, 1], [1, -1]]) / math.sqrt(2))


def theta_coin(theta: float) -> CoinOperator:
    """Return the rotation coin of half-angle ``theta/2``.

    The matrix is the real rotation ``[[cos, sin], [-sin, cos]]`` of
    half-angle theta/2 (one fixed sign convention for the exponential
    of ``i (theta/2) sigma_y``; any global-phase variant induces the
    same distributions).  theta = pi/2 is distribution-equivalent to
    the Hadamard coin; theta = 0 and theta = pi are the singular walks.
    The cosine is taken as ``sin((pi - theta)/2)``, so theta = pi gives
    an exact zero diagonal, as theta = 0 gives the exact identity.

    Parameters
    ----------
    theta : float
        Family parameter in [0, pi].
    """
    if not 0.0 <= theta <= math.pi:
        raise DomainError(f"theta must lie in [0, pi], got {theta}")
    c, s = math.sin((math.pi - theta) / 2), math.sin(theta / 2)
    return CoinOperator(np.array([[c, s], [-s, c]]))


#: Chirality state (|L> + i|R>)/sqrt2, the sigma_y eigenvector that
#: generates symmetric distributions for the whole coin family.
SYMMETRIC_PAIR = np.array([1.0, 1.0j]) / math.sqrt(2)


def chirality_pair(chirality: str | NDArray[np.complex128]) -> NDArray[np.complex128]:
    """The unit chirality pair ``(a, b)`` named or given by ``chirality``.

    Parameters
    ----------
    chirality : {"left", "right", "symmetric"} or array_like
        ``"symmetric"`` means (|L> + i|R>)/sqrt2; an explicit length-2
        complex pair must have unit norm.
    """
    if isinstance(chirality, str):
        try:
            return {
                "left": np.array([1.0, 0.0j]),
                "right": np.array([0.0j, 1.0]),
                "symmetric": SYMMETRIC_PAIR.copy(),
            }[chirality]
        except KeyError:
            raise DomainError(f"unknown chirality {chirality!r}") from None
    pair = np.asarray(chirality, dtype=np.complex128)
    if pair.shape != (2,):
        raise DomainError("custom chirality must be a length-2 pair")
    if abs(np.linalg.norm(pair) - 1.0) > NORM_TOL:
        raise DomainError("custom chirality must have unit norm")
    return pair


def initial_state(
    chirality: str | NDArray[np.complex128],
    topology: Topology = Line(),
) -> WaveFunction:
    """Unit-norm wavefunction concentrated at the origin site.

    Parameters
    ----------
    chirality : {"left", "right", "symmetric"} or array_like
        Starting chirality, as :func:`chirality_pair` reads it.
    topology : Line or Circle
        Where the walk lives.  The origin is site 0.
    """
    pair = chirality_pair(chirality)
    if isinstance(topology, Circle):
        amps = np.zeros((topology.size, 2), dtype=np.complex128)
        amps[0] = pair
        return WaveFunction(topology, amps, 0)
    amps = pair[np.newaxis, :]
    return WaveFunction(Line(offset=0), amps, 0)
