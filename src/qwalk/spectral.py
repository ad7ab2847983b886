"""Exact Fourier-domain solution of the walk.

Translation invariance makes one step diagonal in wavenumber: the
transform ``psi~(k) = sum_n psi(n) e^{ikn}`` evolves by the 2x2 unitary
transfer matrix ``M_k = e^{ik} M+ + e^{-ik} M-``, so ``psi~(k, t)
= M_k^t psi~(k, 0)``.  Powers are taken through the eigendecomposition
(two scalar phases), never by repeated multiplication.  Sampling k at
``N >= 2t + support`` equally spaced points and inverting the discrete
transform is *exact*: the t-step wavefunction fits in any window of N
consecutive sites, so the sampling incurs no aliasing.

On the grid ``k_j = -pi + 2 pi j / N`` the phase ``e^{i k_j n}`` is
``(-1)^n e^{2 pi i j n / N}``, so both transforms are plain FFTs of
length N with a sign flip on odd sites: :func:`evolve_spectral` costs
O(N log N) time and O(N) memory.

This module is the independent oracle for :mod:`qwalk.evolve`.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray

from .core import (
    CoinOperator,
    DomainError,
    Line,
    WaveFunction,
    check_steps,
    step_matrices,
)

__all__ = [
    "transfer_matrix",
    "fourier_amplitudes",
    "evolve_spectral",
]


def transfer_matrix(coin: CoinOperator, k: float | np.ndarray) -> np.ndarray:
    """``M_k = e^{ik} M+ + e^{-ik} M-``: shape (2, 2), or (..., 2, 2) for array ``k``."""
    sm = step_matrices(coin)
    k = np.asarray(k)[..., None, None]
    return np.exp(1j * k) * sm.m_plus + np.exp(-1j * k) * sm.m_minus


def _eig_unitary_2x2(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvector columns of 2x2 unitaries.

    ``m`` has shape (..., 2, 2).  Closed-form quadratic solve; the
    (near-)diagonal case, where the generic null-space formula loses
    accuracy, falls back to the standard basis.  A unitary matrix with
    a repeated eigenvalue is a scalar multiple of the identity, so the
    fallback also covers every genuinely degenerate case.
    """
    a, b = m[..., 0, 0], m[..., 0, 1]
    c, d = m[..., 1, 0], m[..., 1, 1]
    tr = a + d
    disc = np.sqrt((a - d) ** 2 + 4 * b * c + 0j)
    lam1 = (tr + disc) / 2
    lam2 = (tr - disc) / 2

    # Null-space vector of (m - lam), taken from the better-conditioned row.
    use_b = np.abs(b) >= np.abs(c)
    v1 = np.where(use_b[..., None],
                  np.stack([b, lam1 - a], axis=-1),
                  np.stack([lam1 - d, c], axis=-1))
    v2 = np.where(use_b[..., None],
                  np.stack([b, lam2 - a], axis=-1),
                  np.stack([lam2 - d, c], axis=-1))

    diag = (np.abs(b) < 1e-14) & (np.abs(c) < 1e-14)
    if np.any(diag):
        e1 = np.array([1.0, 0.0], dtype=np.complex128)
        e2 = np.array([0.0, 1.0], dtype=np.complex128)
        v1 = np.where(diag[..., None], e1, v1)
        v2 = np.where(diag[..., None], e2, v2)
        lam1 = np.where(diag, a, lam1)
        lam2 = np.where(diag, d, lam2)

    v1 = v1 / np.linalg.norm(v1, axis=-1, keepdims=True)
    v2 = v2 / np.linalg.norm(v2, axis=-1, keepdims=True)
    lams = np.stack([lam1, lam2], axis=-1)
    vecs = np.stack([v1, v2], axis=-1)  # columns are eigenvectors
    return lams, vecs


def _propagate(m: np.ndarray, init: np.ndarray, t: int) -> np.ndarray:
    """Apply ``M^t`` through the eigendecomposition.

    ``m``: (..., 2, 2) unitaries, ``init``: (..., 2) vectors.  The
    scalar powers use ``exp(i t arg(lambda))``, exact for unit-modulus
    eigenvalues at any t.
    """
    lams, vecs = _eig_unitary_2x2(m)
    coeffs = np.einsum("...ji,...j->...i", vecs.conj(), init)
    powers = np.exp(1j * t * np.angle(lams))
    return np.einsum("...ij,...j->...i", vecs, coeffs * powers)


def fourier_amplitudes(
    coin: CoinOperator,
    init: NDArray[np.complex128],
    k: float,
    t: int,
) -> NDArray[np.complex128]:
    """``M_k^t`` applied to a unit chirality pair, via the eigensystem."""
    init = np.asarray(init, dtype=np.complex128)
    if abs(np.linalg.norm(init) - 1.0) > 1e-12:
        raise DomainError("init must have unit norm")
    return _propagate(transfer_matrix(coin, k), init, t)


def _grid_size(width: int, t: int, n_samples: int | None) -> int:
    need = width + 2 * t
    if n_samples is not None:
        if n_samples < need:
            raise DomainError(f"need at least {need} k-samples, got {n_samples}")
        return n_samples
    return _even_smooth_at_least(need)


def _even_smooth_at_least(need: int) -> int:
    """Smallest even integer ``>= need`` with no prime factor above 5.

    Such lengths keep the FFT on its fast radix-2/3/5 kernels; a length
    like 400002 = 2 * 3 * 66667 costs about 1.7x as much.
    """
    best = 2
    while best < need:
        best *= 2
    p5 = 2
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < need:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


def evolve_spectral(
    init: WaveFunction,
    coin: CoinOperator,
    t: int,
    n_samples: int | None = None,
) -> WaveFunction:
    """Evolve a line wavefunction ``t`` steps in the Fourier domain.

    Samples ``N`` equally spaced wavenumbers ``k_j = -pi + 2 pi j / N``
    (``N`` = the smallest even 5-smooth integer at least support + 2t,
    unless ``n_samples`` overrides it), applies
    the eigendecomposed ``M_k^t`` at each, and inverts the discrete
    transform over the output support.  The result is exact up to
    round-off and must agree with :func:`qwalk.evolve.evolve_line`.

    Both transforms are length-N FFTs: the input row at site ``n`` is
    scattered to index ``n mod N`` with sign ``(-1)^n`` before the
    forward one, and the output rows are gathered the same way after
    the inverse one.  Time is O(N log N) and memory O(N).
    """
    if not isinstance(init.topology, Line):
        raise DomainError("evolve_spectral needs line topology")
    check_steps(t)

    amps = init.amplitudes
    width = amps.shape[0]
    n = _grid_size(width, t, n_samples)
    k = -math.pi + 2 * math.pi * np.arange(n) / n

    in_sites = init.sites
    out_sites = np.arange(in_sites[0] - t, in_sites[-1] + t + 1)
    # norm="forward" leaves ifft unscaled and scales fft by 1/N, which
    # are exactly the forward and inverse transforms of the walk.
    scattered = np.zeros((n, 2), dtype=np.complex128)
    scattered[in_sites % n] = _alternate(in_sites)[:, None] * amps
    psi_k0 = np.fft.ifft(scattered, axis=0, norm="forward")

    psi_kt = _propagate(transfer_matrix(coin, k), psi_k0, t)

    out = np.fft.fft(psi_kt, axis=0, norm="forward")[out_sites % n]
    out *= _alternate(out_sites)[:, None]
    return WaveFunction(Line(offset=int(out_sites[0])), out, init.time + t)


def _alternate(sites: np.ndarray) -> np.ndarray:
    """``(-1)^n`` for each site, as floats."""
    return 1.0 - 2.0 * (sites % 2)
