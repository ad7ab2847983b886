"""Exact Fourier-domain solution of the walk.

Translation invariance makes one step diagonal in wavenumber: the
transform ``psi~(k) = sum_n psi(n) e^{ikn}`` evolves by the 2x2 unitary
transfer matrix ``M_k = e^{ik} M+ + e^{-ik} M-``, where ``M+`` and ``M-``
keep the R and the L row of the coin ``U``; that is ``M_k = diag(e^{-ik},
e^{ik}) U``, and ``psi~(k, t) = M_k^t psi~(k, 0)``.  Powers are taken in
closed form, never by repeated multiplication, and no ``M_k`` is ever
built: :func:`_split` writes ``M_k = e^{ih} (cos(w) I + T)`` with ``T``
traceless and applies ``T`` to 2-vectors from the coin's entries, and
:func:`_propagate` turns the SU(2) part by ``t`` times its angle.  The
split is the only one in the package: :mod:`qwalk.asymptotics` reads
its eigenphases ``h +- w`` and its projection ``(I - i T / sin w) psi0
/ 2`` from it too.

Every coin has the same dispersion, ``cos w(k) = c cos(k - phi)``,
scaled by ``c = |u00|`` and shifted by ``phi = arg u00 - h``, with
``h = arg(det U) / 2``.  :func:`_dispersion` gives ``(h, c, s, phi)``,
with ``s = |u01|``, and is the only place that computes them.

Both topologies use the grid ``k_j = 2 pi j / N``, on which
``e^{i k_j n} = e^{2 pi i j n / N}``:

- on ``Circle(n)``, ``N = n``: the ``e^{i k_j}`` are exactly the n-th
  roots of unity, whose plane waves diagonalise the cycle's shift, so
  the route is exact at every t;
- on a ``Line``, ``N`` is the smallest even 5-smooth length of at least
  ``2t + support``: the t-step wavefunction fits in any window of N
  consecutive sites, so sampling k on the grid incurs no aliasing.

A step moves every site by one, so when N is even the walk never mixes
the parity classes of the sites: class ``p`` at time 0 is class ``q =
(p + t) mod 2`` at time t, and ``M_{k+pi} = -M_k``.  The transforms
therefore run on sublattices.  Let ``d = 2 - N mod 2``: 2 on the line
and on even cycles, 1 on odd cycles.  Each occupied class ``p < d`` is
scattered from site ``p + d m`` to index ``m mod N/d``.  One
length-``N/d`` inverse FFT and the twiddle ``e^{i p k_j}`` give its
transform at the ``N/d`` wavenumbers ``k_j``, ``j < N/d``; the rest of
the grid repeats them up to a sign.  ``M_k^t`` turns them, and the
twiddle ``e^{-i q k_j}`` and one length-``N/d`` FFT give the sites
``q + d m`` of class ``q``.  The two twiddles are applied as one,
``e^{i (p - q) k_j}``.  The rows of a class that no occupied class
reaches are never written, so the forbidden sites of a one-class start
are exact +0.0, as in the recurrence.

:func:`evolve_spectral` costs O(N log N) time and O(N) memory.  Its
round-off grows about like ``1e-16 t`` (see its docstring for the
measured figures).  Its bits are not the same at every SIMD level
numpy dispatches to, for any coin: the FFTs and the complex products
round differently with wider vectors or FMA.  Its ``1e-15 t`` bound
holds at every level.  Measured for the Hadamard walk at t = 10^5 from
the left and the symmetric start (numpy 2.4), with X86_V4 and AVX-512
off and with every dispatched feature off, against the native level:
400 002 of the 400 004 nonzero float64 parts differed, by at most
1.4e-13, where the bound is 1e-10.

This module is the independent oracle for :mod:`qwalk.evolve`.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    CoinOperator,
    Line,
    WaveFunction,
    check_steps,
)


def _dispersion(coin: CoinOperator) -> tuple[float, float, float, float]:
    """``(h, c, s, phi)`` of the dispersion ``cos w(k) = c cos(k - phi)``.

    The eigenphases of ``M_k`` are ``h +- w(k)``.  ``h = arg(det U) / 2``
    is one float for the coin: ``det M_k = det U`` at every k, and a
    per-k value can jump by pi when ``det U = -1`` and swap the branch
    labels.  ``c = |u00|`` is the edge velocity of the cone,
    ``s = |u01|`` (``c^2 + s^2 = 1``) the coin's mixing, and
    ``phi = arg u00 - h`` the wavenumber shift: the group velocity
    ``w'`` reaches ``+-c`` at ``k = phi +- pi/2``.  No other function
    of the package computes these constants.
    """
    u = coin.matrix
    h = float(np.angle(np.linalg.det(u))) / 2
    return h, float(abs(u[0, 0])), float(abs(u[0, 1])), float(np.angle(u[0, 0])) - h


def _split(coin: CoinOperator, k: float | np.ndarray, psi: np.ndarray):
    """``(h, w, sin w, T psi)`` with ``M_k = e^{ih} (cos(w) I + T)`` and ``T`` traceless.

    ``h`` is the one float of :func:`_dispersion`.  Writing ``U =
    e^{ih} [[a, b], [-conj b, conj a]]`` with ``a = c e^{i phi}``, the
    SU(2) part ``e^{-ih} M_k`` has ``cos w = c cos q``, ``q = k - phi``,
    and the traceless part applied to ``psi = (psi_L, psi_R)`` is

        ``T psi = (-i c sin q psi_L + e^{-i(k+h)} u01 psi_R,
                   e^{i(k-h)} u10 psi_L + i c sin q psi_R)``,

    so ``T^2 = -sin(w)^2 I``, the eigenvalues of ``M_k`` are
    ``e^{i(h +- w)}`` and the projectors are ``P+- = (I -+ i T / sin w)
    / 2`` where ``sin w > 0``.  ``sin w = hypot(c sin q, s)`` is the
    norm of T's first column, not ``sqrt(1 - cos^2)``, so a
    near-identity ``M_k`` keeps its small angle to full relative
    precision; ``w`` lies in ``[0, pi]``.  ``psi`` has shape ``(..., 2)``
    and broadcasts against ``k``; no matrix is built per wavenumber.
    """
    h, c, s, phi = _dispersion(coin)
    u = coin.matrix
    q = k - phi
    turn = c * np.sin(q)
    sin = np.hypot(turn, s)
    left, right = psi[..., 0], psi[..., 1]
    turned = np.stack([np.exp(-1j * (k + h)) * u[0, 1] * right - 1j * turn * left,
                       np.exp(1j * (k - h)) * u[1, 0] * left + 1j * turn * right], axis=-1)
    return h, np.arctan2(sin, c * np.cos(q)), sin, turned


def _propagate(
    coin: CoinOperator, k: float | np.ndarray, init: np.ndarray, t: int
) -> np.ndarray:
    """Apply ``M_k^t`` to ``init`` by the closed-form SU(2) power.

    ``init``: (..., 2) vectors, broadcast against ``k``.  With the split
    ``M_k = e^{ih} (cos(w) I + T)`` of :func:`_split` (``h`` one float
    for the coin, shared with the stationary-phase route) and ``T^2 =
    -sin(w)^2 I``,

        ``M_k^t psi = e^{ith} [cos(tw) psi + sin(tw) / sin(w) T psi]``.

    Where ``sin w == 0`` the traceless part vanishes and the ratio is
    taken as 0.
    """
    h, w, sin, turned = _split(coin, k, init)
    ratio = np.divide(np.sin(t * w), sin, out=np.zeros_like(sin), where=sin > 0)
    return np.exp(1j * t * h) * (np.cos(t * w)[..., None] * init + ratio[..., None] * turned)


#: a multiple of every integer below 2**64 with no prime factor above 5
#: (its exponents of 2, 3 and 5 are below 64), and of no other integer
_SMOOTH = 30 ** 64


def _even_smooth_at_least(need: int) -> int:
    """Smallest even integer ``>= need`` with no prime factor above 5.

    Such lengths keep the FFT on its fast radix-2/3/5 kernels; a length
    like 400002 = 2 * 3 * 66667 costs about 1.7x as much.  A length
    below 2**64 is such a length exactly when it divides ``_SMOOTH``.
    """
    n = max(2, need + need % 2)
    while _SMOOTH % n:
        n += 2
    return n


def evolve_spectral(
    init: WaveFunction,
    coin: CoinOperator,
    t: int,
) -> WaveFunction:
    """Evolve a line or circle wavefunction ``t`` steps in the Fourier domain.

    Samples ``N`` wavenumbers ``k_j = 2 pi j / N``: ``N = n`` on
    ``Circle(n)``, and on a line the smallest even 5-smooth integer at
    least support + 2t.  Each occupied parity class of the input is
    scattered to its sublattice of ``N/d`` indices, transformed by one
    length-``N/d`` FFT, turned by ``M_k^t`` at ``N/d`` wavenumbers,
    twiddled and transformed back into the rows of the class it reaches
    (see the module docstring); on a line the output window is the
    input's rows grown by t per side, as in
    :func:`qwalk.evolve.evolve_line`, also for an empty input.  Rows
    that no occupied class reaches stay exact +0.0.  Time is O(N log N)
    and memory O(N): ``M_k^t`` is applied to the ``(N/d, 2)`` vectors
    directly, and the traced peak of the Hadamard walk from one site is
    139 B per wavenumber at t = 20 000.

    The result is exact up to round-off and must agree with
    :func:`qwalk.evolve.evolve_line` or :func:`qwalk.evolve.evolve_circle`.
    The largest amplitude error grows about like ``1e-16 t`` and is
    bounded by ``1e-15 t`` (tested at t = 10^5): against the exact
    ballistic answer of the identity coin and of ``diag(i, -1)``
    (origin start) it measured 4.9e-12 and 9.2e-12 at t = 10^5 and
    4.9e-11 and 6.9e-11 at t = 10^6.  Against the recurrence it stayed
    below 2.0e-13 on the line up to t = 2000 and below 3.5e-13 on cycles
    of 3 to 127 sites up to t = 20n, for the Hadamard, near-identity,
    diagonal, antidiagonal and random U(2) coins.
    """
    t = check_steps(t)
    amps, sites = init.amplitudes, init.sites
    topology, start, grow = init.topology, 0, 0
    if isinstance(topology, Line):
        start, grow = topology.offset, t
        n = _even_smooth_at_least(amps.shape[0] + 2 * t)
        topology = Line(offset=start - t)
    else:
        n = topology.size
    out_sites = np.arange(start - grow, start + amps.shape[0] + grow)
    d = 2 - n % 2
    length = n // d
    k = 2 * math.pi * np.arange(length) / n

    out = np.zeros((len(out_sites), 2), dtype=np.complex128)
    # a walk that leaves float64 overflows to inf or NaN, which
    # WaveFunction refuses below: with no warning ahead of the refusal
    with np.errstate(over="ignore", invalid="ignore"):
        for p in range(d):
            rows = slice((p - start) % d, None, d)
            if not amps[rows].any():
                continue
            q = (p + t) % d
            # norm="forward" leaves ifft unscaled and scales fft by d/N, which
            # are exactly the forward and inverse transforms of one class.
            scattered = np.zeros((length, 2), dtype=np.complex128)
            scattered[(sites[rows] - p) // d % length] = amps[rows]
            psi_kt = _propagate(coin, k, np.fft.ifft(scattered, axis=0, norm="forward"), t)
            psi_kt *= np.exp(1j * (p - q) * k)[:, None]
            into = slice((q - start + grow) % d, None, d)
            out[into] = np.fft.fft(psi_kt, axis=0, norm="forward")[
                (out_sites[into] - q) // d % length]
    return WaveFunction(topology, out, init.time + t)
