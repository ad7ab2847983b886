"""Reference routes for the qwalk benchmark, written apart from ``qwalk``.

Nothing here imports the package under test.  Each route states the walk
from its definition and solves it by a method the package does not use:

- the line walk by an FFT over the k-grid, with ``M_k^t`` taken by binary
  powering (``numpy.linalg.matrix_power``) instead of an eigen split;
- the quantum walk on a cycle by stepping ``M_k`` on the n-th roots of
  unity and inverting by FFT, giving the TV trace and its crossing;
- the classical walk on a cycle by its closed-form cosine expansion
  ``P(x, t) = (1/n) sum_j cos(2 pi j / n)^t e^{2 pi i j x / n}``.

Walk convention (chirality basis (L, R)): one step applies the 2x2 coin
``U`` and then moves the L row one site left and the R row one site
right, ``psi(x, t+1) = Q psi(x+1, t) + P psi(x-1, t)`` with ``Q`` the L
row of ``U`` and ``P`` its R row.

Distance to uniform on a cycle is taken over the sites the walk can
occupy at time t: all n sites on an odd cycle, and on an even cycle the
n/2 sites with ``x = t (mod 2)``.
"""

from __future__ import annotations

import math

import numpy as np

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
LEFT = np.array([1.0, 0.0], dtype=complex)
SYMMETRIC = np.array([1.0, 1.0j]) / math.sqrt(2)


def rotation_coin(theta: float) -> np.ndarray:
    """The theta-family coin ``[[cos, sin], [-sin, cos]]`` of half-angle theta/2."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, s], [-s, c]])


def _step_matrices(coin: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``M_k = e^{-ik} P + e^{ik} Q`` for the transform ``sum_x psi(x) e^{-ikx}``."""
    coin = np.asarray(coin, dtype=complex)
    q = np.zeros((2, 2), dtype=complex)
    p = np.zeros((2, 2), dtype=complex)
    q[0] = coin[0]
    p[1] = coin[1]
    return np.exp(-1j * k)[:, None, None] * p + np.exp(1j * k)[:, None, None] * q


def line_amplitudes(coin: np.ndarray, pair: np.ndarray, t: int) -> np.ndarray:
    """Amplitudes ``psi(x, t)`` for ``x = -t..t`` of a walk started at the origin.

    Returns shape ``(2t + 1, 2)``.  A grid of ``2t + 2`` wavenumbers holds
    the whole support, so the inverse transform has no aliasing.
    """
    size = 2 * t + 2
    k = 2 * math.pi * np.arange(size) / size
    power = np.linalg.matrix_power(_step_matrices(coin, k), t)
    psi_k = power @ np.asarray(pair, dtype=complex)
    psi = np.fft.ifft(psi_k, axis=0)
    return psi[np.arange(-t, t + 1) % size]


def occupied_uniform_tv(masses: np.ndarray, times: np.ndarray) -> np.ndarray:
    """TV distance of each row of ``masses`` (shape (B, n)) to uniform on the
    sites the walk can occupy at the matching time."""
    n = masses.shape[1]
    if n % 2:
        return 0.5 * np.sum(np.abs(masses - 1.0 / n), axis=1)
    reachable = (np.arange(n)[None, :] + times[:, None]) % 2 == 0
    target = np.where(reachable, 2.0 / n, 0.0)
    return 0.5 * np.sum(np.abs(masses - target), axis=1)


def cycle_quantum_masses(coin, pair, n: int, t_max: int, block: int = 256):
    """Yield ``(times, masses)`` blocks of the quantum walk on the n-cycle
    for ``t = 1..t_max``, started at site 0 with chirality ``pair``."""
    k = 2 * math.pi * np.arange(n) / n
    step = _step_matrices(coin, k)
    psi_k = np.tile(np.asarray(pair, dtype=complex), (n, 1))
    t = 0
    while t < t_max:
        count = min(block, t_max - t)
        states = np.empty((count, n, 2), dtype=complex)
        for b in range(count):
            psi_k = np.einsum("kij,kj->ki", step, psi_k)
            states[b] = psi_k
        amps = np.fft.ifft(states, axis=1)
        masses = np.sum(amps.real**2 + amps.imag**2, axis=2)
        yield np.arange(t + 1, t + count + 1), masses
        t += count


def cycle_classical_masses(n: int, t_max: int, block: int = 1024):
    """Yield ``(times, masses)`` blocks of the symmetric classical walk on
    the n-cycle for ``t = 1..t_max`` from the cosine expansion."""
    c = np.cos(2 * math.pi * np.arange(n) / n)
    t = 0
    while t < t_max:
        times = np.arange(t + 1, min(t + block, t_max) + 1)
        masses = np.fft.ifft(c[None, :] ** times[:, None], axis=1).real
        yield times, masses
        t = int(times[-1])


def tv_crossing(blocks, delta: float) -> tuple[int | None, np.ndarray]:
    """First time the occupied-uniform TV drops to ``delta``, and the TV
    trace up to it (or over every block, if it never does)."""
    trace = []
    for times, masses in blocks:
        tv = occupied_uniform_tv(masses, times)
        hit = np.flatnonzero(tv <= delta)
        if hit.size:
            trace.append(tv[: hit[0] + 1])
            return int(times[hit[0]]), np.concatenate(trace)
        trace.append(tv)
    return None, np.concatenate(trace)


def cesaro_masses(coin, pair, n: int, big_t: int) -> np.ndarray:
    """``(1/T) sum_{t=1}^{T} P(., t)`` of the quantum walk on the n-cycle."""
    acc = np.zeros(n)
    for _, masses in cycle_quantum_masses(coin, pair, n, big_t):
        acc += masses.sum(axis=0)
    return acc / big_t
