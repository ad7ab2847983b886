"""Fixed kernels that gauge how fast the machine runs at the moment.

The benchmark's host is shared and its speed drifts with its neighbours'
load: the same pass over an operation list takes 1.3 s in one minute and
2.2 s in the next.  These swings last tens of seconds to minutes, so the
median of a longer run does not average them out.  Each operation of a
measured pass is therefore bracketed by runs of a kernel, and its time is
scaled by the kernel's reference time over the mean of the two kernel times:
the time the operation would have taken while the machine ran at reference
speed.

A slowdown does not hit every kind of work alike, so each workload is
gauged by a kernel of the kind of work it does (``KERNELS``): steps of a
line recurrence on a few thousand rows, steps of a cycle walk on a few
hundred sites with its distance to uniform (Python call overhead per step),
or a dense Fourier matrix built by ``exp`` over an outer product and applied
to two columns.  The kernels import nothing from ``qwalk`` and do the same
work on every call.
"""

from __future__ import annotations

import time

import numpy as np

_COIN = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)


def _line_steps() -> None:
    psi = np.zeros((4001, 2), dtype=complex)
    psi[2000, 0] = 1.0
    for _ in range(200):
        mixed = psi @ _COIN
        psi = np.zeros_like(psi)
        psi[:-1, 0] += mixed[1:, 0]
        psi[1:, 1] += mixed[:-1, 1]


def _cycle_steps() -> None:
    n = 511
    psi = np.zeros((n, 2), dtype=complex)
    psi[0, 0] = 1.0
    for _ in range(200):
        mixed = psi @ _COIN
        psi = np.stack([np.roll(mixed[:, 0], -1), np.roll(mixed[:, 1], 1)], axis=1)
        p = np.sum(psi.real**2 + psi.imag**2, axis=1)
        0.5 * np.sum(np.abs(p - 1 / n))


def _transform_steps() -> None:
    m = 700
    sites = np.arange(m) - m // 2
    k = np.linspace(-np.pi, np.pi, m)
    np.exp(-1j * np.outer(sites, k)) @ np.ones((m, 2), dtype=complex)


#: Each workload's kernel and its median time on the reference machine
#: (2 vCPU, see README), in seconds.
KERNELS = {"line-recurrence": (_line_steps, 0.014), "line-compare": (_transform_steps, 0.028),
           "circle-mix": (_cycle_steps, 0.015)}


def kernel_seconds(workload: str) -> float:
    """Wall time of one run of the workload's kernel."""
    start = time.perf_counter()
    KERNELS[workload][0]()
    return time.perf_counter() - start
