"""Exact walks in integer arithmetic: a zero-error oracle for the tests.

Not a test module (pytest collects ``test_*.py`` only), and nothing in
``src/`` uses it.  Python integers in numpy object arrays hold every
entry exactly, so a walk here rounds nothing and needs no precision
chosen:

- the Hadamard walk, ``(L, R) <- (L + R, L - R) / sqrt2`` and then L
  one site left and R one site right, scaled by ``sqrt2**t``: from the
  left start ``(1, 0)`` or the right start ``(0, 1)`` at site 0,
  ``sqrt2**t psi_t`` is an integer vector.  The symmetric start ``(1,
  i)/sqrt2`` gives the Gaussian integers ``sqrt2**(t + 1) psi_t``, held
  as two integer walks, of the real parts ``(1, 0)`` and of the
  imaginary parts ``(0, 1)``: a real coin never mixes them;
- the classical walk ``d'(x) = (d(x-1) + d(x+1)) / 2`` from a unit mass
  at site 0, as the integers ``2**t P_t``.

Each walks the cycle of ``n`` sites, rows ``0 .. n-1``, or with ``n =
None`` the line, where the rows at time t are the sites ``-t, -t + 2,
.., t``: the only ones a walk from site 0 occupies then, every other
site holding zero.  Masses are ``(numerators, denominator)`` pairs of
integers, so TV distances are exact :class:`fractions.Fraction` values.
"""

from fractions import Fraction

import numpy as np

#: the integer start pairs of each named start: its Gaussian parts
STARTS = {"left": [(1, 0)], "right": [(0, 1)], "symmetric": [(1, 0), (0, 1)]}


def _start(n):
    """Zero integer rows of the line at t = 0 (one site) or of the cycle of ``n`` sites."""
    return np.zeros(1 if n is None else n, dtype=object)


def hadamard_walk(pair, steps, n=None):
    """Yield ``sqrt2**t psi_t`` for ``t = 1 .. steps`` from the integer ``pair`` at site 0.

    Each yield is a ``(sites, 2)`` object array of the (L, R) integers,
    over the rows of the module docstring.
    """
    left, right = _start(n), _start(n)
    left[0], right[0] = pair
    for _ in range(steps):
        a, b = left + right, left - right  # the coin, times sqrt2
        # new L at x takes a at x + 1, new R at x takes b at x - 1
        if n is None:
            left, right = np.append(a, 0), np.insert(b, 0, 0)
        else:
            left, right = np.roll(a, -1), np.roll(b, 1)
        yield np.stack((left, right), axis=1)


def hadamard_masses(init, steps, n=None):
    """Yield the exact site masses of the Hadamard walk from the named start ``init`` at site 0.

    Each yield is ``(numerators, denominator)`` for ``t = 1 .. steps``:
    ``P_t(x) = numerators[x] / denominator``, with ``denominator =
    2**t`` from ``"left"`` or ``"right"`` and ``2**(t + 1)`` from
    ``"symmetric"``.
    """
    parts = STARTS[init]
    walks = zip(*(hadamard_walk(pair, steps, n) for pair in parts))
    for t, rows in enumerate(walks, 1):
        yield sum(v * v for v in rows).sum(axis=1), 2 ** (t + len(parts) - 1)


def classical_masses(steps, n=None):
    """Yield the exact site masses ``(2**t P_t, 2**t)`` of the classical walk for ``t = 1 .. steps``."""
    d = _start(n)
    d[0] = 1
    for t in range(1, steps + 1):
        if n is None:
            d = np.insert(d, 0, 0) + np.append(d, 0)
        else:
            d = np.roll(d, 1) + np.roll(d, -1)
        yield d, 2 ** t


def tv_to_uniform(numerators, denominator):
    """The exact TV distance of the masses ``numerators / denominator`` to ``1/n`` on each of their n sites."""
    n = len(numerators)
    return Fraction(sum(abs(n * int(s) - denominator) for s in numerators), 2 * n * denominator)
