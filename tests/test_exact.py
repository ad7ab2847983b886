"""The recurrence and the mixing scans against the exact walks of ``exact.py``.

Every walk here is real (the Hadamard coin, the classical walk), so its
bits are the same at every SIMD level numpy dispatches to, and these
bounds and crossings must hold at each of them.
"""

from fractions import Fraction

import numpy as np
import pytest
from exact import classical_masses, hadamard_masses, hadamard_walk, tv_to_uniform
from test_acceptance import DELTA0

from qwalk import Circle, WalkSpec, evolve_line, hadamard_coin, initial_state, mixing_time

EPS = np.finfo(np.float64).eps


def test_hadamard_line_walk_error_grows_as_t_to_two_thirds():
    # the law evolve_line's docstring states, C = 1 and a = 2/3, read off
    # this sweep: the errors are 3.0e-15, 8.9e-15, 1.45e-14 and 2.26e-14,
    # 0.63 to 0.65 of the bound.  The checkpoints are even, so the exact
    # amplitude is an integer over 2**(t / 2)
    checkpoints = (100, 500, 1000, 2000)
    for t, exact in enumerate(hadamard_walk((1, 0), max(checkpoints)), 1):
        if t not in checkpoints:
            continue
        got = evolve_line(initial_state("left"), hadamard_coin(), t).amplitudes
        # the sites off the walk's parity class, and every imaginary part
        assert not np.any(got[1::2]) and not np.any(got.imag)
        scale = 2 ** (t // 2)
        error = max(abs(Fraction(g) - Fraction(int(e), scale))
                    for g, e in zip(got[::2].real.ravel().tolist(), exact.ravel()))
        assert error <= EPS * t ** (2 / 3), (t, float(error))


@pytest.mark.parametrize("n, quantum, classical", [(31, 23, 77), (63, 52, 315)])
def test_criterion_7_crossings_are_the_exact_crossings(n, quantum, classical):
    # criterion 7's scans cross where the exact rational TV first drops
    # to the float delta, taken exactly
    delta = Fraction(DELTA0)
    for spec, masses, crossing in (
            (WalkSpec(Circle(n), hadamard_coin(), "symmetric"),
             hadamard_masses("symmetric", 20 * n, n), quantum),
            (WalkSpec(Circle(n), None, None), classical_masses(20 * n * n, n), classical)):
        exact = next(t for t, m in enumerate(masses, 1) if tv_to_uniform(*m) <= delta)
        assert mixing_time(spec, DELTA0, 20 * n * n).time == exact == crossing
