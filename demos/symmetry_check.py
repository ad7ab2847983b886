"""Reversing the walk's bias with a chirality conjugation.

A left-chirality start drifts left; the walk is nonetheless unbiased in
the sense that a single chirality unitary S with S^dag M_k S = +-M_{-k}
maps every run onto its mirror image.  Among the Pauli matrices only
sigma_y works; starting from its eigenvector (|L> + i|R>)/sqrt2 the
distribution is symmetric to round-off at every step.
"""

import math

import numpy as np

from qwalk import (
    distribution,
    evolve_line,
    hadamard_coin,
    initial_state,
    moment,
    symmetric_initial,
    theta_coin,
    verify_symmetrizer,
)
from qwalk.symmetry import PAULIS, SIGMA_Y

coin = hadamard_coin()
print("candidate check, Hadamard coin:")
for name, cand in PAULIS:
    rep = verify_symmetrizer(coin, cand)
    tag = f"verified (sign {rep.sign:+d})" if rep.verdict else "fails"
    print(f"  {name}: {tag}, max residual {rep.max_residual:.2e}")

print("\nsign across the rotation family (always via sigma_y):")
for theta in (math.pi / 6, math.pi / 3, math.pi / 2, 2 * math.pi / 3):
    rep = verify_symmetrizer(theta_coin(theta), SIGMA_Y)
    print(f"  theta = {theta:.4f}: sign {rep.sign:+d}, verdict {rep.verdict}")

pair = symmetric_initial(coin)
print(f"\nsymmetric initial chirality: ({pair[0]:.4f}, {pair[1]:.4f})")

t = 100
d_sym = distribution(evolve_line(initial_state(pair), coin, t))
asym = np.max(np.abs(d_sym.masses - d_sym.masses[::-1]))
print(f"max |P(n) - P(-n)| at t = {t} from the symmetric start: {asym:.2e}")

d_left = distribution(evolve_line(initial_state("left"), coin, t))
d_right = distribution(evolve_line(initial_state("right"), coin, t))
print(f"for contrast, left start mean alpha = {moment(d_left, 'mean'):+.4f}, "
      f"right start mean alpha = {moment(d_right, 'mean'):+.4f}")
print("the two biased runs are exact mirror images of each other:",
      np.max(np.abs(d_left.masses - d_right.masses[::-1])) < 1e-13)
