"""Reversing the walk's bias with a chirality conjugation.

A left-chirality start drifts left; the walk is nonetheless unbiased in
the sense that a single chirality unitary S with S^dag M_k S = +-M_{-k}
maps every run onto its mirror image.  Among the Pauli matrices only
sigma_y works; starting from its eigenvector (|L> + i|R>)/sqrt2 the
distribution is symmetric to round-off at every step.  A coin that no
Pauli matrix verifies still has a symmetric start, in closed form:
(1, i e^{i(arg u00 - arg u01)})/sqrt2.
"""

import math

import numpy as np

from qwalk import (
    CoinOperator,
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

# diag(1, i) R diag(1, e^{0.7i}) for a real rotation R
rotation = np.array([[0.6, 0.8], [-0.8, 0.6]])
phased = CoinOperator(np.diag([1, 1j]) @ rotation @ np.diag([1, np.exp(0.7j)]))
print("\ncoin diag(1, i) R diag(1, e^{0.7i}):")
for name, cand in PAULIS:
    print(f"  {name}: verdict {verify_symmetrizer(phased, cand).verdict}")
pair = symmetric_initial(phased)
print(f"closed-form symmetric start: ({pair[0]:.4f}, {pair[1]:.4f})")
d_phased = distribution(evolve_line(initial_state(pair), phased, t))
print(f"max |P(n) - P(-n)| at t = {t}: "
      f"{np.max(np.abs(d_phased.masses - d_phased.masses[::-1])):.2e}")
