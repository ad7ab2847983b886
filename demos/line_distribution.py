"""Three routes to the same walk.

Evolves the Hadamard walk on the line from a left-chirality start with
the direct recurrence, re-derives the identical wavefunction through
the Fourier-domain route, and overlays the stationary-phase closed form
on the interior of the distribution.  The exact distribution is wildly
oscillatory; the asymptotic formula tracks every wiggle away from the
propagation-cone edges.  The same formula serves any coin and start:
the theta = 1.2 rotation coin from the symmetric start closes the demo.
"""

import numpy as np

from qwalk import (
    distribution,
    evolve_line,
    evolve_spectral,
    hadamard_coin,
    initial_state,
    p_asymptotic,
    theta_coin,
)
from qwalk.asymptotics import support_edge

T = 100
EPS = 0.1


def interior_overlay(coin, init):
    """Exact and stationary-phase masses on the parity-allowed interior sites."""
    exact = distribution(evolve_line(initial_state(init), coin, T)).masses
    sites = np.arange(-T, T + 1, 2)
    sites = sites[np.abs(sites / T) <= support_edge(coin) - EPS]
    return sites, exact[sites + T], p_asymptotic(coin, init, T, sites)


coin = hadamard_coin()
psi0 = initial_state("left")

direct = evolve_line(psi0, coin, T)
spectral = evolve_spectral(psi0, coin, T)
amp_diff = np.max(np.abs(direct.amplitudes - spectral.amplitudes))
print(f"t = {T}, left-chirality start")
print(f"direct vs spectral max amplitude difference: {amp_diff:.3e}")

sites, exact, approx = interior_overlay(coin, "left")
print(f"\n{'n':>6} {'exact P(n)':>12} {'asymptotic':>12}")
for n, p, q in zip(sites.tolist(), exact.tolist(), approx.tolist()):
    if n % 20 == 0:
        print(f"{n:>6} {p:>12.6f} {q:>12.6f}")

edge = support_edge(coin)
print(f"\nL1 distance on the interior (|n/t| <= {edge:.4f} - {EPS}): "
      f"{np.sum(np.abs(approx - exact)):.4f}")
left, right = distribution(direct).masses[[T - 40, T + 40]]
print("note the left-right asymmetry: a left start drifts leftward,")
print(f"  P(-40) = {left:.5f} vs P(+40) = {right:.5f}")

coin = theta_coin(1.2)
sites, exact, approx = interior_overlay(coin, "symmetric")
print(f"\ntheta = 1.2 coin, symmetric start: cone edge |u00| = {support_edge(coin):.4f}")
print(f"L1 distance on the interior ({sites.size} sites): {np.sum(np.abs(approx - exact)):.4f}")
