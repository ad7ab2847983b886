"""Cone edges: t^(-2/3) frontier peaks and superpolynomial tails.

Almost all probability lives inside the cone |n| < t/sqrt2.  Near the
cone edge the wavefunction has an Airy-like peak whose site probability
decays as t^(-2/3); beyond the edge the mass collapses faster than any
power of 1/t.  The interior mass obeys a clean 1 - 2*eps/pi law when
eps margins the stationary wavenumber.
"""

import math

import numpy as np

from qwalk import (
    distribution,
    evolve_line,
    hadamard_coin,
    initial_state,
    interval_mass,
)

SQRT2 = math.sqrt(2)
coin = hadamard_coin()

print("frontier peak probability near n = -t/sqrt2")
print(f"{'t':>6} {'peak P':>12} {'t^(2/3) * P':>12}")
peaks = {}
for t in (200, 400, 800, 1600):
    d = distribution(evolve_line(initial_state("left"), coin, t))
    by_site = dict(zip(d.sites.tolist(), d.masses.tolist()))
    edge = 2 * round(-t / SQRT2 / 2)
    peaks[t] = max(by_site[edge + 2 * j] for j in range(-3, 4))
    print(f"{t:>6} {peaks[t]:>12.3e} {peaks[t] * t ** (2 / 3):>12.4f}")
slope = np.polyfit(np.log(list(peaks)), np.log(list(peaks.values())), 1)[0]
print(f"fitted exponent: {slope:.3f}  (theory: -2/3)")

t = 200
d = distribution(evolve_line(initial_state("left"), coin, t))
print(f"\ntail mass at t = {t}:")
for frac in (0.72, 0.75, 0.78):
    tail = float(np.sum(d.masses[np.abs(d.sites) > frac * t]))
    print(f"  beyond |n| = {frac} t: {tail:.3e}")

t = 400
d = distribution(evolve_line(initial_state("left"), coin, t))
print(f"\ninterior mass law at t = {t} (wavenumber margin eps):")
for eps in (0.05, 0.2):
    got = interval_mass(d, coin, eps)
    print(f"  eps = {eps}: measured {got:.5f}, predicted {1 - 2 * eps / math.pi:.5f}")
