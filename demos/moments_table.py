"""Ballistic moments of the scaled position alpha = n/t.

The coined walk spreads linearly in time: the moments of alpha converge
to t-independent constants given by the limiting density.  A classical
random walk, for contrast, has alpha moments collapsing to zero like
powers of 1/sqrt(t).  The second half sweeps the rotation-coin family,
whose mean |alpha| is exactly 1 - theta/pi in the limit.
"""

import math

from qwalk import (
    Line,
    classical_walk,
    density_moment,
    distribution,
    evolve_line,
    hadamard_coin,
    initial_state,
    moment,
    theta_coin,
)

T = 80

d = distribution(evolve_line(initial_state("left"), hadamard_coin(), T))
print(f"Hadamard walk, left start, t = {T}")
print(f"{'moment':<10} {'simulation':>12} {'density':>12}")
for name in ("mean", "abs_mean", "second"):
    sim = moment(d, name)
    limit = density_moment(hadamard_coin(), "left", name)
    print(f"{name:<10} {sim:>12.6f} {limit:>12.6f}")

dc = classical_walk(Line(), T)
print(f"\nclassical walk at the same t: <|alpha|> = "
      f"{moment(dc, 'abs_mean'):.4f}, <alpha^2> = "
      f"{moment(dc, 'second'):.4f}  (diffusive, -> 0)")

print("\nrotation-coin family, symmetric start, t = 200")
print(f"{'theta':>8} {'<|alpha|> sim':>14} {'1 - theta/pi':>14}")
for frac, theta in (("pi/3", math.pi / 3), ("pi/2", math.pi / 2),
                    ("2pi/3", 2 * math.pi / 3)):
    dt = distribution(evolve_line(initial_state("symmetric"), theta_coin(theta), 200))
    sim = moment(dt, "abs_mean")
    print(f"{frac:>8} {sim:>14.5f} {1 - theta / math.pi:>14.5f}")
