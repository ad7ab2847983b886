"""Quantum-vs-classical mixing on odd cycles.

Runs the coined walk and the exact classical random-walk recursion on
cycles of 31, 63 and 127 sites and records when each first comes within
a fixed total-variation distance of uniform.  The quantum crossing time
grows linearly with the cycle size, the classical one quadratically -
a quadratic speedup visible already at these small sizes.
"""

from qwalk import Circle, WalkSpec, cesaro_average, hadamard_coin, mixing_time, tv_distance

DELTA = 0.4446
SIZES = (31, 63, 127)

print(f"target TV distance to uniform: {DELTA}")
print(f"{'n':>5} {'quantum t':>10} {'classical t':>12} {'ratio':>7}")
rows = {}
for n in SIZES:
    q = mixing_time(WalkSpec(Circle(n), hadamard_coin(), "symmetric"), DELTA, t_cap=20 * n)
    c = mixing_time(WalkSpec(Circle(n), None, None), DELTA, t_cap=20 * n * n)
    rows[n] = (q.time, c.time)
    print(f"{n:>5} {q.time:>10} {c.time:>12} {c.time / q.time:>7.1f}")

qr = rows[SIZES[-1]][0] / rows[SIZES[0]][0]
cr = rows[SIZES[-1]][1] / rows[SIZES[0]][1]
print(f"\nsize grew x{SIZES[-1] / SIZES[0]:.1f}: quantum time grew x{qr:.1f} "
      f"(linear), classical x{cr:.1f} (quadratic)")

avg = cesaro_average(WalkSpec(Circle(63), hadamard_coin(), "symmetric"), 8 * 63)
print(f"\nCesaro-averaged distribution on the 63-cycle after T = {8 * 63}: "
      f"TV to uniform = {tv_distance(avg, 'uniform_all'):.4f}")
print("the instantaneous distribution never converges; the time average does")
