"""End-to-end acceptance checks, one test per numbered criterion.

Each test records a single ``criterion N: PASS/FAIL`` line; the
conftest terminal-summary hook prints the full scoreboard at the end
of every run.  Tolerances are fixed regression bounds; they must not
be loosened to make a red criterion green.
"""

import math
import time
from functools import lru_cache

import numpy as np
import pytest

from qwalk import (
    Circle,
    WalkSpec,
    analytic_moment,
    distribution,
    evolve_line,
    evolve_spectral,
    hadamard_coin,
    initial_state,
    interval_mass,
    mixing_time,
    moment,
    p_asymptotic,
    theta_coin,
    verify_symmetrizer,
)
from qwalk.asymptotics import support_edge
from qwalk.symmetry import SIGMA_Y

SQRT2 = math.sqrt(2)

#: Calibrated TV target for the mixing-scaling comparison: the odd-cycle
#: n = 63 quantum walk's TV to uniform at t = 2n, plus a 0.05 cushion.
#: Frozen; both the quantum and classical crossing times use it.
DELTA0 = 0.4446

GEOMETRIC_LADDER = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 512]

#: Scoreboard lines; the conftest hook prints them after the run.
SCOREBOARD: list[str] = []


def _report(num: int, desc: str, ok: bool, detail: str = "") -> str:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" [{detail}]"
    SCOREBOARD.append(line)
    print(line)
    return line


@lru_cache(maxsize=None)
def _hadamard_left(t: int):
    return distribution(evolve_line(initial_state("left"), hadamard_coin(), t))


@lru_cache(maxsize=None)
def _theta_symmetric(theta: float, t: int):
    return distribution(evolve_line(initial_state("symmetric"), theta_coin(theta), t))


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    coins = [hadamard_coin(), theta_coin(math.pi / 3), theta_coin(2 * math.pi / 3)]
    for coin in coins:
        psi = initial_state("left")
        done = 0
        for t in GEOMETRIC_LADDER:
            psi = evolve_line(psi, coin, t - done)
            done = t
            spec = evolve_spectral(initial_state("left"), coin, t)
            worst = max(worst, float(np.max(np.abs(psi.amplitudes - spec.amplitudes))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 30.0
    line = _report(1, "spectral and direct evolvers agree", ok,
                   f"max diff {worst:.2e}, {elapsed:.1f}s")
    assert ok, line


def test_criterion_2_moment_table():
    d = _hadamard_left(80)
    sim = (moment(d, 1).value, moment(d, 1, absolute=True).value, moment(d, 2).value)
    sim_ref = (-0.293, 0.500, 0.293)
    quad = (
        analytic_moment(hadamard_coin(), "left", "mean").value,
        analytic_moment(hadamard_coin(), "left", "abs_mean").value,
        analytic_moment(hadamard_coin(), "left", "second").value,
    )
    quad_ref = (-1 + 1 / SQRT2, 0.5, 1 - 1 / SQRT2)
    sim_err = max(abs(a - b) for a, b in zip(sim, sim_ref))
    quad_err = max(abs(a - b) for a, b in zip(quad, quad_ref))
    ok = sim_err < 0.005 and quad_err < 1e-6
    line = _report(2, "t=80 moments and density quadrature", ok,
                   f"sim err {sim_err:.4f}, quad err {quad_err:.2e}")
    assert ok, line


def test_criterion_3_interval_mass_law():
    t, eps = 400, 0.05
    got = interval_mass(_hadamard_left(t), eps, margin="wavenumber")
    target = 1 - 2 * eps / math.pi
    ok = abs(got - target) < 5.0 / t
    line = _report(3, "interior mass follows 1 - 2*eps/pi", ok,
                   f"got {got:.5f}, target {target:.5f}")
    assert ok, line


def test_criterion_4_asymptotic_fidelity():
    t, eps = 200, 0.1
    d = _hadamard_left(t)
    by_site = dict(zip(d.sites.tolist(), d.masses.tolist()))
    l1 = 0.0
    for n in range(-t, t + 1, 2):
        if abs(n / t) <= 1 / SQRT2 - eps:
            l1 += abs(p_asymptotic(n / t, t, eps) - by_site[n])
    ok = l1 <= 0.05
    line = _report(4, "interior asymptotics match the exact walk", ok,
                   f"L1 {l1:.4f}")
    assert ok, line


def test_criterion_5_frontier_scaling():
    ts = [200, 400, 800, 1600]
    peaks = []
    for t in ts:
        d = _hadamard_left(t)
        by_site = dict(zip(d.sites.tolist(), d.masses.tolist()))
        edge = 2 * round(t / SQRT2 / 2)
        peaks.append(
            max(
                by_site[s * (edge + 2 * j)]
                for s in (-1, 1)
                for j in range(-3, 4)
            )
        )
    slope = float(np.polyfit(np.log(ts), np.log(peaks), 1)[0])
    ok = abs(slope - (-2 / 3)) <= 0.15
    line = _report(5, "frontier peak probability scales like t^(-2/3)", ok,
                   f"fitted exponent {slope:.3f}")
    assert ok, line


def test_criterion_6_exterior_decay():
    t = 200
    d = _hadamard_left(t)
    tail = float(np.sum(d.masses[np.abs(d.sites) > 0.78 * t]))
    ok = tail < 1e-8
    line = _report(6, "mass beyond |n| = 0.78t is negligible", ok,
                   f"tail {tail:.2e}")
    assert ok, line


def test_criterion_7_mixing_scaling():
    start = time.perf_counter()
    quantum = {}
    classical = {}
    for n in (31, 63, 127):
        q = mixing_time(WalkSpec(Circle(n)), DELTA0, t_cap=20 * n)
        c = mixing_time(WalkSpec(Circle(n), classical=True), DELTA0, t_cap=20 * n * n)
        assert q.reached and c.reached
        quantum[n], classical[n] = q.time, c.time
    elapsed = time.perf_counter() - start
    q_ratio = quantum[127] / quantum[31]
    c_ratio = classical[127] / classical[31]
    ok = q_ratio < 8 and c_ratio >= 8 and elapsed < 60.0
    line = _report(
        7, "quantum mixing is linear, classical quadratic", ok,
        f"quantum {quantum}, classical {classical}, "
        f"ratios {q_ratio:.2f} vs {c_ratio:.2f}, {elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_8_theta_family_laws():
    t = 200
    failures = []
    details = []
    for theta in (math.pi / 3, math.pi / 2, 2 * math.pi / 3):
        d = _theta_symmetric(theta, t)
        got = moment(d, 1, absolute=True).value
        target = 1 - theta / math.pi
        if abs(got - target) > 0.01:
            failures.append(f"abs mean off at theta={theta:.3f}")
        cut = 1.05 * support_edge(theta_coin(theta)) * t
        tail = float(np.sum(d.masses[np.abs(d.sites) > cut]))
        details.append(f"theta={theta:.3f}: tail {tail:.2e}")
        if tail >= 1e-6:
            failures.append(f"tail {tail:.2e} >= 1e-6 at theta={theta:.3f}")
    ok = not failures
    line = _report(8, "theta-family spread and tail laws", ok,
                   "; ".join(details + failures))
    assert ok, line


def test_criterion_9_symmetry_exactness():
    coin = hadamard_coin()
    psi = initial_state("symmetric")
    worst = 0.0
    for _ in range(200):
        psi = evolve_line(psi, coin, 1)
        m = distribution(psi).masses
        worst = max(worst, float(np.max(np.abs(m - m[::-1]))))
    had = verify_symmetrizer(coin, SIGMA_Y)
    signs = {verify_symmetrizer(theta_coin(th), SIGMA_Y).sign
             for th in (0.4, math.pi / 3, math.pi / 2, 2.7)}
    verdicts = all(
        verify_symmetrizer(theta_coin(th), SIGMA_Y).verdict
        for th in (0.4, math.pi / 3, math.pi / 2, 2.7)
    )
    ok = worst < 1e-12 and had.verdict and had.sign == -1 and verdicts and len(signs) == 1
    line = _report(9, "symmetric start and sigma_y symmetrizer", ok,
                   f"max asymmetry {worst:.2e}, hadamard sign {had.sign}")
    assert ok, line


def test_criterion_10_conservation_and_parity():
    coin = hadamard_coin()
    psi = initial_state("symmetric")
    worst_norm = 0.0
    parity_clean = True
    for t in range(1, 1001):
        psi = evolve_line(psi, coin, 1)
        worst_norm = max(worst_norm, abs(psi.norm() - 1.0))
        if t % 100 == 0:
            odd = (psi.sites + t) % 2 == 1
            parity_clean &= bool(np.all(psi.amplitudes[odd] == 0.0))
    ok = worst_norm < 1e-12 and parity_clean
    line = _report(10, "norm conservation and exact parity zeros", ok,
                   f"worst norm drift {worst_norm:.2e}")
    assert ok, line
