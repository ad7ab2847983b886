"""Workloads of the qwalk benchmark: their operations and output checks.

An operation is one CLI call through ``qwalk.cli.main`` (stdout and stderr
captured in memory) or one library call for a path the CLI lacks.  The
program is reached through module attributes at call time, so the tracer's
wrappers see every call.

Each check compares an output with ``reference`` (computed apart from
``qwalk``) or with a property the method must have.  A check raises
``NoResult`` when the operation delivered no result (it counts as failed)
and ``Wrong`` when the result is incorrect.

The seed picks the theta of the theta-coin CLI operations and of the
Cesaro average from [pi/4, 3pi/4], and the unit chirality pair of the
adjoint round trips.  Problem sizes do not depend on it.  The round trips
run at the fixed ``ROUND_TRIP_THETAS`` instead of the seeded theta: the
backward half of a round trip takes two to three times longer for theta
between about 1.6 and 2.1, where more amplitudes in the tails fall to
subnormal floats, so a seeded theta would make the work of a pass depend
on the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

import reference

SQRT2 = math.sqrt(2)
DELTA = "0.4446"
AMPLITUDE_TOL = 1e-12
NORM_TOL = 1e-12
MIRROR_TOL = 1e-13
TV_TOL = 1e-10
#: Hadamard left-start limits of E[alpha], E|alpha| and E[alpha^2].
HADAMARD_MOMENTS = {"mean": -1 + 1 / SQRT2, "abs_mean": 0.5, "second": 1 - 1 / SQRT2}
MOMENT_TOL = 0.01
#: Summed |stationary phase - exact| over the interior sites (|n/t| below
#: 1/sqrt2 - 0.1) at t = 2000.  It falls about as 1/t: 3.2e-3 at t = 200,
#: 3.3e-4 at t = 2000.
ASYMPTOTIC_L1_TOL = 0.01
TAIL_TOL = 1e-12
#: Midpoints of four equal strata of [pi/4, 3pi/4].
ROUND_TRIP_THETAS = tuple(math.pi / 4 + (k + 0.5) * math.pi / 8 for k in range(4))


class NoResult(Exception):
    """The operation delivered no result: it counts as failed."""


class Wrong(Exception):
    """The operation delivered an incorrect result."""


@dataclass
class Outcome:
    rc: int
    stdout: str = ""
    stderr: str = ""
    arrays: tuple = ()

    def digest(self) -> str:
        h = hashlib.sha256(f"{self.rc}\0{self.stdout}\0{self.stderr}".encode())
        for a in self.arrays:
            h.update(np.ascontiguousarray(a).tobytes())
        return h.hexdigest()


@dataclass
class Op:
    name: str
    run: Callable[[], Outcome]
    check: Callable[[Outcome], None]


def cli_call(qwalk, argv: list[str]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = qwalk.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return Outcome(rc, out.getvalue(), err.getvalue())


def seeded_inputs(seed: int) -> tuple[float, np.ndarray]:
    rng = np.random.default_rng(seed)
    theta = float(rng.uniform(math.pi / 4, 3 * math.pi / 4))
    z = rng.normal(size=4)
    pair = np.array([z[0] + 1j * z[1], z[2] + 1j * z[3]])
    return theta, pair / np.linalg.norm(pair)


# -- references, computed once per run outside the timed passes --------

@cache
def _line_ref(coin_key, pair_key, t):
    return reference.line_amplitudes(_coin(coin_key), np.array(pair_key), t)


def _coin(key):
    return reference.HADAMARD if key == "hadamard" else reference.rotation_coin(key)


def line_ref(coin_key, pair, t):
    return _line_ref(coin_key, tuple(complex(v) for v in pair), t)


@cache
def quantum_crossing(n, t_cap):
    blocks = reference.cycle_quantum_masses(reference.HADAMARD, reference.SYMMETRIC, n, t_cap)
    return reference.tv_crossing(blocks, float(DELTA))


@cache
def classical_crossing(n, delta, t_cap):
    return reference.tv_crossing(reference.cycle_classical_masses(n, t_cap), delta)


# -- output parsing ----------------------------------------------------

def _ok(outcome: Outcome) -> None:
    if outcome.rc != 0:
        last = outcome.stderr.strip().splitlines()[-1:] or [""]
        raise NoResult(f"exit code {outcome.rc}: {last[0]}")


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _column(rows, header, name) -> np.ndarray:
    i = header.index(name)
    return np.array([float(r[i]) if r[i] else math.nan for r in rows])


def wavefunction_table(outcome: Outcome, fmt: str):
    """Sites, (n, 2) amplitudes and the prob column of a wavefunction dump."""
    if fmt == "json":
        data = json.loads(outcome.stdout)["data"]
        cols = {k: np.array([row[k] for row in data], dtype=float)
                for k in ("n", "psi_L_re", "psi_L_im", "psi_R_re", "psi_R_im", "prob")}
    else:
        header, rows = parse_csv(outcome.stdout)
        cols = {k: _column(rows, header, k) for k in header}
    amps = np.stack([cols["psi_L_re"] + 1j * cols["psi_L_im"],
                     cols["psi_R_re"] + 1j * cols["psi_R_im"]], axis=1)
    return cols["n"].astype(np.int64), amps, cols["prob"]


# -- property checks ---------------------------------------------------

def _require(cond: bool, message: str) -> None:
    if not cond:
        raise Wrong(message)


def check_sites(sites: np.ndarray, t: int) -> None:
    _require(np.array_equal(sites, np.arange(-t, t + 1)), f"sites are not -{t}..{t}")


def check_norm(masses: np.ndarray, what: str) -> None:
    drift = abs(float(np.sum(masses)) - 1.0)
    _require(drift <= NORM_TOL, f"{what}: norm drift {drift:.3g}")


def check_amplitudes(amps: np.ndarray, ref: np.ndarray, what: str) -> None:
    err = float(np.max(np.abs(amps - ref)))
    _require(err <= AMPLITUDE_TOL, f"{what}: amplitudes differ from the FFT reference by {err:.3g}")


def check_parity_zeros(sites: np.ndarray, t: int, *columns: np.ndarray) -> None:
    forbidden = (sites + t) % 2 == 1
    for col in columns:
        _require(np.all(col[forbidden] == 0), "nonzero amplitude on a parity-forbidden site")


def check_mirror(masses: np.ndarray) -> None:
    err = float(np.max(np.abs(masses - masses[::-1])))
    _require(err <= MIRROR_TOL, f"P(n) != P(-n) by {err:.3g} for a symmetric start")


def check_abs_mean(sites: np.ndarray, masses: np.ndarray, t: int, theta: float) -> None:
    value = float(np.sum(np.abs(sites / t) * masses))
    target = 1 - theta / math.pi
    _require(abs(value - target) <= MOMENT_TOL,
             f"mean |n/t| = {value:.6f}, limit 1 - theta/pi = {target:.6f}")


def check_hadamard_tail(sites: np.ndarray, masses: np.ndarray, t: int) -> None:
    tail = float(np.sum(masses[np.abs(sites) > 1.05 * t / SQRT2]))
    _require(tail <= TAIL_TOL, f"mass {tail:.3g} beyond 1.05 t/sqrt2")


def masses_of(amps: np.ndarray) -> np.ndarray:
    return np.sum(amps.real**2 + amps.imag**2, axis=1)


# -- operations --------------------------------------------------------

def _line_dump(qwalk, argv, t, fmt, coin_key, pair, theta=None):
    """A simulate/spectral call whose output is a whole line wavefunction."""
    recurrence = argv[0] == "simulate"

    def check(outcome):
        _ok(outcome)
        sites, amps, prob = wavefunction_table(outcome, fmt)
        check_sites(sites, t)
        check_amplitudes(amps, line_ref(coin_key, pair, t), argv[0])
        check_norm(prob, argv[0])
        if recurrence:
            check_parity_zeros(sites, t, amps.real, amps.imag, prob)
        if theta is None:
            check_hadamard_tail(sites, prob, t)
        else:
            check_mirror(prob)
            check_abs_mean(sites, prob, t, theta)

    return Op(" ".join(argv), lambda: cli_call(qwalk, argv), check)


def _moments(qwalk, t):
    argv = ["moments", "--steps", str(t), "--init", "left"]

    def check(outcome):
        _ok(outcome)
        header, rows = parse_csv(outcome.stdout)
        table = {r[0]: (float(r[1]), float(r[2])) for r in rows}
        _require(sorted(table) == sorted(HADAMARD_MOMENTS), f"moment rows {sorted(table)}")
        x = np.arange(-t, t + 1) / t
        p = masses_of(line_ref("hadamard", reference.LEFT, t))
        exact = {"mean": np.sum(x * p), "abs_mean": np.sum(np.abs(x) * p),
                 "second": np.sum(x**2 * p)}
        for name, limit in HADAMARD_MOMENTS.items():
            simulation, density = table[name]
            _require(abs(simulation - limit) <= MOMENT_TOL,
                     f"{name}: simulation {simulation:.6f} vs limit {limit:.6f}")
            _require(abs(simulation - exact[name]) <= 1e-9,
                     f"{name}: simulation {simulation!r} vs reference {exact[name]!r}")
            _require(abs(density - limit) <= 1e-9,
                     f"{name}: density quadrature {density!r} vs limit {limit!r}")

    return Op(" ".join(argv), lambda: cli_call(qwalk, argv), check)


def _round_trip(qwalk, theta, pair, t):
    def run():
        coin = qwalk.core.theta_coin(theta)
        forward = qwalk.evolve.evolve_line(qwalk.core.initial_state(pair), coin, t)
        back = qwalk.evolve.evolve_line(forward, coin, t, adjoint=True)
        return Outcome(0, arrays=(forward.amplitudes, forward.sites, back.amplitudes,
                                  back.sites, np.array([forward.time, back.time])))

    def check(outcome):
        fwd, fwd_sites, back, back_sites, times = outcome.arrays
        check_sites(fwd_sites, t)
        check_amplitudes(fwd, line_ref(theta, pair, t), "evolve_line forward")
        check_norm(masses_of(fwd), "evolve_line forward")
        check_parity_zeros(fwd_sites, t, fwd.real, fwd.imag)
        _require(list(times) == [t, 0], f"times after the round trip {list(times)}")
        expected = np.zeros_like(back)
        expected[back_sites == 0] = pair
        err = float(np.max(np.abs(back - expected)))
        _require(err <= AMPLITUDE_TOL, f"adjoint round trip misses the initial pair by {err:.3g}")

    return Op(f"evolve_line round trip t={t} theta={theta:.4f}", run, check)


def _compare(qwalk, t):
    argv = ["compare", "--steps", str(t), "--init", "left"]

    def check(outcome):
        _ok(outcome)
        header, rows = parse_csv(outcome.stdout)
        sites = _column(rows, header, "n").astype(np.int64)
        check_sites(sites, t)
        ref = masses_of(line_ref("hadamard", reference.LEFT, t))
        for col in ("p_exact", "p_spectral"):
            p = _column(rows, header, col)
            err = float(np.max(np.abs(p - ref)))
            _require(err <= AMPLITUDE_TOL, f"{col} differs from the FFT reference by {err:.3g}")
            check_norm(p, col)
        p_exact = _column(rows, header, "p_exact")
        check_parity_zeros(sites, t, p_exact)
        check_hadamard_tail(sites, p_exact, t)
        p_asym = _column(rows, header, "p_asymptotic")
        have = ~np.isnan(p_asym)
        interior = (np.abs(sites / t) <= 1 / SQRT2 - 0.1) & ((sites + t) % 2 == 0)
        _require(np.array_equal(have, interior),
                 "stationary phase is not given on exactly the interior parity-allowed sites")
        l1 = float(np.sum(np.abs(p_asym[have] - ref[have])))
        _require(l1 <= ASYMPTOTIC_L1_TOL, f"interior l1(stationary phase, exact) = {l1:.3g}")

    return Op(" ".join(argv), lambda: cli_call(qwalk, argv), check)


def _mix(qwalk, n, t_cap, delta=DELTA, classical=False):
    argv = ["mix", "--topology", f"circle:{n}", "--delta", delta, "--t-cap", str(t_cap)]
    argv += ["--classical"] if classical else ["--init", "symmetric"]

    def check(outcome):
        _ok(outcome)
        if classical:
            expected, ref_trace = classical_crossing(n, float(delta), t_cap)
        else:
            expected, ref_trace = quantum_crossing(n, t_cap)
        reported = outcome.stderr.split("crossing_time:")[-1].strip()
        if reported == "not reached":
            raise NoResult(f"no crossing by t = {t_cap}; the reference crosses at t = {expected}")
        _require(reported == str(expected),
                 f"crossing {reported}, reference crossing {expected}")
        header, rows = parse_csv(outcome.stdout)
        times = _column(rows, header, "t")
        _require(np.array_equal(times, np.arange(1, expected + 1)), "trace is not t = 1..crossing")
        err = float(np.max(np.abs(_column(rows, header, "tv") - ref_trace)))
        _require(err <= TV_TOL, f"TV trace differs from the reference by {err:.3g}")

    return Op(" ".join(argv), lambda: cli_call(qwalk, argv), check)


def _cesaro(qwalk, theta, n, big_t):
    def run():
        spec = qwalk.stats.WalkSpec(topology=qwalk.core.Circle(n),
                                    coin=qwalk.core.theta_coin(theta), init="symmetric")
        return Outcome(0, arrays=(qwalk.stats.cesaro_average(spec, big_t).masses,))

    def check(outcome):
        (masses,) = outcome.arrays
        check_norm(masses, "cesaro_average")
        ref = reference.cesaro_masses(reference.rotation_coin(theta), reference.SYMMETRIC,
                                      n, big_t)
        err = float(np.max(np.abs(masses - ref)))
        _require(err <= AMPLITUDE_TOL, f"Cesaro average differs from the reference by {err:.3g}")

    return Op(f"cesaro_average n={n} T={big_t}", run, check)


def build(workload: str, qwalk, seed: int) -> tuple[list[Op], list[str]]:
    """The operation list of one pass, and the argv of the warm-up call."""
    theta, pair = seeded_inputs(seed)
    coin = repr(theta)
    if workload == "line-recurrence":
        ops = [
            _line_dump(qwalk, ["simulate", "--steps", "4000", "--init", "left"],
                       4000, "csv", "hadamard", reference.LEFT),
            _line_dump(qwalk, ["simulate", "--steps", "2000", "--coin", coin,
                               "--init", "symmetric", "--format", "json"],
                       2000, "json", theta, reference.SYMMETRIC, theta),
            _moments(qwalk, 4000),
        ]
        ops += [_round_trip(qwalk, th, pair, 2000) for th in ROUND_TRIP_THETAS]
        return ops, ["simulate", "--steps", "16", "--init", "left"]
    if workload == "line-compare":
        ops = [
            _compare(qwalk, 2000),
            _line_dump(qwalk, ["spectral", "--steps", "2000", "--coin", coin,
                               "--init", "symmetric", "--format", "json"],
                       2000, "json", theta, reference.SYMMETRIC, theta),
        ]
        return ops, ["compare", "--steps", "16", "--init", "left"]
    if workload == "circle-mix":
        ops = [_mix(qwalk, n, 20 * n) for n in (127, 511, 2047)]
        ops += [_mix(qwalk, n, 20 * n * n, classical=True) for n in (127, 511)]
        ops.append(_cesaro(qwalk, theta, 511, 8 * 511))
        # Kept failing on purpose: the classical branch of mixing_time
        # compares even cycles with uniform over all sites, so TV floors at
        # 1/2; the parity-class reference crosses at t = 157.
        ops.append(_mix(qwalk, 64, 2000, delta="0.3", classical=True))
        return ops, ["mix", "--topology", "circle:15", "--delta", DELTA, "--t-cap", "300"]
    raise ValueError(f"unknown workload {workload!r}")
