"""Command-line front end.

Runs simulations and analyses and emits machine-readable CSV or JSON.
Output is deterministic: identical configs produce byte-identical
files.  Floats are printed with 17 significant digits so doubles
round-trip losslessly.

Exit codes: 0 success, 2 usage/config error, 3 domain error (a
precondition of the dispatched operation was violated).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import NoReturn

import numpy as np

from . import __version__
from .asymptotics import DEFAULT_EPSILON, p_asymptotic, support_edge
from .core import (
    Circle,
    CoinOperator,
    DomainError,
    Line,
    hadamard_coin,
    initial_state,
    theta_coin,
)
from .evolve import distribution, evolve_circle, evolve_line
from .spectral import evolve_spectral
from .stats import WalkSpec, analytic_moment, mixing_time, moment
from .symmetry import SIGMA_X, SIGMA_Y, SIGMA_Z, verify_symmetrizer

USAGE_ERROR = 2
DOMAIN_ERROR = 3


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def parse_theta(text: str) -> float:
    """Parse a coin angle given in radians or as a multiple of pi.

    ``"0.5pi"`` and ``"1.5707963267948966"`` denote the same angle.
    """
    text = text.strip().lower()
    if text.endswith("pi"):
        head = text[:-2].strip()
        factor = 1.0 if head in ("", "+") else float(head)
        return factor * math.pi
    return float(text)


def _usage_error(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(USAGE_ERROR)


def _coin_from_args(args) -> CoinOperator:
    if getattr(args, "theta", None) is not None:
        option, text = "--theta", args.theta
    elif args.coin == "hadamard":
        return hadamard_coin()
    else:
        option, text = "--coin", args.coin
    try:
        theta = parse_theta(text)
    except ValueError:
        _usage_error(f"{option} {text!r} is not an angle like 1.2 or 0.5pi")
    return theta_coin(theta)


def _topology_from_args(args):
    text = args.topology
    if text == "line":
        return Line()
    if text.startswith("circle:"):
        try:
            n = int(text.split(":", 1)[1])
        except ValueError:
            _usage_error(f"circle size must be an integer, got {text!r}")
        return Circle(n)
    _usage_error(f"topology must be 'line' or 'circle:N', got {text!r}")


def _emit(args, header: list[str], rows: list[list], extra: dict | None = None) -> None:
    """Write the result as CSV (header + rows) or JSON (config echo + data)."""
    if args.format == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join("" if v is None else
                                  _fmt(v) if isinstance(v, float) else str(v)
                                  for v in row))
        text = "\n".join(lines) + "\n"
    else:
        config = {k: v for k, v in sorted(vars(args).items())
                  if k != "func" and v is not None}
        payload = {
            "schema_version": "1",
            "config": config,
            "data": [dict(zip(header, row)) for row in rows],
        }
        if extra:
            payload.update(extra)
        text = json.dumps(payload, indent=1, sort_keys=True) + "\n"

    if args.output == "-":
        sys.stdout.write(text)
    else:
        try:
            fh = open(args.output, "w")
        except OSError as exc:
            _usage_error(f"cannot write --output {args.output!r}: {exc.strerror}")
        with fh:
            fh.write(text)


def _wavefunction_rows(psi) -> list[list]:
    rows = []
    for site, (al, ar) in zip(psi.sites.tolist(), psi.amplitudes):
        prob = abs(al) ** 2 + abs(ar) ** 2
        rows.append([site, al.real, al.imag, ar.real, ar.imag, prob])
    return rows


WF_HEADER = ["n", "psi_L_re", "psi_L_im", "psi_R_re", "psi_R_im", "prob"]


def cmd_simulate(args) -> None:
    coin = _coin_from_args(args)
    topo = _topology_from_args(args)
    psi = initial_state(args.init, topo)
    if isinstance(topo, Circle):
        psi = evolve_circle(psi, coin, args.steps)
    else:
        psi = evolve_line(psi, coin, args.steps)
    _emit(args, WF_HEADER, _wavefunction_rows(psi))


def cmd_spectral(args) -> None:
    coin = _coin_from_args(args)
    topo = _topology_from_args(args)
    if not isinstance(topo, Line):
        raise DomainError("the spectral route is implemented on the line")
    psi = evolve_spectral(initial_state(args.init, topo), coin, args.steps)
    _emit(args, WF_HEADER, _wavefunction_rows(psi))


def _has_oscillatory_form(coin: CoinOperator, init: str) -> bool:
    """Whether :func:`p_asymptotic` describes this walk: Hadamard, left start."""
    return init == "left" and np.array_equal(coin.matrix, hadamard_coin().matrix)


def cmd_asymptotic(args) -> None:
    coin = _coin_from_args(args)
    if not _has_oscillatory_form(coin, args.init):
        raise DomainError("the oscillatory asymptotic formula needs the Hadamard "
                          "coin and --init left")
    t = args.steps
    if t < 1:
        raise DomainError("the asymptotic formula needs --steps >= 1")
    edge = support_edge(coin)
    rows = []
    for n in range(-t, t + 1):
        if (n + t) % 2:
            continue
        alpha = n / t
        if abs(alpha) > edge - args.epsilon:
            continue
        rows.append([n, float(alpha), p_asymptotic(alpha, t, args.epsilon)])
    _emit(args, ["n", "alpha", "prob"], rows)


def cmd_moments(args) -> None:
    coin = _coin_from_args(args)
    topo = _topology_from_args(args)
    if not isinstance(topo, Line):
        raise DomainError("moments are computed on the line")
    dist = distribution(evolve_line(initial_state(args.init, topo), coin, args.steps))
    rows = []
    for name, (m, absolute) in (("mean", (1, False)),
                                ("abs_mean", (1, True)),
                                ("second", (2, False))):
        exact = moment(dist, m, absolute=absolute).value
        analytic = analytic_moment(coin, args.init, name).value
        rows.append([name, exact, analytic])
    _emit(args, ["moment", "simulation", "density"], rows)


def cmd_mix(args) -> None:
    if not math.isfinite(args.delta):
        _usage_error(f"--delta must be finite, got {args.delta!r}")
    if args.t_cap < 1:
        _usage_error(f"--t-cap must be at least 1, got {args.t_cap}")
    coin = _coin_from_args(args)
    topo = _topology_from_args(args)
    if not isinstance(topo, Circle):
        raise DomainError("mix requires a circle topology")
    spec = WalkSpec(topology=topo, coin=coin, init=args.init,
                    classical=args.classical)
    report = mixing_time(spec, args.delta, args.t_cap)
    rows = [[t + 1, float(tv)] for t, tv in enumerate(report.tv_trace)]
    crossing = report.time if report.reached else None
    print(f"crossing_time: {crossing if crossing is not None else 'not reached'}",
          file=sys.stderr)
    _emit(args, ["t", "tv"], rows, extra={"crossing_time": crossing})


def cmd_symmetry(args) -> None:
    coin = _coin_from_args(args)
    rows = []
    for name, cand in (("sigma_x", SIGMA_X), ("sigma_y", SIGMA_Y),
                       ("sigma_z", SIGMA_Z)):
        rep = verify_symmetrizer(coin, cand, args.k_samples)
        rows.append([name, rep.sign, float(rep.max_residual), rep.verdict])
    _emit(args, ["candidate", "sign", "max_residual", "verdict"], rows)


def cmd_compare(args) -> None:
    coin = _coin_from_args(args)
    if not isinstance(_topology_from_args(args), Line):
        raise DomainError("compare runs on the line")
    t = args.steps
    if t < 1:
        raise DomainError("compare needs --steps >= 1")
    psi0 = initial_state(args.init, Line())
    exact = evolve_line(psi0, coin, t)
    spectral = evolve_spectral(psi0, coin, t)
    max_amp_diff = float(np.max(np.abs(exact.amplitudes - spectral.amplitudes)))

    p_exact = distribution(exact)
    p_spec = distribution(spectral)
    edge = support_edge(coin)
    oscillatory = _has_oscillatory_form(coin, args.init)

    rows = []
    l1 = 0.0
    for i, n in enumerate(p_exact.sites.tolist()):
        alpha = n / t
        p_asym = None
        if (oscillatory and (n + t) % 2 == 0
                and abs(alpha) <= edge - args.epsilon):
            p_asym = p_asymptotic(alpha, t, args.epsilon)
            l1 += abs(p_asym - p_exact.masses[i])
        rows.append([n, float(p_exact.masses[i]), float(p_spec.masses[i]), p_asym])

    print(f"max_abs_amplitude_diff_exact_spectral: {_fmt(max_amp_diff)}",
          file=sys.stderr)
    if oscillatory:
        print(f"l1_interior_exact_asymptotic: {_fmt(l1)}", file=sys.stderr)
    _emit(args, ["n", "p_exact", "p_spectral", "p_asymptotic"], rows,
          extra={"max_abs_amplitude_diff_exact_spectral": max_amp_diff,
                 "l1_interior_exact_asymptotic": l1 if oscillatory else None})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwalk",
        description="Coined quantum walks on the line and circle.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, steps_default=None):
        p.add_argument("--coin", default="hadamard",
                       help="'hadamard', radians, or a multiple of pi like '0.5pi'")
        p.add_argument("--theta", default=None,
                       help="coin angle; overrides --coin")
        p.add_argument("--init", default="left",
                       choices=["left", "right", "symmetric"])
        p.add_argument("--topology", default="line",
                       help="'line' or 'circle:N'")
        p.add_argument("--format", default="csv", choices=["csv", "json"])
        p.add_argument("--output", default="-", help="output path or '-' for stdout")
        if steps_default is not None:
            p.add_argument("--steps", type=int, default=steps_default)

    p = sub.add_parser("simulate", help="evolve by the direct recurrence")
    common(p, steps_default=100)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("spectral", help="evolve by the Fourier-domain route")
    common(p, steps_default=100)
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("asymptotic",
                       help="stationary-phase site probabilities (Hadamard, left start)")
    common(p, steps_default=100)
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.set_defaults(func=cmd_asymptotic)

    p = sub.add_parser("moments", help="moment table, simulation vs density")
    common(p, steps_default=80)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("mix", help="TV-to-uniform trace and crossing time")
    common(p)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--t-cap", type=int, default=10000)
    p.add_argument("--classical", action="store_true",
                   help="run the exact classical DP walk instead")
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("symmetry", help="check Pauli symmetrizer candidates")
    common(p)
    p.add_argument("--k-samples", type=int, default=64)
    p.set_defaults(func=cmd_symmetry)

    p = sub.add_parser("compare", help="exact vs spectral vs asymptotic")
    common(p, steps_default=64)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "steps", 0) is not None and getattr(args, "steps", 0) < 0:
        parser.error("--steps must be nonnegative")
    try:
        args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
