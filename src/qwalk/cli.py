"""Command-line front end.

Runs simulations and analyses and emits machine-readable CSV or JSON.
Output is deterministic: identical configs produce byte-identical
files on one machine.  What the recurrence computes (``simulate``,
``mix``, the ``n`` and ``p_exact`` columns of ``compare``) is the same
at every SIMD level numpy dispatches to; values that go through its
dispatched transcendentals (the spectral and stationary-phase routes)
can differ in the last bit between CPUs.  Floats are printed with 17
significant digits so doubles round-trip losslessly.  Tables are formatted from one %-template per
row, with one conversion per column: ``%d`` for a column of plain
ints, ``%.17g`` (CSV) or ``%r`` (JSON) for a column of finite plain
floats, and ``%s`` over each cell's own text for any other column.  A
chunk of rows is formatted by one % operation and written as it is
made, and the JSON rows are spliced into the indented ``json.dumps`` of
the rest of the payload.  The bytes are those of formatting each value
on its own and dumping the whole payload at once.  Every site
probability is squared from its amplitudes by the kernel behind
:func:`qwalk.evolve.distribution`, so the routes print the same bits
for the same amplitudes.

Exit codes: 0 success; 2 when the command line cannot be parsed or its
options conflict, or the output cannot be written (a closed pipe, a
full disk); 3 when the library refuses a value, as
:class:`qwalk.core.DomainError`.  The CLI only parses: every rule on a
parsed value (the sign and cap of ``--steps``, a finite ``--delta``, a
``--t-cap`` of at least 1) is checked once, by the library call that
takes it.  Either way the error is one ``error:`` line on stderr,
argparse's own included.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import chain
from typing import Callable, Iterator, NoReturn

import numpy as np

from . import __version__
from .asymptotics import density_moment, p_asymptotic, support_edge
from .core import (
    Circle,
    CoinOperator,
    DomainError,
    Line,
    check_steps,
    hadamard_coin,
    initial_state,
    theta_coin,
)
from .evolve import distribution, evolve_circle, evolve_line
from .spectral import evolve_spectral
from .stats import WalkSpec, mixing_time, moment
from .symmetry import PAULIS, verify_symmetrizer

USAGE_ERROR = 2
DOMAIN_ERROR = 3


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
    if args.coin == "hadamard":
        return hadamard_coin()
    try:
        theta = parse_theta(args.coin)
    except ValueError:
        _usage_error(f"--coin {args.coin!r} is not an angle like 1.2 or 0.5pi")
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


def _csv_cell(v) -> str:
    return "" if v is None else "%.17g" % v if isinstance(v, float) else str(v)


def _json_cell(v) -> str:
    return "null" if v is None else json.dumps(v)


def _column_spec(values: tuple, csv: bool) -> tuple[str, tuple, Callable | None]:
    """One column's %-conversion, for CSV or as JSON values, its cells and their text.

    The text function is None where the conversion takes the cells as
    they are; a ``%s`` column is converted a chunk at a time.
    """
    kinds = set(map(type, values))
    if kinds == {int}:
        return "%d", values, None
    if kinds == {float} and all(map(math.isfinite, values)):
        return "%.17g" if csv else "%r", values, None
    return "%s", values, _csv_cell if csv else _json_cell


#: rows formatted by one % operation
_CHUNK = 256
# where the rows go in the indented dump of the payload
_EMPTY_DATA = '\n "data": []'


def _formatted(template: str, specs: list) -> Iterator[str]:
    """The rows' text, ``_CHUNK`` rows a piece, from ``template`` and ``_column_spec``s.

    ``template`` holds one row with the specs' conversions in order; a
    piece interleaves slices of their columns and formats them at once.
    The repeated template and the cell list are built once and reused:
    building them per piece left the benchmark's peak RSS higher.
    """
    width, count = len(specs), len(specs[0][1])
    rows = min(_CHUNK, count)
    page, cells = template * rows, [None] * (width * rows)
    for start in range(0, count, _CHUNK):
        stop = min(start + _CHUNK, count)
        if stop - start < rows:  # the last piece is shorter
            page, cells = template * (stop - start), cells[:width * (stop - start)]
        for i, (_, column, text) in enumerate(specs):
            part = column[start:stop]
            cells[i::width] = part if text is None else map(text, part)
        yield page % tuple(cells)


def _emit(args, header: list[str], rows: list, extra: dict | None = None) -> None:
    """Write the result as CSV (header + rows) or JSON (config echo + data).

    ``rows`` holds one sequence of cells per row.  Each column takes one
    %-conversion (:func:`_column_spec`), the row template joins them,
    and each chunk of rows is formatted by one % operation and written
    as it is made; JSON rows are objects with sorted keys, as in
    ``json.dumps(payload, indent=1, sort_keys=True)``.
    """
    csv = args.format == "csv"
    columns = list(zip(*rows))
    if csv:
        specs = [_column_spec(column, csv) for column in columns]
        template = ",".join(spec[0] for spec in specs) + "\n"
        pieces = chain([",".join(header) + "\n"], _formatted(template, specs) if rows else [])
    else:
        config = {k: v for k, v in sorted(vars(args).items())
                  if k != "func" and v is not None}
        payload = {"schema_version": "1", "config": config, "data": []}
        if extra:
            payload.update(extra)
        text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
        pieces = [text]
        if rows:
            # a repeated key keeps its last column, as a dict built from the row would
            index = {key: i for i, key in enumerate(header)}
            keys = sorted(index)
            specs = [_column_spec(columns[index[key]], csv) for key in keys]
            fields = ",\n".join(f"   {json.dumps(key).replace('%', '%%')}: {spec[0]}"
                                for key, spec in zip(keys, specs))
            chunks = _formatted(",\n  {\n" + fields + "\n  }", specs)
            head, _, tail = text.partition(_EMPTY_DATA)
            # the first row goes without the separating comma
            pieces = chain([head, '\n "data": [', next(chunks)[1:]], chunks, ["\n ]", tail])

    try:
        if args.output == "-":
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
        else:
            with open(args.output, "w") as fh:
                fh.writelines(pieces)
    except OSError as exc:
        if args.output != "-":
            _usage_error(f"cannot write --output {args.output!r}: {exc.strerror}")
        # Python flushes stdout again at exit: what it still buffers goes to
        # the null device, so that flush neither fails nor prints a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _usage_error(f"cannot write to standard output: {exc.strerror}")


def _wavefunction_rows(psi) -> list[tuple]:
    # the float64 view of the (L, R) columns is (L.re, L.im, R.re, R.im)
    return list(zip(psi.sites.tolist(), *psi.amplitudes.view(np.float64).T.tolist(),
                    distribution(psi).masses.tolist()))


WF_HEADER = ["n", "psi_L_re", "psi_L_im", "psi_R_re", "psi_R_im", "prob"]


def cmd_simulate(args) -> None:
    coin = _coin_from_args(args)
    topo = _topology_from_args(args)
    evolve = evolve_circle if isinstance(topo, Circle) else evolve_line
    psi = evolve(initial_state(args.init, topo), coin, args.steps)
    _emit(args, WF_HEADER, _wavefunction_rows(psi))


def cmd_spectral(args) -> None:
    coin = _coin_from_args(args)
    topo = _topology_from_args(args)
    psi = evolve_spectral(initial_state(args.init, topo), coin, args.steps)
    _emit(args, WF_HEADER, _wavefunction_rows(psi))


#: margin kept inside the cone edge |u00|: the interior formula of
#: stationary phase does not hold in the Airy layer at the edge
_MARGIN = 0.1


def _interior(coin: CoinOperator, t: int) -> np.ndarray:
    """Parity-allowed sites of an origin start with ``|n/t| <= |u00| - _MARGIN``.

    :func:`qwalk.core.check_steps` refuses a negative or oversized ``t``
    before the sites are allocated; stationary phase needs ``t >= 1``
    on top of that.
    """
    check_steps(t)
    if t < 1:
        raise DomainError("--steps must be at least 1")
    sites = np.arange(-t, t + 1, 2)
    return sites[np.abs(sites / t) <= support_edge(coin) - _MARGIN]


def cmd_asymptotic(args) -> None:
    coin = _coin_from_args(args)
    t = args.steps
    sites = _interior(coin, t)
    if sites.size == 0:
        raise DomainError(f"no parity-allowed site has |n/t| <= |u00| - {_MARGIN} "
                          f"= {support_edge(coin) - _MARGIN:.6g}")
    probs = p_asymptotic(coin, args.init, t, sites)
    _emit(args, ["n", "alpha", "prob"],
          list(zip(sites.tolist(), (sites / t).tolist(), probs.tolist())))


def cmd_moments(args) -> None:
    coin = _coin_from_args(args)
    dist = distribution(evolve_line(initial_state(args.init), coin, args.steps))
    rows = [[name, moment(dist, name), density_moment(coin, args.init, name)]
            for name in ("mean", "abs_mean", "second")]
    _emit(args, ["moment", "simulation", "density"], rows)


def cmd_mix(args) -> None:
    topo = _topology_from_args(args)
    if args.classical:
        if {args.coin, args.init} != {None}:
            _usage_error("--classical walks without a coin or a start: drop --coin and --init")
        spec = WalkSpec(topo, coin=None)
    else:
        # the coined walk's defaults, filled in here so the config echo shows them
        args.coin = "hadamard" if args.coin is None else args.coin
        args.init = "left" if args.init is None else args.init
        spec = WalkSpec(topo, _coin_from_args(args), args.init)
    report = mixing_time(spec, args.delta, args.t_cap)
    rows = list(enumerate(report.tv_trace.tolist(), start=1))
    print(f"crossing_time: {report.time if report.time is not None else 'not reached'}",
          file=sys.stderr)
    _emit(args, ["t", "tv"], rows, extra={"crossing_time": report.time})


def cmd_symmetry(args) -> None:
    coin = _coin_from_args(args)
    reports = [(name, verify_symmetrizer(coin, cand)) for name, cand in PAULIS]
    rows = [[name, rep.sign, float(rep.max_residual), rep.verdict] for name, rep in reports]
    _emit(args, ["candidate", "sign", "max_residual", "verdict"], rows)


def cmd_compare(args) -> None:
    coin = _coin_from_args(args)
    t = args.steps
    sites = _interior(coin, t)
    psi0 = initial_state(args.init)
    exact = evolve_line(psi0, coin, t)
    spectral = evolve_spectral(psi0, coin, t)
    max_amp_diff = float(np.max(np.abs(exact.amplitudes - spectral.amplitudes)))

    p_exact = distribution(exact).masses
    p_spec = distribution(spectral).masses
    p_asym = [None] * len(p_exact)
    l1 = None
    if sites.size and support_edge(coin) < 1:
        # exact and spectral hold sites -t..t, so site n sits at row n + t
        probs = p_asymptotic(coin, args.init, t, sites)
        l1 = float(np.sum(np.abs(probs - p_exact[sites + t])))
        for n, p in zip(sites.tolist(), probs.tolist()):
            p_asym[n + t] = p
    rows = list(zip(exact.sites.tolist(), p_exact.tolist(), p_spec.tolist(), p_asym))

    print("max_abs_amplitude_diff_exact_spectral: %.17g" % max_amp_diff, file=sys.stderr)
    if l1 is not None:
        print("l1_interior_exact_asymptotic: %.17g" % l1, file=sys.stderr)
    _emit(args, ["n", "p_exact", "p_spectral", "p_asymptotic"], rows,
          extra={"max_abs_amplitude_diff_exact_spectral": max_amp_diff,
                 "l1_interior_exact_asymptotic": l1})


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a bad command line on one line.

    Its subcommand parsers are of this class too.
    """

    def error(self, message: str) -> NoReturn:
        _usage_error(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qwalk",
        description="Coined quantum walks on the line and circle.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def coin_and_output(p):
        p.add_argument("--coin", default="hadamard",
                       help="'hadamard', radians, or a multiple of pi like '0.5pi'")
        p.add_argument("--format", default="csv", choices=["csv", "json"])
        p.add_argument("--output", default="-", help="output path or '-' for stdout")

    def common(p, steps_default=None, topology=True):
        coin_and_output(p)
        p.add_argument("--init", default="left",
                       choices=["left", "right", "symmetric"])
        if topology:
            p.add_argument("--topology", default="line",
                           help="'line' or 'circle:N'")
        if steps_default is not None:
            p.add_argument("--steps", type=int, default=steps_default)

    p = sub.add_parser("simulate", help="evolve by the direct recurrence")
    common(p, steps_default=100)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("spectral", help="evolve by the Fourier-domain route")
    common(p, steps_default=100)
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("asymptotic",
                       help="stationary-phase site probabilities inside the cone")
    common(p, steps_default=100, topology=False)
    p.set_defaults(func=cmd_asymptotic)

    p = sub.add_parser("moments", help="moment table, simulation vs density")
    common(p, steps_default=80, topology=False)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("mix", help="TV-to-uniform trace and crossing time")
    common(p)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--t-cap", type=int, default=10000)
    p.add_argument("--classical", action="store_true",
                   help="run the exact classical DP walk instead; takes no --coin or --init")
    # None tells a given option from one left out; cmd_mix fills in the coined defaults
    p.set_defaults(func=cmd_mix, coin=None, init=None)

    p = sub.add_parser("symmetry", help="check Pauli symmetrizer candidates")
    coin_and_output(p)
    p.set_defaults(func=cmd_symmetry)

    p = sub.add_parser("compare", help="exact vs spectral vs asymptotic")
    common(p, steps_default=64, topology=False)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
