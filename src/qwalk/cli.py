"""Command-line front end.

Runs simulations and analyses and emits machine-readable CSV or JSON.
Output is deterministic: identical configs produce byte-identical
files on one machine.  What the recurrence computes (``simulate``,
``mix``, the ``n`` and ``p_exact`` columns of ``compare``) is the same
at every SIMD level numpy dispatches to; values that go through its
dispatched transcendentals (the spectral and stationary-phase routes)
can differ in the last bit between CPUs.  The parity-forbidden sites
(``n + t`` odd from a one-site start) are exact +0.0 from both routes
on every CPU, printed as ``0`` (CSV) or ``0.0`` (JSON): the spectral
route transforms each parity class on its own sublattice and never
writes the other class's rows.  Floats are printed with 17
significant digits so doubles round-trip losslessly.  Each command
``cmd_name`` returns its table, the columns by name in output order,
and its JSON extras; :func:`main` builds one numpy record array from
the columns and writes it with one call of :func:`_emit`.  The bytes
are those of formatting each value on its own and dumping the whole
payload at once; :func:`_column_spec` (a column's conversion),
:func:`_formatted` (the rows, a chunk at a time) and :func:`_emit`
(the CSV header, the JSON payload) say how.  Every site probability
is squared from its amplitudes by the kernel behind
:func:`qwalk.evolve.distribution`, so the routes print the same bits
for the same amplitudes.

The parser is built on the first call of :func:`main` and reused by
every later call in the process, so a caller that runs many commands
in one process (a test suite, a benchmark, a notebook) builds it once.

Exit codes: 0 success; 2 when the command line cannot be parsed or its
options conflict, or the output cannot be written (a missing directory,
a closed pipe, a full disk); 3 when the library refuses a value, as
:class:`qwalk.core.DomainError`.  The CLI only parses: every rule on a
parsed value (the sign and cap of ``--steps``, the ``--steps`` of at
least 1 that stationary phase needs, a finite ``--delta``, a
``--t-cap`` of at least 1) is checked once, by the library call that
takes it.  Either way the error is one ``error:`` line on stderr,
argparse's own included.

A file ``--output`` is opened as the shell's ``>`` opens it, created or
truncated, once: after the command line is parsed and before the
command runs, and standard output points at it while the command runs
and its table is written, so the writer only ever writes to standard
output.  An unwritable target, or a closed standard output for ``-``,
exits 2 with one line before any work.  A command line that does not
parse leaves the target as it was; a command that fails after the open
(exit 2 or 3) leaves it empty, and a write that fails part way leaves
what was written.  Integer values (``--steps``, ``--t-cap``, the N of
``circle:N``) are read by Python's ``int``, so ``1_0`` reads as 10,
and the decimal digits of any script read as their ASCII digits do.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys
from functools import cache
from itertools import chain
from typing import Callable, Iterator, NoReturn

import numpy as np

from . import __version__
from .asymptotics import _check_time, density_moment, p_asymptotic, support_edge
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
        factor = float(head + "1") if head in ("", "+", "-") else float(head)
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


def _column_spec(column: np.ndarray, csv: bool) -> tuple[str, np.ndarray, Callable | None]:
    """One field's %-conversion, for CSV or as JSON values, the field and its cells' text.

    The conversion comes from the field's dtype: ``%d`` for an integer
    field, ``%.17g`` for any float field in CSV (it prints NaN and inf
    as :func:`_csv_cell` does: ``nan``, ``inf``, ``-inf``), ``%r`` for a
    float field of finite values in JSON, and ``%s`` over each cell's
    own text for any other field (object, str, bool, or a JSON float
    field holding NaN or inf, which ``json.dumps`` prints as ``NaN``
    and ``Infinity``).  The text function is None where the conversion
    takes the cells as they are.
    """
    if column.dtype.kind in "iu":
        return "%d", column, None
    if column.dtype.kind == "f" and (csv or np.isfinite(column).all()):
        return "%.17g" if csv else "%r", column, None
    return "%s", column, _csv_cell if csv else json.dumps


#: rows formatted by one % operation
_CHUNK = 256
# where the rows go in the indented dump of the payload
_EMPTY_DATA = '\n "data": []'


def _formatted(template: str, specs: list) -> Iterator[str]:
    """The rows' text, ``_CHUNK`` rows a piece, from ``template`` and ``_column_spec``s.

    ``template`` holds one row with the specs' conversions in order; a
    piece takes one slice of each field as Python values (``tolist``),
    interleaves them and formats them at once, so no Python object
    outlives the piece it was made for.  The repeated template and the
    cell list are built once and reused: building them per piece left
    the benchmark's peak RSS higher.
    """
    width, count = len(specs), len(specs[0][1])
    rows = min(_CHUNK, count)
    page, cells = template * rows, [None] * (width * rows)
    for start in range(0, count, _CHUNK):
        stop = min(start + _CHUNK, count)
        if stop - start < rows:  # the last piece is shorter
            page, cells = template * (stop - start), cells[:width * (stop - start)]
        for i, (_, column, text) in enumerate(specs):
            part = column[start:stop].tolist()
            cells[i::width] = part if text is None else map(text, part)
        yield page % tuple(cells)


def _emit(args, header: list[str], rows: np.recarray, extra: dict | None = None) -> None:
    """Write the result as CSV (header + rows) or JSON (config echo + data) to standard output.

    :func:`main` points standard output at the ``--output`` target, so
    this writes to a file and to a pipe alike, and a failed write is one
    ``error:`` line and exit 2 for either.  ``rows`` is a record array
    with one field per name of ``header``; ``len(rows)`` is the row
    count.  Each field takes one %-conversion from its dtype
    (:func:`_column_spec`), the row template joins them, and each chunk
    of rows is formatted by one % operation and written as it is made,
    so apart from the chunk being formatted the writer holds only the
    record array (48 bytes a row for a wavefunction table).  JSON rows
    are objects with sorted keys, as in ``json.dumps(payload, indent=1,
    sort_keys=True)``, spliced into the indented dump of the rest of the
    payload.
    """
    csv = args.format == "csv"
    if csv:
        specs = [_column_spec(rows[key], csv) for key in header]
        template = ",".join(spec[0] for spec in specs) + "\n"
        pieces = chain([",".join(header) + "\n"], _formatted(template, specs))
    else:
        config = {k: v for k, v in vars(args).items() if v is not None}
        payload = {"schema_version": "1", "config": config, "data": []}
        if extra:
            payload.update(extra)
        text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
        pieces = [text]
        if len(rows):
            keys = sorted(header)
            specs = [_column_spec(rows[key], csv) for key in keys]
            fields = ",\n".join(f"   {json.dumps(key).replace('%', '%%')}: {spec[0]}"
                                for key, spec in zip(keys, specs))
            chunks = _formatted(",\n  {\n" + fields + "\n  }", specs)
            head, _, tail = text.partition(_EMPTY_DATA)
            # the first row goes without the separating comma
            pieces = chain([head, '\n "data": [', next(chunks)[1:]], chunks, ["\n ]", tail])

    try:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()
    except OSError as exc:
        # the stream is flushed again when it is closed (a file by main, stdout
        # at exit): what it still buffers goes to the null device, so that
        # flush neither fails nor prints a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        target = "to standard output" if args.output == "-" else f"--output {args.output!r}"
        _usage_error(f"cannot write {target}: {exc.strerror}")


def _opened(output: str):
    """The stream ``--output`` names, as a context manager: the file, or standard output for ``-``.

    The file is created or truncated, and closed when the context ends;
    standard output is left open.  A file that cannot be opened, or a
    closed standard output (``sys.stdout`` is None, as under the
    shell's ``>&-``), is one ``error:`` line and exit 2.
    """
    if output == "-" and sys.stdout is None:
        _usage_error("cannot write to standard output: it is closed")
    try:
        return contextlib.nullcontext(sys.stdout) if output == "-" else open(output, "w")
    except OSError as exc:
        _usage_error(f"cannot write --output {output!r}: {exc.strerror}")


def _wavefunction_table(args) -> tuple[dict, None]:
    """The wavefunction table of ``simulate`` or ``spectral``, as ``args.command`` names.

    ``spectral`` takes the Fourier-domain route on either topology,
    ``simulate`` the recurrence of the line or of the circle.
    """
    coin, topo = _coin_from_args(args), _topology_from_args(args)
    evolve = (evolve_spectral if args.command == "spectral"
              else evolve_circle if isinstance(topo, Circle) else evolve_line)
    psi = evolve(initial_state(args.init, topo), coin, args.steps)
    # the float64 view of the (L, R) columns is (L.re, L.im, R.re, R.im)
    re_im = psi.amplitudes.view(np.float64).T
    return {"n": psi.sites, "psi_L_re": re_im[0], "psi_L_im": re_im[1], "psi_R_re": re_im[2],
            "psi_R_im": re_im[3], "prob": distribution(psi).masses}, None


def cmd_simulate(args) -> tuple[dict, None]:
    return _wavefunction_table(args)


def cmd_spectral(args) -> tuple[dict, None]:
    return _wavefunction_table(args)


#: margin kept inside the cone edge |u00|: the interior formula of
#: stationary phase does not hold in the Airy layer at the edge
_MARGIN = 0.1


def _interior(coin: CoinOperator, t: int) -> np.ndarray:
    """Parity-allowed sites of an origin start with ``|n/t| <= |u00| - _MARGIN``.

    :func:`qwalk.core.check_steps` refuses a negative or oversized ``t``
    before the sites are allocated, and :func:`qwalk.asymptotics._check_time`
    a ``t`` of 0, which stationary phase does not take, before ``n/t``
    divides by it.
    """
    check_steps(t)
    _check_time(t)
    sites = np.arange(-t, t + 1, 2)
    return sites[np.abs(sites / t) <= support_edge(coin) - _MARGIN]


def cmd_asymptotic(args) -> tuple[dict, None]:
    coin = _coin_from_args(args)
    t = args.steps
    sites = _interior(coin, t)
    if sites.size == 0:
        raise DomainError(f"no parity-allowed site has |n/t| <= |u00| - {_MARGIN} "
                          f"= {support_edge(coin) - _MARGIN:.6g}")
    return {"n": sites, "alpha": sites / t, "prob": p_asymptotic(coin, args.init, t, sites)}, None


def cmd_moments(args) -> tuple[dict, None]:
    coin = _coin_from_args(args)
    dist = distribution(evolve_line(initial_state(args.init), coin, args.steps))
    rows = [(name, moment(dist, name), density_moment(coin, args.init, name))
            for name in ("mean", "abs_mean", "second")]
    return dict(zip(["moment", "simulation", "density"], zip(*rows))), None


def cmd_mix(args) -> tuple[dict, dict]:
    topo = _topology_from_args(args)
    if args.classical:
        if {args.coin, args.init} != {None}:
            _usage_error("--classical walks without a coin or a start: drop --coin and --init")
        spec = WalkSpec(topo, None, None)
    else:
        # the coined walk's defaults, filled in here so the config echo shows them
        args.coin = "hadamard" if args.coin is None else args.coin
        args.init = "left" if args.init is None else args.init
        spec = WalkSpec(topo, _coin_from_args(args), args.init)
    report = mixing_time(spec, args.delta, args.t_cap)
    trace = report.tv_trace
    print(f"crossing_time: {report.time if report.time is not None else 'not reached'}",
          file=sys.stderr)
    return {"t": np.arange(1, trace.size + 1), "tv": trace}, {"crossing_time": report.time}


def cmd_symmetry(args) -> tuple[dict, None]:
    coin = _coin_from_args(args)
    reports = [(name, verify_symmetrizer(coin, cand)) for name, cand in PAULIS]
    rows = [(name, rep.sign, rep.max_residual, rep.verdict) for name, rep in reports]
    return dict(zip(["candidate", "sign", "max_residual", "verdict"], zip(*rows))), None


def cmd_compare(args) -> tuple[dict, dict]:
    """The exact, spectral and stationary-phase site probabilities of one line walk.

    ``p_asymptotic`` is null off the :func:`_interior` sites, and the
    whole column and its L1 summary are null when the coin has ``|u00|``
    of 0 or 1 or no site lies inside the margin: an L1 over no site says
    nothing.
    """
    coin = _coin_from_args(args)
    t = args.steps
    sites = _interior(coin, t)
    psi0 = initial_state(args.init)
    exact = evolve_line(psi0, coin, t)
    spectral = evolve_spectral(psi0, coin, t)
    max_amp_diff = float(np.max(np.abs(exact.amplitudes - spectral.amplitudes)))

    p_exact = distribution(exact).masses
    p_spec = distribution(spectral).masses
    p_asym = np.full(len(p_exact), None, dtype=object)
    l1 = None
    if sites.size and support_edge(coin) < 1:
        # exact and spectral hold sites -t..t, so site n sits at row n + t
        probs = p_asymptotic(coin, args.init, t, sites)
        l1 = float(np.sum(np.abs(probs - p_exact[sites + t])))
        p_asym[sites + t] = probs.tolist()

    print("max_abs_amplitude_diff_exact_spectral: %.17g" % max_amp_diff, file=sys.stderr)
    if l1 is not None:
        print("l1_interior_exact_asymptotic: %.17g" % l1, file=sys.stderr)
    return ({"n": exact.sites, "p_exact": p_exact, "p_spectral": p_spec, "p_asymptotic": p_asym},
            {"max_abs_amplitude_diff_exact_spectral": max_amp_diff,
             "l1_interior_exact_asymptotic": l1})


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a bad command line on one line.

    Its subcommand parsers are of this class too.  A word that starts
    with ``-`` and then a digit, ``.digit``, ``inf``, ``nan`` or ``pi``
    is a negative number, so ``--delta -inf``, ``--coin -0.5pi`` and
    ``--coin -pi`` read their value as ``--delta=-inf``,
    ``--coin=-0.5pi`` and ``--coin=-pi`` do.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern differs between Python versions, and none
        # of them takes "-inf", "-nan" or "-pi"; older ones miss "-0.5pi" and "-1e-3"
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan|pi).*", re.IGNORECASE)

    def error(self, message: str) -> NoReturn:
        _usage_error(message)


#: one row per subcommand, in --help order: its help, its --steps default
#: (None: no --steps) and whether it takes --init and --topology
_SUBCOMMANDS = {
    "simulate": ("evolve by the direct recurrence", 100, True, True),
    "spectral": ("evolve by the Fourier-domain route", 100, True, True),
    "asymptotic": ("stationary-phase site probabilities inside the cone", 100, True, False),
    "moments": ("moment table, simulation vs density", 80, True, False),
    "mix": ("TV-to-uniform trace and crossing time", None, True, True),
    "symmetry": ("check Pauli symmetrizer candidates", None, False, False),
    "compare": ("exact vs spectral vs asymptotic", 64, True, False),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one.

    Each subcommand is one row of :data:`_SUBCOMMANDS`: every one takes
    ``--coin``, ``--format`` and ``--output``, then the ``--init``,
    ``--topology`` and ``--steps`` its row names, in that order.  Only
    ``mix`` has options of its own on top.  Building the root parser,
    its 7 subcommand parsers and their options costs as much as a short
    command, so it is done once per process.  Parsing leaves no state in
    the parser: each ``parse_args`` fills a new namespace from immutable
    defaults, and callers must not change the parser either.  Subcommand
    ``name`` runs ``cmd_name``, which :func:`main` looks up.
    """
    parser = _Parser(prog="qwalk", description="Coined quantum walks on the line and circle.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, steps, init, topology) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--coin", default="hadamard",
                       help="'hadamard', radians, or a multiple of pi like '0.5pi'")
        p.add_argument("--format", default="csv", choices=["csv", "json"])
        p.add_argument("--output", default="-", help="output path or '-' for stdout")
        if init:
            p.add_argument("--init", default="left", choices=["left", "right", "symmetric"])
        if topology:
            p.add_argument("--topology", default="line", help="'line' or 'circle:N'")
        if steps is not None:
            p.add_argument("--steps", type=int, default=steps)

    p = sub.choices["mix"]
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--t-cap", type=int, default=10000)
    p.add_argument("--classical", action="store_true",
                   help="run the exact classical DP walk instead; takes no --coin or --init")
    # None tells a given option from one left out; cmd_mix fills in the coined defaults
    p.set_defaults(coin=None, init=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command line; return 0, or 3 when the library refuses a value.

    A usage error raises ``SystemExit(2)``, and ``--version``
    ``SystemExit(0)``.  The parser is built on the first call and reused
    by every later call in the process (:func:`build_parser`).  The
    command function is looked up by name on each call, not kept in the
    parser, so a wrapper put on ``cmd_name`` after the first call runs.
    The ``--output`` target is opened once, before the command runs
    (:func:`_opened`), and ``sys.stdout`` points at it until the
    command's table is written.  The command returns its columns and
    JSON extras, and this writes them as one record array with one
    :func:`_emit`, so a refused value writes nothing.
    """
    args = build_parser().parse_args(argv)
    with _opened(args.output) as out, contextlib.redirect_stdout(out):
        try:
            columns, extra = globals()[f"cmd_{args.command}"](args)
        except DomainError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return DOMAIN_ERROR
        names = list(columns)
        _emit(args, names, np.rec.fromarrays(list(columns.values()), names=names), extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
