"""The package's surface: what CI prints and the tier-1 pins read.

Run as ``PYTHONPATH=src python tests/surface.py src/qwalk/*.py``.  It
prints, for the net source size tracked across changes, the code lines
(not blank, not only a comment, not part of a docstring) per module
given and in total, beside them the docstring lines per module and in
total, an informational count, then the CLI options summed over subcommands
(without --help) and each subcommand's option names, the defaulted
parameters of the public functions and the defaulted fields of the
public dataclasses, each counted and then listed by name, the fields of
the public dataclasses, counted and then listed per class, the public
names the package exports, counted and then listed, and each
subcommand's table, counted and then listed by its CSV header.

The tests in ``test_core.py`` and ``test_cli.py`` pin the same figures
by reading them from here; this module holds no test of its own.
"""

import argparse
import ast
import contextlib
import dataclasses
import inspect
import io
import sys
import tokenize

import qwalk
from qwalk.cli import build_parser

#: tokens that make no line a code line
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
#: the nodes whose first statement may be a docstring
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path) -> int:
    """The lines of the Python source ``path`` that hold a token of a statement.

    A line that is blank, holds only a comment or lies within a module,
    class or function docstring does not count, also within a statement
    that spans several lines; every other line of such a statement does.
    """
    with open(path, "rb") as f:
        lines = {n for tok in tokenize.tokenize(f.readline) if tok.type not in _LAYOUT
                 for n in range(tok.start[0], tok.end[0] + 1)}
    return len(lines - _docstring_lines(path))


def doc_lines(path) -> int:
    """The lines of the Python source ``path`` within a module, class or function docstring.

    Informational: CI prints it beside :func:`code_lines`, and no test
    bounds it.
    """
    return len(_docstring_lines(path))


def _docstring_lines(path) -> set[int]:
    """The numbers of the lines that the docstrings of the source ``path`` span."""
    with open(path, "rb") as f:
        tree = ast.parse(f.read())
    return {n for node in ast.walk(tree)
            if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None
            for n in range(node.body[0].lineno, node.body[0].end_lineno + 1)}


def arguments() -> dict[str, list[tuple]]:
    """Each subcommand's arguments in --help order, without --help.

    An argument reads ``(option strings, default, type, choices,
    required)``: no help text, which argparse words differently from one
    Python version to the next.
    """
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: [(tuple(a.option_strings), a.default, a.type, a.choices, a.required)
                   for a in p._actions if not isinstance(a, argparse._HelpAction)]
            for name, p in sub.choices.items()}


def defaulted(kind) -> list[str]:
    """``name.parameter`` for each defaulted parameter of each public name ``kind`` accepts.

    ``kind`` is :func:`inspect.isfunction` for the public functions and
    :func:`dataclasses.is_dataclass` for the public dataclasses, whose
    parameters are their fields.
    """
    return [f"{name}.{p.name}"
            for name in public_names()
            if kind(obj := getattr(qwalk, name))
            for p in inspect.signature(obj).parameters.values()
            if p.default is not p.empty]


def fields() -> dict[str, list[str]]:
    """The field names of each public dataclass, by class name."""
    return {name: [f.name for f in dataclasses.fields(obj)]
            for name in public_names()
            if dataclasses.is_dataclass(obj := getattr(qwalk, name))}


def public_names() -> list[str]:
    """The names in ``qwalk.__all__``, sorted."""
    return sorted(qwalk.__all__)


#: the options that give each subcommand its smallest table
_SMALLEST = {
    "simulate": ["--steps", "0"],
    "spectral": ["--steps", "0"],
    "asymptotic": ["--steps", "2"],
    "moments": ["--steps", "1"],
    "mix": ["--topology", "circle:3", "--delta", "1", "--t-cap", "1"],
    "symmetry": [],
    "compare": ["--steps", "1"],
}


def columns() -> dict[str, list[str]]:
    """Each subcommand's CSV header, in --help order, as :func:`qwalk.cli.main` prints it.

    Each subcommand runs once at the sizes of :data:`_SMALLEST`, with
    its standard output and standard error captured; the header is the
    first line it prints.
    """
    headers = {}
    for name in arguments():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            qwalk.cli.main([name, *_SMALLEST[name]])
        headers[name] = out.getvalue().partition("\n")[0].split(",")
    return headers


def main(paths) -> None:
    counts = [code_lines(path) for path in paths]
    docs = [doc_lines(path) for path in paths]
    for path, count, doc in zip(paths, counts, docs):
        print(f"{count:5d} code lines, {doc:5d} docstring lines in {path}")
    print(f"{sum(counts)} code lines (not blank, comment or docstring)")
    print(f"{sum(docs)} docstring lines (informational)")
    options = {name: sorted(o for strings, *_ in args for o in strings)
               for name, args in arguments().items()}
    print(f"{sum(map(len, options.values()))} CLI options "
          "(summed over subcommands, without --help)")
    for name, names in options.items():
        print(f"  {name}: {' '.join(names)}")
    for kind, what in ((inspect.isfunction, "parameters of public functions"),
                       (dataclasses.is_dataclass, "fields of public dataclasses")):
        names = defaulted(kind)
        print(f"{len(names)} defaulted {what}")
        print(f"  {' '.join(names)}")
    by_class = fields()
    print(f"{sum(map(len, by_class.values()))} fields of public dataclasses")
    for name, names in by_class.items():
        print(f"  {name}: {' '.join(names)}")
    print(f"{len(public_names())} public names in qwalk.__all__")
    print(*public_names())
    tables = columns()
    print(f"{len(tables)} tables (each subcommand's CSV header)")
    for name, header in tables.items():
        print(f"  {name}: {','.join(header)}")


if __name__ == "__main__":
    main(sys.argv[1:])
