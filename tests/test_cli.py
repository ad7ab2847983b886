"""Command-line interface: formats, determinism, exit codes."""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from functools import cache
from pathlib import Path

import numpy as np
import pytest
import surface
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qwalk
from qwalk import distribution, evolve_line, hadamard_coin, initial_state, theta_coin
from qwalk.asymptotics import p_asymptotic, support_edge
from qwalk.cli import _CHUNK, _Parser, _emit, main, parse_theta
from qwalk.spectral import evolve_spectral


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def readme_cli_lines():
    """The ``qwalk ...`` lines of the ``sh`` block under README's "## CLI"."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.strip()]


README_CLI = readme_cli_lines()


def test_readme_cli_examples_are_found():
    assert len(README_CLI) >= 8
    assert all(line.startswith("qwalk ") for line in README_CLI)


@pytest.mark.parametrize("line", README_CLI)
def test_readme_cli_example_runs(line, capsys):
    code, out, _ = run_cli(shlex.split(line)[1:], capsys)
    assert code == 0 and out


def test_parse_theta():
    assert parse_theta("0.5pi") == pytest.approx(math.pi / 2)
    assert parse_theta("pi") == pytest.approx(math.pi)
    assert parse_theta("-pi") == pytest.approx(-math.pi)
    assert parse_theta("1.5707963267948966") == pytest.approx(math.pi / 2)
    with pytest.raises(ValueError):
        parse_theta("twopi")


def test_simulate_csv_shape_and_values(capsys):
    code, out, _ = run_cli(
        ["simulate", "--coin", "hadamard", "--steps", "100", "--init", "left"], capsys
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n", "psi_L_re", "psi_L_im", "psi_R_re", "psi_R_im", "prob"]
    assert len(rows) == 201
    assert rows[0][0] == "-100" and rows[-1][0] == "100"
    probs = np.array([float(r[5]) for r in rows])
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    # parity-forbidden sites are exact zeros
    sites = np.array([int(r[0]) for r in rows])
    assert np.all(probs[(sites + 100) % 2 == 1] == 0.0)


def test_simulate_matches_library(capsys):
    code, out, _ = run_cli(["simulate", "--steps", "40", "--init", "symmetric"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    d = distribution(evolve_line(initial_state("symmetric"), hadamard_coin(), 40))
    got = np.array([float(r[5]) for r in rows])
    assert np.array_equal(got, d.masses)


def test_csv_floats_round_trip_losslessly(capsys):
    code, out, _ = run_cli(["simulate", "--steps", "30"], capsys)
    _, rows = parse_csv(out)
    psi = evolve_line(initial_state("left"), hadamard_coin(), 30)
    for row, amp in zip(rows, psi.amplitudes):
        assert float(row[1]) == amp[0].real
        assert float(row[3]) == amp[1].real


def test_output_is_deterministic(capsys):
    args = ["simulate", "--steps", "64", "--init", "symmetric", "--format", "json"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_json_schema_and_config_echo(capsys):
    code, out, _ = run_cli(
        ["simulate", "--steps", "10", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == "1"
    assert payload["config"]["steps"] == 10
    assert payload["config"]["coin"] == "hadamard"
    assert len(payload["data"]) == 21
    assert set(payload["data"][0]) == {
        "n", "psi_L_re", "psi_L_im", "psi_R_re", "psi_R_im", "prob"
    }


@pytest.mark.parametrize(
    "coin", [["--coin", "hadamard"], ["--coin", "0.7pi"], ["--coin", "pi"]],
    ids=["hadamard", "theta", "theta-pi"])
def test_simulate_circle_prints_no_negative_zero(capsys, coin):
    # parity-forbidden sites of an even cycle hold exact zeros
    code, out, _ = run_cli(["simulate", "--topology", "circle:8", "--steps", "13",
                            "--init", "symmetric", *coin], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    fields = [v for row in rows for v in row[1:]]
    assert fields.count("0") >= 4 * 4 and "-0" not in fields


def test_spectral_command_agrees_with_simulate(capsys):
    _, out_a, _ = run_cli(["simulate", "--steps", "50", "--init", "left"], capsys)
    _, out_b, _ = run_cli(["spectral", "--steps", "50", "--init", "left"], capsys)
    _, rows_a = parse_csv(out_a)
    _, rows_b = parse_csv(out_b)
    pa = np.array([float(r[5]) for r in rows_a])
    pb = np.array([float(r[5]) for r in rows_b])
    assert np.max(np.abs(pa - pb)) < 1e-12


def test_spectral_route_prints_exact_zeros_on_the_forbidden_sites(capsys):
    # the Fourier route never writes the sites n with n + t odd, so they print
    # as the recurrence's zeros at every SIMD level, and only they are zero
    code, out, _ = run_cli(["compare", "--steps", "64"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    column = header.index("p_spectral")
    assert len(rows) == 129
    assert [r[column] == "0" for r in rows] == [int(r[0]) % 2 == 1 for r in rows]
    code, out, _ = run_cli(["spectral", "--steps", "64", "--init", "symmetric",
                            "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out, parse_float=str)["data"]
    assert len(data) == 129
    fields = ["psi_L_re", "psi_L_im", "psi_R_re", "psi_R_im", "prob"]
    values = [[r[key] for key in fields] for r in data]
    assert [v == ["0.0"] * 5 for v in values] == [r["n"] % 2 == 1 for r in data]


def test_spectral_command_agrees_with_simulate_on_a_circle(capsys):
    argv = ["--topology", "circle:15", "--steps", "40", "--coin", "1.2", "--init", "symmetric"]
    _, out_a, _ = run_cli(["simulate", *argv], capsys)
    _, out_b, _ = run_cli(["spectral", *argv], capsys)
    _, rows_a = parse_csv(out_a)
    _, rows_b = parse_csv(out_b)
    a = np.array(rows_a, dtype=float)
    b = np.array(rows_b, dtype=float)
    assert a.shape == b.shape == (15, 6)
    assert np.array_equal(a[:, 0], b[:, 0])
    assert np.max(np.abs(a - b)) < 1e-12


def test_asymptotic_command_interior_only(capsys):
    code, out, _ = run_cli(
        ["asymptotic", "--steps", "100"], capsys
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n", "alpha", "prob"]
    alphas = np.array([float(r[1]) for r in rows])
    assert np.max(np.abs(alphas)) <= 1 / math.sqrt(2) - 0.1
    assert all(int(r[0]) % 2 == 0 for r in rows)


def test_moments_command_table(capsys):
    code, out, _ = run_cli(["moments", "--steps", "80", "--init", "left"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["moment", "simulation", "density"]
    table = {r[0]: (float(r[1]), float(r[2])) for r in rows}
    assert table["mean"][0] == pytest.approx(-0.293, abs=0.005)
    assert table["mean"][1] == pytest.approx(-(1 - 1 / math.sqrt(2)), abs=1e-9)
    assert table["second"][0] == pytest.approx(0.293, abs=0.005)
    assert table["abs_mean"][0] == pytest.approx(0.5, abs=0.005)


def test_mix_command_reports_crossing(capsys):
    code, out, err = run_cli(
        ["mix", "--topology", "circle:31", "--init", "symmetric",
         "--delta", "0.4446", "--t-cap", "500", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["crossing_time"] == 23
    assert "crossing_time: 23" in err


def test_mix_classical_flag(capsys):
    code, out, _ = run_cli(
        ["mix", "--topology", "circle:31", "--delta", "0.4446",
         "--t-cap", "5000", "--classical", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["crossing_time"] == 77
    # the classical walk has no coin and no start, so the echo names none
    assert "coin" not in payload["config"] and "init" not in payload["config"]


#: sha256 of stdout and of stderr of six ``mix`` runs.  The first three
#: were taken from the per-step circle kernels: the block kernel must not
#: change an output byte.  The fourth, a theta coin from the left start,
#: has masses that are not mirror-symmetric, so a ring that mirrors the
#: walk or swaps its rows changes its bytes, as does a step with w10 and
#: w11 swapped.  No mix pin can see a transposed coin or one with w00 and
#: w11 swapped: for the Hadamard and theta coins that is the same coin or
#: the coin conjugated by diag(1, -1) up to sign, with the same masses from
#: every named start.  The line pins see both, through the same step.
#: The last two were taken with the real walk of a symmetric start in the
#: blocks of a complex ring: the real ring's longer blocks, on n = 511 and
#: 2047, and its mirror fold must not change an output byte either.
MIX_DIGESTS = [
    (["--topology", "circle:127", "--classical", "--delta", "0.4446"],
     "142035be9e15455ce494a5a7254656bf2b88fe52bc17a39ea5dc2fe03510f197",
     "cb3c0b282ada14a35a7612ab17ce549074d550fdac02ae60aa3ed681ff4c3c33"),
    (["--topology", "circle:64", "--classical", "--delta", "0.3"],
     "063147e3c8ab28a5e2478a5041365a9c866ea7aaf0a9e2fa72a40b2964e0f867",
     "2746470a25f4c4261d0db200dba9da9bfd0f2493f2bbe3cb1f5e7519fef2a57b"),
    (["--topology", "circle:127", "--init", "symmetric", "--delta", "0.4446",
      "--format", "json"],
     "ddfe86b88ee48c2054c5cdc6049841dc4134ef63206d8aa1ec173fe47af93bcc",
     "f8e267e0e8003faed926060ef78d2ef78dad8295e03442fbeb732eff4466e050"),
    (["--topology", "circle:127", "--coin", "1.2", "--init", "left", "--delta", "0.4446"],
     "3d211d0da0bb43f3df62155ee727c846b3fba1d61f9a08aa0fa6c14fb1c08f46",
     "f07f1cc76a6bac2b7aad321cfa052dcbc95d4e025847fb3835fe7c142b007bfe"),
    (["--topology", "circle:511", "--init", "symmetric", "--delta", "0.4446"],
     "0364b857811128810780b665f21e435d14f867c82e44cc7ff5f22bbf94aa4f13",
     "487b775a506914300c72f26fe53085ee53586c501a3c076b6a9f0a026e384a6a"),
    (["--topology", "circle:2047", "--init", "symmetric", "--delta", "0.4446"],
     "fe6c6b8b6014a348a85518baa92d42e5d6668d8ac8b9342df92465071d5ab3f2",
     "988089feb87fed5ec6a7785d69a4811b6cd91a4b6b3c7d5b7b9a25e5011d80dd"),
]


@pytest.mark.parametrize("args, out_digest, err_digest", MIX_DIGESTS,
                         ids=["classical-127", "classical-64", "quantum-127-json",
                              "theta-left-127", "quantum-511", "quantum-2047"])
def test_mix_output_bytes_are_pinned(args, out_digest, err_digest, capsys):
    code, out, err = run_cli(["mix", *args], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == out_digest
    assert hashlib.sha256(err.encode()).hexdigest() == err_digest


#: sha256 of stdout of three wavefunction dumps (stderr is empty): they come
#: from the recurrence alone, so they hold at every SIMD level, and a faster
#: kernel or writer must not change an output byte
SIMULATE_DIGESTS = [
    (["--steps", "4000", "--init", "left"],
     "4ff00e7901b37a02a82cc40eceb958c25f45787ccd90cc160d4f8d89abcebe5d"),
    (["--steps", "2000", "--coin", "1.2", "--init", "symmetric", "--format", "json"],
     "f6283797f5c3a43c2a1cc282be04533bc08c0f6c37b31e0403db03ae9a8772b9"),
    # a complex ring under a real coin: complex arithmetic, the real walk's bits
    (["--topology", "circle:127", "--coin", "1.2", "--init", "symmetric", "--steps", "300"],
     "2daa99b4ad4128ac2c161c6f9187e2e816109914512ab54d81d56d1a2cebd88b"),
]


@pytest.mark.parametrize("args, out_digest", SIMULATE_DIGESTS,
                         ids=["hadamard-4000-csv", "theta-2000-json", "theta-circle-127-symmetric"])
def test_simulate_output_bytes_are_pinned(args, out_digest, capsys):
    code, out, err = run_cli(["simulate", *args], capsys)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == out_digest


def test_compare_output_bytes_are_pinned(capsys):
    # n and p_exact come from the recurrence and hold at every SIMD level, so
    # their bytes are pinned.  p_spectral, p_asymptotic and stderr go through
    # numpy's dispatched transcendentals, which differ in the last bit between
    # SIMD levels, so they are checked byte for byte against the library's
    # values formatted one at a time.  The stationary-phase column sits on
    # the fixed interior |n/t| <= |u00| - 0.1.
    t, coin, psi0 = 2000, hadamard_coin(), initial_state("left")
    code, out, err = run_cli(["compare", "--steps", str(t), "--init", "left"], capsys)
    assert code == 0
    exact_columns = "".join(",".join(line.split(",")[:2]) + "\n" for line in out.splitlines())
    assert hashlib.sha256(exact_columns.encode()).hexdigest() == (
        "05388f63760d534446b46c6e603fee4769c0d749ba116cdfd063ebbc7bd9adf5")

    exact, spectral = evolve_line(psi0, coin, t), evolve_spectral(psi0, coin, t)
    p_exact, p_spectral = distribution(exact).masses, distribution(spectral).masses
    sites = exact.sites
    interior = (np.abs(sites / t) <= support_edge(coin) - 0.1) & ((sites + t) % 2 == 0)
    p_asym = p_asymptotic(coin, "left", t, sites[interior])
    column = np.full(len(sites), None, dtype=object)
    column[interior] = p_asym.tolist()
    rows = zip(sites.tolist(), p_exact.tolist(), p_spectral.tolist(), column.tolist())
    expected = oracle_text(argparse.Namespace(format="csv"),
                           ["n", "p_exact", "p_spectral", "p_asymptotic"], rows)
    assert out.splitlines(keepends=True) == expected.splitlines(keepends=True)
    amp_diff = np.max(np.abs(exact.amplitudes - spectral.amplitudes))
    l1 = np.sum(np.abs(p_asym - p_exact[interior]))
    assert err == (f"max_abs_amplitude_diff_exact_spectral: {float(amp_diff):.17g}\n"
                   f"l1_interior_exact_asymptotic: {float(l1):.17g}\n")


def test_symmetry_command(capsys):
    code, out, _ = run_cli(["symmetry", "--coin", "0.3pi"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    verdicts = {r[0]: (r[3], int(r[1])) for r in rows}
    assert verdicts["sigma_y"] == ("True", 1)
    assert verdicts["sigma_x"][0] == "False"
    assert verdicts["sigma_z"][0] == "False"


def test_compare_command_summaries(capsys):
    code, out, err = run_cli(
        ["compare", "--steps", "64", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["max_abs_amplitude_diff_exact_spectral"] < 1e-12
    assert payload["l1_interior_exact_asymptotic"] < 0.02
    assert "max_abs_amplitude_diff_exact_spectral" in err
    # asymptotic column present only where defined
    interior = [r for r in payload["data"] if r["p_asymptotic"] is not None]
    assert interior and all(abs(r["n"]) <= 64 for r in interior)


@pytest.mark.parametrize("coin", ["hadamard", "1.2"])
def test_simulate_prob_is_compare_p_exact_byte_for_byte(coin, capsys):
    walk = ["--steps", "64", "--init", "symmetric", "--coin", coin]
    _, simulated, _ = run_cli(["simulate", *walk], capsys)
    _, compared, _ = run_cli(["compare", *walk], capsys)
    prob = [r[5] for r in parse_csv(simulated)[1]]
    p_exact = [r[1] for r in parse_csv(compared)[1]]
    assert len(prob) == 129 and prob == p_exact


#: one small command line per subcommand
SMALL_COMMANDS = {
    "simulate": ["--steps", "8"],
    "spectral": ["--steps", "8"],
    "asymptotic": ["--steps", "16"],
    "moments": ["--steps", "8"],
    "mix": ["--topology", "circle:9", "--delta", "0.3"],
    "symmetry": [],
    "compare": ["--steps", "16"],
}


def test_output_file(tmp_path, monkeypatch, capsys):
    # for every subcommand and format, the file holds the bytes the command
    # prints to standard output (JSON echoes the path as its config's
    # output), and it is opened once
    assert list(SMALL_COMMANDS) == list(surface.arguments())
    opened, real_open = [], open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    for command, options in SMALL_COMMANDS.items():
        for fmt in ("csv", "json"):
            argv = [command, *options, "--format", fmt]
            code, printed, printed_err = run_cli(argv, capsys)
            assert code == 0
            target = str(tmp_path / f"{command}.{fmt}")
            with monkeypatch.context() as patch:
                patch.setattr("builtins.open", counting_open)
                code, out, err = run_cli([*argv, "--output", target], capsys)
            assert code == 0 and out == "" and err == printed_err
            assert opened.count(target) == 1, (command, fmt)
            if fmt == "json":
                printed = printed.replace('"output": "-"', f'"output": {json.dumps(target)}', 1)
            with open(target, "rb") as fh:
                assert fh.read() == printed.encode(), (command, fmt)


def traced_peak(call) -> int:
    """The peak of the memory ``tracemalloc`` sees allocated while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@cache
def walk_peak(command: str, t: int) -> int:
    evolve = {"simulate": evolve_line, "spectral": evolve_spectral}[command]
    return traced_peak(lambda: evolve(initial_state("left"), hadamard_coin(), t))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["simulate", "spectral"])
def test_the_writer_holds_a_few_bytes_a_row_over_the_walk(command, fmt):
    # the record array takes 48 B a row and the walk's own peak covers
    # most of it; a Python object per cell (some 300 B a row) does not fit
    t = 20000
    peak = traced_peak(lambda: main([command, "--steps", str(t), "--format", fmt,
                                     "--output", os.devnull]))
    assert peak - walk_peak(command, t) <= 64 * (2 * t + 1)


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--steps", "3", "--output", str(target)])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert not target.exists()


@pytest.mark.parametrize("command", list(surface.arguments()))
def test_an_unwritable_output_runs_no_command(command, tmp_path, monkeypatch, capsys):
    # the target is opened before dispatch, so no command computes a table
    # that cannot be written
    ran = []
    for name in surface.arguments():
        monkeypatch.setattr(qwalk.cli, f"cmd_{name}", lambda args, name=name: ran.append(name))
    target = tmp_path / "missing-dir" / "out.csv"
    argv = [command, "--output", str(target), *(["--delta", "0.3"] if command == "mix" else [])]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2 and ran == []
    assert err.startswith("error: cannot write --output") and err.count("\n") == 1


def test_a_refused_value_leaves_an_opened_output_empty(tmp_path, capsys):
    target = tmp_path / "out.csv"
    target.write_text("an earlier table\n")
    code, out, err = run_cli(["simulate", "--coin", "1.2pi", "--output", str(target)], capsys)
    assert code == 3 and out == "" and err.count("\n") == 1
    assert target.read_text() == ""


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_named_pipe_output_gets_the_whole_table(tmp_path, capsys):
    # the target is held open from before the command until the table is
    # written, so the reader sees no end of file in between
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    proc = run_qwalk(["simulate", "--steps", "3", "--output", str(fifo)])
    with open(fifo) as reader:
        text = reader.read()
    assert proc.wait(timeout=60) == 0 and proc.stderr.read() == ""
    assert text == run_cli(["simulate", "--steps", "3"], capsys)[1]


def test_integers_are_read_by_python_int(capsys):
    # an underscore and the decimal digits of any script are accepted
    code, spelled, _ = run_cli(["simulate", "--steps", "1_0",
                                "--topology", "circle:\u0661\u0661"], capsys)
    assert code == 0
    assert spelled == run_cli(["simulate", "--steps", "10", "--topology", "circle:11"], capsys)[1]


def run_qwalk(argv, **streams):
    """Run the CLI in a fresh interpreter, as the ``qwalk`` script does."""
    src = os.path.dirname(os.path.dirname(qwalk.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.Popen([sys.executable, "-m", "qwalk.cli", *argv], env=env,
                            stderr=subprocess.PIPE, text=True, **streams)


def assert_one_write_error(proc):
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 2
    assert err.startswith("error: cannot write") and err.count("\n") == 1


def test_a_closed_pipe_is_a_one_line_error():
    # as in `qwalk simulate --steps 4000 | head -1`: the table outgrows the pipe
    proc = run_qwalk(["simulate", "--steps", "4000"], stdout=subprocess.PIPE)
    assert proc.stdout.readline().startswith("n,psi_L_re")
    proc.stdout.close()
    assert_one_write_error(proc)


def test_a_closed_standard_output_is_a_one_line_error():
    # as in `qwalk simulate --steps 3 >&-`: there is no stdout to write to
    proc = run_qwalk(["simulate", "--steps", "3"], preexec_fn=lambda: os.close(1))
    assert_one_write_error(proc)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("steps", ["3", "4000"])
def test_a_full_device_is_a_one_line_error(steps):
    # a short table fails only when stdout is flushed, a long one while written
    with open("/dev/full", "w") as full:
        assert_one_write_error(run_qwalk(["simulate", "--steps", steps], stdout=full))
    assert_one_write_error(run_qwalk(["simulate", "--steps", steps, "--output", "/dev/full"],
                                     stdout=subprocess.DEVNULL))


COIN = (("--coin",), "hadamard", None, None, False)
FORMAT = (("--format",), "csv", None, ["csv", "json"], False)
OUTPUT = (("--output",), "-", None, None, False)
INIT = (("--init",), "left", None, ["left", "right", "symmetric"], False)
TOPOLOGY = (("--topology",), "line", None, None, False)


def steps_option(default):
    return (("--steps",), default, int, None, False)


#: each subcommand's arguments in --help order, as (option strings, default,
#: type, choices, required); mix leaves --coin and --init None for cmd_mix
SUBCOMMAND_ARGUMENTS = {
    "simulate": [COIN, FORMAT, OUTPUT, INIT, TOPOLOGY, steps_option(100)],
    "spectral": [COIN, FORMAT, OUTPUT, INIT, TOPOLOGY, steps_option(100)],
    "asymptotic": [COIN, FORMAT, OUTPUT, INIT, steps_option(100)],
    "moments": [COIN, FORMAT, OUTPUT, INIT, steps_option(80)],
    "mix": [(("--coin",), None, None, None, False), FORMAT, OUTPUT,
            (("--init",), None, None, ["left", "right", "symmetric"], False), TOPOLOGY,
            (("--delta",), None, float, None, True), (("--t-cap",), 10000, int, None, False),
            (("--classical",), False, None, None, False)],
    "symmetry": [COIN, FORMAT, OUTPUT],
    "compare": [COIN, FORMAT, OUTPUT, INIT, steps_option(64)],
}


def test_each_subcommand_argument_is_pinned():
    # every option string of every subcommand, with its default, type and
    # choices, and the subcommands in --help order
    assert list(surface.arguments().items()) == list(SUBCOMMAND_ARGUMENTS.items())


WAVEFUNCTION_COLUMNS = ["n", "psi_L_re", "psi_L_im", "psi_R_re", "psi_R_im", "prob"]

#: each subcommand's CSV header, written out by hand: qwbench and other
#: readers of the tables parse these names
SUBCOMMAND_COLUMNS = {
    "simulate": WAVEFUNCTION_COLUMNS,
    "spectral": WAVEFUNCTION_COLUMNS,
    "asymptotic": ["n", "alpha", "prob"],
    "moments": ["moment", "simulation", "density"],
    "mix": ["t", "tv"],
    "symmetry": ["candidate", "sign", "max_residual", "verdict"],
    "compare": ["n", "p_exact", "p_spectral", "p_asymptotic"],
}


def test_each_subcommand_table_is_pinned():
    assert list(surface.columns().items()) == list(SUBCOMMAND_COLUMNS.items())


def refusing_emit(*args, **kwargs):
    raise AssertionError("a command wrote its own table")


@pytest.mark.parametrize("command", list(surface.arguments()))
def test_a_command_returns_its_table_and_writes_nothing(command, monkeypatch, capsys):
    # called on parsed args, a command computes its columns in output order
    # and its JSON extras; only main writes
    monkeypatch.setattr(qwalk.cli, "_emit", refusing_emit)
    args = qwalk.cli.build_parser().parse_args([command, *SMALL_COMMANDS[command]])
    columns, extra = getattr(qwalk.cli, f"cmd_{command}")(args)
    assert list(columns) == SUBCOMMAND_COLUMNS[command]
    assert len({len(column) for column in columns.values()}) == 1
    assert extra is None or isinstance(extra, dict)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", list(surface.arguments()))
def test_main_writes_each_table_with_one_emit(command, monkeypatch, capsys):
    calls, emit = [], qwalk.cli._emit

    def recording_emit(args, header, rows, extra=None):
        calls.append((header, rows))
        emit(args, header, rows, extra)

    monkeypatch.setattr(qwalk.cli, "_emit", recording_emit)
    code, out, _ = run_cli([command, *SMALL_COMMANDS[command]], capsys)
    assert code == 0 and len(calls) == 1
    header, rows = calls[0]
    assert header == list(rows.dtype.names) == SUBCOMMAND_COLUMNS[command]
    assert out.count("\n") == len(rows) + 1


@pytest.mark.parametrize("command", list(surface.arguments()))
def test_a_refused_value_reaches_no_emit(command, monkeypatch, capsys):
    # every subcommand takes --coin, and 1.2 pi is no theta coin
    monkeypatch.setattr(qwalk.cli, "_emit", refusing_emit)
    code, out, err = run_cli([command, *SMALL_COMMANDS[command], "--coin", "1.2pi"], capsys)
    assert code == 3 and out == "" and err.startswith("error:") and err.count("\n") == 1


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--topology", "circle:abc"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--topology", "ring"])
    assert exc.value.code == 2
    assert "topology must be 'line' or 'circle:N', got 'ring'" in capsys.readouterr().err
    # symmetry reads only the coin, so it takes no topology
    with pytest.raises(SystemExit) as exc:
        main(["symmetry", "--topology", "circle:x"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_domain_errors_exit_3(capsys):
    # mix refuses lines; a coin angle outside [0, pi] is no theta coin
    code, _, err = run_cli(["mix", "--delta", "0.3"], capsys)
    assert code == 3
    code, _, err = run_cli(["simulate", "--coin", "1.2pi", "--steps", "5"], capsys)
    assert code == 3


def test_one_parser_serves_many_calls_and_keeps_nothing_between_them(monkeypatch, capsys):
    # cmd_mix fills args.coin and args.init on its namespace: the classical
    # call after it would refuse a coin or a start that leaked into it
    built = []
    init = _Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_Parser, "__init__", counting_init)

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    coined = ["mix", "--topology", "circle:15", "--delta", "0.4446", "--t-cap", "300",
              "--format", "json"]
    first = call(coined)
    assert first[0] == 0
    assert json.loads(first[1])["config"]["coin"] == "hadamard"
    code, out, _ = call(["mix", "--topology", "circle:15", "--delta", "0.4446",
                         "--t-cap", "3000", "--classical", "--format", "json"])
    assert code == 0
    assert "coin" not in json.loads(out)["config"] and "init" not in json.loads(out)["config"]
    assert call(["simulate", "--steps", "abc"])[0] == 2
    assert call(["mix", "--topology", "circle:31", "--delta=nan"])[0] == 3
    assert call(["--version"])[:2] == (0, qwalk.__version__ + "\n")
    assert call(coined) == first
    # at most one tree: the root parser and its 7 subcommand parsers
    assert len(built) <= 8


@pytest.mark.parametrize("argv", [
    ["simulate", "--topology", "circle:1152921504606846976", "--steps", "1"],
    ["spectral", "--topology", "circle:1152921504606846976", "--steps", "1"],
    ["mix", "--topology", "circle:1152921504606846976", "--delta", "0.3"],
], ids=["simulate-circle", "spectral-circle", "mix-circle"])
def test_oversized_inputs_are_refused_before_allocation(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_mix_refuses_an_uncrossed_scan_past_the_step_cap(monkeypatch, capsys):
    # the scan stops at the step cap (lowered here to keep the test fast)
    # and reports neither a trace nor a crossing it has not looked for
    monkeypatch.setattr("qwalk.stats.MAX_STEPS", 40)
    argv = ["mix", "--topology", "circle:31", "--delta", "-1", "--t-cap", "41"]
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["compare", "asymptotic"])
def test_zero_steps_is_a_domain_error(command, capsys):
    code, _, err = run_cli([command, "--steps", "0"], capsys)
    assert code == 3 and err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["compare", "asymptotic", "moments"])
def test_line_only_commands_take_no_topology(command, capsys):
    # the line-only commands take no --topology at all
    with pytest.raises(SystemExit) as exc:
        main([command, "--topology", "circle:31", "--steps", "10"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "unrecognized arguments: --topology circle:31" in captured.err


@pytest.mark.parametrize("argv", [
    ["simulate", "--coin", "abc"],
    ["simulate", "--coin", "halfpi"],
    ["simulate", "--topology", "circle:x"],
    ["mix", "--topology", "circle:31", "--delta", "0.3", "--classical", "--coin", "1.2"],
    ["mix", "--topology", "circle:31", "--delta", "0.3", "--classical", "--init", "left"],
    ["compare", "--epsilon", "0.1"],
    ["asymptotic", "--epsilon", "0.1"],
    ["simulate", "--steps", "abc"],
    ["mix", "--topology", "circle:31", "--delta", "abc"],
    ["mix", "--topology", "circle:31"],
    ["simulate", "--no-such-option"],
    ["no-such-command"],
], ids=["coin", "theta", "circle-size", "classical-coin", "classical-init",
        "compare-epsilon", "asymptotic-epsilon", "steps-not-int", "delta-not-float",
        "delta-missing", "unknown-option", "unknown-command"])
def test_bad_values_are_one_line_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["mix", "--topology", "circle:31", "--delta", "nan"],
    ["mix", "--topology", "circle:31", "--delta", "inf"],
    ["mix", "--topology", "circle:31", "--delta=-inf"],
    ["mix", "--topology", "circle:31", "--delta", "0.3", "--t-cap", "0"],
    ["mix", "--topology", "circle:31", "--delta", "0.3", "--t-cap", "-5"],
    ["simulate", "--steps", "-3"],
    ["simulate", "--steps", "1048577"],
], ids=["delta-nan", "delta-inf", "delta-minus-inf", "t-cap-0", "t-cap-negative",
        "steps-negative", "steps-over-cap"])
def test_refused_values_are_one_line_domain_errors(argv, capsys):
    # the CLI parses; the library call that takes the value refuses it
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv, value", [
    (["mix", "--topology", "circle:31", "--delta"], "-inf"),
    (["mix", "--topology", "circle:31", "--delta"], "-nan"),
    (["simulate", "--coin"], "-0.5pi"),
    (["simulate", "--coin"], "-pi"),
    (["simulate", "--coin"], "-1e-3"),
    (["simulate", "--steps"], "-3"),
], ids=["delta-minus-inf", "delta-minus-nan", "coin-minus-pi", "coin-minus-bare-pi",
        "coin-exponent", "steps"])
def test_a_negative_value_reads_the_same_in_both_spellings(argv, value, capsys):
    # "--opt -x" and "--opt=-x" give the one value to the library, which refuses it
    *head, option = argv
    spaced = run_cli([*head, option, value], capsys)
    assert spaced == run_cli([*head, f"{option}={value}"], capsys)
    code, out, err = spaced
    assert code == 3 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def density_table(out):
    _, rows = parse_csv(out)
    return {r[0]: (float(r[1]), float(r[2])) for r in rows}


@pytest.mark.parametrize("argv, mean", [
    (["--init", "right"], 1 - 1 / math.sqrt(2)),
    (["--coin", "1.2", "--init", "left"], -(1 - math.sin(0.6))),
], ids=["hadamard-right", "theta-left"])
def test_moments_density_follows_init(argv, mean, capsys):
    code, out, _ = run_cli(["moments", *argv], capsys)
    assert code == 0
    simulation, density = density_table(out)["mean"]
    assert density == pytest.approx(mean, abs=1e-9)
    assert simulation == pytest.approx(mean, abs=0.01)


@pytest.mark.parametrize("coin", ["0", "1e-13", "0.0001"])
def test_moments_of_a_near_identity_coin_are_served(coin, capsys):
    # |u01| near 0 is served by the closed forms, and theta = 0 moves
    # ballistically, so the limit is the walk itself
    code, out, err = run_cli(["moments", "--coin", coin], capsys)
    assert code == 0 and err == ""
    theta = parse_theta(coin)
    width = math.sin(theta / 2)
    limit = {"mean": -(1 - width), "second": 1 - width, "abs_mean": 1 - theta / math.pi}
    table = density_table(out)
    for name, (simulation, density) in table.items():
        assert density == pytest.approx(limit[name], abs=1e-12)
        assert simulation == pytest.approx(density, abs=1e-3)
    if coin == "0":
        assert table == {"mean": (-1, -1), "second": (1, 1), "abs_mean": (1, 1)}


def test_moments_of_confined_walk_are_zero(capsys):
    code, out, _ = run_cli(["moments", "--coin", "pi"], capsys)
    assert code == 0
    for simulation, density in density_table(out).values():
        assert abs(density) < 1e-9
    assert "-0" not in [v for row in parse_csv(out)[1] for v in row[1:]]


OTHER_WALKS = [["--init", "right"], ["--init", "symmetric"], ["--coin", "1.2"], ["--coin", "0.5pi"],
               ["--coin", "1.2", "--init", "symmetric"], ["--coin", "0.5pi", "--init", "right"]]


def exact_masses(argv, t):
    """Distribution of the CLI walk named by ``argv``, indexed by site + t."""
    opts = dict(zip(argv[::2], argv[1::2]))
    coin = opts.get("--coin", "hadamard")
    coin = hadamard_coin() if coin == "hadamard" else theta_coin(parse_theta(coin))
    return distribution(evolve_line(initial_state(opts.get("--init", "left")), coin, t)).masses


@pytest.mark.parametrize("argv", OTHER_WALKS)
def test_asymptotic_serves_every_walk(argv, capsys):
    code, out, _ = run_cli(["asymptotic", "--steps", "64", *argv], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    sites = np.array([int(r[0]) for r in rows])
    prob = np.array([float(r[2]) for r in rows])
    assert len(rows) > 20 and np.all(sites % 2 == 0)
    assert np.sum(np.abs(prob - exact_masses(argv, 64)[sites + 64])) < 0.02


@pytest.mark.parametrize("argv", OTHER_WALKS)
def test_compare_fills_asymptotics_for_every_walk(argv, capsys):
    code, out, err = run_cli(
        ["compare", "--steps", "64", "--format", "json", *argv], capsys
    )
    assert code == 0
    payload = json.loads(out)
    have = [r for r in payload["data"] if r["p_asymptotic"] is not None]
    sites = np.array([r["n"] for r in have])
    prob = np.array([r["p_asymptotic"] for r in have])
    l1 = np.sum(np.abs(prob - exact_masses(argv, 64)[sites + 64]))
    assert len(have) > 20 and np.all(sites % 2 == 0)
    assert payload["l1_interior_exact_asymptotic"] == pytest.approx(l1, abs=1e-15)
    assert l1 < 0.02
    assert payload["max_abs_amplitude_diff_exact_spectral"] < 1e-12
    assert "l1_interior" in err


@pytest.mark.parametrize("coin", ["0", "pi"])
def test_asymptotic_needs_an_open_cone(coin, capsys):
    # |u00| = 1 (no density) or |u00| = 0 (no interior site)
    code, out, err = run_cli(["asymptotic", "--coin", coin], capsys)
    assert code == 3 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def assert_compare_has_no_asymptotics(argv, capsys):
    code, out, err = run_cli(["compare", "--steps", "64", "--format", "json", *argv], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["l1_interior_exact_asymptotic"] is None
    assert all(r["p_asymptotic"] is None for r in payload["data"])
    assert payload["max_abs_amplitude_diff_exact_spectral"] < 1e-12
    assert "l1_interior" not in err


@pytest.mark.parametrize("argv", [["--coin", "0"], ["--coin", "pi"]])
def test_compare_leaves_asymptotics_out_for_other_walks(argv, capsys):
    # walks without an open cone 0 < |u00| < 1 have no interior to serve
    assert_compare_has_no_asymptotics(argv, capsys)


def test_compare_without_interior_sites_reports_null(capsys):
    # |u00| = |cos(0.475 pi)| ~ 0.079 lies inside the margin, so no site is
    # served, and an L1 over no site is no agreement: it is null, not 0.0
    assert_compare_has_no_asymptotics(["--coin", "0.95pi"], capsys)


@pytest.mark.parametrize("command", ["asymptotic", "compare"])
def test_the_fixed_margin_serves_the_inner_cone(command, capsys):
    # |u00| = 0.5 exactly: at t = 64 the sites with |n/t| <= 0.5 - 0.1 are served
    coin = "0.6666666666666666pi"
    assert support_edge(theta_coin(parse_theta(coin))) == 0.5
    code, out, err = run_cli([command, "--coin", coin, "--init", "symmetric",
                              "--steps", "64", "--format", "json"], capsys)
    assert code == 0 and not err.startswith("error")
    payload = json.loads(out)
    column = "prob" if command == "asymptotic" else "p_asymptotic"
    served = {r["n"]: r[column] for r in payload["data"] if r[column] is not None}
    assert sorted(served) == list(range(-24, 25, 2))
    assert all(0 < p < 1 for p in served.values())
    if command == "compare":
        assert payload["l1_interior_exact_asymptotic"] < 0.1


def oracle_text(args, header, rows, extra=None):
    """The table as formatted one value at a time and dumped as one payload."""
    if args.format == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join("" if v is None else f"{v:.17g}" if isinstance(v, float)
                                  else str(v) for v in row))
        return "\n".join(lines) + "\n"
    config = {k: v for k, v in sorted(vars(args).items()) if v is not None}
    payload = {"schema_version": "1", "config": config,
               "data": [dict(zip(header, row)) for row in rows]}
    if extra:
        payload.update(extra)
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072e-308, 1e300]
EMIT_TABLES = [
    # a mixed column of every cell kind, and columns each formatter serves whole
    (["n", "cell", "alpha", "label"],
     [[-3, None, 0.1, "sigma_x"], [0, 7, -0.0, "fails"], [2**70, "x", 1e-310, "%s"],
      [5, True, 0.3, ""]] + [[i, v, v if math.isfinite(v) else 0.5, "a"]
                             for i, v in enumerate(SPECIAL)]),
    (["t", "tv"], [(t, 1 / t) for t in range(1, 40)]),
    (["b", "a"], [(v, v) for v in SPECIAL]),
    (["n", "alpha", "prob"], []),
    # more than two chunks of rows, the last one partial, in every cell kind
    (["n", "x", "cell", "label"],
     [(i, i / 7, [None, 0.5, 7, "z", math.nan][i % 5] if i % 3 else -1.25, f"r{i}")
      for i in range(2 * _CHUNK + 37)]),
]


def object_table(header, rows):
    """``rows`` as the writer takes them: a record array, here of object fields."""
    return np.rec.fromarrays([np.array([row[i] for row in rows], dtype=object)
                              for i in range(len(header))], names=header)


# typed fields, one per dtype branch of the writer: int64, finite float64
# (with -0.0 and the smallest subnormal) and float64 holding NaN and +-inf;
# then a typed table of more than two chunks, the last one partial
TYPED_TABLES = [
    (["n", "x", "special"], np.rec.fromarrays(
        [np.array([-2**63, -3, 0, 1, 2**31, 2**53 + 1, 2**62, 2**63 - 1], dtype=np.int64),
         np.array([0.1, -0.0, 0.0, 5e-324, 2.2250738585072e-308, 1e300, -1.5, 1 / 3]),
         np.array(SPECIAL)], names=["n", "x", "special"])),
    (["t", "tv"], np.rec.fromarrays(
        [np.arange(1, 2 * _CHUNK + 38), 1 / np.arange(1, 2 * _CHUNK + 38)], names=["t", "tv"])),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("header, rows", [(header, object_table(header, rows))
                                          for header, rows in EMIT_TABLES] + TYPED_TABLES)
@pytest.mark.parametrize("extra", [None, {"crossing_time": None, "l1": 0.25, "reached": True}])
def test_emit_matches_the_per_value_oracle(fmt, header, rows, extra, tmp_path, capsys):
    args = argparse.Namespace(command="mix", coin="1.2", steps=16, delta=None,
                              format=fmt, output="-")
    _emit(args, header, rows, extra)
    # the oracle formats the Python values the record array holds, one by
    # one; compared as lists of lines, which is the same check: pytest's
    # diff of two long unequal strings takes minutes, of two lists it
    # names a line
    lines = oracle_text(args, header, rows.tolist(), extra).splitlines(keepends=True)
    assert capsys.readouterr().out.splitlines(keepends=True) == lines
    # a file --output is written through standard output, which main
    # points at the file for the command's run
    args.output = str(tmp_path / "table.out")
    with open(args.output, "w") as fh, contextlib.redirect_stdout(fh):
        _emit(args, header, rows, extra)
    with open(args.output, newline="") as fh:
        assert fh.read().splitlines(keepends=True) == (
            oracle_text(args, header, rows.tolist(), extra).splitlines(keepends=True))
    assert capsys.readouterr().out == ""


# --- the CLI contract as one property over command lines -------------------

#: valid values at small sizes, by option
VALID_VALUES = {
    "--coin": st.sampled_from(["hadamard", "0.5pi", "pi", "0"]) | st.floats(0, math.pi).map(repr),
    "--format": st.sampled_from(["csv", "json"]),
    "--output": st.just("-"),
    "--init": st.sampled_from(["left", "right", "symmetric"]),
    "--topology": st.sampled_from(["line", "circle:3", "circle:4"])
    | st.integers(3, 64).map("circle:{}".format),
    "--steps": st.integers(0, 64).map(str),
    # the classical TV on an even cycle is 1/2 at every t
    "--delta": st.just("0.5") | st.floats(0, 1).map(repr),
    "--t-cap": st.integers(1, 64).map(str),
}
#: spellings at the edge, by option: any of them but --output, which is
#: given only targets it cannot open, so that no run writes a file
EDGE_VALUES = {option: ["", "nan", "inf", "1e308", "1e-320", "1_0", "١١", "circle:2",
                        "circle:", "ring:5", "xml", "-1"] for option in VALID_VALUES}
EDGE_VALUES["--output"] = ["", os.path.join(os.devnull, "x")]


@st.composite
def command_lines(draw):
    """``(argv, values)``: a subcommand and some of its options, ``values`` by option."""
    command = draw(st.sampled_from(list(surface.arguments())))
    argv, values = [command], {}
    for (option,), default, _, _, required in surface.arguments()[command]:
        # a required option is left out one time in eight, any other in two
        if draw(st.integers(0, 7)) < (1 if required else 4):
            continue
        if default is False:  # a flag
            argv.append(option)
            values[option] = True
            continue
        edge = draw(st.integers(0, 7)) == 0
        value = draw(st.sampled_from(EDGE_VALUES[option]) if edge else VALID_VALUES[option])
        argv += [option, value]
        values[option] = value
    if draw(st.integers(0, 15)) == 0:
        argv.append("--bogus")
    return argv, values


def config_echo(command, values):
    """The ``config`` a JSON table echoes: every option's parsed value or default."""
    config = {"command": command}
    for (option,), default, kind, *_ in surface.arguments()[command]:
        value = values.get(option, default)
        if option in values and kind is not None:
            value = kind(value)
        config[option[2:].replace("-", "_")] = value
    if command == "mix" and not config["classical"]:
        config["coin"] = config["coin"] or "hadamard"
        config["init"] = config["init"] or "left"
    return {key: value for key, value in config.items() if value is not None}


def table_rows(out, fmt):
    """The rows of a table as dicts of cells: text from CSV, values from JSON."""
    if fmt == "csv":
        header, rows = parse_csv(out)
        return [dict(zip(header, row)) for row in rows]
    return json.loads(out)["data"]


def is_zero_cell(cell, fmt):
    """A cell printed as a +0.0: ``0`` in CSV, ``0.0`` in JSON."""
    return cell == "0" if fmt == "csv" else cell == 0 and math.copysign(1, cell) == 1


@settings(max_examples=400, deadline=None)
@given(command_lines())
@example((["mix", "--classical", "--topology", "circle:4", "--delta", "0.5"],
          {"--classical": True, "--topology": "circle:4", "--delta": "0.5"}))
def test_every_command_line_ends_in_a_table_or_one_error_line(line):
    # exit 0, 2 or 3, with no RuntimeWarning; a failure writes nothing to
    # stdout and one error line to stderr; a table's invariants hold.  The
    # example crosses at t = 1, where its TV equals delta
    argv, values = line
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3)
    if code:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        return

    command = argv[0]
    config = config_echo(command, values)
    fmt = config["format"]
    rows = table_rows(out, fmt)
    cells = {key: [row[key] for row in rows] for key in rows[0]} if rows else {}

    def number(key):  # a column's numbers, None for an empty CSV cell
        if fmt == "json":
            return cells[key]
        return [None if c == "" else float(c) for c in cells[key]]

    if fmt == "json":
        payload = json.loads(out)
        assert payload["schema_version"] == "1" and payload["config"] == config
    t = config.get("steps")
    size = int(config.get("topology", "line").partition(":")[2] or 0)
    if command in ("simulate", "spectral", "compare"):
        assert len(rows) == (size or 2 * t + 1)
        probs = ["p_exact", "p_spectral"] if command == "compare" else ["prob"]
        zeros = probs if command == "compare" else ["psi_L_re", "psi_L_im", "psi_R_re",
                                                    "psi_R_im", "prob"]
        for key in probs:
            assert abs(sum(number(key)) - 1) < 1e-12
        if size % 2 == 0:  # the line, or an even cycle: n + t odd holds exact zeros
            forbidden = [i for i, n in enumerate(number("n")) if (int(n) + t) % 2]
            assert all(is_zero_cell(cells[key][i], fmt) for key in zeros for i in forbidden)
            if command == "compare":  # stationary phase gives no forbidden site
                assert all(number("p_asymptotic")[i] is None for i in forbidden)
    elif command == "asymptotic":
        for n, alpha in zip(number("n"), number("alpha")):
            assert (int(n) + t) % 2 == 0 and alpha == n / t and abs(alpha) < 1
        assert all(math.isfinite(p) for p in number("prob"))
    elif command == "moments":
        assert cells["moment"] == ["mean", "abs_mean", "second"]
    elif command == "symmetry":
        assert cells["candidate"] == ["sigma_x", "sigma_y", "sigma_z"]
    else:  # mix
        tv, delta = number("tv"), config["delta"]
        assert [int(x) for x in number("t")] == list(range(1, len(rows) + 1))
        assert all(0 <= x <= 1 for x in tv)
        crossing = err.removeprefix("crossing_time: ").strip()
        if crossing == "not reached":
            assert len(tv) == config["t_cap"] and min(tv) > delta
        else:
            assert int(crossing) == len(tv) and tv[-1] <= delta < min(tv[:-1], default=math.inf)
        if fmt == "json":
            assert payload["crossing_time"] == (None if crossing == "not reached" else len(tv))
