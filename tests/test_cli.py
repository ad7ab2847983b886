"""Command-line interface: formats, determinism, exit codes."""

import argparse
import csv
import io
import json
import math

import numpy as np
import pytest

from qwalk import distribution, evolve_line, hadamard_coin, initial_state, theta_coin
from qwalk.asymptotics import support_edge
from qwalk.cli import _emit, build_parser, main, parse_theta


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_parse_theta():
    assert parse_theta("0.5pi") == pytest.approx(math.pi / 2)
    assert parse_theta("pi") == pytest.approx(math.pi)
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
        ["asymptotic", "--steps", "100", "--epsilon", "0.1"], capsys
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
    assert json.loads(out)["crossing_time"] == 77


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
        ["compare", "--steps", "64", "--format", "json", "--epsilon", "0.1"], capsys
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


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run_cli(
        ["simulate", "--steps", "8", "--output", str(target)], capsys
    )
    assert code == 0 and out == ""
    header, rows = parse_csv(target.read_text())
    assert header[0] == "n" and len(rows) == 17


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--steps", "3", "--output", str(target)])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert not target.exists()


def test_each_subcommand_has_exactly_its_options():
    walk = {"--coin", "--format", "--output", "--init"}
    anywhere = walk | {"--topology"}
    expected = {
        "simulate": anywhere | {"--steps"},
        "spectral": anywhere | {"--steps"},
        "asymptotic": walk | {"--steps", "--epsilon"},
        "moments": walk | {"--steps"},
        "mix": anywhere | {"--delta", "--t-cap", "--classical"},
        "symmetry": {"--coin", "--format", "--output"},
        "compare": walk | {"--steps", "--epsilon"},
    }
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
               for name, p in sub.choices.items()}
    assert options == expected


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--steps", "-3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--topology", "circle:abc"])
    assert exc.value.code == 2
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
def test_compare_refuses_circle(command, capsys):
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
    ["mix", "--topology", "circle:31", "--delta", "nan"],
    ["mix", "--topology", "circle:31", "--delta", "0.3", "--t-cap", "0"],
    ["mix", "--topology", "circle:31", "--delta", "0.3", "--t-cap", "-5"],
    ["compare", "--epsilon", "nan"],
    ["compare", "--epsilon", "inf"],
    ["compare", "--epsilon", "-1"],
    ["asymptotic", "--epsilon", "nan"],
    ["asymptotic", "--epsilon", "-1"],
    ["simulate", "--steps", "-3"],
    ["simulate", "--steps", "abc"],
    ["mix", "--topology", "circle:31", "--delta", "abc"],
    ["mix", "--topology", "circle:31"],
    ["simulate", "--no-such-option"],
    ["no-such-command"],
], ids=["coin", "theta", "circle-size", "delta-nan", "t-cap-0", "t-cap-negative",
        "compare-epsilon-nan", "compare-epsilon-inf", "compare-epsilon-negative",
        "asymptotic-epsilon-nan", "asymptotic-epsilon-negative", "steps-negative",
        "steps-not-int", "delta-not-float", "delta-missing", "unknown-option",
        "unknown-command"])
def test_bad_values_are_one_line_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
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
def test_moments_of_unresolvable_coin_exit_3(coin, capsys):
    # the name predates the closed forms: |u01| near 0 is served, and
    # theta = 0 moves ballistically, so the limit is the walk itself
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
    code, out, _ = run_cli(["asymptotic", "--steps", "64", "--epsilon", "0.1", *argv], capsys)
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
    # |u00| = 1 (no density) or |u00| = 0 (no interior site); with no
    # margin the origin alone is inside |n/t| <= |u00| = 0 and is refused
    for margin in ([], ["--epsilon", "0"]):
        code, out, err = run_cli(["asymptotic", "--coin", coin, *margin], capsys)
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


@pytest.mark.parametrize("argv", [["--coin", "0"], ["--coin", "pi"],
                                  ["--coin", "pi", "--epsilon", "0"]])
def test_compare_leaves_asymptotics_out_for_other_walks(argv, capsys):
    # walks without an open cone 0 < |u00| < 1 have no interior to serve
    assert_compare_has_no_asymptotics(argv, capsys)


def test_compare_without_interior_sites_reports_null(capsys):
    # an L1 over no site is no agreement: it is null, not 0.0
    assert_compare_has_no_asymptotics(["--epsilon", "5"], capsys)


@pytest.mark.parametrize("command", ["asymptotic", "compare"])
def test_zero_margin_serves_the_open_cone(command, capsys):
    # |u00| = 0.5 exactly: n = +-32 at t = 64 sit on the cone edge and are left out
    coin = "0.6666666666666666pi"
    assert support_edge(theta_coin(parse_theta(coin))) == 0.5
    code, out, err = run_cli([command, "--coin", coin, "--init", "symmetric",
                              "--epsilon", "0", "--steps", "64", "--format", "json"], capsys)
    assert code == 0 and not err.startswith("error")
    payload = json.loads(out)
    column = "prob" if command == "asymptotic" else "p_asymptotic"
    served = {r["n"]: r[column] for r in payload["data"] if r[column] is not None}
    assert sorted(served) == list(range(-30, 31, 2))
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
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None}
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
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("header, rows", EMIT_TABLES)
@pytest.mark.parametrize("extra", [None, {"crossing_time": None, "l1": 0.25, "reached": True}])
def test_emit_matches_the_per_value_oracle(fmt, header, rows, extra, tmp_path, capsys):
    args = argparse.Namespace(command="mix", coin="1.2", steps=16, delta=None,
                              format=fmt, output="-", func=main)
    _emit(args, header, rows, extra)
    expected = oracle_text(args, header, rows, extra)
    assert capsys.readouterr().out == expected
    args.output = str(tmp_path / "table.out")
    _emit(args, header, rows, extra)
    with open(args.output, newline="") as fh:
        assert fh.read() == oracle_text(args, header, rows, extra)
    assert capsys.readouterr().out == ""
