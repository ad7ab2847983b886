"""Command-line interface: formats, determinism, exit codes."""

import csv
import io
import json
import math

import numpy as np
import pytest

from qwalk import distribution, evolve_line, hadamard_coin, initial_state
from qwalk.cli import main, parse_theta


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
    assert np.max(np.abs(got - d.masses)) < 1e-15


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


def test_spectral_command_agrees_with_simulate(capsys):
    _, out_a, _ = run_cli(["simulate", "--steps", "50", "--init", "left"], capsys)
    _, out_b, _ = run_cli(["spectral", "--steps", "50", "--init", "left"], capsys)
    _, rows_a = parse_csv(out_a)
    _, rows_b = parse_csv(out_b)
    pa = np.array([float(r[5]) for r in rows_a])
    pb = np.array([float(r[5]) for r in rows_b])
    assert np.max(np.abs(pa - pb)) < 1e-12


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


def test_theta_flag_overrides_coin(capsys):
    _, out_a, _ = run_cli(["simulate", "--steps", "20", "--theta", "0.5pi"], capsys)
    _, out_b, _ = run_cli(["simulate", "--steps", "20", "--coin", "0.5pi"], capsys)
    assert out_a == out_b


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
    capsys.readouterr()


def test_domain_errors_exit_3(capsys):
    # spectral route refuses circles; mix refuses lines
    code, _, err = run_cli(
        ["spectral", "--topology", "circle:9", "--steps", "5"], capsys
    )
    assert code == 3 and "error:" in err
    code, _, err = run_cli(["mix", "--delta", "0.3"], capsys)
    assert code == 3
    code, _, err = run_cli(["simulate", "--theta", "1.2pi", "--steps", "5"], capsys)
    assert code == 3


@pytest.mark.parametrize("command", ["compare", "asymptotic"])
def test_zero_steps_is_a_domain_error(command, capsys):
    code, _, err = run_cli([command, "--steps", "0"], capsys)
    assert code == 3 and err.startswith("error:") and err.count("\n") == 1


def test_compare_refuses_circle(capsys):
    code, _, err = run_cli(["compare", "--topology", "circle:31"], capsys)
    assert code == 3 and err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["simulate", "--coin", "abc"],
    ["simulate", "--theta", "abc"],
    ["simulate", "--topology", "circle:x"],
    ["mix", "--topology", "circle:31", "--delta", "nan"],
    ["mix", "--topology", "circle:31", "--delta", "0.3", "--t-cap", "0"],
    ["mix", "--topology", "circle:31", "--delta", "0.3", "--t-cap", "-5"],
], ids=["coin", "theta", "circle-size", "delta-nan", "t-cap-0", "t-cap-negative"])
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
    code, out, err = run_cli(["moments", "--coin", coin], capsys)
    assert code == 3 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_moments_of_confined_walk_are_zero(capsys):
    code, out, _ = run_cli(["moments", "--coin", "pi"], capsys)
    assert code == 0
    for simulation, density in density_table(out).values():
        assert abs(density) < 1e-9


@pytest.mark.parametrize("argv", [
    ["--init", "right"], ["--init", "symmetric"], ["--coin", "1.2"], ["--coin", "0.5pi"],
])
def test_asymptotic_needs_hadamard_left_start(argv, capsys):
    code, out, err = run_cli(["asymptotic", "--steps", "50", *argv], capsys)
    assert code == 3 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--init", "right"], ["--coin", "1.2"]])
def test_compare_leaves_asymptotics_out_for_other_walks(argv, capsys):
    code, out, err = run_cli(
        ["compare", "--steps", "64", "--format", "json", *argv], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["l1_interior_exact_asymptotic"] is None
    assert all(r["p_asymptotic"] is None for r in payload["data"])
    assert payload["max_abs_amplitude_diff_exact_spectral"] < 1e-12
    assert "l1_interior" not in err
