import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from mfshift.cli import (
    EXIT_BUDGET,
    EXIT_DEGENERATE,
    EXIT_OK,
    EXIT_PARSE,
    main,
    parse_grid,
    parse_model,
    parse_target,
    read_json_rows,
)
from mfshift.errors import ParseError, ValidationError

GOLDEN = {
    "label": "golden",
    "N": 2,
    "ratios": [0.5, 0.25],
    "measures": [[0.25, 0.75]],
    "potential_depth": 1,
}
QUARTER = {
    "label": "quarter",
    "N": 2,
    "ratios": [0.5, 0.5],
    "measures": [[0.25, 0.75]],
    "potential_depth": 1,
}


@pytest.fixture
def golden_file(tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(GOLDEN))
    return str(path)


@pytest.fixture
def quarter_file(tmp_path):
    path = tmp_path / "quarter.json"
    path.write_text(json.dumps(QUARTER))
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_model_valid(golden_file):
    spec = parse_model(golden_file)
    assert spec.label == "golden"
    assert spec.N == 2
    assert np.allclose(spec.ratios, [0.5, 0.25])


def test_parse_model_bad_ratio(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"ratios": [1.2, 0.5], "measures": [[0.5, 0.5]]}))
    with pytest.raises(ValidationError, match="ratio out of"):
        parse_model(str(path))


def test_parse_model_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        parse_model(str(path))


def test_parse_target_forms():
    box = parse_target("0.7:0.9")
    assert (box.lo[0], box.hi[0]) == (0.7, 0.9)
    point = parse_target("0.5")
    assert point.lo[0] == point.hi[0] == 0.5
    box2 = parse_target("0.7:0.9,1.0:1.2")
    assert box2.dim == 2


def test_parse_grid():
    g = parse_grid("0:1:5")
    assert np.allclose(g, [0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ParseError):
        parse_grid("0..1..5")


def test_dimension_golden(golden_file, capsys):
    code, out, _ = run_cli(
        ["dimension", "--model", golden_file, "--tol", "1e-12"], capsys
    )
    assert code == EXIT_OK
    value = float(out.strip().splitlines()[1].split(",")[1])
    assert value == pytest.approx(math.log2((1 + math.sqrt(5)) / 2), abs=1e-9)


def test_unattainable_target_exit_2_and_sentinel(quarter_file, capsys):
    code, out, _ = run_cli(
        ["mf-bowen", "--model", quarter_file, "--target", "0.5", "--n-max", "60"],
        capsys,
    )
    assert code == EXIT_DEGENERATE
    assert out.strip().splitlines()[1].split(",")[2] == "-inf"


def test_spectrum_csv_rows(quarter_file, capsys):
    code, out, _ = run_cli(
        ["spectrum", "--model", quarter_file, "--grid", "0.5:2.0:16"], capsys
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,f,q_at_min"
    assert len(lines) == 17
    rows = [line.split(",") for line in lines[1:]]
    values = [float(r[1]) for r in rows]
    peak = max(values)
    assert peak == pytest.approx(1.0, abs=1e-3)  # peak between grid points
    peak_alpha = float(rows[values.index(peak)][0])
    assert abs(peak_alpha - 1.2075) < 0.11  # nearest grid point to the peak


def test_json_deterministic_and_round_trip(quarter_file, tmp_path, capsys):
    args = [
        "beta",
        "--model",
        quarter_file,
        "--grid",
        "0:2:5",
        "--format",
        "json",
        "--no-timestamp",
    ]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2  # identical bytes without the timestamp
    doc, rows = read_json_rows(out1)
    assert doc["schema_version"] == 2
    assert "seed" not in doc
    assert doc["osc_assumed"] is True
    from mfshift.spectrum import beta

    spec = parse_model(quarter_file)
    for row in rows:
        assert row["beta"] == beta(spec, row["q"]).beta  # bit-for-bit


def test_json_neg_inf_flagged(quarter_file, capsys):
    code, out, _ = run_cli(
        [
            "mf-bowen",
            "--model",
            quarter_file,
            "--target",
            "0.5",
            "--n-max",
            "60",
            "--format",
            "json",
            "--no-timestamp",
        ],
        capsys,
    )
    assert code == EXIT_DEGENERATE
    doc = json.loads(out)
    row = doc["rows"][0]
    assert row["value"] is None
    assert row["flags"]["value"] == "-inf"
    _, rows = read_json_rows(out)
    assert rows[0]["value"] == float("-inf")


def test_vacuous_target_matches_unconstrained_bytes(quarter_file, capsys):
    base = ["zeta", "--model", quarter_file, "--n-max", "12", "--t", "0.5"]
    code1, free, _ = run_cli(base, capsys)
    code2, vac, _ = run_cli(base + ["--target=-100:100"], capsys)
    assert code1 == code2 == EXIT_OK
    assert free == vac


def test_zeta_empty_target_degenerate(quarter_file, capsys):
    code, out, _ = run_cli(
        ["zeta", "--model", quarter_file, "--n-max", "8", "--target", "0.5"],
        capsys,
    )
    assert code == EXIT_DEGENERATE
    assert "-inf" in out


def test_oracle_command(quarter_file, capsys):
    code, out, _ = run_cli(
        ["oracle", "--model", quarter_file, "--target", "0.8:1.0", "--n", "6"],
        capsys,
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("quantity,")
    for line in lines[1:]:
        rel = line.rsplit(",", 1)[1]
        assert float(rel) < 2e-3


def test_birkhoff_command(quarter_file, tmp_path, capsys):
    obs_path = tmp_path / "obs.json"
    obs_path.write_text(
        json.dumps({"depth": 1, "gamma": 0.5, "values": [1.0, 0.0]})
    )
    code, out, _ = run_cli(
        [
            "birkhoff",
            "--model",
            quarter_file,
            "--observable",
            str(obs_path),
            "--target",
            "0.3",
            "--n-max",
            "120",
        ],
        capsys,
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    values = {line.split(",")[0]: line.split(",")[2] for line in lines[1:]}
    expected = (-(0.3 * math.log(0.3) + 0.7 * math.log(0.7))) / math.log(2)
    assert float(values["variational"]) == pytest.approx(expected, abs=1e-6)
    assert float(values["zeta"]) == pytest.approx(expected, abs=3e-2)


def test_missing_model_exit_3(capsys):
    code, _, err = run_cli(["dimension", "--model", "/nope/missing.json"], capsys)
    assert code == EXIT_PARSE
    assert "error:" in err


def test_bad_target_dimension_exit_3(quarter_file, capsys):
    for command, target in (
        ("sup-spectrum", "0.5:0.9,0.1:0.2"),
        ("mf-bowen", "0.1:5,0.1:5"),
    ):
        code, _, err = run_cli(
            [command, "--model", quarter_file, "--target", target], capsys
        )
        assert code == EXIT_PARSE


def test_class_budget_exit_4(tmp_path, capsys):
    # N=4 at --n-max 400 needs about 7.9e8 classes over the Bowen window
    path = tmp_path / "quad.json"
    path.write_text(
        json.dumps({"ratios": [0.25] * 4, "measures": [[0.1, 0.2, 0.3, 0.4]]})
    )
    t0 = time.perf_counter()
    code, out, err = run_cli(
        ["mf-bowen", "--model", str(path), "--target", "0.5:1.5", "--n-max", "400"],
        capsys,
    )
    assert code == EXIT_BUDGET
    assert time.perf_counter() - t0 < 5.0
    assert out == "" and "budget" in err


@pytest.mark.parametrize("target", ["nan", "inf", "-inf", "0.5:inf"])
def test_non_finite_target_exit_3(quarter_file, capsys, target):
    code, out, err = run_cli(
        ["mf-bowen", "--model", quarter_file, f"--target={target}"], capsys
    )
    assert code == EXIT_PARSE
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize("grid", ["nan:1:3", "0.5:inf:3", "-inf:1:1"])
def test_non_finite_grid_exit_3(quarter_file, capsys, grid):
    code, out, err = run_cli(
        ["spectrum", "--model", quarter_file, f"--grid={grid}"], capsys
    )
    assert code == EXIT_PARSE
    assert out == ""
    assert "error:" in err


def test_output_file_written(quarter_file, tmp_path, capsys):
    out_path = tmp_path / "out.csv"
    code, out, _ = run_cli(
        [
            "dimension",
            "--model",
            quarter_file,
            "--output",
            str(out_path),
        ],
        capsys,
    )
    assert code == EXIT_OK
    assert out == ""
    assert out_path.read_text().startswith("quantity,value")


@pytest.mark.parametrize(
    "args",
    [
        ["spectrum", "--workers", "2"],
        ["zeta", "--n-max", "abc"],
        ["no-such-command"],
        ["oracle", "--target", "0.8:1.0", "--seed", "1"],
        ["mf-bowen", "--target", "abc"],
        ["mf-bowen", "--target", "0.8:1.0", "--shrinking", "--radii", "0.1,x"],
    ],
)
def test_usage_error_exit_3(quarter_file, capsys, args):
    code, out, err = run_cli(args[:1] + ["--model", quarter_file] + args[1:], capsys)
    assert code == EXIT_PARSE
    assert out == ""
    assert "error:" in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--help"])
    assert exc.value.code == 0
    assert "--model" in capsys.readouterr().out


def test_cli_import_skips_scipy_and_process_pool():
    # M = 1 Legendre points check the hull without a linear program, and the
    # variational route solves its programs in numpy: a Bernoulli solve and
    # a markov1 Birkhoff solve load no scipy.optimize either
    code = (
        "import sys, numpy as np, mfshift.cli\n"
        "from mfshift import ModelSpec, ObservableTable, PotentialTable, TargetBox\n"
        "from mfshift import beta, erg_spectrum_variational, legendre, variational_solve\n"
        "spec = ModelSpec(ratios=[0.5, 0.5], measures=[[0.25, 0.75]])\n"
        "beta(spec, 1.5)\n"
        "legendre(spec, 0.8)\n"
        "legendre(spec, 2.5)\n"
        "variational_solve(spec, TargetBox.interval(0.7, 0.9), objective='dimension')\n"
        "obs = ObservableTable(PotentialTable(np.array([[0.4, -0.6], [0.9, -0.2]])))\n"
        "erg_spectrum_variational(spec, obs, TargetBox.interval(0.3, 0.4))\n"
        "print(sorted(m for m in ('scipy.optimize', 'concurrent.futures.process') "
        "if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


def test_pressure_command(golden_file, capsys):
    code, out, _ = run_cli(
        ["pressure", "--model", golden_file, "--grid", "0:1:5"], capsys
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "t,pressure"
    first = float(lines[1].split(",")[1])
    assert first == pytest.approx(math.log(2), abs=1e-12)
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_console_entrypoint_runs(golden_file):
    proc = subprocess.run(
        [sys.executable, "-m", "mfshift.cli", "dimension", "--model", golden_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("quantity,value")
