import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pbftest
from pbftest.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    for sub in ("test", "simulate", "power", "sweep", "spectrum"):
        assert sub in out


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "test", "x.csv", "y.csv", "--frobnicate")
    assert code == 1
    assert "frobnicate" in err


def test_missing_file_is_data_error(capsys):
    code, _, err = run_cli(capsys, "test", "no_such_x.csv", "no_such_y.csv", "--seed", "1")
    assert code == 2
    assert "no_such_x.csv" in err


def test_python_dash_m_runs_cli_and_passes_exit_code(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(pbftest.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "pbftest", "test", "no_such_x.csv", "no_such_y.csv", "--seed", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert "no_such_x.csv" in proc.stderr


def test_overflowing_input_is_numerical_error(tmp_path, capsys):
    # inner products of curves near 1e160 overflow, and near 1e100 log's
    # squared projection gaps do; a NaN statistic must not turn into a
    # confident p-value (nor a spectrum), and the failure is reported
    # without numpy warnings
    rng = np.random.default_rng(1)
    x, y = tmp_path / "x.csv", tmp_path / "y.csv"
    for scale, phi in ((1e160, "l2"), (1e100, "log")):
        np.savetxt(x, rng.standard_normal((30, 9)) * scale, delimiter=",")
        np.savetxt(y, (rng.standard_normal((30, 9)) + 2.0) * scale, delimiter=",")
        for command in (["test", str(x), str(y), "--b", "99"], ["spectrum", "--input", str(x)]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run_cli(
                    capsys, *command, "--repr", "coeff", "--phi", phi, "--seed", "1"
                )
            assert code == 3
            assert out == ""
            assert "numerical failure" in err


def test_l2_is_finite_where_squared_gaps_overflow(tmp_path, capsys):
    # near 1e100 the squared projection gaps overflow but the gaps do not;
    # l2 needs only the gaps, so test and spectrum both give finite numbers
    rng = np.random.default_rng(1)
    x, y = tmp_path / "x.csv", tmp_path / "y.csv"
    np.savetxt(x, rng.standard_normal((30, 9)) * 1e100, delimiter=",")
    np.savetxt(y, (rng.standard_normal((30, 9)) + 2.0) * 1e100, delimiter=",")
    common = ("--repr", "coeff", "--phi", "l2", "--seed", "1")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run_cli(capsys, "test", str(x), str(y), "--b", "99", *common)
        assert code == 0
        payload = json.loads(out)
        assert math.isfinite(payload["zeta_hat"]) and payload["zeta_hat"] > 0.0
        assert 0.0 < payload["p_value"] <= 1.0
        code, out, _ = run_cli(capsys, "spectrum", "--input", str(x), "--draws", "500", *common)
    assert code == 0
    numbers = [float(line.split(",")[1]) for line in out.splitlines() if line[:1].isdigit()]
    assert numbers and all(math.isfinite(v) for v in numbers)


def test_bad_alpha_is_usage_error(tmp_path, capsys):
    f = tmp_path / "c.csv"
    f.write_text("1,2\n3,4\n")
    code, _, _ = run_cli(capsys, "test", str(f), str(f), "--alpha", "2", "--seed", "1")
    assert code == 1
    code, _, _ = run_cli(capsys, "test", str(f), str(f), "--phi", "cubic", "--seed", "1")
    assert code == 1


def test_identical_files_give_p_one(tmp_path, capsys):
    f = tmp_path / "same.csv"
    rows = np.random.default_rng(0).standard_normal((6, 11))
    np.savetxt(f, rows, delimiter=",")
    code, out, err = run_cli(
        capsys, "test", str(f), str(f), "--phi", "exp", "--b", "100", "--seed", "5"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["p_value"] == 1.0
    assert abs(payload["zeta_hat"]) <= 1e-12
    assert "effective seed: 5" in err


def test_simulate_round_trip_and_determinism(tmp_path, capsys):
    x1, y1 = tmp_path / "x1.csv", tmp_path / "y1.csv"
    x2, y2 = tmp_path / "x2.csv", tmp_path / "y2.csv"
    for xout, yout in ((x1, y1), (x2, y2)):
        code, _, _ = run_cli(
            capsys, "simulate", "--scenario", "ex1", "--count", "5", "--seed", "7",
            "--out-x", str(xout), "--out-y", str(yout),
        )
        assert code == 0
    assert x1.read_bytes() == x2.read_bytes()
    assert y1.read_bytes() == y2.read_bytes()

    code, out, _ = run_cli(
        capsys, "test", str(x1), str(y1), "--phi", "l2", "--b", "99", "--seed", "3"
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"zeta_hat", "scaled", "p_value", "B", "mode", "phi", "n", "m", "seed"}
    assert payload["n"] == 5 and payload["m"] == 5 and payload["B"] == 99


def test_coeff_round_trip(tmp_path, capsys):
    x, y = tmp_path / "x.csv", tmp_path / "y.csv"
    code, _, _ = run_cli(
        capsys, "simulate", "--scenario", "ex3", "--count", "8", "--seed", "2",
        "--out-x", str(x), "--out-y", str(y),
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys, "test", str(x), str(y), "--repr", "coeff", "--b", "50", "--seed", "4",
        "--keep-replicates",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["replicates"]) == 50


def test_power_writes_ledger_and_json(tmp_path, capsys):
    ledger = tmp_path / "ledger.csv"
    code, out, err = run_cli(
        capsys, "power", "--scenario", "ex3", "--n", "10", "--m", "10",
        "--b", "60", "--reps", "20", "--phi", "l2,log", "--seed", "6",
        "--out", str(ledger), "--json",
    )
    assert code == 0
    assert "effective seed: 6" in err
    assert "replication 20/20" in err
    payload = json.loads(out)
    assert payload["config"]["scenario"] == "ex3"
    assert {row["phi"] for row in payload["results"]} == {"l2", "log"}
    with open(ledger, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert rows[0]["scenario"] == "ex3"
    assert 0.0 <= float(rows[0]["rate"]) <= 1.0


def test_power_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario=ex3\nn=8\nm=8\nB=40\nreps=30\nphi=l2\nseed=9\n")
    ledger = tmp_path / "ledger.csv"
    code, out, _ = run_cli(
        capsys, "power", "--config", str(cfg), "--reps", "10", "--out", str(ledger), "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["reps"] == 10  # flag wins
    assert payload["config"]["B"] == 40  # file value kept
    cfg.write_text("scenario=ex3\nn=8\nm=8\nB=40\nreps=4\nphi=l2\nseed=9\nworkers=2\n")
    code, out, _ = run_cli(capsys, "power", "--config", str(cfg), "--out", str(ledger), "--json")
    assert code == 0
    assert json.loads(out)["config"]["workers"] == 2  # no --threads: file value kept
    code, out, _ = run_cli(
        capsys, "power", "--config", str(cfg), "--threads", "1", "--out", str(ledger), "--json"
    )
    assert code == 0
    assert json.loads(out)["config"]["workers"] == 1  # --threads wins
    cfg.write_text("scenario=ex3\nn=abc\n")
    code, out, err = run_cli(capsys, "power", "--config", str(cfg), "--out", str(ledger))
    assert code == 2
    assert out == ""
    assert "run.cfg: line 2" in err


def test_sweep_cli(tmp_path, capsys):
    ledger = tmp_path / "sweep.csv"
    code, out, err = run_cli(
        capsys, "sweep", "--scenario", "ex4i", "--n", "8", "--m", "8", "--b", "40",
        "--reps", "10", "--phi", "l2", "--seed", "12", "--param", "r",
        "--values", "0,1", "--out", str(ledger), "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert [row["value"] for row in payload["results"]] == [0.0, 1.0]
    # progress counts replications across both points, 10 reps each
    progress = [line for line in err.splitlines() if line.startswith("replication ")]
    assert progress[-1] == "replication 20/20"
    assert not any(line.endswith("/10") for line in progress)


def test_spectrum_cli_eigenvalues_nonincreasing(tmp_path, capsys):
    curves = tmp_path / "null.csv"
    values = np.random.default_rng(3).standard_normal((25, 9))
    np.savetxt(curves, values, delimiter=",")
    code, out, _ = run_cli(
        capsys, "spectrum", "--input", str(curves), "--phi", "l2", "--repr", "coeff",
        "--draws", "2000", "--seed", "8",
    )
    assert code == 0
    blocks = out.strip().split("\n\n")
    assert len(blocks) == 2
    eig_lines = blocks[0].splitlines()
    assert eig_lines[0] == "k,eigenvalue"
    eigs = [float(line.split(",")[1]) for line in eig_lines[1:]]
    assert all(a >= b for a, b in zip(eigs, eigs[1:]))
    quant_lines = blocks[1].splitlines()
    assert quant_lines[0] == "quantile,value"
    quants = [float(line.split(",")[1]) for line in quant_lines[1:]]
    assert all(a <= b for a, b in zip(quants, quants[1:]))


def test_spectrum_grid_length_mismatch_is_data_error(tmp_path, capsys):
    curves = tmp_path / "null.csv"
    np.savetxt(curves, np.random.default_rng(4).standard_normal((10, 7)), delimiter=",")
    grid = tmp_path / "grid.csv"
    grid.write_text(",".join(str(t) for t in np.linspace(0.0, 1.0, 5)) + "\n")
    for command in (["spectrum", "--input", str(curves)], ["test", str(curves), str(curves)]):
        code, _, err = run_cli(capsys, *command, "--grid", str(grid), "--seed", "1")
        assert code == 2
        assert "grid length" in err


def test_random_seed_is_printed_when_omitted(tmp_path, capsys):
    x = tmp_path / "x.csv"
    x.write_text("1,2\n2,3\n")
    code, _, err = run_cli(capsys, "test", str(x), str(x), "--b", "10")
    assert code == 0
    assert "effective seed:" in err


def test_location_alternative_rejects_across_seeds(tmp_path, capsys):
    # strong exponential trend: the test should reject in essentially every run
    rejections = 0
    seeds = range(100)
    x, y = tmp_path / "x.csv", tmp_path / "y.csv"
    for seed in seeds:
        code, _, _ = run_cli(
            capsys, "simulate", "--scenario", "ex4ii", "--r", "1.0", "--count", "50",
            "--seed", str(seed), "--out-x", str(x), "--out-y", str(y),
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, "test", str(x), str(y), "--phi", "l2", "--b", "500",
            "--seed", str(seed),
        )
        assert code == 0
        rejections += json.loads(out)["p_value"] <= 0.05
    assert rejections >= 99
