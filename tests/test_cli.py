import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pbftest
from pbftest import ScenarioConfig
from pbftest.cli import build_parser, main


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


def test_parallel_study_is_warning_free_without_blas_variables(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(pbftest.__file__).resolve().parents[1]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)
    ledgers = []
    for threads in ("2", "1"):
        ledgers.append(tmp_path / f"threads{threads}.csv")
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "pbftest", "power", "--scenario", "ex3",
             "--n", "6", "--m", "6", "--b", "20", "--reps", "4", "--seed", "3",
             "--threads", threads, "--out", str(ledgers[-1])],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Warning" not in proc.stderr
    assert ledgers[0].read_text() == ledgers[1].read_text()


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
    # a --phi list with no names is a usage error that runs nothing
    empty = tmp_path / "empty.csv"
    code, out, err = run_cli(
        capsys, "power", "--scenario", "ex3", "--n", "10", "--m", "10", "--b", "60",
        "--reps", "20", "--phi", ",", "--seed", "6", "--out", str(empty),
    )
    assert code == 1
    assert out == ""
    assert "phi" in err
    assert not empty.exists()


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


def _subcommand(name: str) -> argparse.ArgumentParser:
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return subs.choices[name]


@pytest.mark.parametrize("command", ["power", "sweep"])
@pytest.mark.parametrize("field", [f.name for f in fields(ScenarioConfig)])
def test_every_config_field_is_one_flag(command, field):
    # flags reach ScenarioConfig by dest alone, so each field needs exactly one
    dests = [a.dest for a in _subcommand(command)._actions if a.option_strings]
    assert dests.count(field) == 1


def _mixed_case(name: str):
    return st.tuples(*(st.sampled_from([c.lower(), c.upper()]) for c in name)).map("".join)


@st.composite
def _phi_texts(draw):
    names = draw(st.lists(st.sampled_from(["l2", "exp", "log"]), min_size=1, max_size=3))
    items = [draw(_mixed_case(name)) for name in names]
    blanks = draw(st.lists(st.sampled_from(["", " "]), max_size=2))
    return ",".join(draw(st.permutations(items + blanks)))


# settings a study may omit, each as the text given to its flag and its file key;
# the booleans are bare flags, so only their file spellings vary
_OPTIONAL_SETTINGS = {
    "n": st.sampled_from(["4", "6"]),
    "m": st.sampled_from(["5", "7"]),
    "B": st.sampled_from(["9", "19"]),
    "alpha": st.sampled_from(["0.05", "0.2"]),
    "phis": _phi_texts(),
    "r": st.sampled_from(["0", "0.5"]),
    "sigma": st.sampled_from(["1", "2.5"]),
    "d": st.sampled_from(["3", "5"]),
    "delta": st.sampled_from(["0.25", "1"]),
    "grid_points": st.sampled_from(["11", "21"]),
    "normalized_cos": st.sampled_from(["1", "true", "Yes"]),
    "sampled_on_grid": st.sampled_from(["1", "true", "Yes"]),
    "workers": st.just("1"),
}


def _json_config(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0, err.getvalue()
    return json.loads(out.getvalue())["config"]


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(["ex1", "ex3", "ex4i", "ex6i", "ex7"]),
    st.sampled_from(["1", "2"]),
    st.sets(st.sampled_from(sorted(_OPTIONAL_SETTINGS)), max_size=6).flatmap(
        lambda keys: st.fixed_dictionaries({key: _OPTIONAL_SETTINGS[key] for key in keys})
    ),
)
def test_flags_and_config_file_give_the_same_config(scenario, reps, optional):
    given_settings = dict(optional, scenario=scenario, reps=reps, seed="5")
    flag_of = {a.dest: a.option_strings[0] for a in _subcommand("power")._actions}
    flags, lines = [], []
    for field, text in given_settings.items():
        bare = field in ("normalized_cos", "sampled_on_grid")
        flags += [flag_of[field]] if bare else [flag_of[field], text]
        lines.append(f"{'phi' if field == 'phis' else field}={text}")
    with tempfile.TemporaryDirectory() as tmp:
        cfg, ledger = Path(tmp) / "run.cfg", str(Path(tmp) / "ledger.csv")
        cfg.write_text("\n".join(lines) + "\n")
        from_flags = _json_config(["power", *flags, "--out", ledger, "--json"])
        from_file = _json_config(["power", "--config", str(cfg), "--out", ledger, "--json"])
    assert from_flags == from_file
    if "phis" in optional:
        names = [p.strip().lower() for p in optional["phis"].split(",") if p.strip()]
        assert from_file["phis"] == list(dict.fromkeys(names))  # repeats dropped


def test_malformed_phi_keeps_its_exit_code(tmp_path, capsys):
    # one parser rejects the same lists everywhere: a flag is a usage error
    # (1), a config line a data error (2) naming the line, and nothing runs
    cfg, ledger = tmp_path / "run.cfg", tmp_path / "ledger.csv"
    study = ("--n", "6", "--m", "6", "--b", "19", "--reps", "2", "--seed", "3", "--out", str(ledger))
    x = tmp_path / "x.csv"
    np.savetxt(x, np.random.default_rng(2).standard_normal((6, 4)), delimiter=",")
    for text in ("foo", ",", "l2,cubic"):
        cfg.write_text(f"scenario=ex3\nphi={text}\n")
        code, out, err = run_cli(capsys, "power", "--config", str(cfg), *study)
        assert (code, out) == (2, ""), text
        assert "run.cfg: line 2: bad value for phi" in err
        for argv in (
            ["power", "--scenario", "ex3", *study],
            ["sweep", "--scenario", "ex3", *study, "--param", "n", "--values", "6"],
            ["test", str(x), str(x), "--seed", "1"],
            ["spectrum", "--input", str(x), "--seed", "1"],
        ):
            code, out, err = run_cli(capsys, *argv, "--phi", text)
            assert (code, out) == (1, ""), (text, argv)
            assert "replication" not in err
    for argv in (["test", str(x), str(x)], ["spectrum", "--input", str(x)]):
        code, out, err = run_cli(capsys, *argv, "--phi", "l2,exp", "--seed", "1")
        assert (code, out) == (1, "")
        assert "exactly one phi" in err
    assert not ledger.exists()


def test_sweep_checks_every_point_before_running(tmp_path, capsys):
    # a bad later point exits 1 before point 0 runs or the ledger is touched
    ledger = tmp_path / "sweep.csv"
    for param in ("n", "B"):
        code, out, err = run_cli(
            capsys, "sweep", "--scenario", "ex1", "--n", "10", "--m", "10", "--b", "50",
            "--reps", "20", "--seed", "1", "--param", param, "--values", "10,0",
            "--out", str(ledger),
        )
        assert (code, out) == (1, ""), param
        assert "must be at least 1" in err
        assert "replication" not in err
        assert not ledger.exists()


def test_repeated_phi_runs_once(tmp_path, capsys, monkeypatch):
    # l2 named twice runs one test per replication, as flag and as file key
    tests = []

    def counted(sample, phi, **kwargs):
        tests.append(phi.value)
        return pbftest.permutation_test(sample, phi, **kwargs)

    monkeypatch.setattr(pbftest.harness, "permutation_test", counted)
    cfg, ledger = tmp_path / "run.cfg", tmp_path / "ledger.csv"
    cfg.write_text("scenario=ex3\nn=8\nm=8\nB=20\nreps=2\nseed=1\nphi=l2,L2,exp\n")
    study = ("--scenario", "ex3", "--n", "8", "--m", "8", "--b", "20", "--reps", "2", "--seed", "1")
    for argv in ([*study, "--phi", "l2,L2,exp"], ["--config", str(cfg)]):
        tests.clear()
        code, out, _ = run_cli(capsys, "power", *argv, "--out", str(ledger), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["phis"] == ["l2", "exp"]
        assert [row["phi"] for row in payload["results"]] == ["l2", "exp"]
        assert tests == ["l2", "exp"] * 2


def test_bad_d_or_workers_exits_before_running(tmp_path, capsys):
    # d < 1 and workers < 0 fail when the config is built, flag or file alike:
    # exit 1, no replication run, no ledger
    cfg, ledger = tmp_path / "run.cfg", tmp_path / "ledger.csv"
    study = ("--n", "8", "--m", "8", "--b", "20", "--reps", "20", "--seed", "1", "--out", str(ledger))
    cases = [
        (["sweep", "--scenario", "ex6i", *study, "--param", "d", "--values", "3,0"], None, "d must"),
        (["power", "--scenario", "ex6i", "--d", "0", *study], None, "d must"),
        (["power", "--config", str(cfg), *study], "scenario=ex6i\nd=0\n", "d must"),
        (["power", "--scenario", "ex3", "--threads", "-2", *study], None, "workers must"),
        (["power", "--config", str(cfg), *study], "scenario=ex3\nworkers=-2\n", "workers must"),
        (["sweep", "--config", str(cfg), *study, "--param", "r", "--values", "0"],
         "scenario=ex4i\nworkers=-2\n", "workers must"),
    ]
    for argv, text, message in cases:
        if text is not None:
            cfg.write_text(text)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert message in err and "replication" not in err
        assert not ledger.exists()


@pytest.mark.parametrize("command", ["test", "power", "sweep", "simulate", "spectrum"])
@pytest.mark.parametrize("size", ["10000000000000", "100000000000000000000"])
def test_oversized_count_is_one_error_line(tmp_path, capsys, command, size):
    # B (or --count, --draws) x N array entries above the 47-bit address space:
    # numpy refuses the array before allocating it, and the CLI exits 1 with
    # one error line, no output, no ledger and no curve files
    x, y, ledger = tmp_path / "x.csv", tmp_path / "y.csv", tmp_path / "ledger.csv"
    rng = np.random.default_rng(4)
    np.savetxt(x, rng.standard_normal((8, 5)), delimiter=",")
    np.savetxt(y, rng.standard_normal((8, 5)), delimiter=",")
    study = ("--scenario", "ex1", "--n", "8", "--m", "8", "--reps", "3", "--seed", "1", "--out", str(ledger))
    argv = {
        "test": ["test", str(x), str(y), "--b", size, "--seed", "1"],
        "power": ["power", *study, "--b", size],
        "sweep": ["sweep", *study, "--b", "10", "--param", "B", "--values", size],
        "simulate": ["simulate", "--scenario", "ex1", "--count", size, "--seed", "1",
                     "--out-x", str(ledger), "--out-y", str(ledger)],
        "spectrum": ["spectrum", "--input", str(x), "--draws", size, "--seed", "1"],
    }[command]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.count("error:") == 1 and "Traceback" not in err and "replication" not in err
    assert not ledger.exists()


def test_header_files_must_share_abscissae(tmp_path, capsys):
    # y's header counts as much as x's: a y header that is malformed or on
    # another grid is a data error in either file order
    rng = np.random.default_rng(9)

    def headed(name, header):
        path = tmp_path / name
        body = "\n".join(",".join(f"{v:.6f}" for v in row) for row in rng.standard_normal((8, 4)))
        path.write_text(f"{header}\n{body}\n")
        return str(path)

    x = headed("x.csv", "0,0.25,0.5,1")
    code, _, _ = run_cli(capsys, "test", x, headed("same.csv", "0,0.25,0.5,1"), "--header",
                         "--b", "20", "--seed", "1")
    assert code == 0
    for header in ("0,0.5,0.25,1", "0,0.1,0.2,0.3"):
        y = headed("y.csv", header)
        for pair in ((x, y), (y, x)):
            code, out, err = run_cli(capsys, "test", *pair, "--header", "--b", "20", "--seed", "1")
            assert (code, out) == (2, ""), (header, pair)
            assert "different header abscissae" in err


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
    # a --values list with no numbers is a usage error that runs nothing
    empty = tmp_path / "empty.csv"
    code, out, err = run_cli(
        capsys, "sweep", "--scenario", "ex4i", "--n", "8", "--m", "8", "--b", "40",
        "--reps", "10", "--phi", "l2", "--seed", "12", "--param", "r",
        "--values", ",", "--out", str(empty),
    )
    assert code == 1
    assert out == ""
    assert "replication" not in err
    assert not empty.exists()


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


def test_spectrum_empty_quantile_list_is_usage_error(tmp_path, capsys):
    curves = tmp_path / "null.csv"
    np.savetxt(curves, np.random.default_rng(3).standard_normal((8, 4)), delimiter=",")
    for quantiles in (",", ""):
        code, out, err = run_cli(
            capsys, "spectrum", "--input", str(curves), "--quantiles", quantiles, "--seed", "1"
        )
        assert (code, out) == (1, "")
        assert "--quantiles needs at least one number" in err


def test_spectrum_grid_length_mismatch_is_data_error(tmp_path, capsys):
    curves = tmp_path / "null.csv"
    np.savetxt(curves, np.random.default_rng(4).standard_normal((10, 7)), delimiter=",")
    grid = tmp_path / "grid.csv"
    grid.write_text(",".join(str(t) for t in np.linspace(0.0, 1.0, 5)) + "\n")
    for command in (["spectrum", "--input", str(curves)], ["test", str(curves), str(curves)]):
        code, _, err = run_cli(capsys, *command, "--grid", str(grid), "--seed", "1")
        assert code == 2
        assert "grid length" in err


def test_spectrum_with_too_few_curves_is_data_error(tmp_path, capsys):
    # 2 rows, or 4 rows of which 2 are dropped for NA cells, leave 2 curves
    rows = np.random.default_rng(4).standard_normal((4, 5)).round(6).astype(str)
    rows[1, 2], rows[3, 0] = "NA", ""
    short, holed = tmp_path / "short.csv", tmp_path / "holed.csv"
    short.write_text("\n".join(",".join(row) for row in rows[[0, 2]]) + "\n")
    holed.write_text("\n".join(",".join(row) for row in rows) + "\n")
    for path in (short, holed):
        code, out, err = run_cli(capsys, "spectrum", "--input", str(path), "--seed", "1")
        assert code == 2
        assert out == ""
        assert str(path) in err and "at least 3 curves" in err


def test_malformed_grid_is_data_error(tmp_path, capsys):
    # abscissae that decrease or are not finite, from a --grid file or a
    # --header row, make a malformed file: exit 2, not a usage error
    curves = tmp_path / "null.csv"
    np.savetxt(curves, np.random.default_rng(5).standard_normal((10, 4)), delimiter=",")
    body = curves.read_text()
    for row in ("0,0.5,0.4,1", "0,0.5,inf,1"):
        grid, headed = tmp_path / "grid.csv", tmp_path / "headed.csv"
        grid.write_text(row + "\n")
        headed.write_text(row + "\n" + body)
        for command in (
            ["test", str(curves), str(curves), "--grid", str(grid)],
            ["test", str(headed), str(headed), "--header"],
            ["spectrum", "--input", str(curves), "--grid", str(grid)],
            ["spectrum", "--input", str(headed), "--header"],
        ):
            code, out, err = run_cli(capsys, *command, "--seed", "1")
            assert code == 2, command
            assert out == ""
            assert "data error" in err and "grid points must be" in err


def test_nonfinite_cell_is_data_error(tmp_path, capsys):
    # an inf cell is malformed input: exit 2 naming the file and row, not a
    # usage error from the sample check nor a Gram overflow from spectrum
    x, y = tmp_path / "x.csv", tmp_path / "y.csv"
    np.savetxt(y, np.random.default_rng(8).standard_normal((8, 5)), delimiter=",")
    for token in ("inf", "-inf", "-nan", "1e999"):
        x.write_text(f"1,2,3,4,5\n0,1,0,1,0\n2,{token},1,1,1\n5,4,3,2,1\n")
        for command in (["test", str(x), str(y), "--b", "99"], ["spectrum", "--input", str(x)]):
            code, out, err = run_cli(capsys, *command, "--seed", "1")
            assert code == 2, (token, command)
            assert out == ""
            assert f"data error: {x}: row 3 has a non-finite cell" in err


def test_undecodable_input_is_data_error(tmp_path, capsys):
    # a 0xff byte in a curve file, a --grid file or a config file is bad
    # input: exit 2 naming the file, not a usage error from the codec
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    np.savetxt(good, np.random.default_rng(10).standard_normal((8, 4)), delimiter=",")
    bad.write_bytes(b"1,2,3,\xff\n4,5,6,7\n")
    ledger = tmp_path / "ledger.csv"
    for command in (
        ["test", str(good), str(bad), "--seed", "1"],
        ["spectrum", "--input", str(bad), "--seed", "1"],
        ["test", str(good), str(good), "--grid", str(bad), "--seed", "1"],
        ["power", "--config", str(bad), "--out", str(ledger)],
    ):
        code, out, err = run_cli(capsys, *command)
        assert (code, out) == (2, ""), command
        assert f"data error: cannot decode {bad}" in err
    assert not ledger.exists()


def test_oversized_quoted_cell_is_data_error(tmp_path):
    # csv.reader refuses a cell over its field limit; that is a data error,
    # not a traceback (the limit is process-wide, so it is left as it is)
    x, y = tmp_path / "x.csv", tmp_path / "y.csv"
    x.write_text('"1",2\n3,' + " " * 140_000 + "4\n")
    y.write_text("1,2\n3,4\n")
    env = dict(os.environ, PYTHONPATH=str(Path(pbftest.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "pbftest", "test", str(x), str(y), "--b", "9", "--seed", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert f"data error: {x}: field larger than field limit" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_nonfinite_scenario_parameter_exits_before_running(tmp_path, capsys):
    # r, sigma and delta that are not finite fail when the config is built,
    # flag or file alike: exit 1, no replication run, no ledger
    cfg, ledger = tmp_path / "run.cfg", tmp_path / "ledger.csv"
    study = ("--n", "8", "--m", "8", "--b", "20", "--reps", "40", "--seed", "1", "--out", str(ledger))
    cases = [
        (["sweep", "--scenario", "ex5i", *study, "--param", "sigma", "--values", "2,nan"], None, "sigma"),
        (["power", "--scenario", "ex4i", "--r", "inf", *study], None, "r"),
        (["power", "--config", str(cfg), *study], "scenario=ex8\ndelta=-inf\n", "delta"),
        (["sweep", "--config", str(cfg), *study, "--param", "r", "--values", "0,1"],
         "scenario=ex5i\nsigma=nan\n", "sigma"),
    ]
    for argv, text, name in cases:
        if text is not None:
            cfg.write_text(text)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert f"error: {name} must be finite" in err and "replication" not in err
        assert not ledger.exists()


def test_mixture_rate_out_of_range_exits_before_running(tmp_path, capsys):
    # delta/sqrt(m) outside [0, 1] at any sweep point fails when the points are
    # built, flag or file alike: exit 1, no replication run, no ledger
    cfg, ledger = tmp_path / "run.cfg", tmp_path / "ledger.csv"
    study = ("--n", "8", "--m", "8", "--b", "20", "--reps", "40", "--seed", "1", "--out", str(ledger))
    cases = [
        (["sweep", "--scenario", "ex8", *study, "--param", "delta", "--values", "1,10"], None),
        (["sweep", "--scenario", "ex8", "--delta", "2", *study, "--param", "m", "--values", "8,3"], None),
        (["sweep", "--config", str(cfg), *study, "--param", "delta", "--values", "2,4"], "scenario=ex7\n"),
        (["sweep", "--config", str(cfg), *study, "--param", "m", "--values", "16,4"],
         "scenario=ex9\ndelta=2.5\n"),
    ]
    for argv, text in cases:
        if text is not None:
            cfg.write_text(text)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert "error: mixture rate delta/sqrt(count)" in err and "replication" not in err
        assert not ledger.exists()


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    assert build_parser() is build_parser()
    x, y = tmp_path / "x.csv", tmp_path / "y.csv"
    np.savetxt(x, np.random.default_rng(6).standard_normal((8, 5)), delimiter=",")
    np.savetxt(y, np.random.default_rng(7).standard_normal((8, 5)) + 1.0, delimiter=",")
    test = ("test", str(x), str(y), "--phi", "exp", "--b", "99", "--seed", "3")
    code, first, _ = run_cli(capsys, *test)
    assert code == 0
    code, _, _ = run_cli(capsys, "spectrum", "--input", str(x), "--draws", "100", "--seed", "3")
    assert code == 0
    code, again, _ = run_cli(capsys, *test)
    assert code == 0
    assert again == first


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
