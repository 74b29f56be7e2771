import csv
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from pbftest import (
    DataError,
    PhiKind,
    PowerEstimate,
    ScenarioConfig,
    append_ledger,
    ingest_pair,
    make_sample,
    read_config_file,
    run_power,
    run_single_replication,
    run_subsample_power,
    run_sweep,
)
from pbftest import cli, harness, permutation_test
from pbftest._rng import derive_seed, substream
from pbftest.harness import LEDGER_COLUMNS, power_rows


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(scenario="ex1", n=10, m=10, reps=0)
    with pytest.raises(ValueError):
        ScenarioConfig(scenario="ex1", n=10, m=10, alpha=1.0)
    with pytest.raises(ValueError):
        ScenarioConfig(scenario="ex1", n=0, m=10)
    with pytest.raises(ValueError, match="phi"):
        ScenarioConfig(scenario="ex1", n=10, m=10, phis=())
    with pytest.raises(ValueError, match="B must be at least 1"):
        ScenarioConfig(scenario="ex1", n=10, m=10, B=0)
    with pytest.raises(ValueError, match="d must be at least 1"):
        ScenarioConfig(scenario="ex6i", n=10, m=10, d=0)
    with pytest.raises(ValueError, match="workers must be at least 0"):
        ScenarioConfig(scenario="ex1", n=10, m=10, workers=-2)
    with pytest.raises(ValueError, match="unknown scenario 'ex99'"):
        ScenarioConfig(scenario="ex99", n=10, m=10)
    ScenarioConfig(scenario="EX4i", n=10, m=10)  # any case, as build_scenario
    assert ScenarioConfig(scenario="ex1", n=10, m=10, workers=0).workers == 0  # auto
    cfg = ScenarioConfig(scenario="ex1", n=5, m=5, phis=("l2", "exp"))
    assert cfg.phis == (PhiKind.L2, PhiKind.EXP)
    # a repeated phi is dropped, first order kept
    cfg = ScenarioConfig(scenario="ex1", n=5, m=5, phis=("log", "l2", PhiKind.LOG, "exp", "l2"))
    assert cfg.phis == (PhiKind.LOG, PhiKind.L2, PhiKind.EXP)


def test_single_replication_reproducible():
    cfg = ScenarioConfig(scenario="ex1", n=10, m=10, B=50, reps=5, seed=4242,
                         phis=(PhiKind.L2, PhiKind.EXP))
    first = run_single_replication(cfg, 3)
    again = run_single_replication(cfg, 3)
    assert first == again


def test_run_power_counts_and_worker_invariance():
    base = dict(scenario="ex3", n=12, m=12, B=60, reps=40, seed=99, phis=(PhiKind.L2,))
    serial = run_power(ScenarioConfig(**base, workers=1))[PhiKind.L2]
    parallel = run_power(ScenarioConfig(**base, workers=2))[PhiKind.L2]
    assert serial.rejections == parallel.rejections
    assert serial.reps_done == 40
    assert serial.rejection_rate == serial.rejections / 40
    expected_se = math.sqrt(serial.rejection_rate * (1 - serial.rejection_rate) / 40)
    assert serial.mc_stderr == pytest.approx(expected_se)


def test_run_power_builds_the_scenario_once():
    base = dict(scenario="ex7", n=20, m=20, B=300, reps=30, seed=12, phis=tuple(PhiKind),
                sampled_on_grid=True)
    ScenarioConfig.scenario_obj.cache_clear()
    with mock.patch.object(harness, "build_scenario", wraps=harness.build_scenario) as build:
        serial = run_power(ScenarioConfig(**base, workers=1))
    assert build.call_count == 1
    assert {phi: est.rejections for phi, est in serial.items()} == {"l2": 9, "exp": 3, "log": 4}
    assert run_power(ScenarioConfig(**base, workers=2)) == serial


def test_cli_import_leaves_process_pools_unloaded():
    # only a parallel run_power needs concurrent.futures.process (and multiprocessing)
    code = "import sys, pbftest.cli; print('concurrent.futures.process' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def _blas_threads_seen(index):
    return {harness._get_blas_threads(): True}  # a study counts replications per thread count


def test_studies_and_commands_run_on_one_blas_thread(tmp_path, monkeypatch):
    before = harness._get_blas_threads()
    assert before >= 1  # numpy's OpenBLAS was found, so the cap is not a no-op
    seen = []
    real_test = cli.permutation_test

    def recording_test(*args, **kwargs):
        seen.append(harness._get_blas_threads())
        return real_test(*args, **kwargs)

    monkeypatch.setattr(cli, "permutation_test", recording_test)
    x, y = tmp_path / "x.csv", tmp_path / "y.csv"
    np.savetxt(x, np.random.default_rng(1).standard_normal((6, 5)), delimiter=",")
    np.savetxt(y, np.random.default_rng(2).standard_normal((6, 5)), delimiter=",")
    try:
        harness._set_blas_threads(2)
        for workers in (1, 2):
            counts = harness._study(_blas_threads_seen, 6, (1, 2), workers, None)
            assert {k: est.rejections for k, est in counts.items()} == {1: 6, 2: 0}
            assert harness._get_blas_threads() == 2
        assert cli.main(["test", str(x), str(y), "--b", "19", "--seed", "1"]) == 0
        assert seen == [1]
        assert harness._get_blas_threads() == 2
    finally:
        harness._set_blas_threads(before)


def test_without_numpys_openblas_the_cap_is_a_no_op():
    code = (
        "import ctypes, numpy\n"
        "def gone(*args, **kwargs): raise OSError('not found')\n"
        "ctypes.CDLL = gone\n"
        "from pbftest import ScenarioConfig, harness, run_power\n"
        "with harness._one_blas_thread():\n"
        "    assert harness._get_blas_threads() == 0\n"
        "config = ScenarioConfig(scenario='ex3', n=6, m=6, B=20, reps=4, seed=3, workers=2)\n"
        "print(run_power(config)['l2'].rejections)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    config = ScenarioConfig(scenario="ex3", n=6, m=6, B=20, reps=4, seed=3)
    assert int(out.stdout) == run_power(config)[PhiKind.L2].rejections


def test_run_power_matches_per_replication_decisions():
    cfg = ScenarioConfig(scenario="ex3", n=8, m=8, B=40, reps=12, seed=7, phis=(PhiKind.LOG,))
    expected = sum(run_single_replication(cfg, i)[PhiKind.LOG] for i in range(12))
    got = run_power(cfg)[PhiKind.LOG]
    assert got.rejections == expected


def test_sweep_rows_and_empty_values():
    cfg = ScenarioConfig(scenario="ex4i", n=8, m=8, B=40, reps=10, seed=3,
                         phis=(PhiKind.L2,))
    assert run_sweep(cfg, "r", []) == []
    rows = run_sweep(cfg, "r", [0.0, 1.0])
    assert len(rows) == 2
    for row, value in zip(rows, [0.0, 1.0]):
        assert row["scenario"] == "ex4i"
        assert row["param"] == "r" and row["value"] == value
        assert row["phi"] == "l2" and row["reps"] == 10
        assert 0.0 <= row["rate"] <= 1.0
    assert rows[0]["seed"] != rows[1]["seed"]


def test_sweep_unknown_parameter():
    cfg = ScenarioConfig(scenario="ex4i", n=8, m=8)
    with pytest.raises(ValueError):
        run_sweep(cfg, "gamma", [1.0])
    # integer parameters take integral values only; 9.7 must not run as 9
    for parameter in ("n", "m", "d", "B"):
        with pytest.raises(ValueError, match="integers"):
            run_sweep(cfg, parameter, [10.0, 9.7])


def test_ledger_append(tmp_path):
    path = tmp_path / "ledger.csv"
    cfg = ScenarioConfig(scenario="ex3", n=6, m=6, B=30, reps=5, seed=1, phis=(PhiKind.L2,))
    rows = power_rows(cfg, run_power(cfg))
    append_ledger(path, rows)
    append_ledger(path, rows)
    with open(path, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert tuple(parsed[0]) == LEDGER_COLUMNS
    assert len(parsed) == 3  # header + two appended rows


def test_ingest_pair(tmp_path):
    x = tmp_path / "x.csv"
    y = tmp_path / "y.csv"
    x.write_text("1,2,3\n4,5,6\n")
    y.write_text("7,8,9\n1,,3\n2,2,2\n")
    sample, dropped = ingest_pair(x, y, "coeff")
    assert (sample.n, sample.m) == (2, 2)
    assert dropped == 1
    y.write_text("1,2\n")
    with pytest.raises(DataError):
        ingest_pair(x, y, "coeff")
    # with --header, y's abscissae count as much as x's, in either order
    x.write_text("0,0.5,1\n1,2,3\n")
    y.write_text("0,0.6,1\n4,5,6\n")
    for pair in ((x, y), (y, x)):
        with pytest.raises(DataError, match="different header abscissae"):
            ingest_pair(*pair, "grid", header=True)


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(
        "# level experiment\nscenario=ex1\nn=20\nm = 20\nB=300\nalpha=0.05\n"
        "reps=400\nphi=l2,exp\nseed=11\n"
    )
    settings = read_config_file(path)
    assert settings["scenario"] == "ex1"
    assert settings["n"] == 20 and settings["B"] == 300
    assert settings["phis"] == (PhiKind.L2, PhiKind.EXP)
    # phi= takes the --phi syntax: any case, blank items skipped
    for text, phis in (("L2,exp", (PhiKind.L2, PhiKind.EXP)), ("l2,", (PhiKind.L2,)),
                       (" Log, ,EXP ", (PhiKind.LOG, PhiKind.EXP))):
        path.write_text(f"phi={text}\n")
        assert read_config_file(path) == {"phis": phis}
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery=1\n")
    with pytest.raises(DataError):
        read_config_file(bad)
    malformed = tmp_path / "malformed.cfg"
    malformed.write_text("scenario ex1\n")
    with pytest.raises(DataError):
        read_config_file(malformed)
    flags = tmp_path / "flags.cfg"
    flags.write_text("normalized_cos=Yes\nsampled_on_grid=0\nworkers=2\n")
    assert read_config_file(flags) == {
        "normalized_cos": True, "sampled_on_grid": False, "workers": 2,
    }
    path.write_text("scenario=Ex5II\n")
    assert read_config_file(path)["scenario"].lower() == "ex5ii"
    for text in ("n=abc", "phi=foo", "phi=,", "phi=", "normalized_cos=maybe", "alpha=", "B=3.5",
                 "scenario=ex99", "scenario="):
        bad_value = tmp_path / "bad_value.cfg"
        bad_value.write_text(f"scenario=ex1\n{text}\n")
        with pytest.raises(DataError, match=r"bad_value\.cfg: line 2"):
            read_config_file(bad_value)


def test_subsample_power_stratified(rng, monkeypatch):
    x = rng.standard_normal((30, 4))
    y = rng.standard_normal((20, 4)) + 4.0  # strongly separated groups
    sample = make_sample(x, y, "coeff")
    est = run_subsample_power(sample, pooled_size=20, reps=10, kind=PhiKind.L2,
                              B=99, alpha=0.05, seed=5)
    assert isinstance(est, PowerEstimate)
    assert est.reps_done == 10
    assert est.rejection_rate == 1.0  # separation this large always rejects
    with pytest.raises(ValueError):
        run_subsample_power(sample, pooled_size=80, reps=2, kind=PhiKind.L2)
    # bad arguments fail before any subsample is drawn
    draws = []
    monkeypatch.setattr(harness, "substream", lambda *args: draws.append(args))
    for bad, message in (
        (dict(reps=0), "reps must be at least 1"),
        (dict(alpha=1.5), "alpha must lie strictly between 0 and 1"),
        (dict(alpha=0.0), "alpha must lie strictly between 0 and 1"),
        (dict(pooled_size=1), "pooled_size must be at least 2"),
        (dict(pooled_size=0), "pooled_size must be at least 2"),
    ):
        args = dict(pooled_size=20, reps=2, kind=PhiKind.L2, alpha=0.05) | bad
        with pytest.raises(ValueError, match=message):
            run_subsample_power(sample, **args)
    assert draws == []


def test_subsample_power_matches_hand_loop(rng):
    # pins the seeds: subsample i is drawn from substream(derive_seed(seed, i))
    # and tested with seed derive_seed(seed, 10_000_000 + i)
    x = rng.standard_normal((30, 4))
    y = rng.standard_normal((20, 4))
    counts = []
    for shift in (0.0, 0.6, 1.2):
        sample = make_sample(x, y + shift, "coeff")
        x_idx, y_idx = np.flatnonzero(sample.labels == 0), np.flatnonzero(sample.labels == 1)
        for kind in PhiKind:
            hand = 0
            for i in range(30):
                draw = substream(derive_seed(7, i))
                keep_x = draw.choice(x_idx, size=12, replace=False)  # 20 split 30:20
                keep_y = draw.choice(y_idx, size=8, replace=False)
                sub = make_sample(sample.values[keep_x], sample.values[keep_y], "coeff")
                result = permutation_test(sub, kind, B=49, seed=derive_seed(7, 10_000_000 + i))
                hand += result.p_value <= 0.1
            est = run_subsample_power(sample, pooled_size=20, reps=30, kind=kind,
                                      B=49, alpha=0.1, seed=7)
            assert est.rejections == hand
            counts.append(hand)
    assert len(set(counts)) > 3, counts  # the cells discriminate


def test_null_sweep_levels_match_reported_values():
    # swept null points: ex4(i) at r=0 reported at 0.042, ex5(i) at sigma=1 at 0.05
    cfg4 = ScenarioConfig(scenario="ex4i", n=50, m=50, B=300, reps=400, seed=1204,
                          phis=(PhiKind.L2,), workers=2)
    row4 = run_sweep(cfg4, "r", [0.0])[0]
    assert abs(row4["rate"] - 0.042) <= 3.0 * math.sqrt(0.042 * 0.958 / 400)

    cfg5 = ScenarioConfig(scenario="ex5i", n=50, m=50, B=300, reps=400, seed=1205,
                          phis=(PhiKind.L2,), workers=2)
    row5 = run_sweep(cfg5, "sigma", [1.0])[0]
    assert abs(row5["rate"] - 0.05) <= 3.0 * math.sqrt(0.05 * 0.95 / 400)
