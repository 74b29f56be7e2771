import csv
import math

import numpy as np
import pytest

from pbftest import (
    DataError,
    PhiKind,
    PowerEstimate,
    ScenarioConfig,
    append_ledger,
    ingest_csv,
    ingest_pair,
    make_sample,
    read_config_file,
    run_power,
    run_single_replication,
    run_subsample_power,
    run_sweep,
)
from pbftest.harness import LEDGER_COLUMNS, power_rows


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(scenario="ex1", n=10, m=10, reps=0)
    with pytest.raises(ValueError):
        ScenarioConfig(scenario="ex1", n=10, m=10, alpha=1.0)
    with pytest.raises(ValueError):
        ScenarioConfig(scenario="ex1", n=0, m=10)
    cfg = ScenarioConfig(scenario="ex1", n=5, m=5, phis=("l2", "exp"))
    assert cfg.phis == (PhiKind.L2, PhiKind.EXP)


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


def test_ingest_csv_label_column(tmp_path):
    path = tmp_path / "labeled.csv"
    path.write_text("a,1,2,3\nb,4,,6\na,7,8,9\nb,1,1,1\n")
    sample, dropped = ingest_csv(path, "grid")
    assert dropped == 1
    assert (sample.n, sample.m) == (2, 1)
    assert sample.grid.points.size == 3


def test_ingest_csv_header_width(tmp_path):
    path = tmp_path / "dti_like.csv"
    abscissae = ",".join(str(v) for v in np.linspace(0, 1, 93))
    row = ",".join("0.5" for _ in range(93))
    path.write_text(f"x,{abscissae}\nms,{row}\nhc,{row}\nms,{row}\n")
    sample, dropped = ingest_csv(path, "grid", header=True)
    assert sample.grid.points.size == 93
    assert sample.values.shape == (3, 93)
    assert dropped == 0


def test_ingest_csv_errors(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,1,2\nb,3\n")
    with pytest.raises(DataError):
        ingest_csv(ragged, "grid")
    one_tag = tmp_path / "one_tag.csv"
    one_tag.write_text("a,1,2\na,3,4\n")
    with pytest.raises(DataError):
        ingest_csv(one_tag, "grid")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DataError):
        ingest_csv(empty, "grid")
    header_only = tmp_path / "header_only.csv"
    header_only.write_text("x,0,0.5,1\n")
    with pytest.raises(DataError, match="no data rows after header"):
        ingest_csv(header_only, "grid", header=True)


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
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery=1\n")
    with pytest.raises(DataError):
        read_config_file(bad)
    malformed = tmp_path / "malformed.cfg"
    malformed.write_text("scenario ex1\n")
    with pytest.raises(DataError):
        read_config_file(malformed)


def test_subsample_power_stratified(rng):
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
