"""The benchmark's traced run reads work on every layer it reports.

`perfbench/layers.py` wraps package functions by name in their callers'
modules.  A wrapped name that stays importable there but is no longer called
reads 0, and a traced benchmark run then reports that zero as a measurement.
A wrapped name that is gone reads absent, and its metrics go unreported.
This runs a small sweep, `pbftest test` on files with a missing cell and
`pbftest spectrum` under the benchmark's tracer.  It requires no wrapped name
to be absent, every per-layer metric that `BENCHMARK.json` declares to be
reported, and each to be finite and above 0.  It also runs the benchmark's
own output checks on every 10th recorded cycle of each benchmarked
workload, so an output the benchmark would judge incorrect fails here
first.  perfbench and `BENCHMARK.json` are read, not edited.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import layers  # noqa: E402  (perfbench modules, found through the path above)
import workloads  # noqa: E402
from pbftest import PhiKind, ScenarioConfig, cli, run_sweep  # noqa: E402


def test_every_traced_metric_is_positive(tmp_path, capsys):
    rng = np.random.default_rng(5)
    x, y = tmp_path / "x.csv", tmp_path / "y.csv"
    np.savetxt(x, rng.standard_normal((8, 6)), delimiter=",")
    np.savetxt(y, rng.standard_normal((8, 6)) + 0.5, delimiter=",")
    with open(y, "a") as fh:
        fh.write("1,NA,2,3,4,5\n")  # one dropped row
    config = ScenarioConfig(scenario="ex4i", n=6, m=6, B=9, reps=2, phis=tuple(PhiKind), seed=1)
    with layers.install() as tracer:
        run_sweep(config, "r", [0.5])
        assert cli.main(["test", str(x), str(y), "--b", "9", "--seed", "1"]) == 0
        assert cli.main(["spectrum", "--input", str(x), "--draws", "50", "--seed", "1"]) == 0
    assert tracer.absent == []
    reported = layers.metrics(tracer, 1)
    per_layer = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert set(reported) | {"trace.overhead_pct"} == {metric["name"] for metric in per_layer}
    not_positive = {name: v for name, (v, _) in reported.items() if not (math.isfinite(v) and v > 0)}
    assert not not_positive, not_positive


@pytest.mark.parametrize("name", ["power-null-n20", "sweep-alt-n50"])
def test_benchmark_output_checks_pass(name, tmp_path):
    recorded = json.loads((PERFBENCH / "expected.json").read_text())
    session = workloads.Session(
        workloads.WORKLOADS[name], recorded["seed"], tmp_path, recorded["workloads"][name]
    )
    session.warmup()
    # a spread of the recorded cycles, so a change to the last bits of a late
    # cycle's output fails here too; each cycle draws from its own seed
    cycles = range(0, len(recorded["workloads"][name]), 10)
    for k in cycles:
        session.cycle(k)
    session.oracle_checks()
    assert session.stats.failed == 0, session.stats.errors
    assert session.stats.checked_against_record == len(cycles)
