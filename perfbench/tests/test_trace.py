"""Trace arithmetic and layer counts, on toy functions and a tiny instance.

Run with `python3 -m pytest perfbench/tests`.
"""

import sys
import time
import types

import pytest

import layers
from pbftest import cli, curves, harness, permute, simgen
from spans import Tracer


@pytest.fixture
def toy():
    """A module whose functions call each other through module lookups."""
    mod = types.ModuleType("toy_layers")

    def leaf():
        time.sleep(0.002)

    def inner():
        time.sleep(0.001)
        mod.leaf()
        mod.leaf()

    def outer():
        time.sleep(0.001)
        mod.inner()
        mod.outer_again(False)

    def outer_again(recurse):
        time.sleep(0.001)

    mod.leaf, mod.inner, mod.outer, mod.outer_again = leaf, inner, outer, outer_again
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def test_self_time_is_span_minus_children(toy):
    with Tracer() as tracer:
        tracer.wrap("toy_layers.outer", "a")
        tracer.wrap("toy_layers.outer_again", "a")
        tracer.wrap("toy_layers.inner", "b")
        tracer.wrap("toy_layers.leaf", "c")
        toy.outer()
    spans = {s.name.rpartition(".")[2]: s for s in tracer.spans}
    outer, again, inner = spans["outer"], spans["outer_again"], spans["inner"]
    leaves = [s for s in tracer.spans if s.layer == "c"]
    assert len(leaves) == 2 and all(s.parent is inner for s in leaves)
    assert inner.self_s == pytest.approx(inner.duration - sum(s.duration for s in leaves), abs=1e-12)
    assert outer.self_s == pytest.approx(outer.duration - inner.duration - again.duration, abs=1e-12)
    # nested spans of one layer are covered once by busy time, fully by self time
    assert tracer.busy_s("a") == pytest.approx(outer.duration, abs=1e-12)
    assert tracer.self_s("a") == pytest.approx(outer.self_s + again.self_s, abs=1e-12)
    assert 0.0 < inner.self_s < inner.duration


def test_uninstall_restores_and_absent_names_are_listed(toy):
    original = toy.leaf
    with Tracer() as tracer:
        tracer.wrap("toy_layers.leaf", "c")
        tracer.wrap("toy_layers.renamed_away", "c")
        assert toy.leaf is not original
    assert toy.leaf is original
    assert tracer.absent == ["toy_layers.renamed_away"]


def test_metrics_from_an_absent_target_are_left_out(monkeypatch):
    monkeypatch.delattr(permute, "substream")
    with layers.install() as tracer:
        pass
    out = layers.metrics(tracer, 1)
    assert "pbftest.permute.substream" in tracer.absent
    assert "rng.substreams" not in out
    assert out["curves.gram_calls"] == (0.0, "count/cycle")


def test_study_counts_match_tests_and_relabelings():
    B, reps = 7, 3
    config = harness.ScenarioConfig(
        scenario="ex1", n=4, m=3, B=B, reps=reps, phis=("l2", "exp", "log"), seed=5, workers=1
    )
    with layers.install() as tracer:
        harness.run_power(config)
    out = {name: value for name, (value, _) in layers.metrics(tracer, 1).items()}
    tests = reps * 3
    assert out["permute.tests"] == tests
    assert out["curves.gram_calls"] == tests
    assert out["permute.relabelings"] == B * tests
    assert out["rng.substreams"] == B * tests
    assert out["statistic.kernel_calls"] == tests
    assert out["statistic.kernel_rows"] == (B + 1) * tests
    assert out["harness.busy_s"] >= out["harness.self_s"] > 0.0
    assert layers.kernel_shapes(tracer).keys() == {(phi, 7, B + 1) for phi in ("l2", "exp", "log")}


def test_cli_counts_and_dropped_rows(tmp_path, capsys):
    sample = simgen.generate_pair(simgen.build_scenario("ex1"), 5, 4, 3)
    x, y = tmp_path / "x.csv", tmp_path / "y.csv"
    curves.write_curves_csv(x, sample.values[sample.labels == 0])
    curves.write_curves_csv(y, sample.values[sample.labels == 1])
    with open(x, "a") as fh:
        fh.write(",".join(["NA"] * sample.values.shape[1]) + "\n")
    B = 9
    with layers.install() as tracer:
        assert cli.main(["test", str(x), str(y), "--phi", "exp", "--b", str(B), "--seed", "2"]) == 0
    out = {name: value for name, (value, _) in layers.metrics(tracer, 1).items()}
    assert out["curves.gram_calls"] == out["permute.tests"] == 1
    assert out["permute.relabelings"] == B
    assert out["curves.rows_dropped"] == 1
    main = tracer.of("cli")[0]
    children = [s for s in tracer.spans if s.parent is main]
    assert {s.layer for s in children} == {"curves", "permute"}
    assert out["cli.self_s"] == pytest.approx(main.duration - sum(s.duration for s in children), abs=1e-12)
