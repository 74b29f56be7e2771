"""Which package functions the traced run wraps, and the per-layer metrics.

Each target is the name a caller looks up, in the caller's module: harness
calls `permutation_test` through `pbftest.harness`, the CLI through
`pbftest.cli`, and `permutation_test` calls `gram` and `batch_statistics`
through `pbftest.permute`.  The layers are the package's modules.
"""

import functools
import inspect

from spans import Tracer

PHIS = ("l2", "exp", "log")


@functools.lru_cache(maxsize=None)
def _signature(fn):
    return inspect.signature(fn)


def _kernel_shape(span, fn, args, kwargs, result):
    bound = _signature(fn).bind(*args, **kwargs).arguments
    kind = bound["kind"]
    span.attrs.update(
        phi=getattr(kind, "value", kind), N=bound["entries"].shape[0], L=len(result)
    )


def _dropped(index):
    def annotate(span, fn, args, kwargs, result):
        span.attrs["dropped"] = int(result[index])

    return annotate


def _eigen_count(span, fn, args, kwargs, result):
    span.attrs["eigenvalues"] = int(result.eigenvalues.size)


# (target, layer, annotate)
TARGETS = (
    ("pbftest.harness.run_sweep", "harness", None),
    ("pbftest.harness.run_power", "harness", None),
    ("pbftest.harness.run_single_replication", "harness", None),
    ("pbftest.harness.generate_pair", "simgen", None),
    ("pbftest.harness.permutation_test", "permute", None),
    ("pbftest.cli.main", "cli", None),
    ("pbftest.cli.ingest_pair", "curves", _dropped(1)),
    ("pbftest.cli.read_curves_csv", "curves", _dropped(2)),
    ("pbftest.cli.permutation_test", "permute", None),
    ("pbftest.cli.spectrum_estimate", "spectrum", _eigen_count),
    ("pbftest.cli.sample_limit_law", "spectrum", None),
    ("pbftest.permute.gram", "curves", None),
    ("pbftest.permute.batch_statistics", "statistic", _kernel_shape),
)
# (target, counter): calls counted without a span; these are too frequent
# and too short to time one by one.
COUNTED = (("pbftest.permute.substream", "rng.substreams"),)

GRAM = "pbftest.permute.gram"
KERNEL = "pbftest.permute.batch_statistics"
INGEST = ("pbftest.cli.ingest_pair", "pbftest.cli.read_curves_csv")
ESTIMATE = "pbftest.cli.spectrum_estimate"
DRAWS = "pbftest.cli.sample_limit_law"
_HARNESS = tuple(t for t, layer, _ in TARGETS if layer == "harness")
_PERMUTE = tuple(t for t, layer, _ in TARGETS if layer == "permute")


def install() -> Tracer:
    """A tracer with every target wrapped; uninstall it (or use `with`) after."""
    tracer = Tracer()
    for target, layer, annotate in TARGETS:
        tracer.wrap(target, layer, annotate)
    for target, counter in COUNTED:
        tracer.count(target, counter)
    return tracer


def _named(tracer, *names):
    return [s for s in tracer.spans if s.name in names]


def _seconds(tracer, *names):
    return sum(s.duration for s in _named(tracer, *names))


def _kernel(tracer, phi=None):
    spans = [s for s in _named(tracer, KERNEL) if "phi" in s.attrs]  # calls that returned
    return [s for s in spans if phi is None or s.attrs["phi"] == phi]


def _relabelings(tracer):
    in_tests = [s for s in _kernel(tracer) if s.parent is not None and s.parent.layer == "permute"]
    return sum(s.attrs["L"] for s in in_tests) - len(tracer.of("permute"))


# (name, unit, targets it is computed from, total over the traced cycles)
PER_CYCLE = (
    ("harness.busy_s", "s/cycle", _HARNESS, lambda t: t.busy_s("harness")),
    ("harness.self_s", "s/cycle", _HARNESS, lambda t: t.self_s("harness")),
    ("simgen.generate_s", "s/cycle", ("pbftest.harness.generate_pair",), lambda t: t.busy_s("simgen")),
    ("permute.busy_s", "s/cycle", _PERMUTE, lambda t: t.busy_s("permute")),
    ("permute.self_s", "s/cycle", _PERMUTE + (GRAM, KERNEL), lambda t: t.self_s("permute")),
    ("permute.tests", "count/cycle", _PERMUTE, lambda t: len(t.of("permute"))),
    ("permute.relabelings", "count/cycle", _PERMUTE + (KERNEL,), _relabelings),
    ("rng.substreams", "count/cycle", ("pbftest.permute.substream",), lambda t: t.counts["rng.substreams"]),
    ("curves.gram_s", "s/cycle", (GRAM,), lambda t: _seconds(t, GRAM)),
    ("curves.gram_calls", "count/cycle", (GRAM,), lambda t: len(_named(t, GRAM))),
    ("curves.ingest_s", "s/cycle", INGEST, lambda t: _seconds(t, *INGEST)),
    ("curves.rows_dropped", "count/cycle", INGEST, lambda t: sum(s.attrs.get("dropped", 0) for s in _named(t, *INGEST))),
    *(
        (f"statistic.kernel_s.{phi}", "s/cycle", (KERNEL,), lambda t, phi=phi: sum(s.duration for s in _kernel(t, phi)))
        for phi in PHIS
    ),
    ("statistic.kernel_calls", "count/cycle", (KERNEL,), lambda t: len(_kernel(t))),
    ("statistic.kernel_rows", "count/cycle", (KERNEL,), lambda t: sum(s.attrs["L"] for s in _kernel(t))),
    ("spectrum.estimate_s", "s/cycle", (ESTIMATE,), lambda t: _seconds(t, ESTIMATE)),
    ("spectrum.draws_s", "s/cycle", (DRAWS,), lambda t: _seconds(t, DRAWS)),
    ("spectrum.eigenvalues", "count/cycle", (ESTIMATE,), lambda t: sum(s.attrs.get("eigenvalues", 0) for s in _named(t, ESTIMATE))),
    ("cli.busy_s", "s/cycle", ("pbftest.cli.main",), lambda t: t.busy_s("cli")),
    ("cli.self_s", "s/cycle", ("pbftest.cli.main",), lambda t: t.self_s("cli")),
)


def kernel_ms(tracer, phi):
    """Mean milliseconds per kernel call for phi, or None without calls."""
    spans = _kernel(tracer, phi)
    return 1000.0 * sum(s.duration for s in spans) / len(spans) if spans else None


def kernel_shapes(tracer) -> dict:
    """(phi, N, L) -> (calls, seconds): the kernel time tagged by shape."""
    out = {}
    for s in _kernel(tracer):
        key = (s.attrs["phi"], s.attrs["N"], s.attrs["L"])
        calls, seconds = out.get(key, (0, 0.0))
        out[key] = (calls + 1, seconds + s.duration)
    return out


def metrics(tracer, cycles: int) -> dict:
    """Per-layer metrics as {name: (value, unit)}.

    Totals are divided by the number of traced cycles.  A metric computed
    from a target that no longer exists is left out, not reported as zero.
    """
    absent = set(tracer.absent)
    out = {}
    for name, unit, targets, total in PER_CYCLE:
        if not absent.intersection(targets):
            out[name] = (total(tracer) / cycles, unit)
    if KERNEL not in absent:
        for phi in PHIS:
            ms = kernel_ms(tracer, phi)
            if ms is not None:
                out[f"statistic.kernel_ms.{phi}"] = (ms, "ms/call")
    return out
