"""pbftest benchmark: one workload per call, result as JSON on the last line.

    python3 perfbench/run.py --workload power-null-n20 --seed 1 --seconds 45 --trace 0

Runs in one process, with BLAS pinned to one thread before numpy is
imported and `workers=1`, against the package under `src/` of the checkout
it sits in.  `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
same cycles untraced and then traced, and prints the per-layer metrics and
the tracing overhead.  Earlier stdout lines give the environment, sample
counts, the error rate and the kernel time per (phi, N, L).
`--record` rewrites `expected.json`, the outputs the checks compare against
for RECORDED_SEED.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from importlib.util import find_spec
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the BLAS thread pin)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
RECORDED_SEED = 1
SETUP_SAMPLES = 5
# Cycles recorded per workload: about twice what a 45 s run reaches on a
# 2-core x86-64 VM; later cycles are checked by invariants only.
RECORD_CYCLES = {"power-null-n20": 160, "sweep-alt-n50": 80, "test-n400": 12}


def _import_package():
    if not (SRC / "pbftest" / "__init__.py").is_file():
        sys.exit(f"error: no package at {SRC / 'pbftest'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import pbftest

    if Path(pbftest.__file__).resolve().parent != SRC / "pbftest":
        sys.exit(f"error: imported pbftest from {pbftest.__file__}, not {SRC}")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, run the first operation and exit (times setup_s)")
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json for the recorded seed")
    return parser.parse_args(argv)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "numpy": np.__version__,
        "python": platform.python_version(),
        "threadpoolctl": find_spec("threadpoolctl") is not None,
        "commit": _git_commit(),
    }


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _expected(workload: str, seed: int):
    if seed != RECORDED_SEED or not EXPECTED.is_file():
        return None
    return json.loads(EXPECTED.read_text())["workloads"].get(workload)


def _run_for(session, seconds: float):
    """Run cycles 0, 1, ... until `seconds` have passed (at least one); returns (count, wall)."""
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        session.cycle(k)
        k += 1
    return k, time.perf_counter() - start


def _replay(session, cycles: int) -> float:
    """Run cycles 0 .. cycles-1 again; returns their wall time."""
    start = time.perf_counter()
    for k in range(cycles):
        session.cycle(k)
    return time.perf_counter() - start


def _setup_s(args) -> float:
    """Median wall time of fresh processes that import, set up and run the first operation."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        # no timeout: Popen.wait(timeout) polls every 50 ms and would quantise the time
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            check=True, stdout=subprocess.DEVNULL, cwd=ROOT,
        )
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def end_to_end(session, cycles, wall, setup_s) -> dict:
    """End-to-end metrics, with times scaled to the host's nominal speed.

    A shared host's speed drifts by 10-20% over tens of seconds (see
    README.md).  `speed` is the run's median reference-job time over the
    workload's nominal one; times are divided by it and the rate is
    multiplied by it.  The raw values are printed too.  setup_s, timed in
    other processes, is not scaled.
    """
    st = session.stats
    nominal = session.w.reference_nominal_s
    speed = statistics.median(st.reference_s) / nominal
    metrics = st.timings(speed)
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    print(f"# cycles {cycles} in {wall:.3f} s; samples: "
          + ", ".join(f"{kind} {len(v)}" for kind, v in st.samples.items())
          + f", setup {SETUP_SAMPLES}, reference {len(st.reference_s)}")
    print(f"# speed {speed:.4f}: reference job {1000.0 * speed * nominal:.4f} ms, "
          f"nominal {1000.0 * nominal:.4f} ms")
    for name, (value, unit) in st.timings(1.0).items():
        print(f"# raw {name} {value:.6g} {unit}")
    return metrics


def per_layer(layers, tracer, cycles, untraced_s, traced_s) -> dict:
    metrics = layers.metrics(tracer, cycles)
    metrics["trace.overhead_pct"] = (100.0 * (traced_s / untraced_s - 1.0), "%")
    print(f"# traced {cycles} cycles: untraced {untraced_s:.3f} s, traced {traced_s:.3f} s")
    for (phi, N, L), (calls, seconds) in sorted(layers.kernel_shapes(tracer).items()):
        print(f"# kernel {phi} N={N} L={L}: {calls} calls, {1000.0 * seconds / calls:.3f} ms/call")
    for target in tracer.absent:
        print(f"# absent: {target} (metrics computed from it are left out)")
    return metrics


def record():
    import workloads

    out = {"seed": RECORDED_SEED, "environment": environment(), "workloads": {}}
    for name, cycles in RECORD_CYCLES.items():
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
            session = workloads.Session(workloads.WORKLOADS[name], RECORDED_SEED, Path(workdir))
            out["workloads"][name] = [session.cycle(k) for k in range(cycles)]
            if session.stats.failed:
                sys.exit(f"error: {name} failed its checks: {session.stats.errors}")
        print(f"recorded {cycles} cycles of {name}", file=sys.stderr)
    EXPECTED.write_text(json.dumps(out, indent=1) + "\n")


def main(argv=None) -> int:
    args = _parse(argv)
    _import_package()
    import layers
    import workloads

    if args.record:
        record()
        return 0
    if args.seed is None:
        sys.exit("error: --seed is required")
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    setup_s = None if args.setup_probe or args.trace else _setup_s(args)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        session = workloads.Session(workload, args.seed, Path(workdir), _expected(workload.name, args.seed))
        session.warmup()
        if args.setup_probe:
            return 1 if session.stats.failed else 0
        if args.trace:
            cycles, untraced_s = _run_for(session, args.seconds / 2)
            with layers.install() as tracer:
                traced_s = _replay(session, cycles)
        else:
            cycles, wall = _run_for(session, args.seconds)
        session.oracle_checks()

    print("# environment " + json.dumps(environment()))
    if args.trace:
        metrics = per_layer(layers, tracer, cycles, untraced_s, traced_s)
    else:
        metrics = end_to_end(session, cycles, wall, setup_s)
    st = session.stats
    print(f"# {st.failed} of {st.attempted} operations and checks failed; "
          f"cycles compared with the record: {st.checked_against_record}")
    for error in st.errors:
        print(f"# failed: {error}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    # not in the JSON metrics, where a metric must never be 0; the same
    # ratio is "failed" / "attempted" there
    print(f"error_rate {st.failed / st.attempted:.6g} ratio")
    print(json.dumps({
        "correct": st.failed == 0,
        "attempted": st.attempted,
        "failed": st.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
