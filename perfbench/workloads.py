"""The benchmark's workloads: inputs, one repeated cycle, and output checks.

Every workload repeats a cycle of operations.  The two study workloads run
one `harness.run_power` / `harness.run_sweep` call per cycle, followed by a
round of the user-facing commands (`pbftest spectrum`, then `pbftest test`
for each phi) on CSV files of the same size.  `test-n400` runs only that
round, at N = 400 (it is run by hand; README.md says why it is not in
BENCHMARK.json).  So every workload measures the same kinds of operation,
at its own N.  Cycle k always uses the same seeds for a given --seed, so a
run can replay its cycles exactly (the traced run does).

Functions of the package are always looked up on their module at call time
(`harness.run_power`, `cli.main`), so the tracer's wrappers see them.
"""

import io
import json
import math
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pbftest import cli, curves, harness, permute, simgen, statistic

PHIS = ("l2", "exp", "log")
SPECTRUM_PHI = "exp"
SPECTRUM_DRAWS = 100_000
ALPHA = 0.05
# Rows with a missing cell appended to the x and y files; ingest drops them.
NA_ROWS = (2, 1)
ORACLE_SAMPLES = 2
ORACLE_GROUP = 20  # N = 40 keeps the O(N^3) pure-Python oracle fast
ORACLE_TOL = 1e-10  # the package's own oracle-equivalence criterion
ZETA_RTOL = 1e-12  # recorded zeta_hat may move by BLAS summation order only


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload; `study` is "power", "sweep" or "" (none)."""

    name: str
    scenario: str
    r: float
    n: int  # curves per group, in the study and in the CSV files
    B: int
    reference_nominal_s: float  # typical reference-job time, 2-core 2.1 GHz Xeon VM
    study: str = ""
    reps: int = 0  # replications per study call (per value, for a sweep)
    values: tuple = ()

    def config(self, seed: int, reps: int) -> harness.ScenarioConfig:
        return harness.ScenarioConfig(
            scenario=self.scenario, n=self.n, m=self.n, B=self.B, alpha=ALPHA,
            reps=reps, phis=PHIS, seed=seed, r=self.r, workers=1,
        )

    def scenario_obj(self):
        return simgen.build_scenario(
            self.scenario, simgen.ScenarioParams(r=self.r), curves.equispaced_grid(101)
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("power-null-n20", "ex1", 1.0, 20, 300, 0.0004, "power", reps=10),
        Workload("sweep-alt-n50", "ex4i", 0.5, 50, 300, 0.0014, "sweep", reps=3, values=(0.5, 1.0)),
        Workload("test-n400", "ex4ii", 0.5, 200, 500, 0.034),
    )
}


def derive(seed: int, *path: int) -> int:
    """A 63-bit seed for one purpose of a run, fixed by (--seed, path)."""
    state = np.random.SeedSequence([seed, *path]).generate_state(1, np.uint64)[0]
    return int(state >> np.uint64(1))


@dataclass
class Stats:
    """What a run measured and how many of its checks failed."""

    samples: dict = field(default_factory=dict)  # "rep", "spectrum", "test.<phi>" -> [seconds]
    busy_s: float = 0.0  # time inside timed operations
    tests: int = 0
    reference_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    checked_against_record: int = 0
    errors: list = field(default_factory=list)

    def record(self, kind: str, seconds: float, tests: int = 0):
        self.samples.setdefault(kind, []).append(seconds)
        self.busy_s += seconds
        self.tests += tests

    def timings(self, speed: float) -> dict:
        """Time metrics as {name: (value, unit)}, times divided by `speed`."""
        rep = np.array(self.samples["rep"]) / speed
        return {
            "tests_per_s": (self.tests / self.busy_s * speed, "1/s"),
            "rep_s_p50": (float(np.median(rep)), "s"),
            "rep_s_p95": (float(np.percentile(rep, 95)), "s"),
            **{
                f"test_s_p50.{phi}": (float(np.median(self.samples[f"test.{phi}"])) / speed, "s")
                for phi in PHIS
            },
            "spectrum_s_p50": (float(np.median(self.samples["spectrum"])) / speed, "s"),
        }


class Session:
    """One workload's inputs plus the operations that run on them."""

    def __init__(self, workload: Workload, seed: int, workdir: Path, expected=None):
        self.w = workload
        self.seed = seed
        self.expected = expected or []
        self.stats = Stats()
        self.x_csv, self.y_csv = self._write_inputs(Path(workdir))
        self._reference_points = np.random.default_rng(0).standard_normal((16, 2 * workload.n))

    def _write_inputs(self, workdir: Path):
        sample = simgen.generate_pair(self.w.scenario_obj(), self.w.n, self.w.n, derive(self.seed, 0))
        paths = []
        for group, (name, extra) in enumerate(zip(("x.csv", "y.csv"), NA_ROWS)):
            path = workdir / name
            values = sample.values[sample.labels == group]
            curves.write_curves_csv(path, values)
            with open(path, "a", newline="") as fh:
                for row in values[:extra]:
                    cells = [f"{v:.17g}" for v in row]
                    cells[1] = "NA"
                    fh.write(",".join(cells) + "\n")
            paths.append(str(path))
        return paths

    # -- checks ------------------------------------------------------------

    def _check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.stats.failed += 1
            if len(self.stats.errors) < 20:
                self.stats.errors.append(what)
        return ok

    def _compare_record(self, k: int, got: dict):
        if k >= len(self.expected):
            return
        want = self.expected[k]
        same = want.keys() == got.keys() and all(
            _same_output(want[key], got[key]) for key in want
        )
        self.stats.checked_against_record += 1
        self._check(same, f"cycle {k}: outputs {got} differ from the record {want}")

    # -- operations ----------------------------------------------------------

    def _reference(self):
        """Time a fixed numpy and Python job that does not touch pbftest.

        It runs before every operation, outside the operation's timer, and
        tracks how fast the machine is at that moment.  It builds a
        phi-distance tensor of the workload's N, so, like the kernels, it is
        in cache at N = 40 and memory-bound at N = 400.
        """
        p = self._reference_points
        start = time.perf_counter()
        np.expm1(-0.5 * (p[:, :, None] - p[:, None, :]) ** 2).sum()
        total = 0
        for i in range(3000):
            total += i * i
        self.stats.reference_s.append(time.perf_counter() - start)

    def _cli(self, argv):
        self._reference()
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return time.perf_counter() - start, code, out.getvalue(), err.getvalue()

    def spectrum_call(self, seed: int):
        """`pbftest spectrum` on the x file; returns (seconds, eigenvalue count)."""
        self.stats.attempted += 1
        argv = ["spectrum", "--input", self.x_csv, "--phi", SPECTRUM_PHI,
                "--draws", str(SPECTRUM_DRAWS), "--seed", str(seed)]
        try:
            seconds, code, out, _ = self._cli(argv)
            eigen, quantiles = _parse_spectrum(out)
        except Exception as exc:  # an operation that raises counts as failed
            self._check(False, f"spectrum raised {exc!r}")
            return None, None
        ok = (
            code == 0
            and eigen.size >= 1
            and bool(np.all(eigen > 0))
            and bool(np.all(np.diff(eigen) <= 0))
            and bool(np.all(np.diff(quantiles) >= 0))
        )
        self._check(ok, f"spectrum: exit {code}, eigenvalues {eigen[:3]}..., quantiles {quantiles}")
        return seconds, int(eigen.size)

    def test_call(self, phi: str, seed: int):
        """`pbftest test` on the x/y files; returns (seconds, [p, zeta_hat])."""
        self.stats.attempted += 1
        argv = ["test", self.x_csv, self.y_csv, "--phi", phi, "--b", str(self.w.B),
                "--seed", str(seed)]
        try:
            seconds, code, out, err = self._cli(argv)
            result = json.loads(out)
            p, zeta = result["p_value"], result["zeta_hat"]
            exceed = p * (self.w.B + 1)
            ok = (
                code == 0
                and result["B"] == self.w.B
                and result["phi"] == phi
                and result["n"] == result["m"] == self.w.n
                and f"dropped {sum(NA_ROWS)} row(s)" in err
                and math.isfinite(zeta)
                and zeta >= 0.0
                and abs(exceed - round(exceed)) < 1e-6
                and 1 <= round(exceed) <= self.w.B + 1
            )
        except Exception as exc:  # an operation that raises counts as failed
            self._check(False, f"test {phi} raised {exc!r}")
            return None, None
        self._check(ok, f"test {phi}: exit {code}, output {out.strip()!r}")
        return seconds, [p, zeta]

    def study_call(self, seed: int, reps: int):
        """One run_power / run_sweep call; returns (rep latencies, rejections)."""
        self.stats.attempted += 1
        self._reference()
        config = self.w.config(seed, reps)
        marks = [time.perf_counter()]

        def progress(done):
            marks.append(time.perf_counter())

        try:
            if self.w.study == "power":
                estimates = harness.run_power(config, progress=progress)
                counts = {phi.value: est.rejections for phi, est in estimates.items()}
                sizes = [est.reps_done for est in estimates.values()]
            else:
                rows = harness.run_sweep(config, "r", list(self.w.values), progress=progress)
                counts = {f"{row['value']}/{row['phi']}": row["rejections"] for row in rows}
                sizes = [row["reps"] for row in rows]
        except Exception as exc:  # an operation that raises counts as failed
            self._check(False, f"{self.w.study} raised {exc!r}")
            return [], None
        points = 1 if self.w.study == "power" else len(self.w.values)
        ok = (
            len(counts) == points * len(PHIS)
            and all(size == reps for size in sizes)
            and all(0 <= c <= reps for c in counts.values())
            and len(marks) == points * reps + 1
        )
        self._check(ok, f"{self.w.study}: rejections {counts}, reps {sizes}")
        return list(np.diff(marks)), counts

    def warmup(self):
        """The first, untimed operation: a one-replication study or a spectrum call."""
        if self.w.study:
            self.study_call(derive(self.seed, 3), reps=1)
        else:
            self.spectrum_call(derive(self.seed, 3))

    def cycle(self, k: int) -> dict:
        """Run cycle k, record its timings, check its outputs; returns them."""
        seed = derive(self.seed, 1, k)
        got = {}
        st = self.stats
        if self.w.study:
            latencies, got["study"] = self.study_call(seed, self.w.reps)
            for seconds in latencies:
                st.record("rep", seconds, tests=len(PHIS))
        round_start = st.busy_s
        seconds, got["spectrum"] = self.spectrum_call(seed)
        if seconds is not None:
            st.record("spectrum", seconds)
        for phi in PHIS:
            seconds, got[phi] = self.test_call(phi, seed)
            if seconds is not None:
                st.record(f"test.{phi}", seconds, tests=1)
        if not self.w.study:  # a "replication" of test-n400 is one CLI round
            st.samples.setdefault("rep", []).append(st.busy_s - round_start)
        self._compare_record(k, got)
        return got

    def oracle_checks(self):
        """Reported statistic against the literal triple-sum oracle, N = 40."""
        scenario = self.w.scenario_obj()
        for i in range(ORACLE_SAMPLES):
            sample = simgen.generate_pair(scenario, ORACLE_GROUP, ORACLE_GROUP, derive(self.seed, 2, i))
            G = curves.gram(sample)
            for phi in PHIS:
                self.stats.attempted += 1
                reported = permute.permutation_test(sample, phi, B=1, seed=i).zeta_hat
                oracle = statistic.pbf_statistic_oracle(G, sample.labels, phi)
                dev = abs(reported - oracle) / (1.0 + abs(oracle))
                self._check(dev <= ORACLE_TOL, f"oracle {phi}: {reported!r} vs {oracle!r}")


def _parse_spectrum(text: str):
    eigen_part, _, quantile_part = text.strip().partition("\n\n")
    eigen = [float(line.split(",")[1]) for line in eigen_part.splitlines()[1:]]
    quantiles = [float(line.split(",")[1]) for line in quantile_part.splitlines()[1:]]
    return np.array(eigen), np.array(quantiles)


def _same_output(want, got) -> bool:
    """Counts and p-values must match exactly; zeta_hat to ZETA_RTOL."""
    if isinstance(want, dict):
        return want == got
    if isinstance(want, list):  # [p_value, zeta_hat]
        return (
            got is not None
            and want[0] == got[0]
            and abs(want[1] - got[1]) <= ZETA_RTOL * abs(want[1])
        )
    return want == got
