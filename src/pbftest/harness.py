"""Level/power studies over scenario grids, plus CSV ingestion.

Replications are independent tasks: each derives its own seed from
(config.seed, replication index), so a single replication can be re-run in
isolation and the aggregate is invariant to execution order or worker
count.
"""

import contextlib
import csv
import ctypes
import functools
import math
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from ._rng import derive_seed, substream
from .curves import (
    COEFF,
    GRID,
    DataError,
    FunctionalSample,
    GridSpec,
    equispaced_grid,
    make_sample,
    read_curves_csv,
)
from .permute import permutation_test
from .simgen import MIXTURE_IDS, Scenario, ScenarioParams, build_scenario, check_scenario_id
from .simgen import generate_pair, mixture_rate
from .statistic import PhiKind

LEDGER_COLUMNS = (
    "scenario", "param", "value", "phi", "reps", "rejections", "rate", "stderr", "seed",
)


def _check_reps_alpha(reps: int, alpha: float) -> None:
    if reps < 1:
        raise ValueError("reps must be at least 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")


@dataclass(frozen=True)
class ScenarioConfig:
    """Declarative description of one simulation experiment."""

    scenario: str
    n: int
    m: int
    B: int = 300
    alpha: float = 0.05
    reps: int = 400
    phis: tuple = (PhiKind.L2,)
    seed: int = 0
    r: float = 1.0
    sigma: float = 2.0
    d: int = 81
    delta: float = 1.0
    grid_points: int = 101
    normalized_cos: bool = False
    sampled_on_grid: bool = False
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "scenario", check_scenario_id(self.scenario))  # one id per scenario
        _check_reps_alpha(self.reps, self.alpha)
        if self.B < 1:
            raise ValueError("B must be at least 1")
        if self.n < 1 or self.m < 1:
            raise ValueError("both group sizes must be at least 1")
        if self.d < 1:
            raise ValueError("d must be at least 1")
        for name in ("r", "sigma", "delta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.scenario in MIXTURE_IDS:
            mixture_rate(self.delta, self.m)  # so a sweep fails before its first point runs
        if self.workers < 0:
            raise ValueError("workers must be at least 0 (0 uses every core)")
        # a phi named twice would run its test twice per replication
        object.__setattr__(self, "phis", tuple(dict.fromkeys(map(PhiKind, self.phis))))
        if not self.phis:
            raise ValueError("at least one phi is required")

    def params(self) -> ScenarioParams:
        return ScenarioParams(r=self.r, sigma=self.sigma, d=self.d, delta=self.delta)

    @functools.lru_cache(maxsize=8)  # once per study and process, not per replication
    def scenario_obj(self) -> Scenario:
        return build_scenario(
            self.scenario,
            self.params(),
            equispaced_grid(self.grid_points),
            self.normalized_cos,
            self.sampled_on_grid,
        )


_FIELD_TYPES = {field.name: field.type for field in fields(ScenarioConfig)}


@dataclass(frozen=True)
class PowerEstimate:
    """Rejection-rate estimate for one (scenario, phi) cell."""

    phi: PhiKind
    rejections: int
    reps_done: int

    @property
    def rejection_rate(self) -> float:
        return self.rejections / self.reps_done

    @property
    def mc_stderr(self) -> float:
        p = self.rejection_rate
        return math.sqrt(p * (1.0 - p) / self.reps_done)


def run_single_replication(config: ScenarioConfig, rep_index: int) -> dict:
    """One replication: fresh sample, one permutation test per phi.

    Deterministic in (config.seed, rep_index); re-running any index in
    isolation reproduces its decisions bit-for-bit.
    """
    rep_seed = derive_seed(config.seed, rep_index)
    sample = generate_pair(config.scenario_obj(), config.n, config.m, derive_seed(rep_seed, 0))
    return _decisions(sample, config.phis, config.B, config.alpha, derive_seed(rep_seed, 1))


def _decisions(sample: FunctionalSample, phis: tuple, B: int, alpha: float, seed: int) -> dict:
    """Per phi, whether the permutation test rejects at level alpha (p <= alpha)."""
    return {phi: permutation_test(sample, phi, B=B, seed=seed).p_value <= alpha for phi in phis}


try:  # numpy's bundled OpenBLAS; dlsym also searches the extension's dependencies
    _blas = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    _get_blas_threads = ctypes.CFUNCTYPE(ctypes.c_int)(("scipy_openblas_get_num_threads64_", _blas))
    _set_blas_threads = ctypes.CFUNCTYPE(None, ctypes.c_int)(("scipy_openblas_set_num_threads64_", _blas))
except (AttributeError, OSError):  # another BLAS keeps its own thread count
    _get_blas_threads, _set_blas_threads = (lambda: 0), (lambda count: None)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one BLAS thread (every kernel GEMM is small), then restore the count."""
    before = _get_blas_threads()
    _set_blas_threads(1)
    try:
        yield
    finally:
        _set_blas_threads(before)


def _one_worker_blas_thread():
    _set_blas_threads(1)  # a forked worker inherits the count, a spawned one would not


def _study(replicate, reps: int, phis: tuple, workers: int, progress) -> dict:
    """Sum the decisions of replications 0..reps-1 into a PowerEstimate per phi.

    `replicate` maps an index to {phi: rejected}.  With more than one worker
    (0 means one per core) it runs in a process pool, so it must pickle.
    """
    workers = workers or (os.cpu_count() or 1)
    rejections = dict.fromkeys(phis, 0)
    with _one_blas_thread(), contextlib.ExitStack() as stack:
        if workers > 1 and reps > 1:
            from concurrent.futures import ProcessPoolExecutor  # spares serial runs its import

            pool = stack.enter_context(
                ProcessPoolExecutor(max_workers=workers, initializer=_one_worker_blas_thread)
            )
            decisions = pool.map(replicate, range(reps), chunksize=max(1, reps // (workers * 8)))
        else:
            decisions = map(replicate, range(reps))
        for done, decided in enumerate(decisions, start=1):
            for phi, rejected in decided.items():
                rejections[phi] += int(rejected)
            if progress:
                progress(done)
    return {phi: PowerEstimate(phi, rejections[phi], reps) for phi in phis}


def run_power(config: ScenarioConfig, progress=None) -> dict:
    """Estimate rejection rates for every phi of a scenario.

    Args:
        config: Experiment description (reps, B, alpha, seeds, parameters).
        progress: Optional callback invoked with the completed-rep count.

    Returns:
        Mapping PhiKind -> PowerEstimate.  Counts are exact sums over
        replications, so results do not depend on worker count.
    """
    replicate = functools.partial(run_single_replication, config)
    return _study(replicate, config.reps, config.phis, config.workers, progress)


def run_sweep(base: ScenarioConfig, parameter: str, values, progress=None) -> list[dict]:
    """One run_power per parameter value; returns tidy ledger rows.

    Each value gets an independently derived seed, so adding or reordering
    sweep points never changes the others.  Integer parameters (n, m, d, B)
    reject non-integral values instead of truncating them, and every point is
    validated before the first one runs.  `progress` gets the replications
    completed across all points so far, index * reps + done during point
    `index`, ending at len(values) * reps.
    """
    if parameter not in ("r", "sigma", "d", "delta", "n", "m", "B"):
        raise ValueError(f"unknown sweep parameter {parameter!r}")
    cast = _FIELD_TYPES[parameter]
    points = []
    for index, value in enumerate(values):
        if cast is int and not float(value).is_integer():
            raise ValueError(f"sweep parameter {parameter} takes integers, got {value!r}")
        seed = derive_seed(base.seed, 1000 + index)
        points.append((value, replace(base, seed=seed, **{parameter: cast(value)})))
    rows = []
    for index, (value, bound) in enumerate(points):
        offset = index * base.reps  # read only while this point runs
        tick = (lambda done: progress(offset + done)) if progress else None
        estimates = run_power(bound, progress=tick)
        rows += [dict(row, param=parameter, value=value) for row in power_rows(bound, estimates)]
    return rows


def power_rows(config: ScenarioConfig, estimates: dict) -> list[dict]:
    """Ledger rows for a plain (non-sweep) power run."""
    return [
        {
            "scenario": config.scenario,
            "param": "",
            "value": "",
            "phi": phi.value,
            "reps": est.reps_done,
            "rejections": est.rejections,
            "rate": est.rejection_rate,
            "stderr": est.mc_stderr,
            "seed": config.seed,
        }
        for phi, est in estimates.items()
    ]


def append_ledger(path, rows: list[dict]) -> None:
    """Append result rows to the CSV ledger, writing the header once."""
    new_file = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=LEDGER_COLUMNS)
        if new_file:
            writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _subsample_replication(sample, n_sub, m_sub, phis, B, alpha, seed, index) -> dict:
    """Replication `index` of run_subsample_power: a stratified subsample and its decisions."""
    rng = substream(derive_seed(seed, index))
    keep_x = rng.choice(np.flatnonzero(sample.labels == 0), size=n_sub, replace=False)
    keep_y = rng.choice(np.flatnonzero(sample.labels == 1), size=m_sub, replace=False)
    sub = make_sample(sample.values[keep_x], sample.values[keep_y], sample.kind, sample.grid)
    return _decisions(sub, phis, B, alpha, derive_seed(seed, 10_000_000 + index))


def run_subsample_power(
    sample: FunctionalSample,
    pooled_size: int,
    reps: int,
    kind: PhiKind,
    B: int = 300,
    alpha: float = 0.05,
    seed: int = 0,
) -> PowerEstimate:
    """Power over stratified subsamples of a fixed dataset.

    Each replication draws, without replacement, a subsample of the given
    pooled size whose group split preserves the original proportions, then
    runs the permutation test on it.  Raises ValueError for reps < 1, alpha
    outside (0, 1), pooled_size < 2, or a group too small for its share.
    """
    _check_reps_alpha(reps, alpha)
    if pooled_size < 2:
        raise ValueError("pooled_size must be at least 2")
    phis = (PhiKind(kind),)
    n_sub = round(pooled_size * sample.n / (sample.n + sample.m))
    n_sub = min(max(n_sub, 1), pooled_size - 1)
    m_sub = pooled_size - n_sub
    if n_sub > sample.n or m_sub > sample.m:
        raise ValueError("pooled_size too large for the available groups")
    replicate = functools.partial(_subsample_replication, sample, n_sub, m_sub, phis, B, alpha, seed)
    return _study(replicate, reps, phis, 1, None)[phis[0]]


def ingest_pair(
    x_path,
    y_path,
    repr_kind: str = GRID,
    grid: GridSpec | None = None,
    header: bool = False,
) -> tuple[FunctionalSample, int]:
    """Ingest two unlabeled curve CSVs as groups X and Y.

    With `header`, both files must carry the same abscissae (else DataError),
    so the result does not depend on which file is X.

    Returns:
        (sample, dropped_row_count) with drops summed over both files.
    """
    x_values, x_abs, x_dropped = read_curves_csv(x_path, header)
    y_values, y_abs, y_dropped = read_curves_csv(y_path, header)
    if x_values.shape[1] != y_values.shape[1]:
        raise DataError("the two files have different curve lengths")
    if header and not np.array_equal(x_abs, y_abs, equal_nan=True):
        raise DataError(f"{x_path} and {y_path} have different header abscissae")
    sample_grid = _resolve_grid(repr_kind, grid, x_abs, x_values.shape[1])
    sample = make_sample(x_values, y_values, repr_kind, sample_grid)
    return sample, x_dropped + y_dropped


def _resolve_grid(repr_kind, grid, abscissae, width) -> GridSpec | None:
    if repr_kind == COEFF:
        return None
    if grid is not None:
        spec = grid
    elif abscissae is not None:
        try:
            spec = GridSpec(abscissae)
        except ValueError as exc:
            raise DataError(f"header abscissae: {exc}") from exc
    else:
        spec = equispaced_grid(width)
    if spec.points.size != width:
        raise DataError("grid length does not match the curve length")
    return spec


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOLEANS[text.lower()]
    except KeyError:
        raise ValueError(f"expected one of {', '.join(_BOOLEANS)}, got {text!r}") from None


def parse_phi_list(text: str) -> tuple:
    """Comma list of phi names: case-insensitive, blank items skipped, at least one."""
    names = [p.strip().lower() for p in text.split(",") if p.strip()]
    if not names or not set(names) <= {phi.value for phi in PhiKind}:
        raise ValueError(f"unknown phi in {text!r} (a comma list of l2, exp, log)")
    return tuple(map(PhiKind, names))


def read_config_file(path) -> dict:
    """Parse a flat key=value scenario config file.

    Lines are `key=value`; blank lines and `#` comments are skipped.  Keys
    are the `ScenarioConfig` fields, typed as declared there, except that
    `phi` takes a comma list in place of `phis`, parsed by `parse_phi_list`
    as the `--phi` flag is.  A value that does not parse raises DataError
    naming the file and line.  CLI flags override these values.
    """
    out = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot decode {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}: line {lineno} is not key=value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        try:
            if key == "phi":
                out["phis"] = parse_phi_list(value)
            elif key in _FIELD_TYPES and key != "phis":
                cast = check_scenario_id if key == "scenario" else _FIELD_TYPES[key]
                out[key] = _parse_bool(value) if cast is bool else cast(value)
            else:
                raise DataError(f"{path}: unknown config key {key!r}")
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: bad value for {key}: {exc}") from exc
    return out
