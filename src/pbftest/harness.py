"""Level/power studies over scenario grids, plus CSV ingestion.

Replications are independent tasks: each derives its own seed from
(config.seed, replication index), so a single replication can be re-run in
isolation and the aggregate is invariant to execution order or worker
count.
"""

import contextlib
import csv
import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
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
    _read_rows,
    make_sample,
    read_curves_csv,
)
from .permute import permutation_test
from .simgen import Scenario, ScenarioParams, build_scenario, generate_pair
from .statistic import PhiKind

LEDGER_COLUMNS = (
    "scenario", "param", "value", "phi", "reps", "rejections", "rate", "stderr", "seed",
)


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
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        if self.n < 1 or self.m < 1:
            raise ValueError("both group sizes must be at least 1")
        object.__setattr__(self, "phis", tuple(PhiKind(p) for p in self.phis))

    def params(self) -> ScenarioParams:
        return ScenarioParams(r=self.r, sigma=self.sigma, d=self.d, delta=self.delta)

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
    perm_seed = derive_seed(rep_seed, 1)
    out = {}
    for phi in config.phis:
        result = permutation_test(sample, phi, B=config.B, seed=perm_seed)
        out[phi] = result.p_value <= config.alpha
    return out


def _limit_worker_blas():
    try:
        from threadpoolctl import threadpool_limits

        threadpool_limits(1)
    except Exception:
        pass


def run_power(config: ScenarioConfig, progress=None) -> dict:
    """Estimate rejection rates for every phi of a scenario.

    Args:
        config: Experiment description (reps, B, alpha, seeds, parameters).
        progress: Optional callback invoked with the completed-rep count.

    Returns:
        Mapping PhiKind -> PowerEstimate.  Counts are exact sums over
        replications, so results do not depend on worker count.
    """
    workers = config.workers or (os.cpu_count() or 1)
    replicate = functools.partial(run_single_replication, config)
    indices = range(config.reps)
    rejections = {phi: 0 for phi in config.phis}
    with contextlib.ExitStack() as stack:
        if workers > 1 and config.reps > 1:
            pool = stack.enter_context(
                ProcessPoolExecutor(max_workers=workers, initializer=_limit_worker_blas)
            )
            decisions = pool.map(replicate, indices, chunksize=max(1, config.reps // (workers * 8)))
        else:
            decisions = map(replicate, indices)
        for done, decided in enumerate(decisions, start=1):
            for phi, rejected in decided.items():
                rejections[phi] += int(rejected)
            if progress:
                progress(done)
    return {phi: PowerEstimate(phi, rejections[phi], config.reps) for phi in config.phis}


def run_sweep(base: ScenarioConfig, parameter: str, values, progress=None) -> list[dict]:
    """One run_power per parameter value; returns tidy ledger rows.

    Each value gets an independently derived seed, so adding or reordering
    sweep points never changes the others.  Integer parameters (n, m, d, B)
    reject non-integral values instead of truncating them.  `progress` gets
    the replications completed across all points so far, index * reps + done
    during point `index`, ending at len(values) * reps.
    """
    if parameter not in ("r", "sigma", "d", "delta", "n", "m", "B"):
        raise ValueError(f"unknown sweep parameter {parameter!r}")
    cast = _FIELD_TYPES[parameter]
    values = list(values)  # checked before any point runs, then iterated
    for value in values:
        if cast is int and not float(value).is_integer():
            raise ValueError(f"sweep parameter {parameter} takes integers, got {value!r}")
    rows = []
    for index, value in enumerate(values):
        bound = replace(
            base, seed=derive_seed(base.seed, 1000 + index), **{parameter: cast(value)}
        )
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
    runs the permutation test on it.
    """
    n_total, m_total = sample.n, sample.m
    N = n_total + m_total
    n_sub = int(round(pooled_size * n_total / N))
    n_sub = min(max(n_sub, 1), pooled_size - 1)
    m_sub = pooled_size - n_sub
    if n_sub > n_total or m_sub > m_total:
        raise ValueError("pooled_size too large for the available groups")
    x_idx = np.flatnonzero(sample.labels == 0)
    y_idx = np.flatnonzero(sample.labels == 1)
    rejections = 0
    for i in range(reps):
        rng = substream(derive_seed(seed, i))
        keep_x = rng.choice(x_idx, size=n_sub, replace=False)
        keep_y = rng.choice(y_idx, size=m_sub, replace=False)
        sub = make_sample(
            sample.values[keep_x], sample.values[keep_y], sample.kind, sample.grid
        )
        result = permutation_test(sub, kind, B=B, seed=derive_seed(seed, 10_000_000 + i))
        rejections += int(result.p_value <= alpha)
    return PowerEstimate(PhiKind(kind), rejections, reps)


def ingest_csv(
    path,
    repr_kind: str = GRID,
    grid: GridSpec | None = None,
    header: bool = False,
) -> tuple[FunctionalSample, int]:
    """Ingest a labeled curve CSV into a two-group sample.

    The first column of every row is the group tag; the two distinct tags
    define the groups in order of first appearance.  Rows with missing value
    cells are dropped and counted.

    Returns:
        (sample, dropped_row_count).
    """
    values, tags, abscissae, dropped = _read_rows(path, header, tagged=True)
    distinct = list(dict.fromkeys(tags))
    if len(distinct) != 2:
        raise DataError(f"{path}: expected exactly 2 group tags, found {distinct}")
    labels = np.array([distinct.index(tag) for tag in tags], dtype=np.int8)
    sample_grid = _resolve_grid(repr_kind, grid, abscissae, values.shape[1])
    sample = FunctionalSample(values, labels, repr_kind, sample_grid)
    return sample, dropped


def ingest_pair(
    x_path,
    y_path,
    repr_kind: str = GRID,
    grid: GridSpec | None = None,
    header: bool = False,
) -> tuple[FunctionalSample, int]:
    """Ingest two unlabeled curve CSVs as groups X and Y.

    Returns:
        (sample, dropped_row_count) with drops summed over both files.
    """
    x_values, x_abs, x_dropped = read_curves_csv(x_path, header)
    y_values, y_abs, y_dropped = read_curves_csv(y_path, header)
    if x_values.shape[1] != y_values.shape[1]:
        raise DataError("the two files have different curve lengths")
    sample_grid = _resolve_grid(
        repr_kind, grid, x_abs if x_abs is not None else y_abs, x_values.shape[1]
    )
    sample = make_sample(x_values, y_values, repr_kind, sample_grid)
    return sample, x_dropped + y_dropped


def _resolve_grid(repr_kind, grid, abscissae, width) -> GridSpec | None:
    if repr_kind == COEFF:
        return None
    if grid is not None:
        spec = grid
    elif abscissae is not None:
        spec = GridSpec(abscissae)
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


def read_config_file(path) -> dict:
    """Parse a flat key=value scenario config file.

    Lines are `key=value`; blank lines and `#` comments are skipped.  Keys
    are the `ScenarioConfig` fields, typed as declared there, except that
    `phi` takes a comma-separated list in place of `phis`.  A value that does
    not parse raises DataError naming the file and line.  CLI flags override
    these values.
    """
    out = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
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
                out["phis"] = tuple(PhiKind(p.strip()) for p in value.split(","))
            elif key in _FIELD_TYPES and key != "phis":
                cast = _FIELD_TYPES[key]
                out[key] = _parse_bool(value) if cast is bool else cast(value)
            else:
                raise DataError(f"{path}: unknown config key {key!r}")
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: bad value for {key}: {exc}") from exc
    return out
