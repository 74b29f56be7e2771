"""Functional observations and their pairwise inner products.

Curves are either sampled on a shared grid (inner products by the
trapezoid rule over [a, b]) or given by coefficients in a shared
orthonormal basis (inner products are exact dot products).  The Gram matrix of the pooled sample and
the group labels are all the test statistic needs.
"""

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

GRID = "grid"
COEFF = "coeff"


class DataError(Exception):
    """Raised when an input file or ingested payload is unusable."""


class NumericalError(Exception):
    """Raised when a numerical routine fails to converge or overflows."""


# Incremented by gram(); lets tests assert how many Gram computations a
# calibration run performed.
_gram_calls = 0


def gram_call_count() -> int:
    return _gram_calls


@dataclass(frozen=True)
class GridSpec:
    """Shared abscissae of grid-sampled curves; inner products use the trapezoid rule."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1:
            raise ValueError("grid points must be a one-dimensional array")
        if pts.size < 2:
            raise ValueError("trapezoid needs at least 2 grid points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("grid points must be finite")
        if not np.all(np.diff(pts) > 0):
            raise ValueError("grid points must be strictly increasing")

    def weights(self) -> np.ndarray:
        """Trapezoid weights w with <a, b> = sum_j w_j a_j b_j."""
        t = self.points
        w = np.zeros_like(t)
        w[0] = (t[1] - t[0]) / 2.0
        w[-1] = (t[-1] - t[-2]) / 2.0
        if t.size > 2:
            w[1:-1] = (t[2:] - t[:-2]) / 2.0
        return w


def equispaced_grid(points: int = 101) -> GridSpec:
    """Default simulation grid: equispaced points on [0, 1]."""
    return GridSpec(np.linspace(0.0, 1.0, points))


@dataclass(frozen=True)
class FunctionalSample:
    """Pooled two-group sample of curves sharing one representation.

    `values` has one row per curve; `labels` holds 0 for the first group
    (size n) and 1 for the second (size m).
    """

    values: np.ndarray
    labels: np.ndarray
    kind: str = GRID
    grid: GridSpec | None = None
    n: int = field(init=False)
    m: int = field(init=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 2:
            raise ValueError("sample values must be a 2-d array (curves in rows)")
        labs, n, m = _group_sizes(self.labels)
        if labs.size != vals.shape[0]:
            raise ValueError("labels must have one entry per curve")
        if not np.all(np.isfinite(vals)):
            raise ValueError("curve values must be finite (no NaN/Inf)")
        if self.kind not in (GRID, COEFF):
            raise ValueError(f"unknown representation {self.kind!r}")
        if self.kind == GRID:
            if self.grid is None:
                raise ValueError("grid representation requires a GridSpec")
            if self.grid.points.size != vals.shape[1]:
                raise ValueError("grid length does not match curve length")
        object.__setattr__(self, "labels", np.asarray(labs, dtype=np.int8))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)

    @property
    def size(self) -> int:
        return self.values.shape[0]


def _group_sizes(labels) -> tuple[np.ndarray, int, int]:
    """(labels, n, m) for a 1-d 0/1 labeling with both groups non-empty; raises otherwise."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError("labels must be one-dimensional")
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError("labels must be 0 (first group) or 1 (second group)")
    n = int(np.sum(labels == 0))
    m = labels.size - n
    if n < 1 or m < 1:
        raise ValueError("both groups must be non-empty")
    return labels, n, m


def _as_gram(G) -> np.ndarray:
    """A Gram matrix passed in from outside, as a contiguous float array; raises unless square."""
    entries = np.ascontiguousarray(G, dtype=float)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError("Gram matrix must be square")
    return entries


def make_sample(x_values, y_values, kind: str = GRID, grid: GridSpec | None = None) -> FunctionalSample:
    """Assemble a FunctionalSample from the two groups' value arrays."""
    x = np.atleast_2d(np.asarray(x_values, dtype=float))
    y = np.atleast_2d(np.asarray(y_values, dtype=float))
    if x.shape[1] != y.shape[1]:
        raise ValueError("the two groups must share the curve dimension")
    labels = np.concatenate([np.zeros(x.shape[0], np.int8), np.ones(y.shape[0], np.int8)])
    return FunctionalSample(np.vstack([x, y]), labels, kind, grid)


def gram_entries(values: np.ndarray, kind: str = GRID, grid: GridSpec | None = None) -> np.ndarray:
    """N x N matrix of pairwise inner products of the rows of `values`.

    The lower triangle is mirrored from the upper one, so the result is
    symmetric bit-for-bit.  Raises NumericalError when an inner product
    overflows.
    """
    values = np.asarray(values, dtype=float)
    if kind == COEFF:
        weighted = values
    else:
        if grid is None:
            raise ValueError("grid representation requires a GridSpec")
        if grid.points.size != values.shape[1]:
            raise ValueError("grid length does not match curve length")
        weighted = values * grid.weights()
    with np.errstate(over="ignore", invalid="ignore"):  # the finite check reports it
        g = values @ weighted.T
    if not np.all(np.isfinite(g)):
        raise NumericalError("Gram matrix is not finite (inner products overflow)")
    upper = np.triu(g)
    return upper + np.triu(g, 1).T


def gram(sample: FunctionalSample) -> np.ndarray:
    """N x N Gram matrix of the pooled sample: with the labels, all the statistic needs."""
    global _gram_calls
    _gram_calls += 1
    return gram_entries(sample.values, sample.kind, sample.grid)


_MISSING_TOKENS = {"", "na", "nan"}


def read_curves_csv(path, header: bool = False):
    """Read a wide-format curve CSV: one row per curve, one column per point.

    Rows containing a missing cell (empty, NA, NaN) are dropped and counted,
    mirroring how incomplete subjects are handled in real datasets.

    Args:
        path: CSV file path.
        header: When true, the first row holds the grid abscissae.

    Returns:
        (values, abscissae, dropped): the kept curves as a 2-d array, the
        header abscissae (or None), and the dropped-row count.

    Raises:
        DataError: on unreadable or undecodable files, malformed CSV,
            inconsistent column counts, non-numeric or non-finite cells, or
            zero usable rows.
    """
    return _read_rows(path, header)


def _read_rows(path, header: bool, finite: bool = True):
    """`read_curves_csv`, except that a false `finite` keeps non-finite cells.

    Lines end at `\\n` (less a `\\r` before it) and cells at `,`, as csv.reader
    splits them, unless a quote, a NUL or another `\\r` sends the text to
    csv.reader.  Not splitlines(): csv keeps `\\x0b`, `\\x85`, ... in a cell.
    """
    try:
        with open(path, newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot decode {path}: {exc}") from exc
    lines = [line[:-1] if line.endswith("\r") else line for line in text.split("\n")]
    if '"' in text or "\0" in text or any("\r" in line for line in lines):
        try:  # e.g. a cell over csv.field_size_limit(), which is process-wide
            rows = [row for row in csv.reader(io.StringIO(text, newline="")) if row]
        except csv.Error as exc:
            raise DataError(f"{path}: {exc}") from exc
    else:
        rows = [line.split(",") for line in lines if line]
    if not rows:
        raise DataError(f"{path}: file contains no rows")

    abscissae = None
    if header:
        try:
            abscissae = np.array([float(cell) for cell in rows[0]], dtype=float)
        except ValueError as exc:
            raise DataError(f"{path}: header row is not numeric") from exc
        rows = rows[1:]
        if not rows:
            raise DataError(f"{path}: no data rows after header")

    width = len(rows[0])
    kept, dropped = [], 0
    for lineno, row in enumerate(rows, start=1):
        if len(row) != width:
            raise DataError(f"{path}: row {lineno} has {len(row)} columns, expected {width}")
        try:  # float() strips the same whitespace that str.strip() does
            values = list(map(float, row))
        except ValueError:
            values = None
        if values is None or not math.isfinite(sum(values)):  # any inf/NaN cell, or overflow
            if any(cell.strip().lower() in _MISSING_TOKENS for cell in row):
                dropped += 1
                continue
            if values is None:
                raise DataError(f"{path}: row {lineno} has a non-numeric cell")
            if finite and not all(map(math.isfinite, values)):
                raise DataError(f"{path}: row {lineno} has a non-finite cell")
        kept.append(values)
    if not kept:
        raise DataError(f"{path}: no usable rows (dropped {dropped})")
    if abscissae is not None and abscissae.size != width:
        raise DataError(f"{path}: header length does not match data width")
    return np.array(kept, dtype=float), abscissae, dropped


def write_curves_csv(path, values: np.ndarray, abscissae: np.ndarray | None = None) -> None:
    """Write curves in the wide CSV format (optionally with an abscissae header)."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if abscissae is not None:
            writer.writerow([f"{t:.17g}" for t in np.asarray(abscissae, dtype=float)])
        for row in values:
            writer.writerow([f"{v:.17g}" for v in row])
