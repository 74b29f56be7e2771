"""Functional observations and their pairwise inner products.

Curves are either sampled on a shared grid (inner products by quadrature
over [a, b]) or given by coefficients in a shared orthonormal basis (inner
products are exact dot products).  The Gram matrix of the pooled sample is
the only input the test statistic ever needs.
"""

import csv
from dataclasses import dataclass

import numpy as np

GRID = "grid"
COEFF = "coeff"

TRAPEZOID = "trapezoid"
RIEMANN_LEFT = "riemann-left"

_QUADRATURES = (TRAPEZOID, RIEMANN_LEFT)


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
    """Shared abscissae and quadrature rule for grid-sampled curves."""

    points: np.ndarray
    quadrature: str = TRAPEZOID

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1:
            raise ValueError("grid points must be a one-dimensional array")
        if self.quadrature not in _QUADRATURES:
            raise ValueError(f"unknown quadrature rule {self.quadrature!r}")
        min_len = 2 if self.quadrature == TRAPEZOID else 1
        if pts.size < min_len:
            raise ValueError(f"{self.quadrature} needs at least {min_len} grid points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("grid points must be finite")
        if pts.size > 1 and not np.all(np.diff(pts) > 0):
            raise ValueError("grid points must be strictly increasing")

    def weights(self) -> np.ndarray:
        """Quadrature weights w with <a, b> = sum_j w_j a_j b_j."""
        t = self.points
        w = np.zeros_like(t)
        if self.quadrature == TRAPEZOID:
            w[0] = (t[1] - t[0]) / 2.0
            w[-1] = (t[-1] - t[-2]) / 2.0
            if t.size > 2:
                w[1:-1] = (t[2:] - t[:-2]) / 2.0
        else:
            if t.size > 1:
                w[:-1] = np.diff(t)
        return w


def equispaced_grid(points: int = 101, quadrature: str = TRAPEZOID) -> GridSpec:
    """Default simulation grid: equispaced points on [0, 1]."""
    return GridSpec(np.linspace(0.0, 1.0, points), quadrature)


@dataclass(frozen=True)
class Curve:
    """One functional observation: grid values or basis coefficients."""

    values: np.ndarray
    kind: str = GRID

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1:
            raise ValueError("curve values must be one-dimensional")
        if self.kind not in (GRID, COEFF):
            raise ValueError(f"unknown representation {self.kind!r}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("curve values must be finite (no NaN/Inf)")


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

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        labs = np.asarray(self.labels, dtype=np.int8)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "labels", labs)
        if vals.ndim != 2:
            raise ValueError("sample values must be a 2-d array (curves in rows)")
        if labs.shape != (vals.shape[0],):
            raise ValueError("labels must have one entry per curve")
        if not np.all((labs == 0) | (labs == 1)):
            raise ValueError("labels must be 0 (first group) or 1 (second group)")
        if not np.all(np.isfinite(vals)):
            raise ValueError("curve values must be finite (no NaN/Inf)")
        if self.kind not in (GRID, COEFF):
            raise ValueError(f"unknown representation {self.kind!r}")
        if self.kind == GRID:
            if self.grid is None:
                raise ValueError("grid representation requires a GridSpec")
            if self.grid.points.size != vals.shape[1]:
                raise ValueError("grid length does not match curve length")
        n = int(np.sum(labs == 0))
        m = int(np.sum(labs == 1))
        if n < 1 or m < 1:
            raise ValueError("both groups must be non-empty")

    @property
    def n(self) -> int:
        return int(np.sum(self.labels == 0))

    @property
    def m(self) -> int:
        return int(np.sum(self.labels == 1))

    @property
    def size(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class GramMatrix:
    """All pairwise inner products of the pooled sample, plus group sizes."""

    entries: np.ndarray
    n: int
    m: int

    def __post_init__(self):
        ent = np.ascontiguousarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", ent)
        if ent.ndim != 2 or ent.shape[0] != ent.shape[1]:
            raise ValueError("Gram matrix must be square")
        if self.n + self.m != ent.shape[0]:
            raise ValueError("group sizes must sum to the matrix dimension")
        if self.n < 1 or self.m < 1:
            raise ValueError("both groups must be non-empty")

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def make_sample(x_values, y_values, kind: str = GRID, grid: GridSpec | None = None) -> FunctionalSample:
    """Assemble a FunctionalSample from the two groups' value arrays."""
    x = np.atleast_2d(np.asarray(x_values, dtype=float))
    y = np.atleast_2d(np.asarray(y_values, dtype=float))
    if x.shape[1] != y.shape[1]:
        raise ValueError("the two groups must share the curve dimension")
    labels = np.concatenate([np.zeros(x.shape[0], np.int8), np.ones(y.shape[0], np.int8)])
    return FunctionalSample(np.vstack([x, y]), labels, kind, grid)


def inner_product(a: Curve, b: Curve, grid: GridSpec | None = None) -> float:
    """Inner product of two curves.

    Coefficient curves use the exact dot product (orthonormal basis); grid
    curves use the grid's quadrature rule to approximate the L2 integral.

    Args:
        a: First curve.
        b: Second curve; must share `a`'s representation and dimension.
        grid: Required for grid curves, rejected for coefficient curves.

    Returns:
        The (approximate) inner product <a, b>.
    """
    if a.kind != b.kind:
        raise ValueError("curves must share the same representation kind")
    if a.values.size != b.values.size:
        raise ValueError("curves must share the same dimension")
    if a.kind == COEFF:
        if grid is not None:
            raise ValueError("coefficient curves take no grid")
        return float(np.dot(a.values, b.values))
    if grid is None:
        raise ValueError("grid curves require a GridSpec")
    if grid.points.size != a.values.size:
        raise ValueError("grid length does not match curve length")
    return float(np.dot(a.values * grid.weights(), b.values))


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
    g = values @ weighted.T
    if not np.all(np.isfinite(g)):
        raise NumericalError("Gram matrix is not finite (inner products overflow)")
    upper = np.triu(g)
    return upper + np.triu(g, 1).T


def gram(sample: FunctionalSample) -> GramMatrix:
    """Gram matrix of the pooled sample; the statistic's sole input."""
    global _gram_calls
    _gram_calls += 1
    entries = gram_entries(sample.values, sample.kind, sample.grid)
    return GramMatrix(entries, sample.n, sample.m)


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
        DataError: on unreadable files, inconsistent column counts,
            non-numeric cells, or zero usable rows.
    """
    values, _, abscissae, dropped = _read_rows(path, header, tagged=False)
    return values, abscissae, dropped


def _read_rows(path, header: bool, tagged: bool):
    """Parse a curve CSV, optionally with a leading group-tag column.

    Returns (values, tags, abscissae, dropped); `tags` holds the first cell
    of each kept row.  A header cell over the tag column is ignored.
    """
    try:
        with open(path, newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: file contains no rows")
    skip = 1 if tagged else 0

    abscissae = None
    if header:
        try:
            abscissae = np.array([float(cell) for cell in rows[0][skip:]], dtype=float)
        except ValueError as exc:
            raise DataError(f"{path}: header row is not numeric") from exc
        rows = rows[1:]
        if not rows:
            raise DataError(f"{path}: no data rows after header")

    width = len(rows[0])
    if width <= skip:
        raise DataError(f"{path}: labeled rows need a tag plus at least one value")
    kept, tags, dropped = [], [], 0
    for lineno, row in enumerate(rows, start=1):
        if len(row) != width:
            raise DataError(f"{path}: row {lineno} has {len(row)} columns, expected {width}")
        cells = [cell.strip() for cell in row]
        if any(cell.lower() in _MISSING_TOKENS for cell in cells[skip:]):
            dropped += 1
            continue
        try:
            kept.append([float(cell) for cell in cells[skip:]])
        except ValueError as exc:
            raise DataError(f"{path}: row {lineno} has a non-numeric cell") from exc
        tags.append(cells[0])
    if not kept:
        raise DataError(f"{path}: no usable rows (dropped {dropped})")
    if abscissae is not None and abscissae.size != width - skip:
        raise DataError(f"{path}: header length does not match data width")
    return np.array(kept, dtype=float), tags, abscissae, dropped


def write_curves_csv(path, values: np.ndarray, abscissae: np.ndarray | None = None) -> None:
    """Write curves in the wide CSV format (optionally with an abscissae header)."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if abscissae is not None:
            writer.writerow([f"{t:.17g}" for t in np.asarray(abscissae, dtype=float)])
        for row in values:
            writer.writerow([f"{v:.17g}" for v in row])
