"""Synthetic functional samples for the level/power experiments.

Wiener-path families are produced on a shared grid (cumulative Gaussian
increments); all basis families are produced directly as coefficients in a
shared orthonormal system, so their Gram entries are exact.  Each generator
is deterministic given its seed.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._rng import derive_seed, substream
from .curves import COEFF, GRID, FunctionalSample, GridSpec, equispaced_grid, make_sample

# the trends mu(t) of gen_shifted_wiener, by name
_MU_FUNCS = {
    "linear": lambda t: t,
    "quadratic": lambda t: t**2,
    "exponential": np.exp,
}


def gen_wiener(count: int, grid: GridSpec, seed: int) -> np.ndarray:
    """Standard Wiener paths on [0, 1]: zero at t=0, N(0, dt) increments."""
    t = grid.points
    dt = np.diff(t)
    if t[0] != 0.0 or not np.allclose(dt, dt[0], rtol=1e-9, atol=1e-12):
        raise ValueError("Wiener paths need an equispaced grid starting at 0")
    steps = np.sqrt(dt) * substream(seed).standard_normal((count, t.size - 1))
    values = np.zeros((count, t.size))
    np.cumsum(steps, axis=1, out=values[:, 1:])
    return values


def gen_shifted_wiener(count: int, mu_kind: str, r: float, grid: GridSpec, seed: int) -> np.ndarray:
    """Wiener paths plus the deterministic trend r * mu(t)."""
    if mu_kind not in _MU_FUNCS:
        raise ValueError(f"unknown mean shift {mu_kind!r}")
    values = gen_wiener(count, grid, seed)
    return values + r * _MU_FUNCS[mu_kind](grid.points)


def _draw(dist, rng: np.random.Generator, shape) -> np.ndarray:
    """Draw from a ("normal", mean, sd) / ("cauchy", scale) / ("t", df) spec."""
    name = dist[0]
    if name == "normal":
        _, mean, sd = dist
        return mean + sd * rng.standard_normal(shape)
    if name == "cauchy":
        # inverse-CDF construction from the uniform stream
        _, scale = dist
        return scale * np.tan(np.pi * (rng.random(shape) - 0.5))
    if name == "t":
        _, df = dist
        z = rng.standard_normal(shape)
        v = rng.chisquare(df, shape)
        return z / np.sqrt(v / df)
    raise ValueError(f"unknown coefficient distribution {name!r}")


def gen_basis(count: int, weights, dist, seed: int) -> np.ndarray:
    """Coefficient curves c_i = w_i * draw_i in an orthonormal basis."""
    weights = np.asarray(weights, dtype=float)
    if weights.size == 0:
        raise ValueError("weights must be non-empty")
    rng = substream(seed)
    return weights * _draw(dist, rng, (count, weights.size))


def gen_sincos(
    count: int,
    d: int,
    side: str,
    dist,
    seed: int,
    normalized_cos: bool = False,
) -> np.ndarray:
    """Coefficient curves in the joint sin/cos frame of dimension 2d.

    Sine-side curves live on coordinates 0..d-1 (orthonormal sqrt(2)*sin
    basis functions, weight 1/sqrt(d)); cosine-side curves live on
    coordinates d..2d-1.  The cosine family is generated from the literal
    cos(2*pi*i*t) functions of norm 1/sqrt(2) unless `normalized_cos` asks
    for the orthonormal sqrt(2)-scaled variant.  Cross inner products
    between the two sides are exactly zero.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    if side not in ("sin", "cos"):
        raise ValueError(f"unknown side {side!r}")
    rng = substream(seed)
    draws = _draw(dist, rng, (count, d))
    values = np.zeros((count, 2 * d))
    if side == "sin":
        values[:, :d] = draws / math.sqrt(d)
    else:
        scale = 1.0 if normalized_cos else 1.0 / math.sqrt(2.0)
        values[:, d:] = scale * draws / math.sqrt(d)
    return values


def mixture_rate(delta: float, count: int) -> float:
    """Contaminant probability delta / sqrt(count); ValueError outside [0, 1]."""
    rate = delta / math.sqrt(count)
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"mixture rate delta/sqrt(count) = {rate:.4g} outside [0, 1]")
    return rate


def gen_mixture(count: int, base_fn, contaminant_fn, delta: float, seed: int) -> np.ndarray:
    """Contiguous mixture: each curve is a contaminant draw with probability
    delta / sqrt(count), otherwise a base draw.

    `base_fn` and `contaminant_fn` map (count, seed) to value arrays of the
    same shape.
    """
    rate = mixture_rate(delta, count)
    base = base_fn(count, derive_seed(seed, 1))
    contaminant = contaminant_fn(count, derive_seed(seed, 2))
    if base.shape != contaminant.shape:
        raise ValueError("mixture components must share shape")
    mask = substream(seed).random(count) < rate
    return np.where(mask[:, None], contaminant, base)


# Example 3/5/8/9 coefficient weights: 1/i^2.5 on the 9 leading basis
# functions of the trigonometric system (indexing is irrelevant to Gram
# values; only the weights matter).
BASIS_WEIGHTS = 1.0 / np.arange(1, 10, dtype=float) ** 2.5


def trig_basis_on_grid(dim: int, t: np.ndarray) -> np.ndarray:
    """First `dim` orthonormal trigonometric basis functions sampled at t.

    Ordering: 1, sqrt(2) cos(2 pi t), sqrt(2) sin(2 pi t), sqrt(2) cos(4 pi t), ...
    """
    rows = np.empty((dim, t.size))
    rows[0] = 1.0
    for k in range(1, dim):
        freq = 2.0 * np.pi * ((k + 1) // 2) * t
        rows[k] = np.sqrt(2.0) * (np.cos(freq) if k % 2 == 1 else np.sin(freq))
    return rows


def sincos_frame_on_grid(d: int, t: np.ndarray) -> np.ndarray:
    """Orthonormal sin/cos frame of gen_sincos sampled at t (2d rows)."""
    freqs = 2.0 * np.pi * np.outer(np.arange(1, d + 1), t)
    return np.vstack([np.sqrt(2.0) * np.sin(freqs), np.sqrt(2.0) * np.cos(freqs)])


@dataclass(frozen=True)
class ScenarioParams:
    """Free parameters of the simulation scenarios."""

    r: float = 1.0
    sigma: float = 2.0
    d: int = 81
    delta: float = 1.0


SCENARIO_IDS = (
    "ex1", "ex2", "ex3", "ex4i", "ex4ii", "ex5i", "ex5ii",
    "ex6i", "ex6ii", "ex7", "ex8", "ex9",
)
# their second group is a contiguous mixture, drawn by gen_mixture
MIXTURE_IDS = ("ex7", "ex8", "ex9")


def check_scenario_id(scenario_id: str) -> str:
    """The id in lower case if it names a scenario, in any case; ValueError otherwise."""
    if scenario_id.lower() not in SCENARIO_IDS:
        raise ValueError(f"unknown scenario {scenario_id!r} (one of {', '.join(SCENARIO_IDS)})")
    return scenario_id.lower()


@dataclass(frozen=True)
class Scenario:
    """How to draw the two groups of one experiment."""

    kind: str  # curve representation of both groups
    x_fn: object
    y_fn: object
    grid: GridSpec | None = None


def build_scenario(
    scenario_id: str,
    params: ScenarioParams | None = None,
    grid: GridSpec | None = None,
    normalized_cos: bool = False,
    sampled_on_grid: bool = False,
) -> Scenario:
    """Bind a scenario id (one of SCENARIO_IDS, any case) and its parameters
    to concrete generators; README's scenario table describes each id.

    `sampled_on_grid` renders the basis scenarios as grid curves instead of
    exact coefficients.  High-frequency modes then alias on the simulation
    grid (e.g. d = 81 on 101 points), which matters for power at weak
    alternatives; the published operating characteristics for the sine/cosine
    mixtures correspond to this discretized evaluation.
    """
    params = params or ScenarioParams()
    grid = grid or equispaced_grid()
    sid = check_scenario_id(scenario_id)

    if sid in ("ex1", "ex2", "ex4i", "ex4ii"):
        def wiener(count, seed):
            return gen_wiener(count, grid, seed)

        def shifted(mu_kind, r):
            return lambda count, seed: gen_shifted_wiener(count, mu_kind, r, grid, seed)

        if sid == "ex1":
            return Scenario(GRID, wiener, wiener, grid)
        if sid == "ex2":
            trend = shifted("linear", 1.0)
            return Scenario(GRID, trend, trend, grid)
        mu_kind = "quadratic" if sid == "ex4i" else "exponential"
        return Scenario(GRID, wiener, shifted(mu_kind, params.r), grid)

    def sincos(side, dist):
        return lambda count, seed: gen_sincos(count, params.d, side, dist, seed, normalized_cos)

    def basis(dist):
        return lambda count, seed: gen_basis(count, BASIS_WEIGHTS, dist, seed)

    def mixture(base, contaminant):
        return lambda count, seed: gen_mixture(count, base, contaminant, params.delta, seed)

    n01, sd2 = ("normal", 0.0, 1.0), ("normal", 0.0, math.sqrt(2.0))
    if sid in ("ex6i", "ex6ii", "ex7"):
        x_fn = sincos("sin", sd2)
        y_fn = sincos("cos", ("t", 4) if sid == "ex6ii" else sd2)
        frame, size = sincos_frame_on_grid, params.d
    else:
        x_dist, y_dist = {
            "ex3": (n01, n01),
            "ex5i": (n01, ("normal", 0.0, params.sigma)),
            "ex5ii": (("cauchy", 1.0), ("cauchy", params.sigma)),
            "ex8": (n01, ("normal", 1.0, 1.0)),
            "ex9": (n01, sd2),
        }[sid]
        x_fn, y_fn = basis(x_dist), basis(y_dist)
        frame, size = trig_basis_on_grid, BASIS_WEIGHTS.size
    if sid in MIXTURE_IDS:  # X's family, contaminated by the Y family
        y_fn = mixture(x_fn, y_fn)
    if not sampled_on_grid:
        return Scenario(COEFF, x_fn, y_fn)
    rows = frame(size, grid.points)

    def render(fn):
        return lambda count, seed: fn(count, seed) @ rows

    return Scenario(GRID, render(x_fn), render(y_fn), grid)


def generate_pair(scenario: Scenario, n: int, m: int, seed: int) -> FunctionalSample:
    """Draw one (X, Y) sample for a scenario; groups use disjoint substreams."""
    x_values = scenario.x_fn(n, derive_seed(seed, 101))
    y_values = scenario.y_fn(m, derive_seed(seed, 202))
    return make_sample(x_values, y_values, scenario.kind, scenario.grid)

