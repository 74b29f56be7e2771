"""Permutation calibration of the test.

The Gram matrix is computed once; each relabeling of the pooled sample is
evaluated from it directly.  Small problems can be calibrated by full
enumeration of the distinct group assignments, everything else by B random
permutations and the randomized p-value (1 + #{permuted >= observed})/(B+1).
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._rng import substream
from .curves import FunctionalSample, GramMatrix, NumericalError, gram
from .statistic import PhiKind, StatisticValue, batch_statistics

RANDOMIZED = "randomized"
EXHAUSTIVE = "exhaustive"

# Relative slack when comparing permuted to observed values: relabelings that
# reproduce the observed statistic in exact arithmetic must count as ties
# despite last-ulp float noise.
_TIE_RTOL = 32.0 * np.finfo(float).eps


@dataclass(frozen=True)
class TestResult:
    """Outcome of one calibrated two-sample test."""

    zeta_hat: float
    scaled: float
    p_value: float
    b_used: int
    mode: str
    phi: PhiKind
    n: int
    m: int
    seed: int
    replicate_stats: np.ndarray | None = None

    def to_json_dict(self) -> dict:
        """Wire format; `--keep-replicates` appends the permuted statistics."""
        out = {
            "zeta_hat": self.zeta_hat,
            "scaled": self.scaled,
            "p_value": self.p_value,
            "B": self.b_used,
            "mode": self.mode,
            "phi": self.phi.value,
            "n": self.n,
            "m": self.m,
            "seed": self.seed,
        }
        if self.replicate_stats is not None:
            out["replicates"] = [float(v) for v in self.replicate_stats]
        return out


def _tie_threshold(observed: float) -> float:
    return observed - _TIE_RTOL * max(1.0, abs(observed))


def _relabelings(N: int, n: int, B: int, seed: int, budget: int) -> tuple[np.ndarray, str]:
    """First-group flags of the relabelings to evaluate, and the mode.

    All C(N, n) distinct assignments as 0/1 rows when that count is within a
    positive `budget`; otherwise B random relabelings, where replicate i
    uses the seed-xor-i substream.
    """
    if budget > 0 and math.comb(N, n) <= budget:
        firsts, mode = np.array(list(itertools.combinations(range(N), n))), EXHAUSTIVE
    else:
        perms = np.tile(np.arange(N), (B, 1))  # permutation(N) is arange(N), shuffled
        for i, row in enumerate(perms, start=1):
            substream(seed, i).shuffle(row)
        firsts, mode = perms[:, :n], RANDOMIZED
    amat = np.zeros((len(firsts), N))
    np.put_along_axis(amat, firsts, 1.0, axis=1)
    return amat, mode


def _finite_statistics(G: GramMatrix, amat: np.ndarray, kind: PhiKind) -> np.ndarray:
    """Statistic of each relabeling row of `amat`; NumericalError if any is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        stats = batch_statistics(G.entries, amat, G.n, G.m, kind)
    if not np.all(np.isfinite(stats)):
        raise NumericalError("statistic is not finite (projection gaps overflow)")
    return stats


def critical_value(
    G: GramMatrix,
    kind: PhiKind,
    alpha: float,
    budget: int = 20000,
    B: int = 2000,
    seed: int = 0,
) -> float:
    """Permutation critical value: the smallest t whose permutation CDF
    reaches 1 - alpha.

    All C(N, n) distinct assignments are enumerated when within `budget`
    (the statistic depends on a permutation only through the induced
    partition); otherwise the value is estimated from B random permutations.

    Raises:
        ValueError: when alpha is not in (0, 1) or B is below 1.
        NumericalError: when any permuted statistic is not finite.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    if B < 1:
        raise ValueError("B must be at least 1")
    amat, _ = _relabelings(G.size, G.n, B, seed, budget)
    stats = np.sort(_finite_statistics(G, amat, kind))
    k = math.ceil(stats.size * (1.0 - alpha) - 1e-12)
    k = min(max(k, 1), stats.size)
    return float(stats[k - 1])


def permutation_test(
    sample: FunctionalSample,
    kind: PhiKind,
    B: int = 500,
    seed: int = 0,
    keep_replicates: bool = False,
    exhaustive_budget: int = 0,
) -> TestResult:
    """Run the permutation-calibrated two-sample test.

    Computes the Gram matrix exactly once, evaluates the observed statistic
    and the B permuted statistics from it, and reports the randomized
    p-value.  Rejection at level alpha is the caller's comparison
    p_value <= alpha.

    Args:
        sample: Pooled two-group sample.
        kind: Distance transform.
        B: Number of random permutations (>= 1).
        seed: Stream seed; identical inputs reproduce the result bit-for-bit.
        keep_replicates: Retain the permuted statistic values on the result.
        exhaustive_budget: When positive and C(N, n) is within it, enumerate
            every distinct assignment instead of sampling.

    Returns:
        TestResult with the observed statistic, scaled statistic and p-value.

    Raises:
        NumericalError: when the Gram matrix or any statistic is not finite.
    """
    kind = PhiKind(kind)
    if B < 1:
        raise ValueError("B must be at least 1")
    G = gram(sample)
    n, m, N = G.n, G.m, G.size
    observed_row = (sample.labels == 0).astype(float)[None, :]
    amat, mode = _relabelings(N, n, B, seed, exhaustive_budget)
    stats = _finite_statistics(G, np.vstack([observed_row, amat]), kind)
    zeta, replicates = float(stats[0]), stats[1:]
    exceed = int(np.sum(replicates >= _tie_threshold(zeta)))
    if mode == EXHAUSTIVE:
        p_value = exceed / replicates.size
    else:
        p_value = (exceed + 1) / (B + 1)

    value = StatisticValue(zeta, n, m)
    return TestResult(
        zeta_hat=value.zeta_hat,
        scaled=value.scaled,
        p_value=p_value,
        b_used=replicates.size,
        mode=mode,
        phi=kind,
        n=n,
        m=m,
        seed=seed,
        replicate_stats=replicates.copy() if keep_replicates else None,
    )
