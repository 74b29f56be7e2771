"""Permutation calibration of the test.

The Gram matrix is computed once; each relabeling of the pooled sample is
evaluated from it directly.  The test is calibrated by B random permutations
and the randomized p-value (1 + #{permuted >= observed})/(B+1).
"""

from dataclasses import dataclass

import numpy as np

from ._rng import substream
from .curves import FunctionalSample, NumericalError, gram
from .statistic import PhiKind, batch_statistics

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
            "mode": "randomized",  # the one calibration; kept for readers of the wire format
            "phi": self.phi.value,
            "n": self.n,
            "m": self.m,
            "seed": self.seed,
        }
        if self.replicate_stats is not None:
            out["replicates"] = [float(v) for v in self.replicate_stats]
        return out


def _relabelings(N: int, n: int, B: int, seed: int) -> np.ndarray:
    """First-group flags of B random relabelings as a (B, N) 0/1 matrix;
    replicate i uses the seed-xor-i substream."""
    # permutation(N) is arange(N), shuffled; an oversized B raises ValueError or MemoryError
    perms = np.broadcast_to(np.arange(N), (B, N)).copy()
    for i, row in enumerate(perms, start=1):
        substream(seed, i).shuffle(row)
    amat = np.zeros((B, N))
    np.put_along_axis(amat, perms[:, :n], 1.0, axis=1)
    return amat


def permutation_test(
    sample: FunctionalSample,
    kind: PhiKind,
    B: int = 500,
    seed: int = 0,
    keep_replicates: bool = False,
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

    Returns:
        TestResult with the observed statistic, scaled statistic and p-value.

    Raises:
        NumericalError: when the Gram matrix or any statistic is not finite.
    """
    kind = PhiKind(kind)
    if B < 1:
        raise ValueError("B must be at least 1")
    entries = gram(sample)
    n, m, N = sample.n, sample.m, sample.size
    observed_row = (sample.labels == 0).astype(float)[None, :]
    amat = np.vstack([observed_row, _relabelings(N, n, B, seed)])
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        stats = batch_statistics(entries, amat, kind)
    if not np.all(np.isfinite(stats)):
        raise NumericalError("statistic is not finite (projection gaps overflow)")
    zeta, replicates = float(stats[0]), stats[1:]
    ties_from = zeta - _TIE_RTOL * max(1.0, abs(zeta))
    p_value = (int(np.sum(replicates >= ties_from)) + 1) / (B + 1)

    return TestResult(
        zeta_hat=zeta,
        scaled=zeta * n * m / (n + m),
        p_value=p_value,
        b_used=B,
        phi=kind,
        n=n,
        m=m,
        seed=seed,
        replicate_stats=replicates.copy() if keep_replicates else None,
    )
