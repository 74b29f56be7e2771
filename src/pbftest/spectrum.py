"""Spectral approximation of the limiting null law.

Under the null, the scaled statistic converges to sum_k lambda_k Z_k^2 where
the lambda_k are eigenvalues of a degenerate (doubly centered) kernel built
from the direction-averaged phi-distance between observations.  This module
estimates that spectrum from a null Gram matrix and Monte-Carlo samples the
limit law.  Diagnostic only: test decisions always come from the
permutation calibration.
"""

from dataclasses import dataclass

import numpy as np

from ._rng import substream
from .curves import NumericalError, _as_gram
from .statistic import PhiKind, _centered_distance, _phi_sums

_TRUNCATION_RATIO = 1e-12
# Draws per block in sample_limit_law, few enough for the block to stay in cache.
_DRAW_BLOCK = 1024


@dataclass(frozen=True)
class KernelSpectrum:
    """Estimated eigenvalues of the limiting kernel, largest first."""

    eigenvalues: np.ndarray


def spectrum_from_kernel_matrix(h: np.ndarray) -> KernelSpectrum:
    """Eigenvalues of h / N, sorted descending and truncated.

    Trailing eigenvalues below 1e-12 of the largest are dropped; a kernel
    with no positive mass yields an empty spectrum.
    """
    h = np.asarray(h, dtype=float)
    if not np.all(np.isfinite(h)):
        raise NumericalError("kernel matrix contains non-finite entries")
    N = h.shape[0]
    try:
        lam = np.linalg.eigvalsh(h / N)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition did not converge: {exc}") from exc
    if not np.all(np.isfinite(lam)):
        raise NumericalError("eigendecomposition produced non-finite eigenvalues")
    lam = lam[::-1]
    if lam.size == 0 or lam[0] <= 0.0:
        kept = np.empty(0)
    else:
        kept = lam[lam >= _TRUNCATION_RATIO * lam[0]]
    return KernelSpectrum(kept)


def spectrum_estimate(G, kind: PhiKind) -> KernelSpectrum:
    """Estimate the limiting-law eigenvalues from a null Gram matrix.

    Args:
        G: N x N Gram matrix of a single-distribution sample.
        kind: Distance transform.

    Returns:
        KernelSpectrum with nonincreasing eigenvalues.
    """
    entries = _as_gram(G)
    N = entries.shape[0]
    if N < 3:
        raise ValueError("spectrum estimation needs at least 3 observations")
    # The empirical degenerate kernel: the pooled sample stands in for the
    # reference law, and the centering annihilates the additive terms.
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite h raises below
        h = _centered_distance(_phi_sums(entries, PhiKind(kind)), N) / -N
    return spectrum_from_kernel_matrix(h)


def sample_limit_law(spec: KernelSpectrum, draws: int, seed: int = 0) -> np.ndarray:
    """Monte-Carlo draws of the null limit sum_k lambda_k xi_k^2, xi_k iid N(0, 1)."""
    if draws < 1:
        raise ValueError("draws must be at least 1")
    lam = np.asarray(spec.eigenvalues, dtype=float)
    if lam.size == 0:
        return np.zeros(draws)
    rng = substream(seed)
    out = np.empty(draws)
    block = np.empty((min(draws, _DRAW_BLOCK), lam.size))
    for start in range(0, draws, _DRAW_BLOCK):
        xi = rng.standard_normal(out=block[: min(_DRAW_BLOCK, draws - start)])
        out[start : start + len(xi)] = np.square(xi, out=xi) @ lam
    return out
