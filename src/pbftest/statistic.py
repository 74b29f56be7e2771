"""The projected Baringhaus-Franz two-sample statistic.

For every pooled observation used as a projection direction, the
one-dimensional energy statistic of the projected samples is computed and
the per-direction values are averaged over the empirical mixture of the two
groups.  Everything is driven off the Gram matrix, so relabelings
(permutations) never touch the curves again.
"""

import enum
import math

import numpy as np

from .curves import GramMatrix


class PhiKind(str, enum.Enum):
    """Distance transform applied to squared projection gaps.

    L2:  phi(z) = sqrt(z) / 2
    EXP: phi(z) = 1 - exp(-z / 2)
    LOG: phi(z) = log(1 + z)

    All variants satisfy phi(0) = 0 and are nondecreasing on [0, inf).
    """

    L2 = "l2"
    EXP = "exp"
    LOG = "log"


_PHI_ARRAY = {
    PhiKind.L2: lambda z: 0.5 * np.sqrt(z),
    PhiKind.EXP: lambda z: -np.expm1(-0.5 * z),
    PhiKind.LOG: np.log1p,
}

_PHI_SCALAR = {
    PhiKind.L2: lambda z: 0.5 * math.sqrt(z),
    PhiKind.EXP: lambda z: 1.0 - math.exp(-0.5 * z),
    PhiKind.LOG: math.log1p,
}


def phi_eval(kind: PhiKind, z):
    """Evaluate the transform phi on nonnegative z (scalar or array)."""
    kind = PhiKind(kind)
    arr = np.asarray(z, dtype=float)
    if np.any(arr < 0):
        raise ValueError("phi is defined on nonnegative arguments only")
    out = _PHI_ARRAY[kind](arr)
    return float(out) if np.isscalar(z) or arr.ndim == 0 else out


def _group_sizes(labels) -> tuple[np.ndarray, int, int]:
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError("labels must be one-dimensional")
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError("labels must be 0 or 1")
    n = int(np.sum(labels == 0))
    m = labels.size - n
    if n < 1 or m < 1:
        raise ValueError("both groups must be non-empty")
    return labels, n, m


def bf_statistic_1d(projections, labels, kind: PhiKind) -> float:
    """One-dimensional energy statistic of the projected pooled sample.

    With groups A (size n) and B (size m) and projected values p, this is

        (2/nm) sum_{j in A, k in B} phi((p_j - p_k)^2)
        - (1/n^2) sum_{j,k in A} phi((p_j - p_k)^2)
        - (1/m^2) sum_{j,k in B} phi((p_j - p_k)^2).
    """
    kind = PhiKind(kind)
    p = np.asarray(projections, dtype=float)
    labels, n, m = _group_sizes(labels)
    if p.shape != labels.shape:
        raise ValueError("projections and labels must have the same length")
    amat = (labels == 0).astype(float)[None, :]
    return float(_energy_block(p[None, :], amat, n, m, kind)[0, 0])


class StatisticValue:
    """Observed statistic together with its nm/(n+m)-scaled form."""

    __slots__ = ("zeta_hat", "scaled")

    def __init__(self, zeta_hat: float, n: int, m: int):
        self.zeta_hat = float(zeta_hat)
        self.scaled = float(zeta_hat) * n * m / (n + m)

    def __repr__(self):
        return f"StatisticValue(zeta_hat={self.zeta_hat!r}, scaled={self.scaled!r})"


def pbf_statistic(G: GramMatrix, labels, kind: PhiKind) -> StatisticValue:
    """Evaluate the statistic from a Gram matrix and group labels.

    Aggregates the per-direction 1-d energy statistics over the empirical
    mixture of the two groups; algebraically identical to the direct
    six-triple-sum form (see `pbf_statistic_oracle`) but runs in O(N^2) per
    direction.
    """
    kind = PhiKind(kind)
    labels, n, m = _group_sizes(labels)
    if labels.size != G.size:
        raise ValueError("labels length does not match the Gram dimension")
    amat = (labels == 0).astype(float)[None, :]
    zeta = batch_statistics(G.entries, amat, n, m, kind)[0]
    return StatisticValue(zeta, n, m)


def pbf_statistic_oracle(G: GramMatrix, labels, kind: PhiKind) -> float:
    """Direct O(N^3) transcription of the estimator's six triple sums.

    Test-only reference implementation: plain scalar loops, independent of
    the vectorized evaluation path.
    """
    kind = PhiKind(kind)
    labels, n, m = _group_sizes(labels)
    if labels.size != G.size:
        raise ValueError("labels length does not match the Gram dimension")
    phi = _PHI_SCALAR[kind]
    g = G.entries.tolist()
    idx_a = [int(i) for i in np.flatnonzero(labels == 0)]
    idx_b = [int(i) for i in np.flatnonzero(labels == 1)]

    s1 = s2 = s3 = s4 = s5 = s6 = 0.0
    for i in idx_a:
        col = g[i]
        for j in idx_a:
            pj = col[j]
            for k in idx_b:
                s1 += phi((pj - col[k]) ** 2)
            for k in idx_a:
                s2 += phi((pj - col[k]) ** 2)
        for j in idx_b:
            pj = col[j]
            for k in idx_b:
                s3 += phi((pj - col[k]) ** 2)
    for i in idx_b:
        col = g[i]
        for j in idx_a:
            pj = col[j]
            for k in idx_b:
                s4 += phi((pj - col[k]) ** 2)
            for k in idx_a:
                s5 += phi((pj - col[k]) ** 2)
        for j in idx_b:
            pj = col[j]
            for k in idx_b:
                s6 += phi((pj - col[k]) ** 2)

    return (
        s1 / (n * n * m)
        - s2 / (2.0 * n**3)
        - s3 / (2.0 * n * m * m)
        + s4 / (n * m * m)
        - s5 / (2.0 * n * n * m)
        - s6 / (2.0 * m**3)
    )


def batch_statistics(
    entries: np.ndarray,
    amat: np.ndarray,
    n: int,
    m: int,
    kind: PhiKind,
) -> np.ndarray:
    """Statistic values for many relabelings of one Gram matrix.

    Args:
        entries: N x N Gram matrix of the pooled sample.
        amat: L x N float 0/1 matrix; row l flags the first group of
            relabeling l (exactly n ones per row).
        n: First-group size.
        m: Second-group size.
        kind: Distance transform.

    Returns:
        Length-L array of statistic values, one per relabeling.
    """
    kind = PhiKind(kind)
    entries = np.ascontiguousarray(entries, dtype=float)
    amat = np.ascontiguousarray(amat, dtype=float)
    N = entries.shape[0]
    L = amat.shape[0]
    if amat.shape[1] != N:
        raise ValueError("relabeling matrix width must match the Gram dimension")
    chunk = _direction_chunk(N, L)
    # mixture weight of a direction: 1/(2n) in the first group, 1/(2m) in the second
    w_a = 1.0 / (2.0 * n)
    w_b = 1.0 / (2.0 * m)
    zeta = np.zeros(L)
    for start in range(0, N, chunk):
        sl = slice(start, min(start + chunk, N))
        t_stat = _energy_block(entries[:, sl].T, amat, n, m, kind)
        weights = w_b + (w_a - w_b) * amat[:, sl]
        zeta += np.einsum("lc,lc->l", weights, t_stat)
    return zeta


# Directions per kernel block: c is the largest with c * max(N*L, N*N) * 2
# words under the budget (the phi block plus the tensordot product).
_CHUNK_BUDGET = 6.0e7
_WORDS_PER_ENTRY = 2


def _direction_chunk(N: int, L: int) -> int:
    words = max(N * L, N * N) * _WORDS_PER_ENTRY
    return max(1, min(N, int(_CHUNK_BUDGET / max(words, 1))))


def _energy_block(proj: np.ndarray, amat: np.ndarray, n: int, m: int, kind: PhiKind) -> np.ndarray:
    """`bf_statistic_1d` for c directions (proj, c x N) under L relabelings
    (amat, L x N first-group flags); returns L x c.

    Per (relabeling, direction), s_aa sums phi over ordered pairs inside the
    first group, t over pairs whose first index is in it, total over all.
    """
    mat = _phi_block(proj, kind)  # (c, N, N)
    rows = mat.sum(axis=2)  # (c, N)
    total = rows.sum(axis=1)  # (c,)
    x = np.tensordot(amat, mat, axes=([1], [1]))  # (L, c, N)
    s_aa = np.einsum("lck,lk->lc", x, amat)
    t = amat @ rows.T  # (L, c)
    # cross-group sum t - s_aa, second-group sum total - 2 t + s_aa
    inv_nm = 2.0 / (n * m)
    inv_n2 = 1.0 / (n * n)
    inv_m2 = 1.0 / (m * m)
    return inv_nm * (t - s_aa) - inv_n2 * s_aa - inv_m2 * (total[None, :] - 2.0 * t + s_aa)


def _phi_block(proj: np.ndarray, kind: PhiKind) -> np.ndarray:
    """phi((p_j - p_k)^2) per direction: c x N projections -> c x N x N.

    l2 is evaluated on the gap as |p_j - p_k| / 2: it equals sqrt of the
    square exactly wherever the square neither overflows nor underflows,
    and stays finite where the square would overflow.
    """
    gap = proj[:, :, None] - proj[:, None, :]
    if kind == PhiKind.L2:
        return 0.5 * np.abs(gap)
    return _PHI_ARRAY[kind](gap**2)
