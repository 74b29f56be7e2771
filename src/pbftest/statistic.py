"""The projected Baringhaus-Franz two-sample statistic.

For every pooled observation used as a projection direction, the
one-dimensional energy statistic of the projected samples is computed and
the per-direction values are averaged over the empirical mixture of the two
groups.  Everything is driven off the Gram matrix, so relabelings
(permutations) never touch the curves again.
"""

import enum
import functools
import math

import numpy as np

from .curves import _as_gram, _group_sizes


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


# Each overwrites its float array argument with phi of it: no temporaries.
_PHI_ARRAY = {
    PhiKind.L2: lambda z: np.multiply(np.sqrt(z, out=z), 0.5, out=z),
    PhiKind.EXP: lambda z: np.negative(np.expm1(np.multiply(z, -0.5, out=z), out=z), out=z),
    PhiKind.LOG: lambda z: np.log1p(z, out=z),
}

_PHI_SCALAR = {
    PhiKind.L2: lambda z: 0.5 * math.sqrt(z),
    PhiKind.EXP: lambda z: 1.0 - math.exp(-0.5 * z),
    PhiKind.LOG: math.log1p,
}


def pbf_statistic(G: np.ndarray, labels, kind: PhiKind) -> float:
    """The statistic zeta_hat of an N x N Gram matrix and N group labels.

    Aggregates the per-direction 1-d energy statistics over the empirical
    mixture of the two groups; algebraically identical to the direct
    six-triple-sum form (see `pbf_statistic_oracle`) but runs in O(N^2) per
    direction.
    """
    labels, _, _ = _group_sizes(labels)
    amat = (labels == 0).astype(float)[None, :]
    return float(batch_statistics(G, amat, kind)[0])  # checks G and the labels' length


def pbf_statistic_oracle(G: np.ndarray, labels, kind: PhiKind) -> float:
    """Direct O(N^3) transcription of the estimator's six triple sums.

    Test-only reference implementation: plain scalar loops, independent of
    the vectorized evaluation path.
    """
    kind = PhiKind(kind)
    entries = _as_gram(G)
    labels, n, m = _group_sizes(labels)
    if labels.size != entries.shape[0]:
        raise ValueError("labels length does not match the Gram dimension")
    phi = _PHI_SCALAR[kind]
    g = entries.tolist()
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


def batch_statistics(entries: np.ndarray, amat: np.ndarray, kind: PhiKind) -> np.ndarray:
    """Statistic values for many relabelings of one Gram matrix.

    Args:
        entries: N x N Gram matrix of the pooled sample.
        amat: L x N 0/1 matrix, L >= 1; row l flags the first group of
            relabeling l with 1.  Every row flags the same number n of
            curves, 0 < n < N, and the group sizes n and m = N - n are read
            from the rows.
        kind: Distance transform.

    Returns:
        Length-L array of statistic values, one per relabeling.

    Raises:
        ValueError: when `amat` is not such a matrix.
    """
    kind = PhiKind(kind)
    entries = _as_gram(entries)
    amat = np.ascontiguousarray(amat, dtype=float)
    N = entries.shape[0]
    n = _first_group_size(amat, N)  # its L x N temporaries are freed before the kernel allocates
    m = N - n
    L = amat.shape[0]
    # Relabeling l weighs pair (j, k) by -2 y_j y_k, where y is 1/n on its first
    # group and -1/m on its second, and direction c by |y_c| / 2: 1/(2m) plus
    # `excess` on the first group.  So zeta is 1/(2m) times the statistic of
    # the direction-summed phi, plus `excess` times the first group's
    # per-direction statistics, a term that vanishes for n = m.
    excess = 0.5 / n - 0.5 / m
    summed = np.empty(N * (N - 1) // 2)
    if excess:
        flags = np.ascontiguousarray(amat.T, dtype=np.int8)  # N x L
        t_stat = np.zeros((L, N))  # per-direction statistics
        level = None
    for start, phi in _pair_blocks(entries, kind):
        stop = start + len(phi)
        summed[start:stop] = phi.sum(axis=1)
        if excess:
            # each weight column sums to 1/n + 1/m, so a constant per direction
            # comes out of the pair sum exactly; taking out a typical value (the
            # first block's mean) makes it cancel on the spread of phi, not its level
            if level is None:
                level = phi.mean(axis=0)
            phi -= level
            t_stat += _pair_weights(flags, start, stop, n, m).T @ phi
    y = np.where(amat == 1.0, 1.0 / n, -1.0 / m)
    zeta = -np.einsum("lk,lk->l", y @ _centered_distance(summed, N), y) / (2.0 * m)
    if excess:
        zeta += excess * np.einsum("lc,lc->l", amat, t_stat + (1.0 / n + 1.0 / m) * level)
    return zeta


def _first_group_size(amat: np.ndarray, N: int) -> int:
    """n, when each row of `amat` flags n of the N curves with 1 and the rest 0, 0 < n < N."""
    if amat.ndim != 2 or amat.shape[1] != N:
        raise ValueError("relabeling matrix width must match the Gram dimension")
    counts = np.count_nonzero(amat == 1.0, axis=1)
    n = int(counts[0]) if len(counts) else 0
    # every nonzero entry (a NaN too) must be a 1
    if not (0 < n < N and np.all(counts == n) and np.count_nonzero(amat) == n * len(counts)):
        raise ValueError(f"relabeling rows must each flag n curves with 1, the rest 0, 0 < n < {N}")
    return n


# Pairs per kernel block: as many as fit in _BLOCK_WORDS words of phi-block
# over every direction, 256 KiB, so that a block stays in cache.  On one BLAS
# thread 2^15 was the fastest of 2^15, 2^17, 2^19 and 2^21 words, or level
# with them, at (N, L) = (40, 301), (100, 301) and (200, 501) for n = m and
# n != m; at (200, 501), n = m, it took 15 ms against 41 ms for 2^21.
_BLOCK_WORDS = 1 << 15


@functools.lru_cache(maxsize=8)
def _pairs(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the P = N(N-1)/2 distinct pairs j < k."""
    return np.triu_indices(N, 1)


def _pair_weights(flags: np.ndarray, start: int, stop: int, n: int, m: int) -> np.ndarray:
    """Weights of pairs start..stop-1 (in `_pairs` order) in the 1-d statistic
    of each relabeling, P_b x L, by how many of j, k are in the first group
    (`flags`, N x L int8): none -2/m^2, one 2/(nm), both -2/n^2."""
    iu, ju = _pairs(flags.shape[0])
    table = np.array([-2.0 / (m * m), 2.0 / (n * m), -2.0 / (n * n)])
    return table[flags[iu[start:stop]] + flags[ju[start:stop]]]


def _pair_blocks(cols: np.ndarray, kind: PhiKind):
    """Yield (start, block): phi((p_j - p_k)^2) for the pairs start, start+1, ...
    of the distinct pairs j < k in `_pairs` order; N x c -> P_b x c.

    The blocks share one buffer, so each must be used before the next is
    asked for.  l2 is evaluated on the gap as |p_j - p_k| / 2: it equals
    sqrt of the square exactly wherever the square neither overflows nor
    underflows, and stays finite where the square would overflow.
    """
    iu, ju = _pairs(cols.shape[0])
    c = cols.shape[1]
    size = max(1, min(len(iu), _BLOCK_WORDS // c))
    gap, other = np.empty((size, c)), np.empty((size, c))
    for start in range(0, len(iu), size):
        stop = min(start + size, len(iu))
        # mode="clip" (the indices are in range) lets take write straight into out
        block = np.take(cols, iu[start:stop], axis=0, out=gap[: stop - start], mode="clip")
        block -= np.take(cols, ju[start:stop], axis=0, out=other[: stop - start], mode="clip")
        if kind == PhiKind.L2:
            yield start, np.multiply(np.abs(block, out=block), 0.5, out=block)
        else:
            yield start, _PHI_ARRAY[kind](np.square(block, out=block))


def _centered_distance(summed: np.ndarray, N: int) -> np.ndarray:
    """The N x N matrix D of the pair values `summed` (P, in `_pairs` order)
    with a zero diagonal, doubly centered: C = D - (r_j + r_k) + mean(r), r
    the column means of D.  Exactly symmetric.

    Every y with sum 0 has y'Cy = y'Dy; the limit law's spectrum is that of
    -C / N^2.  A constant, which the centering annihilates, is taken out
    first, so the subtractions cancel on the spread of D, not its level.
    """
    dist = np.zeros((N, N))
    dist[_pairs(N)] = summed
    dist += dist.T
    dist -= summed.mean()
    r = dist.mean(axis=0)
    dist -= r[:, None] + r
    dist += r.mean()
    return dist


def _phi_sums(cols: np.ndarray, kind: PhiKind) -> np.ndarray:
    """sum_c phi((p_jc - p_kc)^2) for the distinct pairs j < k: N x c -> P."""
    N = cols.shape[0]
    summed = np.empty(N * (N - 1) // 2)
    for start, phi in _pair_blocks(cols, kind):
        summed[start : start + len(phi)] = phi.sum(axis=1)
    return summed
