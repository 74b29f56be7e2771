import itertools
import math

import numpy as np
import pytest

from pbftest import (
    KernelSpectrum,
    NumericalError,
    PhiKind,
    batch_statistics,
    build_scenario,
    generate_pair,
    gram,
    gram_entries,
    permutation_test,
    sample_limit_law,
    spectrum_estimate,
    spectrum_from_kernel_matrix,
)
from pbftest.statistic import _PHI_SCALAR, _centered_distance, _pairs, _phi_sums


def _kernel(G, kind):
    """The empirical degenerate kernel that `spectrum_estimate` decomposes."""
    N = G.shape[0]
    return _centered_distance(_phi_sums(G, kind), N) / -N


def test_identical_curves_give_zero_kernel():
    entries = gram_entries(np.ones((5, 2)), "coeff")
    h = _kernel(entries, PhiKind.L2)
    assert np.array_equal(h, np.zeros((5, 5)))


def test_hand_instance_identity_gram():
    # Gram = I_3, L2: the summed distance is J - I, so the centered kernel
    # is C/3 with C the centering projector
    G = np.eye(3)
    h = _kernel(G, PhiKind.L2)
    expected = (np.eye(3) - np.ones((3, 3)) / 3.0) / 3.0
    assert np.allclose(h, expected, atol=1e-14)
    spec = spectrum_estimate(G, PhiKind.L2)
    assert np.allclose(spec.eigenvalues, [1.0 / 9.0, 1.0 / 9.0], atol=1e-14)


def test_kernel_symmetric_and_centered(rng):
    values = rng.standard_normal((14, 5))
    G = gram_entries(values, "coeff")
    h = _kernel(G, PhiKind.EXP)
    assert np.array_equal(h, h.T)
    assert np.max(np.abs(h.sum(axis=0))) <= 1e-10
    assert np.max(np.abs(h.sum(axis=1))) <= 1e-10
    assert abs(h.mean()) <= 1e-12


def test_spectrum_zero_matrix_empty():
    spec = spectrum_from_kernel_matrix(np.zeros((4, 4)))
    assert spec.eigenvalues.size == 0


def test_spectrum_rank_one():
    v = np.array([0.5, -0.5, 0.5, -0.5])
    h = 2.4 * np.outer(v, v)
    spec = spectrum_from_kernel_matrix(h)
    assert np.allclose(spec.eigenvalues, [0.6], atol=1e-14)


def test_eigenvalues_nonincreasing_and_trace_identity(rng):
    values = rng.standard_normal((30, 6))
    G = gram_entries(values, "coeff")
    for kind in PhiKind:
        h = _kernel(G, kind)
        spec = spectrum_estimate(G, kind)
        lam = spec.eigenvalues
        assert np.all(np.diff(lam) <= 0.0)
        trace = np.trace(h) / 30.0
        assert abs(lam.sum() - trace) <= 1e-8 * abs(trace)


def test_phi_distance_matches_pair_loop(rng):
    # 70 directions: the pairs span several blocks of the pair loop
    values = rng.standard_normal((70, 5))
    entries = gram_entries(values, "coeff")
    iu, ju = _pairs(70)
    for kind in PhiKind:
        summed = _phi_sums(entries, kind)
        for a, b in ((0, 1), (3, 69), (69, 3), (41, 17)):
            gaps = (entries[:, a] - entries[:, b]) ** 2
            direct = sum(_PHI_SCALAR[kind](float(z)) for z in gaps)
            (pair,) = np.flatnonzero((iu == min(a, b)) & (ju == max(a, b)))
            assert summed[pair] == pytest.approx(direct, rel=1e-12, abs=1e-15)
        # the matrix holds the pair values off a zero diagonal, then is doubly centered
        dist = np.zeros((70, 70))
        dist[iu, ju] = summed
        dist += dist.T
        direct = dist - dist.mean(axis=0) - dist.mean(axis=1)[:, None] + dist.mean()
        centered = _centered_distance(summed, 70)
        assert np.array_equal(centered, centered.T)
        assert np.max(np.abs(centered - direct)) <= 1e-12 * np.max(np.abs(dist))


def test_constant_kernel_shift_is_annihilated(rng):
    # a constant c on every pair adds c (J - I) to the distance; the centering
    # removes c J and leaves -c (I - J/N), as the diagonal stays at phi(0) = 0
    values = rng.standard_normal((12, 4))
    summed = _phi_sums(gram_entries(values, "coeff"), PhiKind.LOG)
    base = np.linalg.eigvalsh(_centered_distance(summed, 12))
    projector = np.eye(12) - np.ones((12, 12)) / 12.0
    shifted = np.linalg.eigvalsh(_centered_distance(summed + 3.7, 12) + 3.7 * projector)
    assert np.max(np.abs(base - shifted)) <= 1e-10


@pytest.mark.parametrize("N", [6, 8, 10])
def test_permutation_mean_is_limit_trace(rng, N):
    # For n = m the statistic and the limit law read one matrix: the mean of
    # nm/(n+m) zeta over all relabelings is N/(N-1) times the spectrum's sum
    n = N // 2
    G = gram_entries(rng.standard_normal((N, 5)), "coeff")
    amat = np.zeros((math.comb(N, n), N))
    for row, first in zip(amat, itertools.combinations(range(N), n)):
        row[list(first)] = 1.0
    for kind in PhiKind:
        mean = batch_statistics(G, amat, kind).mean() * n * n / N
        trace = N / (N - 1) * spectrum_estimate(G, kind).eigenvalues.sum()
        assert mean == pytest.approx(trace, rel=1e-13)
        # the kernel's own trace too: the spectrum drops a negative eigenvalue
        assert mean == pytest.approx(N / (N - 1) * np.trace(_kernel(G, kind)) / N, rel=1e-13)


def _permutation_limit_ks(n, m, seed, kind):
    """Two-sample KS distance between the permutation law of nm/N zeta (B =
    2000) on an ex1 null sample and 20000 draws of its limit law times N/(N-1)."""
    N = n + m
    sample = generate_pair(build_scenario("ex1"), n, m, seed)
    result = permutation_test(sample, kind, B=2000, seed=seed, keep_replicates=True)
    permuted = np.sort(result.replicate_stats * n * m / N)
    limit = np.sort(sample_limit_law(spectrum_estimate(gram(sample), kind), 20000, seed=seed))
    limit *= N / (N - 1)
    pooled = np.concatenate([permuted, limit])
    gaps = np.searchsorted(permuted, pooled, side="right") / permuted.size
    gaps -= np.searchsorted(limit, pooled, side="right") / limit.size
    return float(np.max(np.abs(gaps)))


# The Kolmogorov law's 99.9% point for a two-sample KS test of 2000 against 20000
_KS_BOUND = 1.949 * math.sqrt((2000 + 20000) / (2000 * 20000))


@pytest.mark.parametrize("n, m", [(50, 50), (30, 70)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_permutation_law_matches_limit_law(n, m, seed):
    # The paper's permutation limit theorem: under the null, nm/N times the
    # permuted statistic tends to sum_k lambda_k Z_k^2, the law the spectrum
    # estimates; with N = 100 ex1 samples are already in the limit
    for kind in PhiKind:
        assert _permutation_limit_ks(n, m, seed, kind) <= _KS_BOUND, kind


def test_permutation_law_nears_limit_law_as_n_grows():
    for seed in (1, 2, 3):
        small = _permutation_limit_ks(10, 10, seed, PhiKind.L2)
        assert small > _permutation_limit_ks(50, 50, seed, PhiKind.L2), seed


def test_limit_law_empty_spectrum():
    spec = KernelSpectrum(np.empty(0))
    assert np.array_equal(sample_limit_law(spec, 50, seed=1), np.zeros(50))


def test_limit_law_chi_square_mean():
    spec = KernelSpectrum(np.array([1.0]))
    draws = sample_limit_law(spec, 100000, seed=4)
    # chi^2_1 mean 1, sd sqrt(2): 3 standard errors
    assert abs(draws.mean() - 1.0) <= 3.0 * np.sqrt(2.0 / draws.size)


def test_spectrum_estimate_validation():
    with pytest.raises(ValueError):
        spectrum_estimate(np.eye(2), PhiKind.L2)
    with pytest.raises(ValueError, match="square"):
        spectrum_estimate(np.zeros((3, 4)), PhiKind.L2)
    with pytest.raises(ValueError):
        sample_limit_law(KernelSpectrum(np.array([1.0])), 0)


def test_nonfinite_kernel_surfaces_as_numerical_error():
    bad = np.eye(3)
    bad[0, 0] = np.nan
    with pytest.raises(NumericalError):
        spectrum_from_kernel_matrix(bad)
