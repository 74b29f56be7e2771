import numpy as np
import pytest

from pbftest import (
    KernelSpectrum,
    LimitShift,
    NumericalError,
    PhiKind,
    double_center,
    empirical_h_matrix,
    gram_entries,
    sample_limit_law,
    spectrum_estimate,
    spectrum_from_kernel_matrix,
)
from pbftest.spectrum import direction_averaged_distance
from pbftest.statistic import _PHI_SCALAR


def test_identical_curves_give_zero_kernel():
    entries = gram_entries(np.ones((5, 2)), "coeff")
    h = empirical_h_matrix(entries, PhiKind.L2)
    assert np.array_equal(h, np.zeros((5, 5)))


def test_hand_instance_identity_gram():
    # Gram = I_3, L2: averaged distance is (J - I)/3, so the centered kernel
    # is C/3 with C the centering projector
    G = np.eye(3)
    h = empirical_h_matrix(G, PhiKind.L2)
    expected = (np.eye(3) - np.ones((3, 3)) / 3.0) / 3.0
    assert np.allclose(h, expected, atol=1e-14)
    spec = spectrum_estimate(G, PhiKind.L2)
    assert np.allclose(spec.eigenvalues, [1.0 / 9.0, 1.0 / 9.0], atol=1e-14)


def test_kernel_symmetric_and_centered(rng):
    values = rng.standard_normal((14, 5))
    G = gram_entries(values, "coeff")
    h = empirical_h_matrix(G, PhiKind.EXP)
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
        h = empirical_h_matrix(G, kind)
        spec = spectrum_estimate(G, kind)
        lam = spec.eigenvalues
        assert np.all(np.diff(lam) <= 0.0)
        trace = np.trace(h) / 30.0
        assert abs(lam.sum() - trace) <= 1e-8 * abs(trace)


def test_direction_averaged_distance_matches_pair_loop(rng):
    # 70 directions span two blocks of the direction loop
    values = rng.standard_normal((70, 5))
    entries = gram_entries(values, "coeff")
    for kind in PhiKind:
        dist = direction_averaged_distance(entries, kind)
        assert np.array_equal(dist, dist.T)
        assert np.all(np.diag(dist) == 0.0)
        for a, b in ((0, 0), (0, 1), (3, 69), (69, 3), (41, 17)):
            gaps = (entries[:, a] - entries[:, b]) ** 2
            direct = sum(_PHI_SCALAR[kind](float(z)) for z in gaps) / 70.0
            assert dist[a, b] == pytest.approx(direct, rel=1e-12, abs=1e-15)


def test_constant_kernel_shift_is_annihilated(rng):
    values = rng.standard_normal((12, 4))
    dist = direction_averaged_distance(gram_entries(values, "coeff"), PhiKind.LOG)
    base = np.linalg.eigvalsh(-double_center(dist))
    shifted = np.linalg.eigvalsh(-double_center(dist + 3.7))
    assert np.max(np.abs(base - shifted)) <= 1e-10


def test_limit_law_empty_spectrum():
    spec = KernelSpectrum(np.empty(0))
    assert np.array_equal(sample_limit_law(spec, 50, seed=1), np.zeros(50))


def test_limit_law_chi_square_mean():
    spec = KernelSpectrum(np.array([1.0]))
    draws = sample_limit_law(spec, 100000, seed=4)
    # chi^2_1 mean 1, sd sqrt(2): 3 standard errors
    assert abs(draws.mean() - 1.0) <= 3.0 * np.sqrt(2.0 / draws.size)


def test_limit_law_shifted_mean():
    mu = 0.7
    spec = KernelSpectrum(np.array([1.0]))
    draws = sample_limit_law(spec, 100000, shift=np.array([mu]), seed=5)
    # noncentral chi^2_1 mean 1 + mu^2, variance 2 + 4 mu^2
    se = np.sqrt((2.0 + 4.0 * mu * mu) / draws.size)
    assert abs(draws.mean() - (1.0 + mu * mu)) <= 3.0 * se


def test_limit_shift_composition():
    shift = LimitShift(delta=2.0, mixture_ratio=0.25, eigenfunction_means=np.array([1.0, -0.5]))
    assert np.allclose(shift.per_component(), [1.0, -0.5])
    spec = KernelSpectrum(np.array([1.0, 0.5]))
    draws = sample_limit_law(spec, 200, shift=shift, seed=6)
    assert draws.shape == (200,)
    with pytest.raises(ValueError):
        sample_limit_law(spec, 10, shift=np.array([1.0]), seed=0)


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
