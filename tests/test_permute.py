import itertools
import math

import numpy as np
import pytest

from pbftest import (
    GramMatrix,
    NumericalError,
    PhiKind,
    critical_value,
    gram,
    gram_call_count,
    gram_entries,
    make_sample,
    pbf_statistic,
    pbf_statistic_oracle,
    permutation_test,
    permuted_statistic,
    run_power,
    ScenarioConfig,
)



def _null_sample(rng, n=6, m=6, dim=4):
    values = rng.standard_normal((n + m, dim))
    return make_sample(values[:n], values[n:], "coeff")


def test_identity_permutation_matches_observed(rng):
    sample = _null_sample(rng)
    G = gram(sample)
    for kind in PhiKind:
        observed = pbf_statistic(G, sample.labels, kind).zeta_hat
        assert permuted_statistic(G, sample.labels, kind) == observed


def test_full_group_swap_is_symmetric(rng):
    sample = _null_sample(rng, 5, 5)
    G = gram(sample)
    for kind in PhiKind:
        observed = pbf_statistic(G, sample.labels, kind).zeta_hat
        swapped = permuted_statistic(G, 1 - sample.labels, kind)
        assert abs(swapped - observed) <= 1e-12


def test_permuted_statistic_matches_oracle_on_relabeled_sample(rng):
    sample = _null_sample(rng, 6, 6)
    G = gram(sample)
    perm = rng.permutation(12)
    permuted_labels = np.zeros(12, np.int8)
    permuted_labels[perm[6:]] = 1
    for kind in PhiKind:
        fast = permuted_statistic(G, permuted_labels, kind)
        oracle = pbf_statistic_oracle(G, permuted_labels, kind)
        assert abs(fast - oracle) <= 1e-10 * (1.0 + abs(oracle))


def test_group_size_mismatch_rejected(rng):
    sample = _null_sample(rng, 4, 6)
    G = gram(sample)
    bad = np.concatenate([np.zeros(5, np.int8), np.ones(5, np.int8)])
    with pytest.raises(ValueError):
        permuted_statistic(G, bad, PhiKind.L2)


def test_critical_value_identical_curves_is_zero():
    values = np.ones((6, 3))
    G = GramMatrix(gram_entries(values, "coeff"), 3, 3)
    labels = np.array([0, 0, 0, 1, 1, 1])
    for alpha in (0.01, 0.05, 0.5, 0.99):
        assert critical_value(G, labels, PhiKind.L2, alpha) == 0.0


def test_critical_value_small_sample_enumeration(rng):
    values = rng.standard_normal((6, 3))
    G = GramMatrix(gram_entries(values, "coeff"), 3, 3)
    labels = np.array([0, 0, 0, 1, 1, 1])
    # independent enumeration of all C(6,3) = 20 assignments
    stats = []
    for combo in itertools.combinations(range(6), 3):
        relabel = np.ones(6, np.int8)
        relabel[list(combo)] = 0
        stats.append(pbf_statistic_oracle(G, relabel, PhiKind.L2))
    stats = np.sort(stats)
    # at alpha = 0.05 the 19th order statistic is required, and swap symmetry
    # pairs every assignment with its complement, so it ties with the max
    got = critical_value(G, labels, PhiKind.L2, 0.05)
    assert got == pytest.approx(stats[18], abs=1e-12)
    assert got == pytest.approx(stats.max(), abs=1e-12)
    # alpha -> 1 gives the minimum permuted statistic
    assert critical_value(G, labels, PhiKind.L2, 0.999) == pytest.approx(stats[0], abs=1e-12)


def test_critical_value_invalid_alpha(rng):
    sample = _null_sample(rng, 3, 3)
    G = gram(sample)
    for alpha in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            critical_value(G, sample.labels, PhiKind.L2, alpha)


def test_pvalue_when_multisets_match(rng):
    values = rng.standard_normal((5, 3))
    sample = make_sample(values, values.copy(), "coeff")
    for kind in PhiKind:
        result = permutation_test(sample, kind, B=64, seed=3)
        assert abs(result.zeta_hat) <= 1e-12
        assert result.p_value == 1.0


def test_pvalue_formula_with_no_exceedances():
    # groups separated by a huge shift: no relabeling can reach the observed
    x = np.zeros((4, 2))
    y = np.full((4, 2), 50.0)
    x[:, 0] += np.linspace(0, 0.1, 4)
    y[:, 0] += np.linspace(0, 0.1, 4)
    sample = make_sample(x, y, "coeff")
    result = permutation_test(sample, PhiKind.EXP, B=4, seed=11, keep_replicates=True)
    assert np.all(result.replicate_stats < result.zeta_hat)
    assert result.p_value == pytest.approx(0.2)


def test_determinism_bit_identical(rng):
    sample = _null_sample(rng, 8, 7)
    a = permutation_test(sample, PhiKind.LOG, B=100, seed=99, keep_replicates=True)
    b = permutation_test(sample, PhiKind.LOG, B=100, seed=99, keep_replicates=True)
    assert a.zeta_hat == b.zeta_hat
    assert a.p_value == b.p_value
    assert np.array_equal(a.replicate_stats, b.replicate_stats)
    c = permutation_test(sample, PhiKind.LOG, B=100, seed=100)
    assert c.p_value != a.p_value or c.zeta_hat == a.zeta_hat


def test_gram_computed_exactly_once(rng):
    sample = _null_sample(rng, 10, 10)
    before = gram_call_count()
    permutation_test(sample, PhiKind.L2, B=50, seed=1)
    assert gram_call_count() - before == 1


def test_exhaustive_mode(rng):
    sample = _null_sample(rng, 3, 3)
    result = permutation_test(sample, PhiKind.L2, B=10, seed=5, exhaustive_budget=50)
    assert result.mode == "exhaustive"
    assert result.b_used == math.comb(6, 3)
    # p-value is the fraction of all distinct assignments at or above observed
    G = gram(sample)
    stats = []
    for combo in itertools.combinations(range(6), 3):
        relabel = np.ones(6, np.int8)
        relabel[list(combo)] = 0
        stats.append(pbf_statistic_oracle(G, relabel, PhiKind.L2))
    expected = np.mean(np.asarray(stats) >= result.zeta_hat - 1e-12)
    assert result.p_value == pytest.approx(expected, abs=1e-12)
    assert result.p_value >= 1.0 / math.comb(6, 3)


def test_result_json_shape(rng):
    sample = _null_sample(rng, 4, 5)
    result = permutation_test(sample, PhiKind.EXP, B=19, seed=2, keep_replicates=True)
    payload = result.to_json_dict()
    assert set(payload) == {
        "zeta_hat", "scaled", "p_value", "B", "mode", "phi", "n", "m", "seed", "replicates",
    }
    assert payload["phi"] == "exp"
    assert payload["B"] == 19
    assert len(payload["replicates"]) == 19
    bare = permutation_test(sample, PhiKind.EXP, B=19, seed=2).to_json_dict()
    assert "replicates" not in bare


def test_b_zero_rejected(rng):
    sample = _null_sample(rng, 3, 3)
    with pytest.raises(ValueError):
        permutation_test(sample, PhiKind.L2, B=0)


def test_level_null_wiener_b500():
    # observed level stays in the nominal band under the null
    config = ScenarioConfig(
        scenario="ex1", n=50, m=50, B=500, alpha=0.05, reps=400,
        phis=(PhiKind.L2,), seed=8118, workers=2,
    )
    estimate = run_power(config)[PhiKind.L2]
    assert 0.03 <= estimate.rejection_rate <= 0.07


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_statistic_raises(rng):
    # Gram entries near 1e200 are finite, but squared projection gaps
    # overflow, so log's statistic is not; l2 sorts and never squares them
    values = rng.standard_normal((20, 5)) * 1e100
    sample = make_sample(values[:10], values[10:], "coeff")
    with pytest.raises(NumericalError):
        permutation_test(sample, PhiKind.LOG, B=19, seed=1)
    result = permutation_test(sample, PhiKind.L2, B=19, seed=1)
    assert np.isfinite(result.zeta_hat) and 0.0 < result.p_value <= 1.0
