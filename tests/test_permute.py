import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pbftest import (
    NumericalError,
    PhiKind,
    gram,
    gram_call_count,
    make_sample,
    pbf_statistic_oracle,
    permutation_test,
    run_power,
    ScenarioConfig,
)
from pbftest import permute
from pbftest._rng import MASK64, substream
from pbftest.harness import run_single_replication
from pbftest.permute import _relabelings


def _null_sample(rng, n=6, m=6, dim=4):
    values = rng.standard_normal((n + m, dim))
    return make_sample(values[:n], values[n:], "coeff")


def test_permuted_statistic_matches_oracle_on_relabeled_sample(rng):
    sample = _null_sample(rng, 5, 7)
    G = gram(sample)
    amat = _relabelings(12, 5, 40, 8)
    for kind in PhiKind:
        result = permutation_test(sample, kind, B=40, seed=8, keep_replicates=True)
        for flags, fast in zip(amat, result.replicate_stats):
            oracle = pbf_statistic_oracle(G, (1.0 - flags).astype(np.int8), kind)
            assert abs(fast - oracle) <= 1e-10 * (1.0 + abs(oracle))


@pytest.mark.parametrize("n, m", [(20, 20), (3, 5), (1, 7), (6, 1)])
@pytest.mark.parametrize("seed", [0, 99, -7, 2**64 + 5])
def test_relabelings_match_per_row_construction(n, m, seed):
    N = n + m
    for B in (60, 1):
        amat = _relabelings(N, n, B, seed)
        expected = np.zeros((B, N))
        for i in range(1, B + 1):
            rng = np.random.Generator(np.random.Philox(key=(seed ^ i) & MASK64))
            expected[i - 1, rng.permutation(N)[:n]] = 1.0
        assert np.array_equal(amat, expected)


def test_one_substream_per_relabeling(rng, monkeypatch):
    # perfbench asserts rng.substreams == B x tests; a construction change
    # that alters this count must come with a benchmark change
    calls = []

    def counted(seed, index=0):
        calls.append(index)
        return substream(seed, index)

    monkeypatch.setattr(permute, "substream", counted)
    permutation_test(_null_sample(rng, 10, 10), PhiKind.L2, B=37, seed=5)
    assert sorted(calls) == list(range(1, 38))
    calls.clear()
    config = ScenarioConfig(scenario="ex1", n=6, m=6, B=23, reps=1, phis=tuple(PhiKind), seed=3)
    run_single_replication(config, 0)
    assert len(calls) == 3 * 23


@st.composite
def small_samples(draw):
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    values = draw(arrays(float, (n + m, draw(st.integers(1, 3))), elements=st.floats(-3.0, 3.0)))
    return make_sample(values[:n], values[n:], "coeff")


@settings(max_examples=60, deadline=None)
@given(
    small_samples(),
    st.sampled_from(list(PhiKind)),
    st.integers(1, 40),
    st.integers(-(2**64), 2**64),
)
def test_pvalue_range_property(sample, kind, B, seed):
    result = permutation_test(sample, kind, B=B, seed=seed)
    assert 0.0 < result.p_value <= 1.0
    assert result.b_used == B
    count = round(result.p_value * (B + 1))
    assert 1 <= count <= B + 1
    assert result.p_value == count / (B + 1)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 8),
    st.integers(0, 6),
    st.integers(2, 5),
    st.integers(-8, 8),
    st.integers(1, 30),
    st.integers(0, 2**64 - 1),
    st.data(),
)
def test_l2_scale_invariance_property(n, extra, dim, k, B, seed, data):
    # l2 is linear in the Gram entries, which scaling by 2^k multiplies by
    # exactly 4^k; magnitudes from 2^-20 keep every product off subnormals
    m = n + extra  # extra = 0 draws n = m, the rest the excess-GEMM path
    cell = st.floats(-3.0, 3.0).filter(lambda v: v == 0.0 or abs(v) >= 2.0**-20)
    values = data.draw(arrays(float, (n + m, dim), elements=cell))
    base = make_sample(values[:n], values[n:], "coeff")
    scaled = make_sample(values[:n] * 2.0**k, values[n:] * 2.0**k, "coeff")
    a = permutation_test(base, PhiKind.L2, B=B, seed=seed, keep_replicates=True)
    b = permutation_test(scaled, PhiKind.L2, B=B, seed=seed, keep_replicates=True)
    assert b.zeta_hat == a.zeta_hat * 4.0**k
    assert np.array_equal(b.replicate_stats, a.replicate_stats * 4.0**k)
    assert b.p_value == a.p_value


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(1, 6),
    st.integers(-3, 3),
    st.sampled_from(list(PhiKind)),
    st.integers(0, 2**32 - 1),
)
def test_unitary_invariance_property(n, m, dim, k, kind, seed):
    # the statistic reads the curves only through inner products, which an
    # orthogonal map of the coefficients keeps up to rounding; normal draws,
    # because near-equal curves leave only rounding noise to compare
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n + m, dim)) * 10.0**k
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q *= np.where(np.diag(r) < 0.0, -1.0, 1.0)  # Haar-distributed with the sign fix
    base = make_sample(values[:n], values[n:], "coeff")
    rotated = make_sample(values[:n] @ q, values[n:] @ q, "coeff")
    a = permutation_test(base, kind, B=20, seed=seed, keep_replicates=True)
    b = permutation_test(rotated, kind, B=20, seed=seed, keep_replicates=True)
    want = np.concatenate([[a.zeta_hat], a.replicate_stats])
    got = np.concatenate([[b.zeta_hat], b.replicate_stats])
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(1, 4),
    st.integers(-320, 308),  # 1e308 is the largest power of ten a double holds
    st.sampled_from(list(PhiKind)),
    st.data(),
)
def test_extreme_scales_are_finite_or_numerical_error_property(n, m, dim, k, kind, data):
    # from subnormal to overflowing inner products: a p-value is right or an error
    cells = data.draw(arrays(float, (n + m, dim), elements=st.floats(-1.0, 1.0)))
    values = cells * float(f"1e{k}")
    sample = make_sample(values[:n], values[n:], "coeff")
    try:
        result = permutation_test(sample, kind, B=20, seed=k)
    except NumericalError:
        return
    assert np.isfinite(result.zeta_hat) and np.isfinite(result.scaled)
    assert 0.0 < result.p_value <= 1.0


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


def test_result_json_shape(rng):
    sample = _null_sample(rng, 4, 5)
    result = permutation_test(sample, PhiKind.EXP, B=19, seed=2, keep_replicates=True)
    payload = result.to_json_dict()
    assert set(payload) == {
        "zeta_hat", "scaled", "p_value", "B", "mode", "phi", "n", "m", "seed", "replicates",
    }
    assert payload["phi"] == "exp" and payload["mode"] == "randomized"
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
