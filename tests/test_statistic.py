import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pbftest import (
    FunctionalSample,
    PhiKind,
    batch_statistics,
    build_scenario,
    generate_pair,
    gram,
    gram_entries,
    make_sample,
    pbf_statistic,
    pbf_statistic_oracle,
    permutation_test,
)
from pbftest import statistic
from pbftest.simgen import ScenarioParams

from instances import random_instance

HAND_GRAM = np.array([[1.0, 0.5], [0.5, 1.0 / 3.0]])
HAND_LABELS = np.array([0, 1])


def test_phi_eval_hand_values():
    # the oracle's scalar phi, independent of the kernel's in-place array phi
    phi = statistic._PHI_SCALAR
    assert phi[PhiKind.L2](0.25) == pytest.approx(0.25, abs=1e-15)
    assert phi[PhiKind.EXP](0.0) == 0.0
    assert phi[PhiKind.LOG](math.e - 1.0) == pytest.approx(1.0, abs=1e-15)


def test_phi_eval_vectorized_and_errors():
    # scalar and array phi agree, vanish at 0 and are nondecreasing on [0, inf)
    z = np.linspace(0.0, 50.0, 101)
    for kind in PhiKind:
        out = np.array([statistic._PHI_SCALAR[kind](v) for v in z])
        assert out[0] == 0.0
        assert np.all(np.isfinite(out))
        assert np.all(np.diff(out) >= 0.0)
        assert np.allclose(statistic._PHI_ARRAY[kind](z.copy()), out, rtol=1e-14, atol=0.0)


def test_pbf_hand_value_exact_gram():
    assert pbf_statistic(HAND_GRAM, HAND_LABELS, PhiKind.L2) == pytest.approx(1.0 / 3.0, abs=1e-12)
    # coefficient curves [1, 0] and [0.5, sqrt(1/12)] have HAND_GRAM as their Gram matrix
    sample = make_sample([[1.0, 0.0]], [[0.5, math.sqrt(1.0 / 12.0)]], "coeff")
    assert np.allclose(gram(sample), HAND_GRAM, rtol=0.0, atol=1e-15)
    result = permutation_test(sample, PhiKind.L2, B=1, seed=0)
    assert result.zeta_hat == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert result.scaled == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_oracle_hand_values():
    assert pbf_statistic_oracle(HAND_GRAM, HAND_LABELS, PhiKind.L2) == pytest.approx(
        1.0 / 3.0, abs=1e-12
    )
    zeros = np.zeros((5, 5))
    labels = np.array([0, 0, 1, 1, 1])
    for kind in PhiKind:
        assert pbf_statistic_oracle(zeros, labels, kind) == 0.0


def test_pbf_self_match_zero(rng):
    values = rng.standard_normal((6, 4))
    pooled = np.vstack([values, values])
    entries = gram_entries(pooled, "coeff")
    labels = np.concatenate([np.zeros(6, np.int8), np.ones(6, np.int8)])
    for kind in PhiKind:
        assert abs(pbf_statistic(entries, labels, kind)) <= 1e-12


def test_pbf_matches_oracle_random_instances(rng):
    grid = None
    worst = 0.0
    for trial in range(60):
        kind_name = "coeff" if trial % 2 == 0 else "grid"
        if kind_name == "grid" and grid is None:
            from pbftest import equispaced_grid

            grid = equispaced_grid(21)
        G, labels = random_instance(rng, kind=kind_name, grid=grid)
        phi = list(PhiKind)[trial % 3]
        fast = pbf_statistic(G, labels, phi)
        oracle = pbf_statistic_oracle(G, labels, phi)
        worst = max(worst, abs(fast - oracle) / (1.0 + abs(oracle)))
    assert worst <= 1e-10


def test_pbf_swap_symmetry(rng):
    for _ in range(20):
        G, labels = random_instance(rng)
        for kind in PhiKind:
            a = pbf_statistic(G, labels, kind)
            b = pbf_statistic(G, 1 - labels, kind)
            assert abs(a - b) <= 1e-12


def test_pbf_unitary_invariance(rng):
    values = rng.standard_normal((14, 6))
    labels = np.concatenate([np.zeros(6, np.int8), np.ones(8, np.int8)])
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    G = gram_entries(values, "coeff")
    G_rot = gram_entries(values @ q, "coeff")
    for kind in PhiKind:
        a = pbf_statistic(G, labels, kind)
        b = pbf_statistic(G_rot, labels, kind)
        assert abs(a - b) <= 1e-8 * (1.0 + abs(a))


def test_scaled_form_consistency(rng):
    n, m = 5, 9
    labels = rng.permutation(np.repeat(np.array([0, 1], np.int8), [n, m]))
    sample = FunctionalSample(rng.standard_normal((n + m, 4)), labels, "coeff")
    result = permutation_test(sample, PhiKind.EXP, B=20, seed=3)
    assert result.scaled == result.zeta_hat * n * m / (n + m)
    assert result.zeta_hat == pytest.approx(
        pbf_statistic(gram(sample), labels, PhiKind.EXP), rel=1e-12
    )


def test_batch_matches_single_evaluations(rng):
    G, labels = random_instance(rng, max_group=8)
    n = int(np.sum(labels == 0))
    rows = []
    for _ in range(12):
        perm = rng.permutation(labels.size)
        flags = np.zeros(labels.size)
        flags[perm[:n]] = 1.0
        rows.append(flags)
    amat = np.array(rows)
    for kind in PhiKind:
        batched = batch_statistics(G, amat, kind)
        for row, expected in zip(amat, batched):
            single = pbf_statistic(G, (1 - row).astype(np.int8), kind)
            assert single == pytest.approx(expected, rel=1e-12, abs=1e-14)


def test_batch_statistics_rejects_bad_relabeling_rows(rng):
    # n and m come from the rows, so rows that disagree on them are an error
    G = gram_entries(rng.standard_normal((8, 3)), "coeff")
    good = np.zeros((2, 8))
    good[0, :3] = good[1, 4:7] = 1.0
    uneven, half, nan = good.copy(), good.copy(), good.copy()
    uneven[1, 7] = 1.0
    half[0, 3] = 0.5
    nan[1, 0] = np.nan
    bad = {
        "different counts": uneven,
        "a 0.5 entry": half,
        "a NaN entry": nan,
        "all-0 rows": np.zeros((2, 8)),
        "all-1 rows": np.ones((2, 8)),
        "an all-0 row beside a valid one": np.vstack([good[:1], np.zeros((1, 8))]),
        "the wrong width": good[:, :7],
        "one dimension": good[0],
        "no rows": np.zeros((0, 8)),
    }
    for kind in PhiKind:
        assert np.all(np.isfinite(batch_statistics(G, good, kind)))
        for case, amat in bad.items():
            with pytest.raises(ValueError, match="relabeling"):
                batch_statistics(G, amat, kind)
                pytest.fail(case)  # reached only when nothing was raised


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        pbf_statistic(HAND_GRAM, [0, 1, 1], PhiKind.L2)
    with pytest.raises(ValueError):
        pbf_statistic(HAND_GRAM, [0, 0], PhiKind.L2)
    for evaluate in (pbf_statistic, pbf_statistic_oracle):
        with pytest.raises(ValueError, match="square"):
            evaluate(np.zeros((2, 3)), [0, 1], PhiKind.L2)


def test_empirical_nonnegativity(rng):
    # not a proven property of the finite-sample V-statistic; checked
    # empirically on a seeded set, allowing tiny negative rounding
    smallest = np.inf
    for trial in range(300):
        G, labels = random_instance(rng)
        phi = list(PhiKind)[trial % 3]
        smallest = min(smallest, pbf_statistic(G, labels, phi))
    assert smallest >= -1e-12


def test_mean_statistic_separates_shift_levels():
    # statistical check: a location alternative inflates the mean statistic
    null_scn = build_scenario("ex4i", ScenarioParams(r=0.0))
    alt_scn = build_scenario("ex4i", ScenarioParams(r=1.0))
    null_vals, alt_vals = [], []
    for rep in range(200):
        s0 = generate_pair(null_scn, 20, 20, seed=rep)
        s1 = generate_pair(alt_scn, 20, 20, seed=rep)
        null_vals.append(pbf_statistic(gram(s0), s0.labels, PhiKind.L2))
        alt_vals.append(pbf_statistic(gram(s1), s1.labels, PhiKind.L2))
    assert np.mean(alt_vals) > np.mean(null_vals)


@st.composite
def relabeled_instances(draw):
    """Gram matrix of a small coefficient sample plus relabelings of it."""
    n = draw(st.integers(1, 7))
    m = draw(st.one_of(st.just(n), st.integers(1, 7)))
    size = n + m
    values = draw(arrays(float, (size, draw(st.integers(1, 4))), elements=st.floats(-3.0, 3.0)))
    orders = draw(st.lists(st.permutations(range(size)), min_size=1, max_size=4))
    amat = np.zeros((len(orders), size))
    for row, order in zip(amat, orders):
        row[list(order[:n])] = 1.0
    return gram_entries(values, "coeff"), amat


@settings(max_examples=80, deadline=None)
@given(relabeled_instances(), st.sampled_from(list(PhiKind)), st.data())
def test_batch_statistics_matches_oracle_property(instance, kind, data):
    G, amat = instance
    N = G.shape[0]
    n = int(amat[0].sum())
    m = N - n
    if n == m:
        # with equal groups a relabeling and its complement are the same partition
        amat = np.vstack([amat, 1.0 - amat])
    pairs = N * (N - 1) // 2
    words = data.draw(st.integers(0, (pairs - 1) * N), label="words per block")
    whole = batch_statistics(G, amat, kind)
    with mock.patch.object(statistic, "_BLOCK_WORDS", words):
        blocks = sum(1 for _ in statistic._pair_blocks(G, kind))
        assert blocks > 1 or pairs == 1
        blocked = batch_statistics(G, amat, kind)
    for flags, a, b in zip(amat, whole, blocked):
        oracle = pbf_statistic_oracle(G, (1.0 - flags).astype(np.int8), kind)
        # criterion 1's tolerance
        assert abs(a - oracle) <= 1e-10 * (1.0 + abs(oracle))
        assert abs(b - oracle) <= 1e-10 * (1.0 + abs(oracle))
    if n == m:
        half = len(amat) // 2
        assert np.array_equal(whole[:half], whole[half:])
        assert np.array_equal(blocked[:half], blocked[half:])


@settings(max_examples=80, deadline=None)
@given(relabeled_instances(), st.sampled_from(list(PhiKind)), st.data())
def test_statistic_row_order_and_group_swap_invariance_property(instance, kind, data):
    G, amat = instance
    labels = (1.0 - amat[0]).astype(np.int8)
    zeta = pbf_statistic(G, labels, kind)
    tol = 1e-12 * (1.0 + abs(zeta))
    # row order: permute the pooled rows and their labels jointly
    order = np.array(data.draw(st.permutations(range(G.shape[0])), label="row order"))
    reordered = G[np.ix_(order, order)]
    assert abs(pbf_statistic(reordered, labels[order], kind) - zeta) <= tol
    # group swap: exchange the labels, and with them n and m
    assert abs(pbf_statistic(G, 1 - labels, kind) - zeta) <= tol
