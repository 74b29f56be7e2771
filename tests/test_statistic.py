import math

import numpy as np
import pytest

from pbftest import (
    GramMatrix,
    PhiKind,
    batch_statistics,
    bf_statistic_1d,
    build_scenario,
    generate_pair,
    gram,
    gram_entries,
    pbf_statistic,
    pbf_statistic_oracle,
    phi_eval,
)
from pbftest.simgen import ScenarioParams

from instances import random_instance

HAND_GRAM = GramMatrix(np.array([[1.0, 0.5], [0.5, 1.0 / 3.0]]), 1, 1)
HAND_LABELS = np.array([0, 1])


def test_phi_eval_hand_values():
    assert phi_eval(PhiKind.L2, 0.25) == pytest.approx(0.25, abs=1e-15)
    assert phi_eval(PhiKind.EXP, 0.0) == 0.0
    assert phi_eval(PhiKind.LOG, math.e - 1.0) == pytest.approx(1.0, abs=1e-15)


def test_phi_eval_vectorized_and_errors():
    z = np.linspace(0.0, 50.0, 101)
    for kind in PhiKind:
        out = phi_eval(kind, z)
        assert out[0] == 0.0
        assert np.all(np.isfinite(out))
        assert np.all(np.diff(out) >= 0.0)  # nondecreasing on [0, inf)
    with pytest.raises(ValueError):
        phi_eval(PhiKind.L2, -1e-9)


def test_bf_1d_all_equal_projections():
    p = np.full(7, 0.3)
    labels = np.array([0, 0, 0, 1, 1, 1, 1])
    for kind in PhiKind:
        assert bf_statistic_1d(p, labels, kind) == 0.0


def test_bf_1d_hand_value():
    assert bf_statistic_1d([1.0, 0.5], [0, 1], PhiKind.L2) == pytest.approx(0.5, abs=1e-15)


def test_bf_1d_equal_groups_vanish(rng):
    values = rng.standard_normal(6)
    p = np.concatenate([values, values])
    labels = np.concatenate([np.zeros(6, int), np.ones(6, int)])
    for kind in PhiKind:
        assert abs(bf_statistic_1d(p, labels, kind)) <= 1e-12


def test_bf_1d_length_mismatch():
    with pytest.raises(ValueError):
        bf_statistic_1d([1.0, 2.0, 3.0], [0, 1], PhiKind.L2)


def test_bf_1d_l2_sorted_path_matches_pairwise(rng):
    for _ in range(25):
        size = int(rng.integers(2, 40))
        p = rng.standard_normal(size)
        labels = np.zeros(size, int)
        labels[rng.permutation(size)[: int(rng.integers(1, size))] ] = 1
        if labels.min() == labels.max():
            continue
        a, b = p[labels == 0], p[labels == 1]
        n, m = a.size, b.size
        direct = (
            2.0 * np.sum(phi_eval(PhiKind.L2, (a[:, None] - b[None, :]) ** 2)) / (n * m)
            - np.sum(phi_eval(PhiKind.L2, (a[:, None] - a[None, :]) ** 2)) / n**2
            - np.sum(phi_eval(PhiKind.L2, (b[:, None] - b[None, :]) ** 2)) / m**2
        )
        assert bf_statistic_1d(p, labels, PhiKind.L2) == pytest.approx(direct, abs=1e-12)


def test_pbf_hand_value_exact_gram():
    value = pbf_statistic(HAND_GRAM, HAND_LABELS, PhiKind.L2)
    assert value.zeta_hat == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert value.scaled == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_oracle_hand_values():
    assert pbf_statistic_oracle(HAND_GRAM, HAND_LABELS, PhiKind.L2) == pytest.approx(
        1.0 / 3.0, abs=1e-12
    )
    zeros = GramMatrix(np.zeros((5, 5)), 2, 3)
    labels = np.array([0, 0, 1, 1, 1])
    for kind in PhiKind:
        assert pbf_statistic_oracle(zeros, labels, kind) == 0.0


def test_pbf_self_match_zero(rng):
    values = rng.standard_normal((6, 4))
    pooled = np.vstack([values, values])
    entries = gram_entries(pooled, "coeff")
    labels = np.concatenate([np.zeros(6, np.int8), np.ones(6, np.int8)])
    G = GramMatrix(entries, 6, 6)
    for kind in PhiKind:
        assert abs(pbf_statistic(G, labels, kind).zeta_hat) <= 1e-12


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
        fast = pbf_statistic(G, labels, phi).zeta_hat
        oracle = pbf_statistic_oracle(G, labels, phi)
        worst = max(worst, abs(fast - oracle) / (1.0 + abs(oracle)))
    assert worst <= 1e-10


def test_pbf_swap_symmetry(rng):
    for _ in range(20):
        G, labels = random_instance(rng)
        swapped = GramMatrix(G.entries, G.m, G.n)
        for kind in PhiKind:
            a = pbf_statistic(G, labels, kind).zeta_hat
            b = pbf_statistic(swapped, 1 - labels, kind).zeta_hat
            assert abs(a - b) <= 1e-12


def test_pbf_unitary_invariance(rng):
    values = rng.standard_normal((14, 6))
    labels = np.concatenate([np.zeros(6, np.int8), np.ones(8, np.int8)])
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    G = GramMatrix(gram_entries(values, "coeff"), 6, 8)
    G_rot = GramMatrix(gram_entries(values @ q, "coeff"), 6, 8)
    for kind in PhiKind:
        a = pbf_statistic(G, labels, kind).zeta_hat
        b = pbf_statistic(G_rot, labels, kind).zeta_hat
        assert abs(a - b) <= 1e-8 * (1.0 + abs(a))


def test_scaled_form_consistency(rng):
    G, labels = random_instance(rng)
    value = pbf_statistic(G, labels, PhiKind.EXP)
    assert value.scaled == value.zeta_hat * G.n * G.m / (G.n + G.m)


def test_batch_matches_single_evaluations(rng):
    G, labels = random_instance(rng, max_group=8)
    rows = []
    for _ in range(12):
        perm = rng.permutation(labels.size)
        flags = np.zeros(labels.size)
        flags[perm[: G.n]] = 1.0
        rows.append(flags)
    amat = np.array(rows)
    for kind in PhiKind:
        batched = batch_statistics(G.entries, amat, G.n, G.m, kind)
        for row, expected in zip(amat, batched):
            single = pbf_statistic(G, (1 - row).astype(np.int8), kind).zeta_hat
            assert single == pytest.approx(expected, rel=1e-12, abs=1e-14)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        pbf_statistic(HAND_GRAM, [0, 1, 1], PhiKind.L2)
    with pytest.raises(ValueError):
        pbf_statistic(HAND_GRAM, [0, 0], PhiKind.L2)


def test_empirical_nonnegativity(rng):
    # not a proven property of the finite-sample V-statistic; checked
    # empirically on a seeded set, allowing tiny negative rounding
    smallest = np.inf
    for trial in range(300):
        G, labels = random_instance(rng)
        phi = list(PhiKind)[trial % 3]
        smallest = min(smallest, pbf_statistic(G, labels, phi).zeta_hat)
    assert smallest >= -1e-12


def test_mean_statistic_separates_shift_levels():
    # statistical check: a location alternative inflates the mean statistic
    null_scn = build_scenario("ex4i", ScenarioParams(r=0.0))
    alt_scn = build_scenario("ex4i", ScenarioParams(r=1.0))
    null_vals, alt_vals = [], []
    for rep in range(200):
        s0 = generate_pair(null_scn, 20, 20, seed=rep)
        s1 = generate_pair(alt_scn, 20, 20, seed=rep)
        null_vals.append(pbf_statistic(gram(s0), s0.labels, PhiKind.L2).zeta_hat)
        alt_vals.append(pbf_statistic(gram(s1), s1.labels, PhiKind.L2).zeta_hat)
    assert np.mean(alt_vals) > np.mean(null_vals)
