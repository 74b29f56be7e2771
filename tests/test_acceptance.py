"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line (run pytest with -s to watch them).  The
power/level criteria compare against the published operating characteristics
at desk-scale replication counts, with three-binomial-SE tolerances.
"""

import math
import os
import time
import zlib

import numpy as np
import pytest

from pbftest import (
    PhiKind,
    ScenarioConfig,
    build_scenario,
    equispaced_grid,
    generate_pair,
    gram,
    gram_entries,
    make_sample,
    pbf_statistic,
    pbf_statistic_oracle,
    permutation_test,
    run_power,
    sample_limit_law,
    spectrum_estimate,
)
from pbftest import permute
from pbftest._rng import derive_seed

from instances import random_instance

WORKERS = min(os.cpu_count() or 1, 4)

def _report(criterion: str, ok: bool, detail: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{criterion}: {detail}"

def _power(scenario, n, m, phis, seed, reps=400, B=300, **params):
    config = ScenarioConfig(
        scenario=scenario, n=n, m=m, B=B, alpha=0.05, reps=reps,
        phis=tuple(phis), seed=seed, workers=WORKERS, **params,
    )
    return run_power(config)

def test_criterion_01_oracle_equivalence():
    rng = np.random.default_rng(11)
    grid = equispaced_grid(21)
    phis = list(PhiKind)
    start = time.time()
    worst = 0.0
    for trial in range(1000):
        kind = "coeff" if trial % 2 == 0 else "grid"
        G, labels = random_instance(rng, kind=kind, grid=grid)
        phi = phis[trial % 3]
        fast = pbf_statistic(G, labels, phi)
        oracle = pbf_statistic_oracle(G, labels, phi)
        worst = max(worst, abs(fast - oracle) / (1.0 + abs(oracle)))
    elapsed = time.time() - start
    _report(
        "criterion 1 (oracle equivalence, 1000 instances)",
        worst <= 1e-10 and elapsed <= 60.0,
        f"worst rel dev {worst:.2e}, {elapsed:.1f}s",
    )

def test_criterion_02_hand_value():
    G = np.array([[1.0, 0.5], [0.5, 1.0 / 3.0]])
    zeta = pbf_statistic(G, [0, 1], PhiKind.L2)
    # coefficient curves [1, 0] and [0.5, sqrt(1/12)] have G as their Gram matrix
    sample = make_sample([[1.0, 0.0]], [[0.5, math.sqrt(1.0 / 12.0)]], "coeff")
    value = permutation_test(sample, PhiKind.L2, B=1, seed=0)
    ok = (
        abs(zeta - 1.0 / 3.0) <= 1e-12
        and abs(value.zeta_hat - 1.0 / 3.0) <= 1e-12
        and abs(value.scaled - 1.0 / 6.0) <= 1e-12
    )
    _report(
        "criterion 2 (hand value)",
        ok,
        f"zeta_hat {zeta:.15f} (Gram), {value.zeta_hat:.15f} (test), scaled {value.scaled:.15f}",
    )

def test_criterion_03_invariance_suite():
    rng = np.random.default_rng(23)
    start = time.time()

    # swap symmetry: exchanging group labels leaves the statistic unchanged
    for _ in range(60):
        G, labels = random_instance(rng)
        phi = list(PhiKind)[int(rng.integers(3))]
        a = pbf_statistic(G, labels, phi)
        b = pbf_statistic(G, 1 - labels, phi)
        assert abs(a - b) <= 1e-12

    # self-match zero: identical group multisets
    for _ in range(40):
        values = rng.standard_normal((int(rng.integers(1, 9)), int(rng.integers(1, 6))))
        pooled = np.vstack([values, values])
        count = values.shape[0]
        G = gram_entries(pooled, "coeff")
        labels = np.concatenate([np.zeros(count, np.int8), np.ones(count, np.int8)])
        phi = list(PhiKind)[int(rng.integers(3))]
        assert abs(pbf_statistic(G, labels, phi)) <= 1e-12

    # shared orthogonal transforms leave the statistic unchanged
    for _ in range(40):
        dim = int(rng.integers(2, 8))
        values = rng.standard_normal((12, dim))
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        labels = np.concatenate([np.zeros(5, np.int8), np.ones(7, np.int8)])
        G = gram_entries(values, "coeff")
        G_rot = gram_entries(values @ q, "coeff")
        phi = list(PhiKind)[int(rng.integers(3))]
        a = pbf_statistic(G, labels, phi)
        b = pbf_statistic(G_rot, labels, phi)
        assert abs(a - b) <= 1e-8 * (1.0 + abs(a))

    # determinism per seed, bit-identical results
    scenario = build_scenario("ex3")
    for seed in (1, 2, 3):
        sample = generate_pair(scenario, 10, 10, seed)
        r1 = permutation_test(sample, PhiKind.EXP, B=80, seed=seed, keep_replicates=True)
        r2 = permutation_test(sample, PhiKind.EXP, B=80, seed=seed, keep_replicates=True)
        assert r1.zeta_hat == r2.zeta_hat and r1.p_value == r2.p_value
        assert np.array_equal(r1.replicate_stats, r2.replicate_stats)

    elapsed = time.time() - start
    _report("criterion 3 (invariance suite)", elapsed <= 60.0, f"{elapsed:.1f}s")

# Published levels (rejection rates under the null) for the three phi
# variants at n = m in {20, 50}.
REPORTED_LEVELS = {
    ("ex1", 20): {"l2": 0.050, "exp": 0.046, "log": 0.050},
    ("ex1", 50): {"l2": 0.042, "exp": 0.042, "log": 0.041},
    ("ex2", 20): {"l2": 0.051, "exp": 0.049, "log": 0.052},
    ("ex2", 50): {"l2": 0.042, "exp": 0.042, "log": 0.040},
    ("ex3", 20): {"l2": 0.037, "exp": 0.037, "log": 0.045},
    ("ex3", 50): {"l2": 0.042, "exp": 0.042, "log": 0.053},
}

def test_criterion_04_null_levels():
    start = time.time()
    failures = []
    observed = {}
    for (scenario, size), reported in REPORTED_LEVELS.items():
        estimates = _power(
            scenario, size, size, (PhiKind.L2, PhiKind.EXP, PhiKind.LOG),
            seed=derive_seed(40_000, size) ^ zlib.crc32(scenario.encode()),
        )
        for phi, est in estimates.items():
            target = reported[phi.value]
            tol = 3.0 * math.sqrt(target * (1.0 - target) / est.reps_done)
            observed[(scenario, size, phi.value)] = est.rejection_rate
            if abs(est.rejection_rate - target) > tol:
                failures.append(
                    f"{scenario} n={size} {phi.value}: {est.rejection_rate:.4f} vs {target}"
                )
            # null level must also stay within 3 MC standard errors of alpha
            if est.rejection_rate - 0.05 > 3.0 * max(est.mc_stderr, 1e-9):
                failures.append(
                    f"{scenario} n={size} {phi.value}: level {est.rejection_rate:.4f} above alpha band"
                )
    elapsed = time.time() - start
    lo = min(observed.values())
    hi = max(observed.values())
    _report(
        "criterion 4 (null levels, ex1-ex3)",
        not failures,
        f"rates in [{lo:.3f}, {hi:.3f}], {elapsed/60:.1f} min" + (
            "; " + "; ".join(failures) if failures else ""
        ),
    )

def test_criterion_05_location_power():
    est_quad = _power("ex4i", 50, 50, (PhiKind.L2,), seed=50_001, r=1.0)[PhiKind.L2]
    est_expo = _power("ex4ii", 50, 50, (PhiKind.L2,), seed=50_002, r=0.3)[PhiKind.L2]
    ok_quad = abs(est_quad.rejection_rate - 0.913) <= 0.045
    ok_expo = abs(est_expo.rejection_rate - 0.975) <= 0.045
    _report(
        "criterion 5 (location power)",
        ok_quad and ok_expo,
        f"quadratic r=1: {est_quad.rejection_rate:.3f} (target 0.913); "
        f"exponential r=0.3: {est_expo.rejection_rate:.3f} (target 0.975)",
    )

def test_criterion_06_scale_power_ordering():
    estimates = _power("ex5i", 50, 50, (PhiKind.EXP, PhiKind.L2), seed=60_001, sigma=2.0)
    rate_exp = estimates[PhiKind.EXP].rejection_rate
    rate_l2 = estimates[PhiKind.L2].rejection_rate
    ok = (
        abs(rate_exp - 0.909) <= 0.05
        and abs(rate_l2 - 0.798) <= 0.05
        and rate_exp > rate_l2
    )
    _report(
        "criterion 6 (scale power, sigma=2)",
        ok,
        f"exp {rate_exp:.3f} (target 0.909), l2 {rate_l2:.3f} (target 0.798)",
    )

def test_criterion_07_orthogonal_bases():
    estimates = _power(
        "ex6i", 30, 30, (PhiKind.L2, PhiKind.EXP, PhiKind.LOG), seed=70_001, d=81
    )
    rates = {phi.value: est.rejection_rate for phi, est in estimates.items()}
    ok = all(rate >= 0.99 for rate in rates.values())
    _report("criterion 7 (orthogonal bases, d=81)", ok, f"rates {rates}")

def test_criterion_08_contiguous_mixture():
    est_strong = _power("ex7", 100, 100, (PhiKind.L2,), seed=80_001, delta=4.0)[PhiKind.L2]
    # the published delta=1 coordinate reflects the grid-discretized
    # evaluation of the d=81 frames (aliasing on ~100 points); the exact
    # coefficient embedding yields materially higher power (~0.51)
    est_weak = _power(
        "ex7", 100, 100, (PhiKind.L2,), seed=80_002, delta=1.0, sampled_on_grid=True
    )[PhiKind.L2]
    ok = est_strong.rejection_rate >= 0.98 and abs(est_weak.rejection_rate - 0.414) <= 0.06
    _report(
        "criterion 8 (contiguous mixture)",
        ok,
        f"delta=4 (exact): {est_strong.rejection_rate:.3f} (>= 0.98); "
        f"delta=1 (grid-sampled): {est_weak.rejection_rate:.3f} (target 0.414)",
    )

def test_criterion_09_pvalue_uniformity():
    reps, B = 500, 300
    scenario = build_scenario("ex1")
    p_values = np.empty(reps)
    for i in range(reps):
        rep_seed = derive_seed(90_001, i)
        sample = generate_pair(scenario, 30, 30, derive_seed(rep_seed, 0))
        result = permutation_test(sample, PhiKind.L2, B=B, seed=derive_seed(rep_seed, 1))
        p_values[i] = result.p_value
    atoms = np.arange(1, B + 2) / (B + 1)
    empirical = np.searchsorted(np.sort(p_values), atoms, side="right") / reps
    ks = float(np.max(np.abs(empirical - atoms)))
    critical = math.sqrt(-0.5 * math.log(0.005)) / math.sqrt(reps)  # 1% level
    _report(
        "criterion 9 (p-value uniformity under H0)",
        ks <= critical,
        f"KS {ks:.4f} vs critical {critical:.4f}",
    )

def test_criterion_10_spectral_diagnostic():
    scenario = build_scenario("ex1")
    sample = generate_pair(scenario, 100, 100, seed=2026)
    G = gram(sample)
    result = permutation_test(sample, PhiKind.L2, B=2000, seed=2026, keep_replicates=True)
    perm_scaled = result.replicate_stats * (100 * 100 / 200)
    spec = spectrum_estimate(G, PhiKind.L2)
    draws = sample_limit_law(spec, 100_000, seed=2026)

    q_perm = float(np.quantile(perm_scaled, 0.95))
    q_limit = float(np.quantile(draws, 0.95))
    rel = abs(q_limit - q_perm) / q_perm

    pooled = np.sort(np.concatenate([perm_scaled, draws]))
    cdf_perm = np.searchsorted(np.sort(perm_scaled), pooled, side="right") / perm_scaled.size
    cdf_draw = np.searchsorted(np.sort(draws), pooled, side="right") / draws.size
    ks = float(np.max(np.abs(cdf_perm - cdf_draw)))

    _report(
        "criterion 10 (spectral null-law diagnostic)",
        rel <= 0.10 and ks <= 0.08,
        f"95th pct perm {q_perm:.4f} vs limit {q_limit:.4f} (rel {rel:.2%}); KS {ks:.3f}",
    )

def test_criterion_11_performance(monkeypatch):
    scenario = build_scenario("ex1")
    sample = generate_pair(scenario, 100, 100, seed=1101)
    calls = []
    monkeypatch.setattr(permute, "gram", lambda s: calls.append(s) or gram(s))
    start = time.time()
    result = permutation_test(sample, PhiKind.EXP, B=500, seed=1101)
    elapsed = time.time() - start
    gram_calls = len(calls)
    _report(
        "criterion 11 (performance)",
        elapsed <= 10.0 and gram_calls == 1,
        f"{elapsed:.2f}s for N=200 B=500 exp (p={result.p_value:.3f}), {gram_calls} Gram call",
    )
