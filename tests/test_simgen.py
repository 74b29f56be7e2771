import math

import numpy as np
import pytest

from pbftest import (
    BASIS_WEIGHTS,
    SCENARIO_IDS,
    GridSpec,
    ScenarioParams,
    build_scenario,
    equispaced_grid,
    gen_basis,
    gen_mixture,
    gen_shifted_wiener,
    gen_sincos,
    gen_wiener,
    generate_pair,
)
from pbftest.simgen import MIXTURE_IDS, sincos_frame_on_grid, trig_basis_on_grid

GRID = equispaced_grid(101)


def test_wiener_starts_at_zero():
    paths = gen_wiener(200, GRID, seed=1)
    assert np.array_equal(paths[:, 0], np.zeros(200))


def test_wiener_terminal_variance():
    paths = gen_wiener(10000, GRID, seed=2)
    var = paths[:, -1].var(ddof=1)
    # Var W(1) = 1; variance of the sample variance ~ 2/n
    assert abs(var - 1.0) <= 3.0 * math.sqrt(2.0 / 10000)


def test_wiener_covariance_min_s_t():
    paths = gen_wiener(10000, GRID, seed=3)
    s = paths[:, 50]  # t = 0.5
    t = paths[:, -1]  # t = 1.0
    cov = np.mean(s * t) - s.mean() * t.mean()
    # Cov(W(s), W(t)) = min(s, t); moment-estimator SE ~ sqrt((st + min^2)/n)
    se = math.sqrt((0.5 * 1.0 + 0.25) / 10000)
    assert abs(cov - 0.5) <= 3.0 * se


def test_wiener_rejects_irregular_grid():
    with pytest.raises(ValueError):
        gen_wiener(3, GridSpec(np.array([0.0, 0.3, 1.0])), seed=0)
    with pytest.raises(ValueError):
        gen_wiener(3, GridSpec(np.array([0.5, 0.75, 1.0])), seed=0)


def test_shifted_wiener_zero_shift_identical():
    base = gen_wiener(20, GRID, seed=7)
    shifted = gen_shifted_wiener(20, "quadratic", 0.0, GRID, seed=7)
    assert np.array_equal(base, shifted)


def test_shifted_wiener_means():
    quad = gen_shifted_wiener(10000, "quadratic", 1.0, GRID, seed=8)
    assert abs(quad[:, -1].mean() - 1.0) <= 3.0 / math.sqrt(10000)
    expo = gen_shifted_wiener(10000, "exponential", 0.3, GRID, seed=9)
    assert abs(expo[:, 0].mean() - 0.3) <= 1e-12  # W(0) = 0, so the mean is exact


def test_shifted_wiener_unknown_kind():
    with pytest.raises(ValueError):
        gen_shifted_wiener(3, "cubic", 1.0, GRID, seed=0)


def test_basis_weights_value():
    assert BASIS_WEIGHTS.shape == (9,)
    assert BASIS_WEIGHTS[0] == 1.0
    assert BASIS_WEIGHTS[8] == pytest.approx(9.0**-2.5)


def test_basis_norm_mean():
    curves = gen_basis(10000, BASIS_WEIGHTS, ("normal", 0.0, 1.0), seed=10)
    norms = np.sum(curves**2, axis=1)
    expected = float(np.sum(BASIS_WEIGHTS**2))  # sum_i i^-5
    assert expected == pytest.approx(1.0368973, abs=1e-6)
    # Var ||X||^2 = 2 sum w^4 for standard normal coefficients
    se = math.sqrt(2.0 * np.sum(BASIS_WEIGHTS**4) / 10000)
    assert abs(norms.mean() - expected) <= 3.0 * se


def test_basis_cauchy_median():
    curves = gen_basis(10000, BASIS_WEIGHTS, ("cauchy", 1.0), seed=11)
    med = np.median(curves[:, 0] / BASIS_WEIGHTS[0])
    # median CI via the sign construction: ~ tan(pi * 1.5 sd of a fair coin)
    assert abs(med) <= 0.05


def test_basis_shifted_normal_mean():
    curves = gen_basis(10000, BASIS_WEIGHTS, ("normal", 1.0, 1.0), seed=12)
    mean = np.mean(curves[:, 0] / BASIS_WEIGHTS[0])
    assert abs(mean - 1.0) <= 3.0 / math.sqrt(10000)


def test_basis_empty_weights():
    with pytest.raises(ValueError):
        gen_basis(3, [], ("normal", 0.0, 1.0), seed=0)


def test_sincos_sides_are_orthogonal():
    x = gen_sincos(40, 5, "sin", ("normal", 0.0, math.sqrt(2)), seed=13)
    y = gen_sincos(40, 5, "cos", ("normal", 0.0, math.sqrt(2)), seed=14)
    assert np.array_equal(x @ y.T, np.zeros((40, 40)))


def test_sincos_inner_product_identity():
    d = 7
    x = gen_sincos(2, d, "sin", ("normal", 0.0, math.sqrt(2)), seed=15)
    xi1 = x[0, :d] * math.sqrt(d)
    xi2 = x[1, :d] * math.sqrt(d)
    assert float(x[0] @ x[1]) == pytest.approx(float(np.sum(xi1 * xi2) / d), abs=1e-15)


def test_sincos_unit_coefficient_norms():
    sin_side = gen_sincos(1, 1, "sin", ("normal", 1.0, 0.0), seed=0)
    assert float(np.sum(sin_side**2)) == pytest.approx(1.0, abs=1e-15)
    cos_literal = gen_sincos(1, 1, "cos", ("normal", 1.0, 0.0), seed=0)
    assert float(np.sum(cos_literal**2)) == pytest.approx(0.5, abs=1e-15)
    cos_scaled = gen_sincos(1, 1, "cos", ("normal", 1.0, 0.0), seed=0, normalized_cos=True)
    assert float(np.sum(cos_scaled**2)) == pytest.approx(1.0, abs=1e-15)


def test_sincos_t4_variance():
    y = gen_sincos(20000, 3, "cos", ("t", 4), seed=16)
    eta = y[:, 3:] * math.sqrt(3) * math.sqrt(2)
    # t_4 variance is df/(df-2) = 2; generous band, fourth moment is heavy
    assert abs(eta.var() - 2.0) <= 0.15


def test_sincos_validation():
    with pytest.raises(ValueError):
        gen_sincos(3, 0, "sin", ("normal", 0.0, 1.0), seed=0)
    with pytest.raises(ValueError):
        gen_sincos(3, 2, "tan", ("normal", 0.0, 1.0), seed=0)


def _constant_curve_fn(level):
    return lambda count, seed: np.full((count, 1), float(level))


def test_mixture_extreme_rates():
    base = _constant_curve_fn(0.0)
    cont = _constant_curve_fn(1.0)
    all_base = gen_mixture(100, base, cont, delta=0.0, seed=17)
    assert np.array_equal(all_base, np.zeros((100, 1)))
    all_cont = gen_mixture(100, base, cont, delta=10.0, seed=18)
    assert np.array_equal(all_cont, np.ones((100, 1)))
    with pytest.raises(ValueError):
        gen_mixture(100, base, cont, delta=10.5, seed=0)


def test_mixture_rate_matches_bernoulli():
    base = _constant_curve_fn(0.0)
    cont = _constant_curve_fn(1.0)
    total, hits = 0, 0
    for batch in range(200):
        draw = gen_mixture(100, base, cont, delta=2.0, seed=batch)
        hits += int(draw.sum())
        total += 100
    rate = hits / total
    se = math.sqrt(0.2 * 0.8 / total)
    assert abs(rate - 0.2) <= 3.0 * se


def test_generator_determinism():
    a = gen_basis(10, BASIS_WEIGHTS, ("normal", 0.0, 1.0), seed=21)
    b = gen_basis(10, BASIS_WEIGHTS, ("normal", 0.0, 1.0), seed=21)
    c = gen_basis(10, BASIS_WEIGHTS, ("normal", 0.0, 1.0), seed=22)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_all_scenarios_generate():
    for sid in SCENARIO_IDS:
        scenario = build_scenario(sid, ScenarioParams(r=0.5, sigma=1.5, d=9, delta=1.0))
        sample = generate_pair(scenario, 4, 5, seed=31)
        assert sample.n == 4 and sample.m == 5
        if sid in ("ex1", "ex2", "ex4i", "ex4ii"):
            assert sample.kind == "grid" and sample.grid is not None
        else:
            assert sample.kind == "coeff"
        if sid in ("ex6i", "ex6ii", "ex7"):
            assert sample.values.shape[1] == 18  # 2d with d = 9


def test_trig_basis_orthonormal_under_quadrature():
    from pbftest.simgen import trig_basis_on_grid

    grid = equispaced_grid(201)
    basis = trig_basis_on_grid(9, grid.points)
    w = grid.weights()
    gram = (basis * w) @ basis.T
    assert np.allclose(gram, np.eye(9), atol=1e-3)


def test_sampled_on_grid_rendering_consistency():
    from pbftest.simgen import MIXTURE_IDS, sincos_frame_on_grid, trig_basis_on_grid

    coeff = build_scenario("ex6i", ScenarioParams(d=5))
    rendered = build_scenario("ex6i", ScenarioParams(d=5), sampled_on_grid=True)
    s_c = generate_pair(coeff, 3, 3, seed=9)
    s_g = generate_pair(rendered, 3, 3, seed=9)
    assert s_c.kind == "coeff" and s_g.kind == "grid"
    frame = sincos_frame_on_grid(5, rendered.grid.points)
    assert np.allclose(s_g.values, s_c.values @ frame, atol=1e-12)

    coeff9 = build_scenario("ex3")
    rendered9 = build_scenario("ex3", sampled_on_grid=True)
    b_c = generate_pair(coeff9, 2, 2, seed=10)
    b_g = generate_pair(rendered9, 2, 2, seed=10)
    basis = trig_basis_on_grid(9, rendered9.grid.points)
    assert np.allclose(b_g.values, b_c.values @ basis, atol=1e-12)


def test_sampled_on_grid_no_op_for_wiener():
    plain = build_scenario("ex1")
    flagged = build_scenario("ex1", sampled_on_grid=True)
    s1 = generate_pair(plain, 3, 3, seed=12)
    s2 = generate_pair(flagged, 3, 3, seed=12)
    assert np.array_equal(s1.values, s2.values)


def test_unknown_scenario():
    with pytest.raises(ValueError):
        build_scenario("ex99")


def test_scenario_pair_determinism():
    scenario = build_scenario("ex7", ScenarioParams(d=9, delta=2.0))
    s1 = generate_pair(scenario, 6, 6, seed=77)
    s2 = generate_pair(scenario, 6, 6, seed=77)
    assert np.array_equal(s1.values, s2.values)


SPEC_GRID = equispaced_grid(51)


def _scenario_spec(p):
    """Each scenario's X and Y generators, as README's scenario table states them.

    A generator is (name, *arguments): ("wiener",), ("shifted", trend, r),
    ("basis", dist), ("sincos", side, dist) or ("mixture", base, contaminant),
    drawn by `_draw_spec`.
    """
    n01, n02 = ("normal", 0.0, 1.0), ("normal", 0.0, math.sqrt(2.0))
    sine = ("sincos", "sin", n02)
    return {
        "ex1": (("wiener",), ("wiener",)),
        "ex2": (("shifted", "linear", 1.0), ("shifted", "linear", 1.0)),
        "ex3": (("basis", n01), ("basis", n01)),
        "ex4i": (("wiener",), ("shifted", "quadratic", p.r)),
        "ex4ii": (("wiener",), ("shifted", "exponential", p.r)),
        "ex5i": (("basis", n01), ("basis", ("normal", 0.0, p.sigma))),
        "ex5ii": (("basis", ("cauchy", 1.0)), ("basis", ("cauchy", p.sigma))),
        "ex6i": (sine, ("sincos", "cos", n02)),
        "ex6ii": (sine, ("sincos", "cos", ("t", 4))),
        "ex7": (sine, ("mixture", sine, ("sincos", "cos", n02))),
        "ex8": (("basis", n01), ("mixture", ("basis", n01), ("basis", ("normal", 1.0, 1.0)))),
        "ex9": (("basis", n01), ("mixture", ("basis", n01), ("basis", n02))),
    }


def _draw_spec(spec, count, seed, p, normalized_cos):
    name, *args = spec
    if name == "wiener":
        return gen_wiener(count, SPEC_GRID, seed)
    if name == "shifted":
        return gen_shifted_wiener(count, *args, SPEC_GRID, seed)
    if name == "basis":
        return gen_basis(count, BASIS_WEIGHTS, *args, seed)
    if name == "sincos":
        return gen_sincos(count, p.d, *args, seed, normalized_cos)
    base, contaminant = (
        lambda c, s, part=part: _draw_spec(part, c, s, p, normalized_cos) for part in args
    )
    return gen_mixture(count, base, contaminant, p.delta, seed)


@pytest.mark.parametrize("normalized_cos", [False, True])
@pytest.mark.parametrize(
    "params", [ScenarioParams(), ScenarioParams(r=0.3, sigma=1.5, d=7, delta=2.0)], ids=repr
)
def test_scenarios_draw_their_specified_generators(params, normalized_cos):
    # bit for bit, in both representations; a rendered scenario is its
    # coefficient draw times its frame on the grid, and Wiener ones ignore the flag
    spec = _scenario_spec(params)
    assert tuple(spec) == SCENARIO_IDS
    assert tuple(sid for sid, (_, y) in spec.items() if y[0] == "mixture") == MIXTURE_IDS
    t = SPEC_GRID.points
    frames = {"basis": trig_basis_on_grid(9, t), "sincos": sincos_frame_on_grid(params.d, t)}
    n, m, seed = 7, 12, 2024
    for sid, (x_spec, y_spec) in spec.items():
        x = _draw_spec(x_spec, n, seed, params, normalized_cos)
        y = _draw_spec(y_spec, m, seed + 1, params, normalized_cos)
        coeff = build_scenario(sid, params, SPEC_GRID, normalized_cos)
        rendered = build_scenario(sid, params, SPEC_GRID, normalized_cos, sampled_on_grid=True)
        assert np.array_equal(coeff.x_fn(n, seed), x), sid
        assert np.array_equal(coeff.y_fn(m, seed + 1), y), sid
        frame = frames.get(x_spec[0])
        if frame is None:
            assert coeff.kind == "grid" and coeff.grid is SPEC_GRID
        else:
            assert coeff.kind == "coeff" and coeff.grid is None
            x, y = x @ frame, y @ frame
        assert rendered.kind == "grid" and rendered.grid is SPEC_GRID
        assert np.array_equal(rendered.x_fn(n, seed), x), sid
        assert np.array_equal(rendered.y_fn(m, seed + 1), y), sid
