import numpy as np
import pytest

from pbftest import (
    Curve,
    DataError,
    FunctionalSample,
    GridSpec,
    NumericalError,
    equispaced_grid,
    gram,
    gram_entries,
    inner_product,
    make_sample,
    read_curves_csv,
    write_curves_csv,
)
from pbftest.curves import RIEMANN_LEFT


GRID101 = equispaced_grid(101)


def test_coeff_orthonormal_directions():
    a = Curve([1.0, 0.0], "coeff")
    b = Curve([0.0, 1.0], "coeff")
    assert inner_product(a, b) == 0.0


def test_grid_constant_times_linear():
    t = GRID101.points
    a = Curve(np.ones_like(t))
    b = Curve(t)
    # trapezoid is exact for this piecewise-linear integrand
    assert inner_product(a, b, GRID101) == pytest.approx(0.5, abs=1e-12)


def test_grid_linear_squared():
    t = GRID101.points
    b = Curve(t)
    assert inner_product(b, b, GRID101) == pytest.approx(1.0 / 3.0, abs=2e-5)


def test_riemann_left_cross_check():
    grid = equispaced_grid(101, RIEMANN_LEFT)
    t = grid.points
    value = inner_product(Curve(np.ones_like(t)), Curve(t), grid)
    # left sums undershoot the increasing integrand by h/2
    assert value == pytest.approx(0.495, abs=1e-12)


def test_inner_product_errors():
    a = Curve([1.0, 0.0], "coeff")
    g = Curve([1.0, 0.0], "grid")
    with pytest.raises(ValueError):
        inner_product(a, g)
    with pytest.raises(ValueError):
        inner_product(a, Curve([1.0, 0.0, 0.0], "coeff"))
    with pytest.raises(ValueError):
        inner_product(g, g)  # grid kind without a grid
    with pytest.raises(ValueError):
        inner_product(a, a, equispaced_grid(2))  # coeff kind with a grid


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec([0.0, 0.5, 0.4])
    with pytest.raises(ValueError):
        GridSpec([0.0])
    with pytest.raises(ValueError):
        GridSpec([0.0, 1.0], "simpson")


def test_curve_validation():
    with pytest.raises(ValueError):
        Curve([0.0, np.nan])
    with pytest.raises(ValueError):
        Curve([[0.0, 1.0]])
    with pytest.raises(ValueError):
        Curve([0.0, 1.0], "spline")


def test_gram_single_constant_curve():
    sample = FunctionalSample(np.array([[1.0], [1.0]]), [0, 1], "coeff")
    assert np.array_equal(gram(sample).entries, np.ones((2, 2)))


def test_gram_one_and_t_hand_values():
    t = GRID101.points
    sample = make_sample(np.ones_like(t), t, "grid", GRID101)
    expected = np.array([[1.0, 0.5], [0.5, 1.0 / 3.0]])
    assert np.allclose(gram(sample).entries, expected, atol=2e-5)


def test_gram_exactly_symmetric(rng):
    values = rng.standard_normal((15, 33)).cumsum(axis=1)
    grid = equispaced_grid(33)
    entries = gram_entries(values, "grid", grid)
    assert np.array_equal(entries, entries.T)
    entries_c = gram_entries(rng.standard_normal((10, 6)), "coeff")
    assert np.array_equal(entries_c, entries_c.T)


def test_gram_orthogonal_transform_invariance(rng):
    values = rng.standard_normal((12, 7))
    q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
    base = gram_entries(values, "coeff")
    rotated = gram_entries(values @ q, "coeff")
    assert np.max(np.abs(base - rotated)) <= 1e-10


def test_gram_grid_refinement_second_order():
    exact = np.array([[(np.e**2 - 1) / 2, np.e - 1], [np.e - 1, 1.0]])

    def entries(points):
        grid = equispaced_grid(points)
        t = grid.points
        return gram_entries(np.vstack([np.exp(t), np.ones_like(t)]), "grid", grid), grid

    coarse, _ = entries(101)
    fine, _ = entries(1001)
    assert np.max(np.abs(coarse - fine)) <= 1e-3
    # the 10x finer step shrinks the quadrature error ~100-fold
    err_coarse = np.max(np.abs(coarse - exact))
    err_fine = np.max(np.abs(fine - exact))
    assert err_fine <= err_coarse / 50.0


def test_gram_positive_semidefinite(rng):
    values = rng.standard_normal((20, 25)).cumsum(axis=1)
    entries = gram_entries(values, "grid", equispaced_grid(25))
    eigs = np.linalg.eigvalsh(entries)
    assert eigs.min() >= -1e-8 * eigs.max()
    assert np.diag(entries).min() >= -1e-12


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_gram_overflow_raises():
    values = np.full((3, 4), 1e160)
    with pytest.raises(NumericalError):
        gram_entries(values, "coeff")


def test_sample_validation():
    values = np.zeros((3, 4))
    with pytest.raises(ValueError):
        FunctionalSample(values, [0, 0, 0], "coeff")  # one group empty
    with pytest.raises(ValueError):
        FunctionalSample(values, [0, 1, 2], "coeff")
    with pytest.raises(ValueError):
        FunctionalSample(values, [0, 0, 1], "grid")  # missing grid
    with pytest.raises(ValueError):
        FunctionalSample(values, [0, 0, 1], "grid", equispaced_grid(5))
    bad = values.copy()
    bad[1, 2] = np.inf
    with pytest.raises(ValueError):
        FunctionalSample(bad, [0, 0, 1], "coeff")
    sample = FunctionalSample(values, [0, 1, 1], "coeff")
    assert (sample.n, sample.m, sample.size) == (1, 2, 3)


def test_csv_round_trip(tmp_path):
    path = tmp_path / "curves.csv"
    values = np.array([[0.25, -1.5, 3e-17], [1.0, 2.0, 3.0]])
    write_curves_csv(path, values)
    back, abscissae, dropped = read_curves_csv(path)
    assert np.array_equal(back, values)
    assert abscissae is None and dropped == 0


def test_csv_header_and_missing_rows(tmp_path):
    path = tmp_path / "curves.csv"
    path.write_text("0,0.5,1\n1,2,3\n4,,6\n7,8,9\n")
    values, abscissae, dropped = read_curves_csv(path, header=True)
    assert np.array_equal(abscissae, [0.0, 0.5, 1.0])
    assert values.shape == (2, 3) and dropped == 1


def test_csv_errors(tmp_path):
    missing = tmp_path / "nope.csv"
    with pytest.raises(DataError):
        read_curves_csv(missing)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2,3\n4,5\n")
    with pytest.raises(DataError):
        read_curves_csv(ragged)
    words = tmp_path / "words.csv"
    words.write_text("1,2,three\n")
    with pytest.raises(DataError):
        read_curves_csv(words)
    empty = tmp_path / "allmissing.csv"
    empty.write_text("1,,3\n,5,6\n")
    with pytest.raises(DataError):
        read_curves_csv(empty)
