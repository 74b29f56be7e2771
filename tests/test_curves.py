import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbftest import (
    DataError,
    FunctionalSample,
    GridSpec,
    NumericalError,
    equispaced_grid,
    gram,
    gram_entries,
    make_sample,
    read_curves_csv,
    write_curves_csv,
)
from pbftest import curves
from pbftest.curves import _MISSING_TOKENS, RIEMANN_LEFT, _read_rows


GRID101 = equispaced_grid(101)


def _inner(a, b, kind="grid", grid=None):
    return gram_entries(np.vstack([a, b]), kind, grid)[0, 1]


def test_coeff_orthonormal_directions():
    assert _inner([1.0, 0.0], [0.0, 1.0], "coeff") == 0.0


def test_grid_constant_times_linear():
    t = GRID101.points
    # trapezoid is exact for this piecewise-linear integrand
    assert _inner(np.ones_like(t), t, grid=GRID101) == pytest.approx(0.5, abs=1e-12)


def test_grid_linear_squared():
    t = GRID101.points
    assert _inner(t, t, grid=GRID101) == pytest.approx(1.0 / 3.0, abs=2e-5)


def test_riemann_left_cross_check():
    grid = equispaced_grid(101, RIEMANN_LEFT)
    t = grid.points
    # left sums undershoot the increasing integrand by h/2
    assert _inner(np.ones_like(t), t, grid=grid) == pytest.approx(0.495, abs=1e-12)


def test_inner_product_errors():
    with pytest.raises(ValueError, match="requires a GridSpec"):
        _inner([1.0, 0.0], [1.0, 0.0])  # grid kind without a grid


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec([0.0, 0.5, 0.4])
    with pytest.raises(ValueError):
        GridSpec([0.0])
    with pytest.raises(ValueError):
        GridSpec([0.0, 1.0], "simpson")


def test_gram_single_constant_curve():
    sample = FunctionalSample(np.array([[1.0], [1.0]]), [0, 1], "coeff")
    assert np.array_equal(gram(sample), np.ones((2, 2)))


def test_gram_one_and_t_hand_values():
    t = GRID101.points
    sample = make_sample(np.ones_like(t), t, "grid", GRID101)
    expected = np.array([[1.0, 0.5], [0.5, 1.0 / 3.0]])
    assert np.allclose(gram(sample), expected, atol=2e-5)


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
    with pytest.raises(ValueError, match="non-empty"):
        FunctionalSample(values, [1, 1, 1], "coeff")  # the other group empty
    with pytest.raises(ValueError, match="one-dimensional"):
        FunctionalSample(values, [[0], [1], [1]], "coeff")
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


@pytest.mark.parametrize("token", ["inf", "-inf", "-nan", "+NaN", "1e999", " Infinity "])
def test_nonfinite_cell_is_data_error(tmp_path, token):
    # a non-finite cell that is not a missing token names its file and row
    plain = tmp_path / "plain.csv"
    plain.write_text(f"1,2,3\n4,NA,6\n7,{token},9\n")
    with pytest.raises(DataError, match=r"plain\.csv: row 3 has a non-finite cell"):
        read_curves_csv(plain)
    # a missing cell drops its row first, as it does for a non-numeric cell
    plain.write_text(f"1,2,3\n4,NA,{token}\n")
    values, _, dropped = read_curves_csv(plain)
    assert values.shape == (1, 3) and dropped == 1


def _read_rows_reference(path, header: bool):
    """The per-cell parser the fast path replaced, verbatim: strip, missing
    check and float() on every cell.  It keeps non-finite cells."""
    try:
        with open(path, newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: file contains no rows")

    abscissae = None
    if header:
        try:
            abscissae = np.array([float(cell) for cell in rows[0]], dtype=float)
        except ValueError as exc:
            raise DataError(f"{path}: header row is not numeric") from exc
        rows = rows[1:]
        if not rows:
            raise DataError(f"{path}: no data rows after header")

    width = len(rows[0])
    kept, dropped = [], 0
    for lineno, row in enumerate(rows, start=1):
        if len(row) != width:
            raise DataError(f"{path}: row {lineno} has {len(row)} columns, expected {width}")
        cells = [cell.strip() for cell in row]
        if any(cell.lower() in _MISSING_TOKENS for cell in cells):
            dropped += 1
            continue
        try:
            kept.append([float(cell) for cell in cells])
        except ValueError as exc:
            raise DataError(f"{path}: row {lineno} has a non-numeric cell") from exc
    if not kept:
        raise DataError(f"{path}: no usable rows (dropped {dropped})")
    if abscissae is not None and abscissae.size != width:
        raise DataError(f"{path}: header length does not match data width")
    return np.array(kept, dtype=float), abscissae, dropped


_PAD = st.text(st.sampled_from(" \t\x0b\x0c\u00a0\u2003"), max_size=2)
_NUMBER = st.floats(-1e6, 1e6).map(lambda v: f"{v!r}") | st.integers(-99, 99).map(str)
_MISSING = st.sampled_from(["", "NA", "na", "nA", "nan", "NaN", "NAN"])
_JUNK = st.sampled_from(["x", "N/A", "1.2.3", "--1", "nul"])
# cells csv must quote: an embedded delimiter, quote or line break
_QUOTED = st.sampled_from(["1,5", 'x"y', '"2"', "1\n2", "3\r\n", "4\r5", "NA,1"])
_CELL = st.builds(
    lambda pad, core, tail: pad + core + tail,
    _PAD,
    st.one_of(_NUMBER, _NUMBER, _NUMBER, _MISSING, _JUNK),
    _PAD,
)
# each file draws its line endings from one of these sets
_LINE_ENDS = st.sampled_from([("\n",), ("\r\n",), ("\n", "\r\n"), ("\r",), ("\r", "\n", "\r\n")])


@st.composite
def _curve_files(draw):
    """Rows of finite, missing, junk and padded cells, at times ragged."""
    header = draw(st.booleans())
    width = draw(st.integers(1, 4))
    rows = []
    if header:
        rows.append(draw(st.lists(_NUMBER | _JUNK, min_size=width, max_size=width + 1)))
    for _ in range(draw(st.integers(0, 6))):
        row = draw(st.lists(_CELL, min_size=width, max_size=width))
        if draw(st.integers(0, 15)) == 0:
            row = row[:-1] or row + ["1"]
        rows.append(row)
    return rows, header


@st.composite
def _curve_texts(draw):
    """A curve file's text, each line ending in \\n, \\r\\n or a lone \\r."""
    rows, header = draw(_curve_files())
    if rows and draw(st.integers(0, 3)) == 0:
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(_QUOTED)
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    ends = draw(_LINE_ENDS)
    text = io.StringIO()
    for row in rows:
        csv.writer(text, quoting=quoting, lineterminator=draw(st.sampled_from(ends))).writerow(row)
    return text.getvalue(), header


def _outcome(parse, path, header):
    try:
        return parse(path, header)
    except DataError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(_curve_texts())
def test_read_rows_matches_per_cell_reference_property(tmp_path_factory, drawn):
    # without inf-like cells both tokenizers (split for plain text, csv.reader
    # for quotes or a lone \r) must agree with the per-cell csv.reader parser
    # on values, abscissae, dropped counts and every message
    text, header = drawn
    path = tmp_path_factory.mktemp("csv") / "curves.csv"
    path.write_text(text, newline="")
    got = _outcome(_read_rows, path, header)
    want = _outcome(_read_rows_reference, path, header)
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert np.array_equal(got[0], want[0]) and got[0].shape == want[0].shape
    assert got[2] == want[2]
    if want[1] is None:
        assert got[1] is None
    else:
        assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("header", [False, True])
def test_written_file_with_na_rows_skips_csv_reader(tmp_path, monkeypatch, header):
    # write_curves_csv ends lines with \r\n; NA rows appended with \n make the
    # mixed file a benchmark reads, and it must parse without csv.reader
    path = tmp_path / "curves.csv"
    values = np.random.default_rng(3).standard_normal((5, 4))
    write_curves_csv(path, values, np.linspace(0, 1, 4) if header else None)
    with open(path, "a", newline="") as fh:
        fh.write("0.5,NA,1,2\n1,2,na,3\n")
    want = _read_rows_reference(path, header)
    assert want[0].shape == (5, 4) and want[2] == 2

    def no_reader(*args, **kwargs):
        raise AssertionError("csv.reader called")

    monkeypatch.setattr(curves.csv, "reader", no_reader)
    got = _read_rows(path, header)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[0], values)
    assert got[2] == want[2]
    assert np.array_equal(got[1], want[1]) if header else got[1] is None
