import csv

import numpy as np
import pytest

from knnrex import BadSpec, CsvFormatError, InconsistentMarginals, PointSet
from knnrex import dataio
from knnrex.dataio import (
    WRITE_BLOCK_ROWS,
    default_columns,
    read_marginals_csv,
    read_points_csv,
    write_points_csv,
)


def reference_write_points_csv(path, points):
    """The former row-by-row writer, kept as the byte-level oracle."""
    columns = points.columns or default_columns(points.dim)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for row in points.values:
            writer.writerow([repr(float(v)) for v in row])


# -0.0, subnormals, a large and a small power of ten, and 2**53 + 1 (not a
# float64: int input rounds it to 2**53 on both paths).
SPECIAL = [-0.0, 5e-324, 1e-310, 1e16, 1e-5, 2**53 + 1]


def _values(n, d, dtype, seed):
    """n x d values of ``dtype`` over many magnitudes, the first ones SPECIAL."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-20, 20, size=(n, d))
    if dtype == np.int64:
        values = np.rint(values).clip(-(2**62), 2**62)
    values = values.astype(dtype)
    flat = values.reshape(-1)
    for i, special in enumerate(SPECIAL[: flat.size]):
        flat[i] = special
    return values


def _assert_same_bytes(tmp_path, values, columns=None):
    points = PointSet(values, columns)
    write_points_csv(tmp_path / "new.csv", points)
    reference_write_points_csv(tmp_path / "old.csv", points)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_write_matches_row_writer_across_blocks(tmp_path, monkeypatch, dtype, d):
    block = 7
    monkeypatch.setattr(dataio, "WRITE_BLOCK_ROWS", block)
    for n in (0, 1, block - 1, block, block + 1, 2 * block + 1):
        _assert_same_bytes(tmp_path, _values(n, d, dtype, seed=n * 10 + d))


@pytest.mark.parametrize(
    "n, d",
    [
        (WRITE_BLOCK_ROWS - 1, 2),
        (WRITE_BLOCK_ROWS, 3),
        (WRITE_BLOCK_ROWS + 1, 1),
        (2 * WRITE_BLOCK_ROWS + 1, 1),
    ],
)
def test_write_matches_row_writer_at_block_size(tmp_path, n, d):
    _assert_same_bytes(tmp_path, _values(n, d, np.float64, seed=n + d))


def test_write_quotes_column_names_like_csv(tmp_path):
    values = _values(3, 3, np.float64, seed=1)
    _assert_same_bytes(tmp_path, values, ["a,b", 'say "hi"', "plain"])
    back = read_points_csv(tmp_path / "new.csv")
    assert back.columns == ["a,b", 'say "hi"', "plain"]
    assert np.array_equal(back.values, values)


def test_points_round_trip(tmp_path):
    path = tmp_path / "pts.csv"
    values = np.array([[0.1, -2.5], [3.0, 1e-17], [7.25, 123456.789]])
    write_points_csv(path, PointSet(values, ["age", "income"]))
    back = read_points_csv(path)
    assert back.columns == ["age", "income"]
    assert np.array_equal(back.values, values)


def test_points_default_columns(tmp_path):
    path = tmp_path / "pts.csv"
    write_points_csv(path, PointSet(np.zeros((2, 3))))
    assert read_points_csv(path).columns == ["x1", "x2", "x3"]


def test_points_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n3,oops\n")
    with pytest.raises(CsvFormatError, match="line 3"):
        read_points_csv(path)

    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(CsvFormatError, match="line 3"):
        read_points_csv(path)

    path.write_text("")
    with pytest.raises(CsvFormatError, match="empty"):
        read_points_csv(path)

    path.write_text("a,b\n")
    with pytest.raises(CsvFormatError, match="no data"):
        read_points_csv(path)


def test_points_non_finite_rejected_with_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    for text, line in (
        ("a,b\n1,2\n3,nan\n", 3),
        ("a,b\ninf,2\n3,4\n", 2),
        ("a,b\n1,2\n\n\n3,-Infinity\n5,nan\n", 5),  # blank lines still count
    ):
        path.write_text(text)
        with pytest.raises(CsvFormatError, match=f"line {line}: non-finite"):
            read_points_csv(path)


def test_marginals_round_trip(tmp_path):
    path = tmp_path / "marg.csv"
    path.write_text(
        "variable,lo,hi,freq\n"
        "age,0,18,30\n"
        "age,18,65,50\n"
        "age,65,120,20\n"
        "income,0,50000,60\n"
        "income,50000,200000,40\n"
    )
    marg = read_marginals_csv(path, total=100)
    assert marg.names == ("age", "income")
    assert np.allclose(marg.edges[0], [0, 18, 65, 120])
    assert np.array_equal(marg.freqs[1], [60, 40])


def test_marginals_must_tile(tmp_path):
    path = tmp_path / "marg.csv"
    path.write_text("variable,lo,hi,freq\nage,0,18,50\nage,20,65,50\n")
    with pytest.raises(BadSpec, match="tile"):
        read_marginals_csv(path, total=100)


def test_marginals_sum_mismatch(tmp_path):
    path = tmp_path / "marg.csv"
    path.write_text("variable,lo,hi,freq\nage,0,18,50\nage,18,65,49\n")
    with pytest.raises(InconsistentMarginals):
        read_marginals_csv(path, total=100)


def test_marginals_format_errors(tmp_path):
    path = tmp_path / "marg.csv"
    path.write_text("var,lo,hi,freq\nage,0,18,50\n")
    with pytest.raises(CsvFormatError, match="header"):
        read_marginals_csv(path, total=50)

    path.write_text("variable,lo,hi,freq\nage,0,18,fifty\n")
    with pytest.raises(CsvFormatError, match="line 2"):
        read_marginals_csv(path, total=50)

    path.write_text("variable,lo,hi,freq\nage,18,0,50\n")
    with pytest.raises(BadSpec, match="inverted"):
        read_marginals_csv(path, total=50)


# Pinned behaviour of read_points_csv: what it accepts, and the line numbers
# its diagnostics carry (blank lines count).


@pytest.mark.parametrize(
    "text, columns, values",
    [
        ('a,b\n"1.5",2\n', ["a", "b"], [[1.5, 2.0]]),  # quoted numeric field
        (" a , b \n 1.5 , 2\n", ["a", "b"], [[1.5, 2.0]]),  # space-padded fields and names
        ("a,b\n1_000,2\n", ["a", "b"], [[1000.0, 2.0]]),  # Python float() syntax
        ("a,b\r\n1,2\r\n3,4\r\n", ["a", "b"], [[1.0, 2.0], [3.0, 4.0]]),  # CRLF
        ("a,b\n\n1,2\n\n\n3,4\n\n", ["a", "b"], [[1.0, 2.0], [3.0, 4.0]]),  # blank lines skipped
    ],
)
def test_read_points_accepted_forms(tmp_path, text, columns, values):
    path = tmp_path / "pts.csv"
    path.write_bytes(text.encode())
    back = read_points_csv(path)
    assert back.columns == columns
    assert back.values.tolist() == values


@pytest.mark.parametrize(
    "text, message",
    [
        ("a,b\n1,2\n\n\n3,x\n", "line 5: non-numeric"),
        ("a,b\n\n1,2\n\n3\n", "line 5: expected 2 fields, got 1"),
        ('a,b\n"1,5",2\n', "line 2: non-numeric"),  # a quoted comma is not a decimal point
        ("a,b\r\n1,2\r\n\r\n3,nan\r\n", "line 4: non-finite"),
    ],
)
def test_read_points_diagnostic_lines(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode())
    with pytest.raises(CsvFormatError, match=message):
        read_points_csv(path)
