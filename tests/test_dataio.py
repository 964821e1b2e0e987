import numpy as np
import pytest

from knnrex import BadSpec, CsvFormatError, InconsistentMarginals, PointSet
from knnrex.dataio import read_marginals_csv, read_points_csv, write_points_csv


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
