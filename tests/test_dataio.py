import csv
import errno
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knnrex import BadSpec, CsvFormatError, InconsistentMarginals, PointSet, PointStream
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
        (2 * WRITE_BLOCK_ROWS + 1, 3),
        (3 * WRITE_BLOCK_ROWS, 2),
    ],
)
def test_write_matches_row_writer_at_block_size(tmp_path, n, d):
    _assert_same_bytes(tmp_path, _values(n, d, np.float64, seed=n + d))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# A formatter process that exits 1 once it has read the header of its first block.
FAILING_FORMATTER = "import sys; sys.stdin.buffer.read(8); sys.exit(1)"


@pytest.mark.parametrize("fails_in", ["child", "parent", "interrupt"])
def test_write_error_reaps_the_child(tmp_path, monkeypatch, fails_in):
    """A formatter process that fails makes the write raise OSError naming
    the path. An error or an interrupt in this process propagates without a
    hang although the formatter may still be formatting or blocked on a full
    pipe: the formatter is killed."""
    monkeypatch.setattr(dataio, "WRITE_BLOCK_ROWS", 1000)
    path = tmp_path / "out.csv"
    if fails_in == "child":
        monkeypatch.setattr(dataio, "_FORMATTER", FAILING_FORMATTER)
        error, message = OSError, f"^{re.escape(str(path))}: .*status 1$"
    else:
        error = ValueError if fails_in == "parent" else KeyboardInterrupt
        message = "^formatting failed$"

        def format_or_fail(line, block):
            raise error("formatting failed")

        monkeypatch.setattr(dataio, "_format_block", format_or_fail)
    with pytest.raises(error, match=message):
        write_points_csv(path, PointSet(_values(200_000, 2, np.float64, seed=4)))
    _assert_no_child_left()
    assert not path.exists()


@pytest.mark.parametrize("start", ["raises", "missing"])
def test_write_without_fork_writes_the_same_bytes(tmp_path, monkeypatch, start):
    """Where the formatter process cannot start (the spawn raises, or there
    is no interpreter to run it), this process formats every block."""

    def refuse(*args, **kwargs):
        raise OSError("spawn refused")

    monkeypatch.setattr(dataio, "WRITE_BLOCK_ROWS", 7)
    if start == "raises":
        monkeypatch.setattr(subprocess, "Popen", refuse)
    else:
        monkeypatch.setattr(sys, "executable", "")
    _assert_same_bytes(tmp_path, _values(3 * 7 + 2, 3, np.float64, seed=5))
    _assert_no_child_left()


def test_write_past_one_block_formats_in_one_reaped_process(tmp_path, monkeypatch):
    """The formatter starts only past one block, once per write, and is
    reaped when the write returns."""
    started = []
    popen = subprocess.Popen

    def spawn(*args, **kwargs):
        started.append(args[0][:4])
        return popen(*args, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", spawn)
    monkeypatch.setattr(dataio, "WRITE_BLOCK_ROWS", 7)
    _assert_same_bytes(tmp_path, _values(7, 2, np.float64, seed=6))
    assert started == []
    _assert_same_bytes(tmp_path, _values(4 * 7 + 3, 2, np.float64, seed=7))
    assert started == [[sys.executable, "-I", "-S", "-c"]]
    _assert_no_child_left()


def test_write_while_the_formatter_lags_writes_the_same_bytes(tmp_path, monkeypatch):
    """A formatter that answers late leaves this process to format the blocks
    after the one it holds, up to the lookahead, and then to wait for it."""
    monkeypatch.setattr(dataio, "WRITE_BLOCK_ROWS", 7)
    monkeypatch.setattr(dataio, "_FORMATTER", "import time\ntime.sleep(0.5)\n" + dataio._FORMATTER)
    formatted = []
    format_block = dataio._format_block

    def counting(line, block):
        formatted.append(block.shape[0])
        return format_block(line, block)

    monkeypatch.setattr(dataio, "_format_block", counting)
    values = _values(50, 3, np.float64, seed=9)
    write_points_csv(tmp_path / "stream.csv", PointSet(_stream(values, 5)))
    reference_write_points_csv(tmp_path / "ref.csv", PointSet(values))
    assert (tmp_path / "stream.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert formatted[: dataio._LOOKAHEAD] == [5] * dataio._LOOKAHEAD and 0 < len(formatted) < 10
    _assert_no_child_left()


# Writes, in a child process, the arrays and the stream that ``_large_writes``
# gives into the directory named by its argument.
LARGE_WRITES = """
import sys
from knnrex import PointSet
from test_dataio import _large_writes
from knnrex.dataio import write_points_csv
for name, values in _large_writes():
    write_points_csv(f"{sys.argv[1]}/{name}.csv", PointSet(values))
"""


def _large_writes():
    """(name, values) of a 300,000 x 3 and a 300,000 x 20 array, whose write
    blocks exceed the formatter's pipes, and of a stream of 8192 x 20 blocks
    (1.3 MB each, more than a 1 MiB pipe holds). Values are eighths, so
    their text is short."""
    rng = np.random.default_rng(12)
    for name, shape in (("narrow", (300_000, 3)), ("wide", (300_000, 20))):
        yield name, rng.integers(-4000, 4000, size=shape) / 8
    values = rng.integers(-4000, 4000, size=(6 * 8192 + 5, 20)) / 8
    yield "stream", _stream(values, 8192)


def test_write_of_blocks_larger_than_the_pipes_does_not_hang(tmp_path):
    """The formatter blocks on writing a block's text until this process reads
    it, so this process must never block on sending it another first. The
    formatter holds one block at a time; letting it queue two whole blocks
    hung here, each process waiting on the other."""
    paths = [os.path.dirname(os.path.dirname(dataio.__file__)), os.path.dirname(__file__)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    run = subprocess.run([sys.executable, "-c", LARGE_WRITES, str(tmp_path)], capture_output=True,
                         text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    for name, values in _large_writes():
        if isinstance(values, PointStream):
            values = np.concatenate(list(values))
        reference_write_points_csv(tmp_path / "ref.csv", PointSet(values))
        assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes(), name


def _stream(values, rows):
    """``values`` as a PointStream of ``rows``-row blocks."""
    blocks = (values[start : start + rows] for start in range(0, values.shape[0], rows))
    return PointStream(values.shape, blocks)


@pytest.mark.parametrize("n", [0, 1, 7, 8, 29, 30])
def test_write_of_a_stream_matches_the_array(tmp_path, monkeypatch, n):
    monkeypatch.setattr(dataio, "WRITE_BLOCK_ROWS", 7)
    values = _values(n, 3, np.float64, seed=n)
    write_points_csv(tmp_path / "stream.csv", PointSet(_stream(values, 3), ["a", "b", "c"]))
    reference_write_points_csv(tmp_path / "ref.csv", PointSet(values, ["a", "b", "c"]))
    assert (tmp_path / "stream.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_write_of_a_failing_stream_leaves_no_file_and_no_child(tmp_path, monkeypatch):
    monkeypatch.setattr(dataio, "WRITE_BLOCK_ROWS", 7)
    values = _values(30, 2, np.float64, seed=8)

    def blocks():
        yield from (values[:3], values[3:6], values[6:9])
        raise ValueError("draw failed")

    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="^draw failed$"):
        write_points_csv(path, PointSet(PointStream(values.shape, blocks())))
    _assert_no_child_left()
    assert not path.exists()


def test_write_of_a_consumed_stream_raises_and_leaves_no_file(tmp_path):
    stream = _stream(_values(5, 2, np.float64, seed=3), 2)
    write_points_csv(tmp_path / "first.csv", PointSet(stream))
    path = tmp_path / "again.csv"
    with pytest.raises(RuntimeError, match="^a PointStream can be iterated only once$"):
        write_points_csv(path, PointSet(stream))
    assert not path.exists()


def test_write_refuses_rows_the_disk_cannot_hold(tmp_path, monkeypatch):
    """At least 4 bytes a value ("0.0" and a separator) must fit in the free
    space, plus what an overwritten file holds; nothing is opened otherwise."""
    usage = shutil.disk_usage(tmp_path)
    values = np.zeros((10, 3))  # 10 rows of "0.0,0.0,0.0\n": exactly 4 bytes a value
    monkeypatch.setattr(shutil, "disk_usage", lambda path: usage._replace(free=119))
    path = tmp_path / "out.csv"
    with pytest.raises(OSError, match=r"No space left on device: 10 rows of 3 values need at least "
                       r"120 bytes, 119 are free: '.*out\.csv'$") as failed:
        write_points_csv(path, PointSet(values))
    assert failed.value.errno == errno.ENOSPC and failed.value.filename == str(path)
    assert not path.exists()
    path.write_bytes(b"x")  # its byte is freed when the file is truncated
    write_points_csv(path, PointSet(values))
    assert path.read_text() == "x1,x2,x3\n" + "0.0,0.0,0.0\n" * 10


def test_write_to_a_device_is_not_checked_for_space(monkeypatch):
    monkeypatch.setattr(shutil, "disk_usage", lambda path: pytest.fail("checked a device"))
    write_points_csv(os.devnull, PointSet(np.zeros((10, 3))))


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
    path.write_bytes("\ufeff".encode() + path.read_bytes())  # a leading byte-order mark is ignored
    assert read_marginals_csv(path, total=100).names == ("age", "income")


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


@pytest.mark.parametrize(
    "records, message",
    [
        # the gap on line 3 comes before the malformed record on line 4
        ("age,0,18,50\nage,20,65,50\nage,65,x,1\n", "line 3: bins for 'age' must tile"),
        # a's gap on line 4 comes before b's on line 6
        ("b,0,1,5\na,0,1,5\na,2,3,5\nb,1,2,5\nb,5,6,5\n", "line 4: bins for 'a' must tile"),
    ],
)
def test_marginals_report_the_first_bad_line(tmp_path, records, message):
    path = tmp_path / "marg.csv"
    path.write_text("variable,lo,hi,freq\n" + records)
    with pytest.raises(BadSpec, match=message):
        read_marginals_csv(path, total=100)


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
        ('\ufeffa,b\n"1",2\n', ["a", "b"], [[1.0, 2.0]]),  # byte-order mark, row loop
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
        ("a,b\n1,2\nnan,3\n4,x\n", "line 3: non-finite"),  # the first bad line, not a later one
        ("a,b\n1,2\n\ninf,3\n4\n", "line 4: non-finite"),
        ('a,b\n"1\n",2\nx,3\n', "line 4: non-numeric"),  # a record over two lines
        ('"a\nb",c\n1,2\nx,3\n', "line 4: non-numeric"),  # a header over two lines
    ],
)
def test_read_points_diagnostic_lines(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode())
    with pytest.raises(CsvFormatError, match=message):
        read_points_csv(path)


def reference_read_points_csv(path):
    """The former row-by-row reader, frozen as the oracle of read_points_csv."""
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: empty file") from None
        columns = [name.strip() for name in header]
        if not columns or any(not name for name in columns):
            raise CsvFormatError(f"{path}: line 1: malformed header {header!r}")
        rows = []
        for row in reader:
            lineno = reader.line_num
            if not row:
                continue
            if len(row) != len(columns):
                raise CsvFormatError(
                    f"{path}: line {lineno}: expected {len(columns)} fields, got {len(row)}"
                )
            try:
                rows.append([float(field) for field in row])
            except ValueError:
                raise CsvFormatError(f"{path}: line {lineno}: non-numeric field in {row!r}") from None
            if not np.isfinite(rows[-1]).all():
                raise CsvFormatError(f"{path}: line {lineno}: non-finite field in {rows[-1]!r}")
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    values = np.asarray(rows, dtype=np.float64)
    return PointSet(values=values, columns=columns)


def reference_with_named_errors(path):
    """The frozen reader, with the one exception it let escape on these
    inputs, a UnicodeDecodeError, raised as the CsvFormatError that the
    readers now raise for a file that is not UTF-8 text."""
    try:
        return reference_read_points_csv(path)
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _outcome(read, path):
    """Columns and exact value bytes, or the exception's type and message."""
    try:
        points = read(path)
    except Exception as exc:
        return type(exc), str(exc)
    values = points.values
    return points.columns, values.dtype, values.shape, values.tobytes()


# Padding around a number: ASCII and Unicode whitespace, then the ASCII
# separators U+001C..U+001F, which np.loadtxt strips and float() refuses.
_PLAIN_PAD = ["", "", " ", "\t", "\x0c", "\x0b", "\xa0", "\u2003"]
_RISKY_PAD = ["\x1c", "\x1f"]
_PLAIN_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(["+.5", "-0", "5.", "1E3", "1e-320"]),
)
_RISKY_FIELD = st.sampled_from([
    '"1.5"', '"1,5"', '""', "1#x", "#", "", " ", "x", "1_000", "\u0661\u0662", "\uff13",
    "\ufeff1", "0x1p3", "1d5", "nan", "-inf", "Infinity", "infinity", "1e400", "1\x002",
])
_PLAIN_NAME = ["a", " b ", "x1", "#c", "\xa0d"]
_RISKY_HEADER = ["", " ", '"q"', "a,'b", '"a,b",c', '"a\nb",c', "a,", "\ufeffa"]
_LINE_END = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def _point_csv(draw):
    """CSV bytes from risky pieces. Each file is plain or risky; a plain one
    holds only what the bulk parse takes, so both read paths run."""
    risky = draw(st.booleans())

    def rare():
        return risky and draw(st.integers(0, 4)) == 0

    if rare() and rare():
        return draw(st.sampled_from(["", "\n", "\ufeff", " "])).encode("utf-8")
    d = draw(st.integers(1, 3))
    header = ",".join(draw(st.sampled_from(_PLAIN_NAME)) for _ in range(d))
    if rare():
        header = draw(st.sampled_from(_RISKY_HEADER))
    pads = st.sampled_from(_PLAIN_PAD + _RISKY_PAD if risky else _PLAIN_PAD)
    lines = [header]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 5)) == 0:
            lines.append("")  # blank line
        elif rare():
            lines.append(draw(st.sampled_from([" ", "\t", "\x0c", "\xa0", ",", "#"])))
        else:
            width = d + (draw(st.sampled_from([-1, 1])) if rare() else 0)
            fields = [
                draw(_RISKY_FIELD) if rare() else draw(pads) + draw(_PLAIN_NUMBER) + draw(pads)
                for _ in range(max(width, 1))
            ]
            lines.append(",".join(fields) + ("," if rare() else ""))  # maybe a trailing comma
    ends = [draw(_LINE_END) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""  # no line end after the last line
    text = "".join(line + end for line, end in zip(lines, ends)).encode("utf-8")
    if rare():
        at = draw(st.integers(0, len(text)))
        text = text[:at] + b"\xff" + text[at:]  # not UTF-8
    return text


@settings(max_examples=400, deadline=None)
@given(_point_csv())
def test_read_points_matches_frozen_row_loop(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("diff") / "pts.csv"
    path.write_bytes(data)
    assert _outcome(read_points_csv, path) == _outcome(reference_with_named_errors, path)


def test_read_points_written_file_takes_the_bulk_path(tmp_path, monkeypatch):
    def row_loop(path, handle):
        raise AssertionError("row loop ran on a plain file")

    path = tmp_path / "pts.csv"
    values = _values(500, 3, np.float64, seed=5)
    write_points_csv(path, PointSet(values, ["a", "b", "c"]))
    body = path.read_bytes().partition(b"\n")[2]
    monkeypatch.setattr(dataio, "_read_rows", row_loop)
    # as written, with the quoted header R's write.csv gives, and with a byte-order mark
    for header in (b"a,b,c\n", b'"a","b","c"\n', "\ufeffa,b,c\n".encode()):
        path.write_bytes(header + body)
        back = read_points_csv(path)
        assert back.columns == ["a", "b", "c"]
        assert back.values.tobytes() == values.tobytes()
