"""CSV I/O for point sets and marginal-frequency files.

Point CSVs: UTF-8, one header row with column names, decimal point, one
record per line. Marginal files: header ``variable,lo,hi,freq``; rows for
one variable must tile its range contiguously (each hi equals the next lo).
Every reader takes its records from ``_csv_rows`` and its header by one
rule, ``_header``, and checks each record as it arrives, so a parse error
names the first bad record by the line it ends on. A leading UTF-8
byte-order mark is ignored. Values are written as float64 in their
shortest round-trip form, ``repr(float(v))``, so reading a written file
gives back the same floats.
"""

import csv
import math
import os
import signal
import stat
import warnings
from contextlib import contextmanager, suppress
from dataclasses import dataclass

import numpy as np

from .errors import BadSpec, CsvFormatError
from .estimators import MarginalSpec, default_columns

# Rows formatted per write call. A block's field list and text take about
# 3.5 MB per column at their peak (11 MB at d = 3), whatever the population
# size: on the order of the k-NN build's 16 MiB chunk budget.
WRITE_BLOCK_ROWS = 65_536

# Characters per read while scanning a point CSV for _LOADTXT_ONLY_SPACE.
_SCAN_CHARS = 1 << 20
# Taken as whitespace around a number by np.loadtxt but not by float().
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


@dataclass
class PointSet:
    """n x d real data matrix with optional column names."""

    values: np.ndarray
    columns: list | None = None

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def read_points_csv(path) -> PointSet:
    """Read a point CSV: the body in one bulk parse where that is known to
    give the row loop's result, and by the row loop otherwise, which alone
    raises the body's diagnostics and their line numbers."""
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        points = _read_bulk(path, handle)
        if points is None:
            handle.seek(0)
            points = _read_rows(path, handle)
    return points


def _read_bulk(path, handle):
    """The header by ``_header`` and the body after it by one ``np.loadtxt``
    call on the same handle, or None where the row loop must decide.

    ``np.loadtxt`` parses floats as ``float()`` does, bit for bit, but it
    strips the ASCII separators U+001C..U+001F as whitespace, which
    ``float()`` refuses, so a file holding them takes the row loop. Where
    ``float()`` accepts more (quoted fields, ``1_000``, non-ASCII digits),
    ``np.loadtxt`` raises and the row loop runs. ``comments=None``: with
    ``#`` as comment mark, ``1#x`` would parse as 1. Blank lines are skipped
    by both. Non-finite values go to the row loop for their line number. A
    header that breaks the rule raises here what the row loop would raise.
    """
    try:
        for chunk in iter(lambda: handle.read(_SCAN_CHARS), ""):
            if any(char in chunk for char in _LOADTXT_ONLY_SPACE):
                return None
        handle.seek(0)
        columns = _header(path, _csv_rows(path, handle))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. "input contained no data"
            values = np.loadtxt(handle, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    except (ValueError, Warning):  # undecodable or unparsable: the row loop decides
        return None
    if values.shape[0] == 0 or values.shape[1] != len(columns) or not np.isfinite(values).all():
        return None
    return PointSet(values=values, columns=columns)


def _csv_rows(path, handle):
    """``(line, row)`` for each record of ``csv.reader(handle)``, ``line``
    being the line the record ends on; bytes that are not UTF-8 and the
    reader's own errors (such as a field over its size limit) become
    CsvFormatError naming the file."""
    reader = csv.reader(handle)
    try:
        for row in reader:
            yield reader.line_num, row
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise CsvFormatError(f"{path}: line {reader.line_num}: {exc}") from None


def _header(path, rows) -> list:
    """The stripped names of the first record of ``rows``, each non-empty."""
    try:
        _, header = next(rows)
    except StopIteration:
        raise CsvFormatError(f"{path}: empty file") from None
    columns = [name.strip() for name in header]
    if not columns or not all(columns):
        raise CsvFormatError(f"{path}: line 1: malformed header {header!r}")
    return columns


def _read_rows(path, handle) -> PointSet:
    """Parse row by row with ``csv`` and ``float()``, raising on the first bad line."""
    rows = _csv_rows(path, handle)
    columns = _header(path, rows)
    points = []
    for line, row in rows:
        if not row:
            continue
        if len(row) != len(columns):
            raise CsvFormatError(f"{path}: line {line}: expected {len(columns)} fields, got {len(row)}")
        try:
            values = [float(field) for field in row]
        except ValueError:
            raise CsvFormatError(f"{path}: line {line}: non-numeric field in {row!r}") from None
        if not all(map(math.isfinite, values)):
            raise CsvFormatError(f"{path}: line {line}: non-finite field in {values!r}")
        points.append(values)
    if not points:
        raise CsvFormatError(f"{path}: no data rows")
    return PointSet(values=np.asarray(points, dtype=np.float64), columns=columns)


def write_points_csv(path, points: PointSet) -> None:
    """Write a header row, then one line per point, each value as ``%r``.

    On a POSIX system, an output of more than one ``WRITE_BLOCK_ROWS`` block
    is formatted on two cores: one forked child formats the rows from the
    middle block boundary on while this process formats the rows before it,
    then this process copies the child's bytes after its own. The bytes are
    those this process writes alone, as it does for one block or where
    ``os.fork`` is missing or fails. A child that fails raises OSError naming
    ``path``. A failed write removes ``path`` if it is a regular file. Under
    Python 3.12 and later, ``os.fork`` warns (DeprecationWarning) in a
    process that runs threads, such as OpenBLAS workers.
    """
    columns = points.columns or default_columns(points.dim)
    values = np.asarray(points.values, dtype=np.float64)
    line = ",".join(["%r"] * values.shape[1]) + "\n"
    n = values.shape[0]
    blocks = -(-n // WRITE_BLOCK_ROWS)
    mid = WRITE_BLOCK_ROWS * (blocks // 2) if blocks > 1 else n
    handle = open(path, "w", encoding="utf-8", newline="")
    try:  # only this process reaches the except: the forked child leaves by os._exit
        with handle, _forked_formatter(path, line, values[mid:]) as pipe:
            if pipe is None:  # no child: this process formats every row
                mid = n
            csv.writer(handle, lineterminator="\n").writerow(columns)
            for start in range(0, mid, WRITE_BLOCK_ROWS):
                handle.write(_format_block(line, values[start : start + WRITE_BLOCK_ROWS]))
            if pipe is not None:
                handle.flush()
                chunk = memoryview(bytearray(1 << 20))  # reused: new bytes per read fragment the heap
                while size := os.readv(pipe, [chunk]):
                    handle.buffer.write(chunk[:size])
    except BaseException:
        with suppress(OSError):  # a failed removal must not hide the write's error
            if stat.S_ISREG(os.lstat(path).st_mode):
                os.remove(path)
        raise


def _format_block(line, block) -> str:
    """The text of the rows of ``block``, one ``line`` template each."""
    return (line * block.shape[0]) % tuple(block.ravel().tolist())


@contextmanager
def _forked_formatter(path, line, rows):
    """Fork one child that formats ``rows`` block by block, then sends their
    UTF-8 bytes through a pipe, and give the pipe's read end; give None, and
    fork nothing, where there are no rows or ``os.fork`` is missing or fails.

    The child leaves only through ``os._exit``, so it runs none of the
    caller's cleanup and flushes none of its buffers. On leaving the block,
    the child is killed if the block raises and is always reaped; a nonzero
    exit status raises OSError naming ``path``.
    """
    fork = getattr(os, "fork", None)
    if rows.shape[0] == 0 or fork is None:
        yield None
        return
    read_end, write_end = os.pipe()
    try:
        pid = fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        yield None
        return
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            chunks = [
                _format_block(line, rows[start : start + WRITE_BLOCK_ROWS]).encode("utf-8")
                for start in range(0, rows.shape[0], WRITE_BLOCK_ROWS)
            ]
            with open(write_end, "wb") as pipe:
                pipe.writelines(chunks)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    try:
        yield read_end
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(read_end)
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0:
        raise OSError(f"{path}: the forked formatting process exited with status {status}")


def read_marginals_csv(path, total: int) -> MarginalSpec:
    """Parse a ``variable,lo,hi,freq`` file into a MarginalSpec, checking
    each record as it is read, so an error names the first bad line."""
    edges: dict = {}
    freqs: dict = {}
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        rows = _csv_rows(path, handle)
        columns = _header(path, rows)
        if columns != ["variable", "lo", "hi", "freq"]:
            raise CsvFormatError(f"{path}: line 1: expected header variable,lo,hi,freq, got {columns!r}")
        for line, row in rows:
            if not row:
                continue
            if len(row) != 4:
                raise CsvFormatError(f"{path}: line {line}: expected 4 fields, got {len(row)}")
            name = row[0].strip()
            try:
                lo, hi, freq = float(row[1]), float(row[2]), int(row[3])
            except ValueError:
                raise CsvFormatError(f"{path}: line {line}: malformed record {row!r}") from None
            if hi <= lo:
                raise BadSpec(f"{path}: line {line}: bin [{lo}, {hi}) is empty or inverted")
            if name in edges and lo != edges[name][-1]:
                raise BadSpec(
                    f"{path}: line {line}: bins for {name!r} must tile the range "
                    f"(gap between {edges[name][-1]} and {lo})"
                )
            edges.setdefault(name, [lo]).append(hi)
            freqs.setdefault(name, []).append(freq)
    if not edges:
        raise CsvFormatError(f"{path}: no bin records")
    return MarginalSpec(names=tuple(edges), edges=tuple(edges.values()), freqs=tuple(freqs.values()), total=total)
