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
import errno
import io
import math
import os
import select
import shutil
import stat
import subprocess
import sys
import warnings
from contextlib import contextmanager, suppress
from dataclasses import dataclass

import numpy as np

from .errors import BadSpec, CsvFormatError
from .estimators import MarginalSpec, PointStream, default_columns

# Rows per block of an array being written; a stream is written in its own
# blocks. An output of more rows than this is formatted on two cores. A
# block's field list and text take about 3.5 MB per column at their peak
# (11 MB at d = 3), whatever the population size: on the order of the k-NN
# build's 8 MiB chunk budget.
WRITE_BLOCK_ROWS = 65_536

# Blocks this process formats while the formatter holds an earlier one, at
# most, before it waits for the formatter's text.
_LOOKAHEAD = 2

# The formatter that ``write_points_csv`` runs with ``sys.executable -I -S``,
# so it imports no numpy and no site packages. Per block it reads an 8-byte
# little-endian row count and the rows as native float64 values, and answers
# with an 8-byte byte count and the rows' UTF-8 text, each value as ``%r``.
# It ends at the end of its input. It ignores SIGINT: on an interrupt the
# writer kills it.
_FORMATTER = """
import array, signal, sys
signal.signal(signal.SIGINT, signal.SIG_IGN)
d = int(sys.argv[1])
line = ",".join(["%r"] * d) + "\\n"
read, out = sys.stdin.buffer.read, sys.stdout.buffer
while head := read(8):
    rows = int.from_bytes(head, "little")
    values = array.array("d")
    values.frombytes(read(8 * d * rows))
    text = ((line * rows) % tuple(values)).encode()
    out.write(len(text).to_bytes(8, "little"))
    out.write(text)
    out.flush()
"""

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

    ``points.values`` is an array or a ``PointStream``; either is consumed
    block by block in row order, so a stream's population is never held
    whole. Where there are more than ``WRITE_BLOCK_ROWS`` rows, the blocks
    are formatted on two cores: by this process and by one spawned
    formatter process (``_FORMATTER``), each block by whichever is free
    (see ``_Formatter.write``), and the text is written in row order. The
    bytes are those this process writes alone, as it does for fewer rows or
    where the formatter cannot start. A formatter that fails raises OSError
    naming ``path``; it is reaped on every path, and killed if this process
    fails or is interrupted.

    Before the output is opened, OSError(ENOSPC) naming ``path`` is raised
    if the rows cannot fit in the free space of its file system at 4 bytes
    a value, the fewest any value takes. A failed write removes ``path`` if
    it is a regular file.
    """
    values = points.values
    if not isinstance(values, PointStream):
        values = np.asarray(values, dtype=np.float64)
    n, d = values.shape
    _check_space(path, n, d)
    header = io.StringIO()
    csv.writer(header, lineterminator="\n").writerow(points.columns or default_columns(d))
    line = ",".join(["%r"] * d) + "\n"
    handle = open(path, "wb")
    try:
        with handle, _formatter(path, d, n > WRITE_BLOCK_ROWS) as formatter:
            handle.write(header.getvalue().encode("utf-8"))
            blocks = iter(values) if isinstance(values, PointStream) else (
                values[start : start + WRITE_BLOCK_ROWS] for start in range(0, n, WRITE_BLOCK_ROWS)
            )
            if formatter is None:
                handle.writelines(_format_block(line, block) for block in blocks)
            else:
                formatter.write(handle, line, blocks)
    except BaseException:
        with suppress(OSError):  # a failed removal must not hide the write's error
            if stat.S_ISREG(os.lstat(path).st_mode):
                os.remove(path)
        raise


def _format_block(line, block) -> bytes:
    """The UTF-8 text of the rows of ``block``, one ``line`` template each."""
    return ((line * block.shape[0]) % tuple(block.ravel().tolist())).encode("utf-8")


def _check_space(path, rows, d):
    """Raise OSError(ENOSPC) naming ``path`` where ``rows`` rows of d values,
    at least 4 bytes a value, exceed the free space of its file system plus
    what the file holds now. Nothing is checked for an output that is not a
    regular file (such as /dev/stdout) or whose file system cannot be
    queried; ``open`` then reports what is wrong."""
    try:
        info = os.stat(path)
    except OSError:
        held = 0
    else:
        if not stat.S_ISREG(info.st_mode):
            return
        held = info.st_size
    try:
        free = shutil.disk_usage(os.path.dirname(os.path.abspath(path))).free
    except OSError:
        return
    need = 4 * d * rows
    if need > free + held:
        raise OSError(errno.ENOSPC, f"{os.strerror(errno.ENOSPC)}: {rows} rows of {d} values need "
                      f"at least {need} bytes, {free + held} are free", os.fspath(path))


class _Formatter:
    """The pipes of a started ``_FORMATTER`` process, which holds at most one
    block at a time. A broken pipe or a short answer reaps the process and
    raises OSError naming ``path``."""

    def __init__(self, path, process):
        self.path = path
        self.process = process

    def write(self, handle, line, blocks):
        """Write the text of ``blocks`` to ``handle`` in row order, each block
        formatted by whichever process is free: a block goes to the formatter
        when it holds none; while it holds one, this process formats the
        blocks that follow with ``line`` and keeps their text, at most
        ``_LOOKAHEAD`` blocks of it, until the formatter's text, which comes
        first, is written. So this process, which also draws a stream's
        blocks, formats fewer of them when it is the busier one."""
        held = False
        waiting = []
        for block in blocks:
            if held and (len(waiting) == _LOOKAHEAD or select.select([self.process.stdout], [], [], 0)[0]):
                handle.write(self.receive())
                handle.writelines(waiting)
                waiting.clear()
                held = False
            if held:
                waiting.append(_format_block(line, block))
            else:
                self.send(block)
                held = True
        if held:
            handle.write(self.receive())
            handle.writelines(waiting)

    def send(self, block):
        block = np.ascontiguousarray(block, dtype=np.float64)
        try:
            self.process.stdin.write(block.shape[0].to_bytes(8, "little"))
            self.process.stdin.write(block.data)
            self.process.stdin.flush()
        except OSError:
            self.failed()

    def receive(self) -> bytes:
        head = self.process.stdout.read(8)
        size = int.from_bytes(head, "little")
        text = self.process.stdout.read(size) if len(head) == 8 else b""
        if len(text) != size or len(head) != 8:
            self.failed()
        return text

    def failed(self):
        status = self.process.wait()
        raise OSError(f"{self.path}: the formatting process exited with status {status}") from None


@contextmanager
def _formatter(path, d, wanted):
    """A started formatter for rows of d values, or None where it is not
    ``wanted`` or cannot start: no interpreter, a spawn that fails, or a
    system whose ``select`` cannot poll a pipe (only POSIX ones can).

    On leaving the block, the process is killed if the block raises, and it
    is always reaped with its pipes closed; a nonzero exit status raises
    OSError naming ``path``.
    """
    process = None
    if wanted and sys.executable and os.name == "posix":
        with suppress(OSError):
            process = subprocess.Popen([sys.executable, "-I", "-S", "-c", _FORMATTER, str(d)],
                                       stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    if process is None:
        yield None
        return
    try:
        yield _Formatter(path, process)
    except BaseException:
        process.kill()
        raise
    finally:
        with suppress(OSError):  # a killed formatter breaks the pipe
            process.stdin.close()
        process.stdout.close()
        status = process.wait()
    if status != 0:
        raise OSError(f"{path}: the formatting process exited with status {status}")


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
