"""CSV I/O for point sets and marginal-frequency files.

Point CSVs: UTF-8, one header row with column names, decimal point, one
record per line. Marginal files: header ``variable,lo,hi,freq``; rows for
one variable must tile its range contiguously (each hi equals the next lo).
Parse errors report the offending line number. Values are written as
float64 in their shortest round-trip form, ``repr(float(v))``, so reading a
written file gives back the same floats.
"""

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BadSpec, CsvFormatError
from .estimators import MarginalSpec

# Rows formatted per write call: one block's text and field list stay well
# below the memory of the k-NN build for any population written.
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


def default_columns(dim: int) -> list:
    return [f"x{i + 1}" for i in range(dim)]


def read_points_csv(path) -> PointSet:
    """Read a point CSV: the body in one bulk parse where that is known to
    give the row loop's result, and by the row loop otherwise, which alone
    raises the diagnostics and their line numbers."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        points = _read_bulk(handle)
        if points is None:
            handle.seek(0)
            points = _read_rows(path, handle)
    return points


def _read_bulk(handle):
    """The header by ``csv`` and the body by one ``np.loadtxt`` call, or None
    where the row loop must decide.

    ``np.loadtxt`` parses floats as ``float()`` does, bit for bit, but it
    strips the ASCII separators U+001C..U+001F as whitespace, which
    ``float()`` refuses, so a file holding them takes the row loop. Where
    ``float()`` accepts more (quoted fields, ``1_000``, non-ASCII digits),
    ``np.loadtxt`` raises and the row loop runs. ``comments=None``: with
    ``#`` as comment mark, ``1#x`` would parse as 1. Blank lines are skipped
    by both. Non-finite values go to the row loop for their line number.
    """
    try:
        for chunk in iter(lambda: handle.read(_SCAN_CHARS), ""):
            if any(char in chunk for char in _LOADTXT_ONLY_SPACE):
                return None
        handle.seek(0)
        first = handle.readline()
        if '"' in first:  # a quoted header may span lines or hide commas
            return None
        columns = [name.strip() for name in next(csv.reader([first]))]
        if not columns or not all(columns):
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. "input contained no data"
            values = np.loadtxt(handle, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    except (ValueError, csv.Error, Warning):  # undecodable or unparsable: the row loop decides
        return None
    if values.shape[0] == 0 or values.shape[1] != len(columns) or not np.isfinite(values).all():
        return None
    return PointSet(values=values, columns=columns)


def _csv_rows(path, handle):
    """The rows of ``csv.reader(handle)``; bytes that are not UTF-8 and the
    reader's own errors (such as a field over its size limit) become
    CsvFormatError naming the file."""
    reader = csv.reader(handle)
    try:
        yield from reader
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise CsvFormatError(f"{path}: line {reader.line_num}: {exc}") from None


def _read_rows(path, handle) -> PointSet:
    """Parse row by row with ``csv`` and ``float()``, raising on the first bad line."""
    reader = _csv_rows(path, handle)
    try:
        header = next(reader)
    except StopIteration:
        raise CsvFormatError(f"{path}: empty file") from None
    columns = [name.strip() for name in header]
    if not columns or any(not name for name in columns):
        raise CsvFormatError(f"{path}: line 1: malformed header {header!r}")
    rows = []
    blank_lines = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            blank_lines.append(lineno)
            continue
        if len(row) != len(columns):
            raise CsvFormatError(
                f"{path}: line {lineno}: expected {len(columns)} fields, got {len(row)}"
            )
        try:
            rows.append([float(field) for field in row])
        except ValueError:
            raise CsvFormatError(f"{path}: line {lineno}: non-numeric field in {row!r}") from None
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    values = np.asarray(rows, dtype=np.float64)
    if not np.isfinite(values).all():
        row = int(np.argmin(np.isfinite(values).all(axis=1)))
        lineno = row + 2
        for blank in blank_lines:  # skipped blank lines shift the data rows down
            if blank <= lineno:
                lineno += 1
        raise CsvFormatError(f"{path}: line {lineno}: non-finite field in {rows[row]!r}")
    return PointSet(values=values, columns=columns)


def write_points_csv(path, points: PointSet) -> None:
    columns = points.columns or default_columns(points.dim)
    values = np.asarray(points.values, dtype=np.float64)
    line = ",".join(["%r"] * values.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerow(columns)
        for start in range(0, values.shape[0], WRITE_BLOCK_ROWS):
            block = values[start : start + WRITE_BLOCK_ROWS]
            handle.write((line * block.shape[0]) % tuple(block.ravel().tolist()))


def read_marginals_csv(path, total: int) -> MarginalSpec:
    """Parse a ``variable,lo,hi,freq`` file into a MarginalSpec."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = _csv_rows(path, handle)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise CsvFormatError(f"{path}: empty file") from None
        if header != ["variable", "lo", "hi", "freq"]:
            raise CsvFormatError(f"{path}: line 1: expected header variable,lo,hi,freq, got {header!r}")
        per_var: dict = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise CsvFormatError(f"{path}: line {lineno}: expected 4 fields, got {len(row)}")
            name = row[0].strip()
            try:
                lo, hi = float(row[1]), float(row[2])
                freq = int(row[3])
            except ValueError:
                raise CsvFormatError(f"{path}: line {lineno}: malformed record {row!r}") from None
            per_var.setdefault(name, []).append((lineno, lo, hi, freq))
    if not per_var:
        raise CsvFormatError(f"{path}: no bin records")

    names, edges, freqs = [], [], []
    for name, bins in per_var.items():
        prev_hi = None
        var_edges = []
        var_freqs = []
        for lineno, lo, hi, freq in bins:
            if hi <= lo:
                raise BadSpec(f"{path}: line {lineno}: bin [{lo}, {hi}) is empty or inverted")
            if prev_hi is None:
                var_edges.append(lo)
            elif lo != prev_hi:
                raise BadSpec(
                    f"{path}: line {lineno}: bins for {name!r} must tile the range "
                    f"(gap between {prev_hi} and {lo})"
                )
            var_edges.append(hi)
            var_freqs.append(freq)
            prev_hi = hi
        names.append(name)
        edges.append(np.asarray(var_edges))
        freqs.append(np.asarray(var_freqs))
    return MarginalSpec(names=tuple(names), edges=tuple(edges), freqs=tuple(freqs), total=total)
