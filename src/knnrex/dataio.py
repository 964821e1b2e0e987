"""CSV I/O for point sets and marginal-frequency files.

Point CSVs: UTF-8, one header row with column names, decimal point, one
record per line. Marginal files: header ``variable,lo,hi,freq``; rows for
one variable must tile its range contiguously (each hi equals the next lo).
Parse errors report the offending line number. Values are written as
float64 in their shortest round-trip form, ``repr(float(v))``, so reading a
written file gives back the same floats.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import BadSpec, CsvFormatError
from .estimators import MarginalSpec

# Rows formatted per write call: one block's text and field list stay well
# below the memory of the k-NN build for any population written.
WRITE_BLOCK_ROWS = 65_536


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
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
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
        reader = csv.reader(handle)
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
