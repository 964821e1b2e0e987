"""Exception types shared across the package, and the input guards.

Every error raised by the library derives from KnnRexError so callers (and
the CLI) can distinguish domain errors from programming mistakes.
``check_addressable`` is the one rule for an array whose size comes from
the caller: one past what numpy can address raises MemoryError, and
``check_size`` refuses a negative size. ``as_points`` is the one rule for a
point array the caller passes: its rank, its width and its finiteness.
"""

import math
import sys

import numpy as np


def check_addressable(shape) -> None:
    """Raise MemoryError, as an allocation numpy cannot make does, for a
    float64 array of ``shape`` past what numpy can address (numpy raises
    ValueError or IndexError there instead). An empty axis counts as one,
    so a size is refused whatever the other axes are."""
    if math.prod(max(size, 1) for size in shape) * 8 > sys.maxsize:
        raise MemoryError(f"Unable to allocate an array with shape {tuple(shape)} and data type float64")


def check_size(size: int, what: str) -> None:
    """Raise BadParams for a negative ``size`` of ``what``, which numpy
    would refuse with a bare ValueError."""
    if size < 0:
        raise BadParams(f"{what} must be >= 0, got {size}")


def as_points(X, what: str, d: int | None = None, finite: bool = True) -> np.ndarray:
    """``X`` as a float64 (n, d) array of points. DimensionMismatch names the
    shape passed for a rank other than 2, or a width other than ``d`` where
    ``d`` is given; with ``finite``, NonFiniteSample names the first row of
    ``what`` that holds NaN or an infinity."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or (d is not None and X.shape[1] != d):
        raise DimensionMismatch(f"expected an n x d matrix, got shape {X.shape}" if d is None
                                else f"expected points of dimension {d}, got shape {X.shape}")
    if finite and not np.isfinite(X).all():
        row = int(np.argmin(np.isfinite(X).all(axis=1)))
        raise NonFiniteSample(f"{what} row {row} is not finite: {X[row].tolist()!r}")
    return X


class KnnRexError(Exception):
    """Base class for all library errors."""


class TooFewPoints(KnnRexError):
    pass


class SingularCovariance(KnnRexError):
    pass


class DimensionMismatch(KnnRexError):
    pass


class KTooLarge(KnnRexError):
    pass


class EmptyKcs(KnnRexError):
    pass


class SingularSigma(KnnRexError):
    pass


class BadParams(KnnRexError):
    pass


class EmptySample(KnnRexError):
    pass


class NonFiniteSample(KnnRexError):
    """A point array holds NaN or an infinity; the message names the array
    and its first such row."""


class BadSpec(KnnRexError):
    pass


class InconsistentMarginals(KnnRexError):
    pass


class StallLimit(KnnRexError):
    """Bias-corrected synthesis made no progress for too long.

    Carries the partial output so callers can inspect what was produced.
    """

    def __init__(self, message, partial=None, diagnostics=None):
        super().__init__(message)
        self.partial = partial
        self.diagnostics = diagnostics or {}


class EmptyData(KnnRexError):
    pass


class DegenerateVariance(KnnRexError):
    pass


class ZeroDensity(KnnRexError):
    pass


class RejectionStall(KnnRexError):
    pass


class CsvFormatError(KnnRexError):
    """Malformed CSV input; the message names the file and, for a parse
    error, the offending line number."""
