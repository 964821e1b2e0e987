"""Exception types shared across the package, and the size guard.

Every error raised by the library derives from KnnRexError so callers (and
the CLI) can distinguish domain errors from programming mistakes.
``check_addressable`` is the one rule for an array whose size comes from
the caller: one past what numpy can address raises MemoryError.
"""

import math
import sys


def check_addressable(shape) -> None:
    """Raise MemoryError, as an allocation numpy cannot make does, for a
    float64 array of ``shape`` past what numpy can address (numpy raises
    ValueError or IndexError there instead). An empty axis counts as one,
    so a size is refused whatever the other axes are."""
    if math.prod(max(size, 1) for size in shape) * 8 > sys.maxsize:
        raise MemoryError(f"Unable to allocate an array with shape {tuple(shape)} and data type float64")


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
    """A training sample holds NaN or an infinity; the message names the row."""


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
