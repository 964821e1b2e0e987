"""Exception types shared across the package.

Every error raised by the library derives from KnnRexError so callers (and
the CLI) can distinguish domain errors from programming mistakes.
"""


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
    """Malformed CSV input; message includes the offending line number."""
