"""Binned Hellinger distance, inverted cross-validation, and Welch's t-test.

Binning is equal-width per dimension over the range of whatever data the
spec is built from. A joint bin is its tuple of per-dimension indices; only
occupied bins are counted, in the lexicographic order of their tuples, so
high-dimensional comparisons stay feasible.
Inverted cross-validation trains on one small fold and scores the synthetic
population against the remaining folds.
"""

import functools
import math
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    BadParams,
    DegenerateVariance,
    DimensionMismatch,
    EmptyData,
    TooFewPoints,
    check_addressable,
)
from .estimators import EstimatorConfig, synthesize
from .knn import raise_heap_thresholds


@dataclass(frozen=True)
class BinningSpec:
    """Equal-width joint binning; one edge array per dimension.

    Bins are left-closed right-open with the last bin right-closed;
    out-of-range points clamp to the boundary bins. A constant dimension
    degenerates to a single bin.
    """

    edges: tuple

    @property
    def dim(self) -> int:
        return len(self.edges)

    def bins_per_dim(self) -> tuple:
        return tuple(max(e.size - 1, 1) for e in self.edges)

    def checked(self, X: np.ndarray) -> np.ndarray:
        """``X`` as a float64 array of points of this binning's dimension."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise BadParams(f"expected points of dimension {self.dim}, got shape {X.shape}")
        return X

    def assign(self, X: np.ndarray) -> np.ndarray:
        """Per-dimension bin indices, shape (n, d), clamped into range.

        A column's bins are ``searchsorted(edges, x, side="right") - 1``
        clamped into [0, nb - 1], found by arithmetic where the edges allow
        it (see ``_column_bins``).
        """
        X = self.checked(X)
        out = np.empty(X.shape, dtype=np.int64)
        for j, edges in enumerate(self.edges):
            out[:, j] = _column_bins(edges, X[:, j])
        return out


def _searched_bins(edges, x):
    """One column's bins by binary search: the edges at or below x, minus
    one, clamped into [0, nb - 1]."""
    return np.clip(np.searchsorted(edges, x, side="right") - 1, 0, max(edges.size - 2, 0))


def _column_bins(edges, x):
    """``_searched_bins(edges, x)``, by arithmetic on non-decreasing edges.

    The guess is floor((x - lo) * nb / (hi - lo)) on x clamped into
    [lo, hi], which keeps every operation finite and free of warnings. It
    is moved by one comparison with each neighbouring edge, and bin b is
    accepted when lower[b] <= x < upper[b]; lower is the edges with e[0]
    replaced by -inf and upper the edges from e[1] with e[nb] replaced by
    +inf. An accepted b is exact: on non-decreasing edges exactly b of the
    inner edges e[1..nb-1] are <= x, and that count is the clamped
    searchsorted answer. Rows that fail (NaN and +inf among them) are
    searched, and so is every row when the edges are not non-decreasing or
    their range or scale overflows.

    The one-bin move suffices on ``make_binning``'s edges: linspace forms
    e[i] as lo + i * step, and the guess and each edge are then within a
    few ulps of max(|lo|, |hi|) of their exact values, so the guess is off
    by at most one bin unless a bin is only a few ulps wide. Correctness
    rests on the acceptance test alone, not on this bound.
    """
    nb = edges.size - 1
    if nb <= 1:
        return np.zeros(x.shape, dtype=np.int64)
    lo, hi = float(edges[0]), float(edges[-1])
    scale = nb / (hi - lo) if hi > lo else math.inf
    if not (math.isfinite(hi - lo) and math.isfinite(scale) and (edges[:-1] <= edges[1:]).all()):
        return _searched_bins(edges, x)
    lower = np.concatenate(([-np.inf], edges[1:-1]))
    upper = np.concatenate((edges[1:-1], [np.inf]))
    clamped = np.clip(x, lo, hi)
    bins = np.fmin(np.floor((clamped - lo) * scale), nb - 1).astype(np.int64)  # fmin maps NaN to nb - 1
    bins -= clamped < lower[bins]
    bins += clamped >= upper[bins]
    bad = np.flatnonzero(~((lower[bins] <= x) & (x < upper[bins])))
    if bad.size:
        bins[bad] = _searched_bins(edges, x[bad])
    return bins


def make_binning(data: np.ndarray, bins_per_dim: int) -> BinningSpec:
    """Equal-width edges per dimension spanning [min, max] of ``data``."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] == 0:
        raise EmptyData("cannot build a binning from empty data")
    if bins_per_dim < 1:
        raise BadParams(f"bins_per_dim must be >= 1, got {bins_per_dim}")
    check_addressable((bins_per_dim + 1,))
    edges = []
    for j in range(data.shape[1]):
        lo, hi = float(data[:, j].min()), float(data[:, j].max())
        if not math.isfinite(hi - lo):
            raise BadParams(f"column {j}: range {lo!r} .. {hi!r} overflows float64")
        if hi > lo:
            edges.append(np.linspace(lo, hi, bins_per_dim + 1))
        else:
            edges.append(np.asarray([lo, lo]))  # degenerate single bin
    return BinningSpec(edges=tuple(edges))


def hellinger(Y: np.ndarray, Z: np.ndarray, binning: BinningSpec) -> float:
    """Hellinger distance between the binned histograms of Y and Z, in [0, 1].

    Summation runs over the union of occupied bins; bins empty in both sets
    contribute nothing. Points are binned by ``BinningSpec.assign``. The
    occupied bins are found in one of three ways:

    - at most as many joint bins as points: each point's bin-index tuple is
      keyed as one int64 by its C-order strides, and the keys are counted
      over the whole span with ``np.bincount``; ``np.flatnonzero`` gives the
      occupied keys in ascending order;
    - more joint bins than points, up to 2**62: the same keys go through
      ``np.unique``;
    - past 2**62 joint bins: the tuples themselves go through a row-wise
      unique.

    All three order the occupied bins lexicographically by tuple, so all
    give the same counts in the same summation order, bit for bit.
    """
    Y = np.asarray(Y, dtype=np.float64)
    Z = np.asarray(Z, dtype=np.float64)
    if Y.shape[0] == 0 or Z.shape[0] == 0:
        raise EmptyData("hellinger requires two non-empty point sets")
    both = binning.assign(np.concatenate([binning.checked(Y), binning.checked(Z)]))
    bins = binning.bins_per_dim()
    span = math.prod(bins)
    n_y = Y.shape[0]
    if span <= both.shape[0]:
        keys = both @ _strides(bins)
        cy = np.bincount(keys[:n_y], minlength=span)
        cz = np.bincount(keys[n_y:], minlength=span)
        occupied = np.flatnonzero(cy + cz)
        cy, cz = cy[occupied], cz[occupied]
    else:
        if span <= 2**62:
            _, inverse = np.unique(both @ _strides(bins), return_inverse=True)
        else:
            _, inverse = np.unique(both, axis=0, return_inverse=True)
            inverse = inverse.ravel()  # its shape differs across numpy 2.0.x releases
        n_bins = int(inverse.max()) + 1
        cy = np.bincount(inverse[:n_y], minlength=n_bins)
        cz = np.bincount(inverse[n_y:], minlength=n_bins)
    py = np.sqrt(cy / Y.shape[0])
    pz = np.sqrt(cz / Z.shape[0])
    return min(1.0, float(np.sqrt(0.5 * np.sum((py - pz) ** 2))))  # rounding can pass 1


def _strides(bins):
    """The int64 C-order strides of a joint bin: prod(bins[j + 1 :]) for each j."""
    return np.cumprod((bins + (1,))[:0:-1], dtype=np.int64)[::-1]


def union_hellinger(Y: np.ndarray, Z: np.ndarray, bins_per_dim: int) -> float:
    """``hellinger`` of Y and Z on a binning built on their union."""
    Y = np.asarray(Y, dtype=np.float64)
    Z = np.asarray(Z, dtype=np.float64)
    if Y.shape[1:] != Z.shape[1:]:
        raise DimensionMismatch(f"cannot compare points of shapes {Y.shape} and {Z.shape}")
    return hellinger(Y, Z, make_binning(np.concatenate([Y, Z]), bins_per_dim))


# ---------------------------------------------------------------------------
# Welch's t-test
# ---------------------------------------------------------------------------


def welch_t(mean_a, sd_a, n_a, mean_b, sd_b, n_b):
    """Welch's unequal-variance t statistic, its degrees of freedom, and the
    two-sided p-value.

    Returns (t, dof, p). p is computed from the regularized incomplete beta
    function; see ``_betainc_reg``.
    """
    if n_a < 2 or n_b < 2:
        raise BadParams(f"need sample sizes >= 2, got {n_a}, {n_b}")
    if sd_a < 0 or sd_b < 0:
        raise BadParams("standard deviations must be >= 0")
    if sd_a == 0.0 and sd_b == 0.0:
        raise DegenerateVariance("both groups have zero variance")
    va = sd_a * sd_a / n_a
    vb = sd_b * sd_b / n_b
    se2 = va + vb
    t = (mean_a - mean_b) / math.sqrt(se2)
    dof = se2 * se2 / (va * va / (n_a - 1) + vb * vb / (n_b - 1))
    p = _betainc_reg(dof / 2.0, 0.5, dof / (dof + t * t)) if t != 0.0 else 1.0
    return t, dof, p


def _betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) via Lentz's continued fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _betacf(a: float, b: float, x: float, max_iter: int = 300, eps: float = 3e-15) -> float:
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for i in range(1, max_iter + 1):
        m2 = 2 * i
        aa = i * (b - i) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + i) * (qab + i) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    return h


# ---------------------------------------------------------------------------
# Inverted cross-validation
# ---------------------------------------------------------------------------


@dataclass
class IcvReport:
    """Per-fold Hellinger results for one method plus the copying baseline."""

    config: dict
    folds: int
    bins_per_dim: int
    n_used: int
    fold_size: int
    population_size: int
    fold_hellinger: np.ndarray
    baseline_hellinger: np.ndarray
    fold_seconds: np.ndarray
    phase_seconds: dict  # name of a FOLD_PHASES phase -> its seconds in each fold
    mean: float = field(init=False)
    std: float = field(init=False)
    baseline_mean: float = field(init=False)
    baseline_std: float = field(init=False)

    def __post_init__(self):
        self.mean = float(np.mean(self.fold_hellinger))
        self.std = float(np.std(self.fold_hellinger, ddof=1))
        self.baseline_mean = float(np.mean(self.baseline_hellinger))
        self.baseline_std = float(np.std(self.baseline_hellinger, ddof=1))


# The phases of one fold: the three of ``synthesize``, the fold's score and
# its copying baseline (0 for a fold whose baseline an earlier config scored).
FOLD_PHASES = ("whiten", "index", "synthesis", "score", "baseline")


class Phases:
    """One run's wall-clock phases and deterministic counts: ``seconds`` maps
    a phase to its seconds, each of ``names`` from 0.0, and ``counts`` keeps
    the order recorded. A phase measured inside another counts for the inner
    one only: its seconds are taken off the outer phase (the CLI's "write"
    runs the stream's "synthesis" blocks), so the phases stay exclusive and
    sum to at most ``total()``."""

    def __init__(self, names=()):
        self.seconds = dict.fromkeys(names, 0.0)
        self.counts = {}
        self._t0 = time.perf_counter()
        self._inner = []  # per open phase, the seconds of the phases measured inside it

    @contextmanager
    def measure(self, name):
        """Add the block's wall-clock seconds, less those of the phases
        measured inside it, to phase ``name``."""
        start = time.perf_counter()
        self._inner.append(0.0)
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.seconds[name] = self.seconds.get(name, 0.0) + elapsed - self._inner.pop()
            if self._inner:
                self._inner[-1] += elapsed

    def total(self):
        """Seconds since the recorder was made."""
        return time.perf_counter() - self._t0


def icv_run(
    data: np.ndarray,
    cfg: EstimatorConfig,
    folds: int = 100,
    bins_per_dim: int = 10,
    threads: int = 1,
) -> IcvReport:
    """Inverted cross-validation: train on one fold, test on the rest.

    The data is shuffled once and the division remainder dropped (the
    shuffle makes the drop random); fold i trains on its n/folds points,
    synthesizes (folds-1) * n/folds points, and is scored against the
    held-out points with a binning built on the union of the two compared
    sets. The copying baseline (raw fold vs. test) is scored the same way.
    Folds own spawned random streams, so results do not depend on
    ``threads`` and a fixed master seed reproduces everything, fold
    assignment included.
    """
    return icv_sweep(data, [cfg], folds, bins_per_dim, threads)[0]


def icv_sweep(
    data: np.ndarray,
    cfgs: list,
    folds: int = 100,
    bins_per_dim: int = 10,
    threads: int = 1,
) -> list:
    """``icv_run`` of each config of ``cfgs`` on the same data, in order.

    The fold split, and so the copying baseline, depends only on the seed:
    the first config with a seed scores its baseline, and later configs with
    that seed reuse it (so their ``fold_seconds`` leave its time out).
    Small folds build no k-NN buffer large enough to raise glibc's heap
    thresholds, so this first raises them (``knn.raise_heap_thresholds``).
    ``threads`` sets how many folds run at once; a fold whose training
    sample spans more than one k-NN chunk builds on every usable core too.
    """
    raise_heap_thresholds()
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[0]
    if folds < 2:
        raise BadParams(f"need folds >= 2, got {folds}")
    if n < folds:
        raise TooFewPoints(f"need at least one point per fold: n = {n}, folds = {folds}")
    fold_size = n // folds
    used = fold_size * folds
    population_size = (folds - 1) * fold_size

    def run_fold(cfg, shuffled, streams, known_bases, i):
        # Folds may run on threads, so each one keeps its own recorder.
        phases = Phases(FOLD_PHASES)
        lo, hi = i * fold_size, (i + 1) * fold_size
        train = shuffled[lo:hi]
        test = np.concatenate([shuffled[:lo], shuffled[hi:]], axis=0)
        synth = synthesize(cfg, train, population_size, streams[i], measure=phases.measure)
        with phases.measure("score"):
            fold_score = union_hellinger(synth, test, bins_per_dim)
        if known_bases is None:
            with phases.measure("baseline"):
                base = union_hellinger(train, test, bins_per_dim)
        else:
            base = known_bases[i]
        return fold_score, base, phases.total(), phases.seconds

    reports = []
    baselines = {}  # seed -> the copying baseline of each fold
    for cfg in cfgs:
        cfg.validate()  # before its seed draws the split
        rng = np.random.default_rng(cfg.seed)
        shuffled = data[rng.permutation(n)[:used]]
        fold = functools.partial(run_fold, cfg, shuffled, rng.spawn(folds), baselines.get(cfg.seed))
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(fold, range(folds)))
        else:
            results = [fold(i) for i in range(folds)]

        scores, bases, seconds, phases = zip(*results)
        scores, bases = np.asarray(scores), np.asarray(bases)
        baselines[cfg.seed] = bases
        reports.append(
            IcvReport(
                config=asdict(cfg),
                folds=folds,
                bins_per_dim=bins_per_dim,
                n_used=used,
                fold_size=fold_size,
                population_size=population_size,
                fold_hellinger=scores,
                baseline_hellinger=bases,
                fold_seconds=np.asarray(seconds),
                phase_seconds={name: np.array([fold[name] for fold in phases]) for name in FOLD_PHASES},
            )
        )
    return reports
