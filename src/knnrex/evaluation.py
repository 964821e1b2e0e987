"""Binned Hellinger distance, inverted cross-validation, and Welch's t-test.

Binning is equal-width per dimension over the range of whatever data the
spec is built from. A joint bin is its tuple of per-dimension indices,
folded into one int64 mixed-radix key; only occupied bins are counted, so
high-dimensional comparisons stay feasible. Mixed-radix keys sort like the
tuples they encode, so the occupied bins come out in lexicographic order.
Inverted cross-validation trains on one small fold and scores the synthetic
population against the remaining folds.
"""

import functools
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import BadParams, DegenerateVariance, DimensionMismatch, EmptyData, TooFewPoints
from .estimators import EstimatorConfig, synthesize
from .whiten import whiten_apply, whiten_fit, whiten_invert


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

    def assign(self, X: np.ndarray) -> np.ndarray:
        """Per-dimension bin indices, shape (n, d), clamped into range."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise BadParams(f"expected points of dimension {self.dim}, got shape {X.shape}")
        out = np.empty(X.shape, dtype=np.int64)
        for j, edges in enumerate(self.edges):
            nb = max(edges.size - 1, 1)
            idx = np.searchsorted(edges, X[:, j], side="right") - 1
            out[:, j] = np.clip(idx, 0, nb - 1)
        return out


def make_binning(data: np.ndarray, bins_per_dim: int) -> BinningSpec:
    """Equal-width edges per dimension spanning [min, max] of ``data``."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] == 0:
        raise EmptyData("cannot build a binning from empty data")
    if bins_per_dim < 1:
        raise BadParams(f"bins_per_dim must be >= 1, got {bins_per_dim}")
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
    contribute nothing. Each point's bin-index tuple is folded into one
    integer key, ``key = key * nb_j + idx_j`` over the dimensions j. These
    mixed-radix keys sort in the lexicographic order of the tuples, so the
    occupied bins, their counts and the order of the final sum are those of
    a row-wise unique over the tuples, and the result is bit-identical to it.
    Before a dimension would take the key span past 2**62, the keys are
    replaced by their ranks among the distinct keys, which keeps their order
    and bounds the span by the number of points.
    """
    Y = np.asarray(Y, dtype=np.float64)
    Z = np.asarray(Z, dtype=np.float64)
    if Y.shape[0] == 0 or Z.shape[0] == 0:
        raise EmptyData("hellinger requires two non-empty point sets")
    both = np.concatenate([binning.assign(Y), binning.assign(Z)], axis=0)
    keys = np.zeros(both.shape[0], dtype=np.int64)
    span = 1
    for j, nb in enumerate(binning.bins_per_dim()):
        if span * nb > 2**62:  # keep key * nb + idx inside int64
            _, keys = np.unique(keys, return_inverse=True)
            span = int(keys.max()) + 1
        keys *= nb
        keys += both[:, j]
        span *= nb
    _, inverse = np.unique(keys, return_inverse=True)
    n_bins = int(inverse.max()) + 1
    cy = np.bincount(inverse[: Y.shape[0]], minlength=n_bins)
    cz = np.bincount(inverse[Y.shape[0] :], minlength=n_bins)
    py = np.sqrt(cy / Y.shape[0])
    pz = np.sqrt(cz / Z.shape[0])
    return min(1.0, float(np.sqrt(0.5 * np.sum((py - pz) ** 2))))  # rounding can pass 1


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
    mean: float = field(init=False)
    std: float = field(init=False)
    baseline_mean: float = field(init=False)
    baseline_std: float = field(init=False)

    def __post_init__(self):
        self.mean = float(np.mean(self.fold_hellinger))
        self.std = float(np.std(self.fold_hellinger, ddof=1))
        self.baseline_mean = float(np.mean(self.baseline_hellinger))
        self.baseline_std = float(np.std(self.baseline_hellinger, ddof=1))


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
    """
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
        t0 = time.perf_counter()
        lo, hi = i * fold_size, (i + 1) * fold_size
        train = shuffled[lo:hi]
        test = np.concatenate([shuffled[:lo], shuffled[hi:]], axis=0)
        transform = whiten_fit(train)
        train_w = whiten_apply(transform, train)
        synth_w = synthesize(cfg, train_w, population_size, streams[i])
        synth = whiten_invert(transform, synth_w)
        fold_score = union_hellinger(synth, test, bins_per_dim)
        base = union_hellinger(train, test, bins_per_dim) if known_bases is None else known_bases[i]
        return fold_score, base, time.perf_counter() - t0

    reports = []
    baselines = {}  # seed -> the copying baseline of each fold
    for cfg in cfgs:
        rng = np.random.default_rng(cfg.seed)
        shuffled = data[rng.permutation(n)[:used]]
        fold = functools.partial(run_fold, cfg, shuffled, rng.spawn(folds), baselines.get(cfg.seed))
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(fold, range(folds)))
        else:
            results = [fold(i) for i in range(folds)]

        scores, bases, seconds = (np.asarray(col) for col in zip(*results))
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
                fold_seconds=seconds,
            )
        )
    return reports
