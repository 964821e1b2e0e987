"""Population synthesizers.

Four resampling methods over an n x d training sample:

* ``synth_knn_rex``      -- for every output point, seed uniformly on the
  sample, draw a fresh kernel construction set (the seed plus m-1 distinct
  points from its k nearest neighbors) and take one REX draw. Redrawing the
  set per output point is the bagging that averages over all subset choices.
* ``synth_bias_corrected`` -- the same kernel steered so that per-variable
  bin counts of the output match published marginal frequencies exactly.
* ``synth_fixed_gaussian`` -- classical fixed scalar-bandwidth resampler.
* ``synth_bmp``          -- variable-bandwidth resampler with per-point
  bandwidth h * (distance to the k-th nearest neighbor).

Plus ``km_fit``/``km_synth``: the likelihood-optimized crossover-kernel
baseline that hill-climbs the choice of L fixed kernel construction sets,
and ``suggest_params``, the optimization-free parameter rule.

``synthesis_stream(cfg, X, l, rng)`` runs the method an ``EstimatorConfig``
names on the sample in its own units and gives a ``PointStream``: the l
points as blocks of rows, each drawn, and mapped back to the sample's
units, only when it is asked for, so a consumer such as the CLI's CSV
writer never holds the (l, d) population. ``synthesize(cfg, X, l, rng)``,
which inverted cross-validation calls, is the array of the same blocks.

Each decision the synthesizers share is made in one function.
``EstimatorConfig.reads_index`` says whether a method draws from a k-NN
index. ``_whitened`` whitens the sample and builds that index, as the
"whiten" and "index" phases of an optional ``measure(name)`` factory, for
``synthesis_stream`` and ``synth_bias_corrected``. ``_draw`` maps a config
to its draw, for ``synthesis_stream`` and for ``synth_knn_rex``,
``synth_fixed_gaussian`` and ``synth_bmp``, which draw on the sample as
given. ``_rex_seeded`` takes the REX draws from KCSs of a first point and
m-1 of its neighbors, for the k-NN REX draw and for the bias-corrected
proposals, seeded in a bin's sample points or at uniform points. A stream
times each block it draws as "synthesis", inside whatever phase its
consumer runs. Every method shares one chunk loop:
chunk i of ``DEFAULT_CHUNK`` points draws only from the i-th child stream
spawned from the caller's generator, so a seed pins the output exactly,
whether it is drawn as a stream or as an array.
"""

import math
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadParams,
    BadSpec,
    EmptySample,
    InconsistentMarginals,
    SingularSigma,
    StallLimit,
    as_points,
    check_addressable,
    check_size,
)
from .kernels import kcs_stats, rex_batch, rex_log_density
from .knn import build_knn, query_neighbors, usable_cores
from .whiten import whiten_apply, whiten_fit, whiten_invert

METHODS = ("knn_rex", "fixed_gaussian", "bmp", "km_rex")

DEFAULT_CHUNK = 8192

# The bias-corrected loop gives up after this many iterations per output
# point without net progress.
STALL_FACTOR = 50

# Proposals drawn by the first batch of a bias-corrected bin's proposal
# stream; each later batch of the same stream draws twice as many, up to
# the cap.
RESERVOIR_START = 32
RESERVOIR_CAP = 4096

# The counters synth_bias_corrected reports, in manifest order.
CORRECTED_COUNTERS = (
    "iterations", "proposals", "unused", "rejected", "evictions", "uniform_seeds", "peak_stall",
)


def _sample(X) -> np.ndarray:
    X = as_points(X, "training sample")
    if X.shape[0] == 0:
        raise EmptySample("training sample is empty")
    return X


@dataclass
class EstimatorConfig:
    """Resolved parameters for one synthesis method."""

    method: str
    k: int = 30
    m: int = 3
    h: float = 0.05
    L: int = 10
    seed: int = 0
    stall_limit: int = 10_000

    def validate(self) -> None:
        if self.method not in METHODS:
            raise BadParams(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.seed < 0:
            raise BadParams(f"seed must be >= 0, got {self.seed}")
        if self.method == "knn_rex":
            if self.k == 0 and self.m != 1:
                raise BadParams("k = 0 admits only m = 1 (pure bootstrap)")
            if not 1 <= self.m <= self.k + 1:
                raise BadParams(f"need 1 <= m <= k+1, got m = {self.m}, k = {self.k}")
        if self.method == "bmp" and self.k < 1:
            raise BadParams(f"k must be >= 1, got {self.k}")
        if self.method in ("fixed_gaussian", "bmp") and not 0 <= self.h < math.inf:  # also NaN
            raise BadParams(f"bandwidth h must be finite and >= 0, got {self.h}")
        if self.method == "km_rex":
            if self.L < 1:
                raise BadParams(f"need L >= 1, got {self.L}")
            if self.stall_limit < 1:
                raise BadParams(f"need stall_limit >= 1, got {self.stall_limit}")

    @property
    def reads_index(self) -> bool:
        """Whether the method draws from a k-NN index of the sample."""
        return self.method == "bmp" or (self.method == "knn_rex" and self.m > 1)


class PointStream:
    """``shape[0]`` points of dimension ``shape[1]``, as one pass over
    (s, d) float64 blocks in row order; a block is drawn when it is asked
    for, so the stream can be iterated once, and a second ``iter`` raises
    RuntimeError."""

    def __init__(self, shape: tuple, blocks):
        self.shape = shape
        self._blocks = blocks

    def __iter__(self):
        if self._blocks is None:
            raise RuntimeError("a PointStream can be iterated only once")
        blocks, self._blocks = self._blocks, None
        return blocks


def synthesize(
    cfg: EstimatorConfig,
    X: np.ndarray,
    l: int,
    rng: np.random.Generator,
    measure=nullcontext,
) -> np.ndarray:
    """Draw l points from the sample X by the method of ``cfg``, as one
    (l, d) array: the blocks of ``synthesis_stream`` in order."""
    return _fill(synthesis_stream(cfg, X, l, rng, measure))


def synthesis_stream(
    cfg: EstimatorConfig,
    X: np.ndarray,
    l: int,
    rng: np.random.Generator,
    measure=nullcontext,
) -> PointStream:
    """Draw l points from the sample X by the method of ``cfg``, as a stream.

    The method runs on the whitened sample, with a k-NN index of it when
    the method reads one; these are built, and km's sets fitted, before
    this returns. Each block is drawn when the stream is iterated and
    mapped back to X's units on its own, with the same bits as the map of
    the whole population. ``measure(name)`` wraps the "whiten", "index" and
    "synthesis" phases; the draw of each block is "synthesis" too.
    """
    cfg.validate()
    check_size(l, "l")
    X = _sample(X)
    transform, X_w, index = _whitened(cfg, X, measure)
    with measure("synthesis"):
        draw = _draw(cfg, X_w, index, rng)

    def mapped(size, crng):
        with measure("synthesis"):
            Y_w = draw(size, crng)
            if size == 1 < l:
                # numpy takes a one-row product to gemv, whose rounding can
                # differ from the gemm that maps the row in a larger array
                return whiten_invert(transform, np.repeat(Y_w, 2, axis=0))[:1]
            return whiten_invert(transform, Y_w)

    return _stream(l, X.shape[1], rng, mapped)


def _whitened(cfg: EstimatorConfig, X: np.ndarray, measure):
    """The whitening of X, X in whitened units and, where the method of
    ``cfg`` reads one, their k-NN index (else None), built on every usable
    core, as the phases "whiten" and "index" of ``measure(name)``."""
    with measure("whiten"):
        transform = whiten_fit(X)
        X_w = whiten_apply(transform, X)
    if not cfg.reads_index:
        return transform, X_w, None
    with measure("index"):
        return transform, X_w, build_knn(X_w, cfg.k, workers=usable_cores())


def _draw(cfg: EstimatorConfig, X: np.ndarray, index, rng: np.random.Generator):
    """``draw(size, rng)`` of the method of ``cfg`` on X, with ``index`` of X
    where the method reads one; km's sets are fitted here, from ``rng``."""
    if cfg.method == "knn_rex":
        return _rex_draw(X, cfg.m, index)
    if cfg.method == "fixed_gaussian":
        return _gaussian_draw(X, np.full(X.shape[0], cfg.h, dtype=np.float64))
    if cfg.method == "bmp":
        return _gaussian_draw(X, cfg.h * index.dists[:, cfg.k - 1])
    return _km_draw(km_fit(X, cfg.L, cfg.m, rng, stall_limit=cfg.stall_limit), X)


def _synth_raw(cfg: EstimatorConfig, X: np.ndarray, l: int, rng: np.random.Generator, index=None):
    """l points by the method of ``cfg`` drawn on the sample X as given, not
    whitened, as one (l, d) array. Where the method reads an index, a
    prebuilt ``index`` of X must hold ``cfg.k`` neighbors per point (else
    BadParams); None builds one."""
    X = _sample(X)
    cfg.validate()
    check_size(l, "l")
    if cfg.reads_index:
        if index is None:
            index = build_knn(X, cfg.k, workers=usable_cores())
        elif index.ids.shape != (X.shape[0], cfg.k):
            raise BadParams(f"prebuilt index has shape {index.ids.shape}, need {(X.shape[0], cfg.k)}")
    return _fill(_stream(l, X.shape[1], rng, _draw(cfg, X, index, rng)))


def _empty_points(l: int, d: int) -> np.ndarray:
    """An uninitialised (l, d) float64 array; one past what numpy can address
    raises MemoryError, as one it cannot allocate does."""
    check_addressable((l, d))
    return np.empty((l, d))


def _stream(l: int, d: int, rng: np.random.Generator, draw) -> PointStream:
    """l points by ``draw(size, chunk_rng)``: chunk i of ``DEFAULT_CHUNK``
    points from the i-th generator spawned from ``rng``, spawned when the
    chunk is drawn (the i-th ``rng.spawn(1)`` is ``rng.spawn(n)[i]``)."""

    def blocks():
        for start in range(0, l, DEFAULT_CHUNK):
            [crng] = rng.spawn(1)
            yield draw(min(DEFAULT_CHUNK, l - start), crng)

    return PointStream((l, d), blocks())


def _fill(points: PointStream) -> np.ndarray:
    """The blocks of ``points`` in one array."""
    out = _empty_points(*points.shape)
    start = 0
    for block in points:
        out[start : start + block.shape[0]] = block
        start += block.shape[0]
    return out


def synth_knn_rex(
    X: np.ndarray,
    k: int,
    m: int,
    l: int,
    rng: np.random.Generator,
    index=None,
) -> np.ndarray:
    """Synthesize l points with the k-nearest-neighbor REX kernel.

    m = 1 degenerates to a plain bootstrap (the REX draw collapses onto the
    seed point); k = 0 forces m = 1 and skips index construction. A
    prebuilt ``index`` of X with k neighbors per point may be passed; one
    of any other shape raises BadParams.
    """
    return _synth_raw(EstimatorConfig("knn_rex", k=k, m=m), X, l, rng, index)


def _rex_draw(X, m, index):
    """``draw(size, rng)`` of the k-NN REX kernel on X with ``index``."""
    n = X.shape[0]

    def draw(size, crng):
        seeds = crng.integers(0, n, size=size)
        return X[seeds] if m == 1 else _rex_seeded(X, X[seeds], index.ids, m, crng, rows=seeds)

    return draw


def _rex_seeded(X, first, neighbors, m, rng, rows=None):
    """One REX draw per point of ``first``, as an (s, d) array: from the KCS
    of that point and m-1 of the points of X that its row of ``neighbors``
    lists (the ``rows`` of an (n, k) neighbor-id array, as in
    ``_pick_neighbors``)."""
    kcs = np.empty((first.shape[0], m, X.shape[1]))
    kcs[:, 0] = first
    kcs[:, 1:] = X[_pick_neighbors(neighbors, m, rng, rows)]
    return rex_batch(kcs, rng)


def _pick_neighbors(neighbors: np.ndarray, m: int, rng: np.random.Generator, rows=None) -> np.ndarray:
    """A uniform (m-1)-subset of each of the ``rows`` of an (n, k) neighbor-id
    array (all of them by default), as an (s, m-1) array.

    The picks are gathered from the flat ids, a view of an index's ids, so
    the (s, k) rows are never copied.
    """
    k = neighbors.shape[1]
    if rows is None:
        rows = np.arange(neighbors.shape[0])
    if m - 1 == k:
        return neighbors[rows]
    if m - 1 == 1:
        cols = rng.integers(0, k, size=rows.size)
        return neighbors[rows, cols][:, np.newaxis]
    # m-1 smallest of k i.i.d. uniform scores = a uniform subset, in
    # ascending score order: their order is the order of the REX fold. A sort
    # fixes it on every CPU (argpartition leaves it to numpy's CPU-dispatched
    # selection), and numpy's dispatched sort of a short row costs what the
    # selection did. Only a tie between scores, about k**2 / 2**54 per row,
    # can be ordered differently on another CPU.
    scores = rng.random((rows.size, k))
    cols = np.argsort(scores, axis=1)[:, : m - 1]
    return neighbors.ravel()[rows[:, np.newaxis] * k + cols]


def _gaussian_draw(X, widths):
    """``draw(size, rng)`` resampling X with per-point spherical Gaussian
    noise of std ``widths``."""
    n, d = X.shape

    def draw(size, crng):
        seeds = crng.integers(0, n, size=size)
        z = crng.standard_normal((size, d))
        return X[seeds] + widths[seeds, np.newaxis] * z

    return draw


def synth_fixed_gaussian(
    X: np.ndarray,
    h: float,
    l: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Synthesize l points from the fixed scalar-bandwidth Gaussian mixture."""
    return _synth_raw(EstimatorConfig("fixed_gaussian", h=h), X, l, rng)


def synth_bmp(
    X: np.ndarray,
    k: int,
    h: float,
    l: int,
    rng: np.random.Generator,
    index=None,
) -> np.ndarray:
    """Synthesize l points with per-point bandwidth h * delta_ik."""
    return _synth_raw(EstimatorConfig("bmp", k=k, h=h), X, l, rng, index)


def suggest_params(d_intrinsic: int, n: int | None = None) -> tuple[int, int]:
    """Optimization-free (k, m) rule: m = d'+1 and k = 30, inside the
    recommended range [10, 50], or d' where that is larger, so that
    m <= k + 1; given the training size n, k is at most n - 1, and an n
    below m raises BadParams.
    """
    if d_intrinsic < 1:
        raise BadParams(f"intrinsic dimension must be >= 1, got {d_intrinsic}")
    if n is not None and n < d_intrinsic + 1:
        raise BadParams(f"need n >= m = d'+1 = {d_intrinsic + 1} training points, got n = {n}")
    k = max(30, d_intrinsic)  # 30: midpoint of the recommended [10, 50] range; accuracy is insensitive to k
    return (k if n is None else min(k, n - 1)), d_intrinsic + 1


# ---------------------------------------------------------------------------
# Marginal-frequency bias correction
# ---------------------------------------------------------------------------


@dataclass
class MarginalSpec:
    """Per-variable bin edges with target frequencies.

    Bins are left-closed right-open, with the last bin right-closed. Edges
    must be finite, strictly increasing and contiguous per variable, and each
    variable's frequencies must sum to the declared population size.
    """

    names: tuple
    edges: tuple      # one strictly increasing float array per variable
    freqs: tuple      # one non-negative int array per variable
    total: int

    def __post_init__(self):
        self.names = tuple(self.names)
        self.edges = tuple(np.asarray(e, dtype=np.float64) for e in self.edges)
        try:
            self.freqs = tuple(np.asarray(f, dtype=np.int64) for f in self.freqs)
        except OverflowError:
            raise BadSpec(f"bin frequencies must fit in int64 (at most {2**63 - 1})") from None
        self.validate()

    def validate(self) -> None:
        if not (len(self.names) == len(self.edges) == len(self.freqs)):
            raise BadSpec("names, edges and freqs must align")
        if len(set(self.names)) != len(self.names):
            raise BadSpec(f"duplicate variable names in {self.names}")
        if self.total < 0:
            raise BadSpec(f"total population size must be >= 0, got {self.total}")
        for name, edges, freqs in zip(self.names, self.edges, self.freqs):
            if edges.ndim != 1 or edges.size < 2:
                raise BadSpec(f"variable {name!r}: need at least one bin")
            if not np.isfinite(edges).all():
                raise BadSpec(f"variable {name!r}: bin edges must be finite, got {edges.tolist()}")
            if not np.all(np.diff(edges) > 0):
                raise BadSpec(f"variable {name!r}: bin edges must be strictly increasing")
            if freqs.size != edges.size - 1:
                raise BadSpec(f"variable {name!r}: {freqs.size} frequencies for {edges.size - 1} bins")
            if np.any(freqs < 0):
                raise BadSpec(f"variable {name!r}: negative bin frequency")
            freq_sum = sum(freqs.tolist())  # exact: an int64 sum can wrap around
            if freq_sum != self.total:
                raise InconsistentMarginals(
                    f"variable {name!r}: frequencies sum to {freq_sum}, "
                    f"declared total is {self.total}"
                )

    def bin_of(self, var: int, values: np.ndarray) -> np.ndarray:
        """Bin index per value for one variable; -1 for out-of-range values and NaN."""
        edges = self.edges[var]
        values = np.asarray(values, dtype=np.float64)
        idx = np.searchsorted(edges, values, side="right") - 1
        idx = np.where(values == edges[-1], edges.size - 2, idx)
        return np.where((values >= edges[0]) & (values <= edges[-1]), idx, -1)


def _round_half_away(values: np.ndarray) -> np.ndarray:
    return np.sign(values) * np.floor(np.abs(values) + 0.5)


def default_columns(dim: int) -> list:
    return [f"x{i + 1}" for i in range(dim)]


def check_corrected(X, marginals: MarginalSpec, k: int, m: int, columns=None):
    """Check the inputs of ``synth_bias_corrected`` against each other.

    Returns the sample as a float array, the data column of each marginal
    variable and, per variable, the bin of every sample row. Raises BadParams
    for (k, m), BadSpec for a marginal variable missing from ``columns`` or
    naming more than one of them, and InconsistentMarginals for a sample
    value outside its variable's bins.
    """
    X = _sample(X)
    EstimatorConfig("knn_rex", k=k, m=m).validate()
    columns = list(default_columns(X.shape[1]) if columns is None else columns)
    for name in marginals.names:
        if columns.count(name) != 1:
            raise BadSpec(f"marginal variable {name!r} must name one column; it names "
                          f"{columns.count(name)} of {columns}")
    var_cols = [columns.index(name) for name in marginals.names]

    sample_bins = [marginals.bin_of(v, X[:, col]) for v, col in enumerate(var_cols)]
    for v, bins in enumerate(sample_bins):
        if np.any(bins < 0):
            raise InconsistentMarginals(
                f"variable {marginals.names[v]!r}: sample values fall outside the binned range"
            )
    return X, var_cols, sample_bins


def synth_bias_corrected(
    X: np.ndarray,
    marginals: MarginalSpec,
    k: int,
    m: int,
    rng: np.random.Generator,
    columns=None,
    round_integers: bool = False,
    measure=nullcontext,
    counters: dict | None = None,
) -> np.ndarray:
    """Synthesize a population whose marginal bin counts match ``marginals``.

    The kernel machinery runs in whitened coordinates while bin membership is
    tested in original units, so the marginal targets apply to the data as
    published. Each iteration takes one proposal seeded in the currently
    most vacant bin: from the training points in that bin when any exist,
    otherwise from a fresh uniform point on the bin (other coordinates
    uniform on their empirical ranges) whose neighbors are found on the fly.
    A proposal outside the binned range of any variable is rejected.
    Overfull bins are drained by evicting random members until every count
    is back within its target, so ``|Y_b| <= F_b`` holds after every
    iteration and the loop exits exactly when all counts hit their targets.

    Every (variable, bin) pair has one flat id: variable v owns the ids
    ``offsets[v] .. offsets[v+1]-1`` in bin order. One list holds the
    vacancy (target minus count) of every flat id, and the most vacant bin
    is its first maximum in flat order, so ties go to the earlier variable,
    then the lower bin. Each bin keeps the keys of its members in an
    ``array("q")`` with swap-removal, and an eviction picks a uniform
    position in it. A placed point's flat ids and its positions in their
    member arrays are entries of two flat int64 arrays, one row of entries
    per point key, so the ledger costs a few machine words per point.

    Proposals come from one stream per flat id, a generator that draws them
    in batches and yields them one per iteration in draw order. A batch is
    one vectorised step: seeds and neighbor picks for the whole batch, one
    (s, m, d) KCS stack through ``rex_batch``, one ``whiten_invert`` and
    one ``MarginalSpec.bin_of`` call per variable. A stream's first batch
    draws ``RESERVOIR_START`` proposals and each later one twice as many as
    the last, up to ``RESERVOIR_CAP``; the next batch is drawn only when
    the loop asks for a proposal the last one cannot give. This is the
    one-proposal-per-iteration method in law: given f, a proposal depends
    only on f's pool (or f's uniform branch) and the sample, never on the
    counts or members the ledger changes, so proposals seeded in f are
    i.i.d. whenever they are drawn. Drawing them ahead only reorders the
    random stream, so a seed gives a different population than a
    per-proposal loop would.

    The inputs are checked, as ``check_corrected`` does, before anything
    else. When m > 1 and the total is above 0 the function then whitens X
    and builds its k-NN index, as phases "whiten" and "index" of
    ``measure(name)``; the rest is phase "synthesis". With ``round_integers``,
    coordinates are rounded half-away-from-zero after the map back to
    original units, before bin membership is tested. A ``counters`` dict
    receives, in place, the counts of iterations (proposals taken),
    proposals drawn, proposals drawn but never taken, out-of-range
    rejections, evictions, uniform-branch seeds drawn and the peak stall.

    Raises StallLimit after ``STALL_FACTOR * l`` iterations without net
    progress; it carries the partial output and, as its diagnostics, the
    same counters plus the per-variable deficits.
    """
    X, var_cols, sample_bins = check_corrected(X, marginals, k, m, columns)
    d = X.shape[1]
    l = marginals.total
    tally = dict.fromkeys(CORRECTED_COUNTERS, 0)

    cfg = EstimatorConfig("knn_rex", k=k, m=m)
    needs_kernel = cfg.reads_index and l > 0
    if needs_kernel:
        transform, Xw, index = _whitened(cfg, X, measure)
    with measure("synthesis"):
        mins = X.min(axis=0)
        spans = X.max(axis=0) - mins

        sizes = [freq.size for freq in marginals.freqs]
        offsets = np.cumsum([0, *sizes])
        flat_cols = np.repeat(var_cols, sizes).tolist()  # data column per flat id
        vacancy = np.concatenate(marginals.freqs).tolist()
        n_flat = len(vacancy)
        lows = np.concatenate([e[:-1] for e in marginals.edges])
        highs = np.concatenate([e[1:] for e in marginals.edges])
        pools = [np.flatnonzero(bins == b) for bins, size in zip(sample_bins, sizes) for b in range(size)]

        def propose(f, size):
            """``size`` proposals seeded in bin f: each one's point and, per
            variable, its flat id, or -1s when it is out of range."""
            tally["proposals"] += size
            pool = pools[f]
            if pool.size > 0:
                seeds = pool[rng.integers(pool.size, size=size)]
                Y = (whiten_invert(transform, _rex_seeded(Xw, Xw[seeds], index.ids, m, rng, rows=seeds))
                     if needs_kernel else X[seeds])
            else:
                tally["uniform_seeds"] += size
                Y = mins + spans * rng.random((size, d))
                Y[:, flat_cols[f]] = lows[f] + (highs[f] - lows[f]) * rng.random(size)
                if needs_kernel:
                    seeds_w = whiten_apply(transform, Y)
                    neighbors, _ = query_neighbors(Xw, seeds_w, k)
                    Y = whiten_invert(transform, _rex_seeded(Xw, seeds_w, neighbors, m, rng))
            if round_integers:
                Y = _round_half_away(Y)
            bins = np.column_stack([marginals.bin_of(v, Y[:, col]) for v, col in enumerate(var_cols)])
            ids = np.where((bins >= 0).all(axis=1, keepdims=True), bins + offsets[:-1], -1)
            return zip(Y, ids.tolist())

        def stream(f):
            # A batch's temporaries (the KCS stack, neighbor ids) die with
            # ``propose``; the stream holds only the rows still to be taken.
            size = RESERVOIR_START
            while True:
                yield from propose(f, size)
                size = min(2 * size, RESERVOIR_CAP)

        streams = [stream(f) for f in range(n_flat)]
        n_vars = len(sizes)
        members = [array("q") for _ in range(n_flat)]  # point keys per flat id
        # Per point key: coordinates (a row of ``points``) and, at entry
        # key * n_vars + v of ``point_ids`` and ``slots``, its flat id on
        # variable v and its position in that id's member array. An evicted
        # point's key goes on the free list for the next commit. With the free
        # list empty, keys 0 .. placed-1 are all live, so the next new key is
        # ``placed``; there are at most l keys however long the loop runs, and
        # the output is the live keys in key order.
        points = _empty_points(l, d)
        point_ids = array("q", [0]) * (l * n_vars)
        slots = array("q", [0]) * (l * n_vars)
        free = []
        placed = 0
        stall = 0
        best_fill = 0
        cap = STALL_FACTOR * l

        while placed < l and stall < cap:
            tally["iterations"] += 1
            point, ids = next(streams[vacancy.index(max(vacancy))])
            if ids[0] < 0:
                tally["rejected"] += 1
            else:
                key = free.pop() if free else placed
                row = key * n_vars
                for v, g in enumerate(ids):
                    vacancy[g] -= 1
                    bucket = members[g]
                    point_ids[row + v] = g
                    slots[row + v] = len(bucket)
                    bucket.append(key)
                points[key] = point
                placed += 1
                # Drain any bin the new point overfilled; eviction frees the
                # victim's bins across all variables, so vacancies only go up.
                for g in ids:
                    if vacancy[g] < 0:
                        bucket = members[g]
                        victim = bucket[rng.integers(len(bucket))]
                        row = victim * n_vars
                        for v in range(n_vars):
                            h = point_ids[row + v]
                            vacancy[h] += 1
                            last = members[h].pop()
                            if last != victim:
                                members[h][slots[row + v]] = last
                                slots[last * n_vars + v] = slots[row + v]
                        free.append(victim)
                        placed -= 1
                        tally["evictions"] += 1

            if placed > best_fill:
                best_fill = placed
                stall = 0
            else:
                stall += 1
                tally["peak_stall"] = max(tally["peak_stall"], stall)

        tally["unused"] = tally["proposals"] - tally["iterations"]  # each iteration takes one
        if counters is not None:
            counters.update(tally)
        # every key made so far is live or on the free list
        out = np.delete(points[: placed + len(free)], np.array(free, dtype=np.int64), axis=0)
        if placed < l:
            deficits = np.add.reduceat(vacancy, offsets[:-1]).tolist()
            raise StallLimit(
                f"no net progress for {stall} iterations ({placed}/{l} points placed)",
                partial=out,
                diagnostics={**tally, "deficits": dict(zip(map(str, marginals.names), deficits))},
            )
        return out


# ---------------------------------------------------------------------------
# Likelihood-optimized crossover kernel baseline
# ---------------------------------------------------------------------------


@dataclass
class KmModel:
    """L fixed kernel construction sets selected by log-likelihood ascent."""

    kcss: np.ndarray   # (L, m) int64 training-point ids
    loglik: float
    iterations: int = 0
    accepted: int = 0
    history: list = field(default_factory=list)  # initial + accepted logliks


def km_loglik(X: np.ndarray, kcss: np.ndarray) -> float:
    """Training log-likelihood of the mixture, recomputed from scratch."""
    X = _sample(X)
    return _mixture_loglik(np.stack([_kcs_column(X, X[ids]) for ids in kcss], axis=1))


def _mixture_loglik(log_kernel):
    """Equal-weight mixture log-likelihood from its (n, L) log-kernel matrix."""
    return float((np.logaddexp.reduce(log_kernel, axis=1) - math.log(log_kernel.shape[1])).sum())


def _kcs_column(X, kcs_points):
    # Trace-scaled fallback ridge for finite-precision near-singularity;
    # m >= d+1 makes the covariance generically nonsingular. A KCS whose
    # members all coincide has trace 0 and no density: its log-density is
    # -inf everywhere, so a move to it never raises the likelihood.
    try:
        return rex_log_density(X, kcs_points)
    except SingularSigma:
        stats = kcs_stats(kcs_points)
        bump = 1e-9 * float(np.trace(stats.sigma)) / kcs_points.shape[1]
        if bump <= 0.0:
            return np.full(X.shape[0], -np.inf)
        return rex_log_density(X, kcs_points, ridge=bump)


def km_fit(
    X: np.ndarray,
    L: int,
    m: int,
    rng: np.random.Generator,
    stall_limit: int = 10_000,
) -> KmModel:
    """Hill-climb the choice of L kernel construction sets of size m.

    Starts from a uniform-random assignment; per iteration one set is redrawn
    whole and the move is kept iff the training log-likelihood strictly
    increases. Terminates after ``stall_limit`` consecutive non-improving
    iterations.
    """
    X = _sample(X)
    n, d = X.shape
    if m < d + 1:
        raise BadParams(f"need m >= d+1 = {d + 1} for an evaluable density, got m = {m}")
    EstimatorConfig("km_rex", m=m, L=L, stall_limit=stall_limit).validate()
    if n < m:
        raise BadParams(f"need n >= m, got n = {n}, m = {m}")

    check_addressable((n, L))  # the larger of the two arrays, as n >= m
    kcss = np.empty((L, m), dtype=np.int64)
    log_kernel = np.empty((n, L))
    for j in range(L):  # the column takes no draws: the stream is the L permutations
        kcss[j] = rng.permutation(n)[:m]
        log_kernel[:, j] = _kcs_column(X, X[kcss[j]])
    loglik = _mixture_loglik(log_kernel)
    history = [loglik]
    stall = 0
    accepted = 0
    iterations = 0
    while stall < stall_limit:
        iterations += 1
        j = int(rng.integers(L))
        candidate = rng.permutation(n)[:m]
        new_col = _kcs_column(X, X[candidate])
        old_col = log_kernel[:, j].copy()
        log_kernel[:, j] = new_col
        new_loglik = _mixture_loglik(log_kernel)
        if new_loglik > loglik:
            kcss[j] = candidate
            loglik = new_loglik
            history.append(loglik)
            accepted += 1
            stall = 0
        else:
            log_kernel[:, j] = old_col
            stall += 1
    return KmModel(
        kcss=kcss, loglik=loglik, iterations=iterations, accepted=accepted, history=history
    )


def km_synth(
    model: KmModel,
    X: np.ndarray,
    l: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw l points: choose one of the L sets uniformly, then one REX draw."""
    X = _sample(X)
    check_size(l, "l")
    return _fill(_stream(l, X.shape[1], rng, _km_draw(model, X)))


def _km_draw(model, X):
    """``draw(size, rng)`` of km's mixture of fixed REX kernels on X."""
    L = model.kcss.shape[0]

    def draw(size, crng):
        choice = crng.integers(0, L, size=size)
        return rex_batch(X[model.kcss[choice]], crng)

    return draw
