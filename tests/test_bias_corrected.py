import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knnrex import (
    BadSpec,
    GmmSpec,
    InconsistentMarginals,
    KnnRexError,
    MarginalSpec,
    NonFiniteSample,
    StallLimit,
    build_knn,
    gen_gmm,
    query_neighbors,
    rex_sample,
    synth_bias_corrected,
    whiten_apply,
    whiten_fit,
    whiten_invert,
)
from knnrex.estimators import _bin_index


def histogram_oracle(values, edges):
    """Independent bin-count check with the same edge conventions."""
    counts, _ = np.histogram(values, bins=edges)
    return counts


def marginals_from_sample(X, bins_per_var, total, pad=1.0):
    names, edges, freqs = [], [], []
    for j, nb in enumerate(bins_per_var):
        e = np.linspace(X[:, j].min() - pad, X[:, j].max() + pad, nb + 1)
        h, _ = np.histogram(X[:, j], bins=e)
        f = np.floor(h / h.sum() * total).astype(int)
        f[int(np.argmax(h))] += total - f.sum()
        names.append(f"x{j + 1}")
        edges.append(e)
        freqs.append(f)
    return MarginalSpec(names=tuple(names), edges=tuple(edges), freqs=tuple(freqs), total=total)


def gmm_fixture(n=400, seed=7):
    spec = GmmSpec(
        weights=np.array([0.4, 0.6]),
        means=np.array([[0.0, 0.0, 0.0], [4.0, 2.0, -1.0]]),
        covs=np.stack([np.eye(3), np.diag([1.5, 0.5, 1.0])]),
    )
    return gen_gmm(spec, n, np.random.default_rng(seed))


def test_bootstrap_path_reproduces_sample_histogram():
    X = gmm_fixture(n=120)
    n = len(X)
    edges = [np.linspace(X[:, j].min(), X[:, j].max(), 5) for j in range(3)]
    freqs = [histogram_oracle(X[:, j], edges[j]) for j in range(3)]
    marg = MarginalSpec(names=("x1", "x2", "x3"), edges=tuple(edges), freqs=tuple(freqs), total=n)
    out = synth_bias_corrected(X, marg, k=0, m=1, rng=np.random.default_rng(1))
    assert out.shape == (n, 3)
    # m = 1 emits sample members verbatim
    assert all(any(np.array_equal(row, x) for x in X) for row in out)
    for j in range(3):
        assert np.array_equal(histogram_oracle(out[:, j], edges[j]), freqs[j])


def test_forced_single_bin():
    rng = np.random.default_rng(2)
    X = rng.uniform(0.0, 1.0, size=(80, 2))
    marg = MarginalSpec(
        names=("x1",),
        edges=(np.asarray([0.0, 1.0, 2.0]),),
        freqs=(np.asarray([300, 0]),),
        total=300,
    )
    out = synth_bias_corrected(X, marg, k=10, m=3, rng=np.random.default_rng(3))
    assert out.shape == (300, 2)
    assert np.all((out[:, 0] >= 0.0) & (out[:, 0] < 1.0))


def test_exactness_on_gmm_marginals():
    X = gmm_fixture()
    total = 2000
    marg = marginals_from_sample(X, [5, 4, 6], total)
    out = synth_bias_corrected(X, marg, k=15, m=4, rng=np.random.default_rng(5))
    assert out.shape == (total, 3)
    for v in range(3):
        got = histogram_oracle(out[:, v], marg.edges[v])
        assert np.array_equal(got, marg.freqs[v]), f"variable {v}"


def test_empty_source_bin_uses_uniform_branch():
    X = gmm_fixture()
    total = 1500
    # Prepend a bin far below the sample's range for variable 1 and demand
    # 40 points there: the seed must come from the uniform-on-bin branch.
    lo = X[:, 0].min() - 1.0
    body = np.linspace(lo, X[:, 0].max() + 1.0, 5)
    edges = np.concatenate([[lo - 5.0], body])
    h = histogram_oracle(X[:, 0], body)
    f = np.floor(h / h.sum() * (total - 40)).astype(int)
    freqs = np.concatenate([[40], f])
    freqs[1 + int(np.argmax(h))] += total - freqs.sum()
    marg = MarginalSpec(names=("x1",), edges=(edges,), freqs=(freqs,), total=total)

    assert not np.any(X[:, 0] < lo)  # the demanded bin really is empty in X
    out = synth_bias_corrected(X, marg, k=15, m=4, rng=np.random.default_rng(6))
    got = histogram_oracle(out[:, 0], edges)
    assert np.array_equal(got, freqs)
    assert got[0] == 40


def test_round_integers():
    X = gmm_fixture()
    total = 600
    # One binned variable with half-integer edges, so rounding cannot move a
    # value across an edge.
    j = 0
    edges = np.arange(np.floor(X[:, j].min()) - 0.5, np.ceil(X[:, j].max()) + 1.5)
    h = histogram_oracle(np.round(X[:, j]), edges)
    freqs = np.floor(h / h.sum() * total).astype(int)
    freqs[int(np.argmax(h))] += total - freqs.sum()
    marg = MarginalSpec(names=("x1",), edges=(edges,), freqs=(freqs,), total=total)
    out = synth_bias_corrected(X, marg, k=10, m=3, rng=np.random.default_rng(8), round_integers=True)
    assert np.array_equal(out, np.round(out))
    assert np.array_equal(histogram_oracle(out[:, j], edges), freqs)


def test_reproducible():
    X = gmm_fixture(n=150)
    marg = marginals_from_sample(X, [4, 4, 4], 500)
    a = synth_bias_corrected(X, marg, k=10, m=3, rng=np.random.default_rng(9))
    b = synth_bias_corrected(X, marg, k=10, m=3, rng=np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_inconsistent_marginals_rejected():
    with pytest.raises(InconsistentMarginals):
        MarginalSpec(
            names=("x1",),
            edges=(np.asarray([0.0, 1.0]),),
            freqs=(np.asarray([5]),),
            total=6,
        )


def test_sample_outside_bins_rejected():
    X = np.array([[0.5], [1.5], [9.0]])
    marg = MarginalSpec(
        names=("x1",), edges=(np.asarray([0.0, 1.0, 2.0]),), freqs=(np.asarray([3, 3]),), total=6
    )
    with pytest.raises(InconsistentMarginals):
        synth_bias_corrected(X, marg, k=1, m=1, rng=np.random.default_rng(0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_sample_rejected(bad):
    X = np.random.default_rng(4).uniform(0.0, 1.0, size=(30, 2))
    X[11, 1] = bad
    marg = MarginalSpec(
        names=("x1",), edges=(np.asarray([0.0, 0.5, 1.0]),), freqs=(np.asarray([5, 5]),), total=10
    )
    for k, m in ((0, 1), (5, 3)):
        with pytest.raises(NonFiniteSample, match="row 11"):
            synth_bias_corrected(X, marg, k=k, m=m, rng=np.random.default_rng(0))


def test_bin_of_nan_is_out_of_range():
    marg = MarginalSpec(
        names=("x1",), edges=(np.asarray([0.0, 1.0, 2.0]),), freqs=(np.asarray([1, 1]),), total=2
    )
    assert marg.bin_of(0, [np.nan, -0.5, 0.0, 1.0, 2.0, 2.5]).tolist() == [-1, -1, 0, 1, 1, -1]


_EDGE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, 2.0**53]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_EDGE_VALUES, min_size=2, max_size=7, unique=True), st.lists(st.floats(), max_size=5))
def test_scalar_bin_rule_matches_bin_of(edges, extra):
    edges = sorted(edges)
    marg = MarginalSpec(
        names=("x1",),
        edges=(np.asarray(edges),),
        freqs=(np.zeros(len(edges) - 1, dtype=np.int64),),
        total=0,
    )
    values = [0.0, -0.0, np.inf, -np.inf, np.nan, *extra]
    with np.errstate(over="ignore"):  # the neighbours of +-max are +-inf
        for e in edges:
            values += [e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf)]
    values = [float(v) for v in values]
    edge_list = marg.edges[0].tolist()
    assert [_bin_index(edge_list, v) for v in values] == marg.bin_of(0, values).tolist()


def test_bad_spec_errors():
    with pytest.raises(BadSpec):
        MarginalSpec(names=("x1",), edges=(np.asarray([1.0, 0.0]),), freqs=(np.asarray([5]),), total=5)
    with pytest.raises(BadSpec):
        MarginalSpec(
            names=("x1",), edges=(np.asarray([0.0, 1.0]),), freqs=(np.asarray([-1]),), total=-1
        )
    with pytest.raises(BadSpec):
        # marginal names must resolve against the data columns
        X = np.zeros((5, 1)) + 0.5
        marg = MarginalSpec(
            names=("income",), edges=(np.asarray([0.0, 1.0]),), freqs=(np.asarray([5]),), total=5
        )
        synth_bias_corrected(X, marg, k=0, m=1, rng=np.random.default_rng(0))


def test_stall_limit_emits_partial():
    # With integer rounding, a bin that contains no integer is unreachable:
    # [1.4, 1.6) demands 5 points but every rounded output is 1.0 or 2.0,
    # so filling must stall after the first bin is satisfied.
    rng = np.random.default_rng(10)
    X = np.concatenate([rng.uniform(0.7, 1.3, size=(30, 1)), rng.uniform(1.4, 1.6, size=(10, 1))])
    marg = MarginalSpec(
        names=("x1",),
        edges=(np.asarray([0.6, 1.4, 1.6]),),
        freqs=(np.asarray([10, 5]),),
        total=15,
    )
    with pytest.raises(StallLimit) as info:
        synth_bias_corrected(X, marg, k=0, m=1, rng=np.random.default_rng(11), round_integers=True)
    err = info.value
    assert err.partial is not None and err.partial.shape == (10, 1)
    assert np.all(err.partial == 1.0)
    assert err.diagnostics["deficits"]["x1"] == 5


# ---------------------------------------------------------------------------
# Reference: the loop with per-variable count lists and a member ledger,
# kept as the oracle that the flat-id loop must match bit for bit.
# ---------------------------------------------------------------------------


class _ReferenceLedger:
    def __init__(self, freqs):
        self.points = []
        self.point_bins = []
        self.active = []
        self.n_active = 0
        self.members = [[[] for _ in f] for f in freqs]
        self.pos = {}

    def add(self, point, bins):
        key = len(self.points)
        self.points.append(point)
        self.point_bins.append(bins)
        self.active.append(True)
        self.n_active += 1
        for v, b in enumerate(bins):
            bucket = self.members[v][b]
            self.pos[(v, key)] = len(bucket)
            bucket.append(key)
        return key

    def remove(self, key):
        for v, b in enumerate(self.point_bins[key]):
            bucket = self.members[v][b]
            p = self.pos.pop((v, key))
            last = bucket.pop()
            if last != key:
                bucket[p] = last
                self.pos[(v, last)] = p
        self.active[key] = False
        self.n_active -= 1

    def survivors(self, dim):
        out = np.empty((self.n_active, dim))
        row = 0
        for key, alive in enumerate(self.active):
            if alive:
                out[row] = self.points[key]
                row += 1
        return out


def reference_bias_corrected(X, marginals, k, m, rng, round_integers=False, stall_factor=50):
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    var_cols = [[f"x{i + 1}" for i in range(d)].index(name) for name in marginals.names]
    n_vars = len(marginals.names)
    l = marginals.total
    if l == 0:
        return np.empty((0, d))

    needs_kernel = m > 1
    if needs_kernel:
        transform = whiten_fit(X)
        Xw = whiten_apply(transform, X)
        index = build_knn(Xw, k)
    mins = X.min(axis=0)
    spans = X.max(axis=0) - mins

    pools = [
        [np.flatnonzero(marginals.bin_of(v, X[:, col]) == b) for b in range(marginals.freqs[v].size)]
        for v, col in enumerate(var_cols)
    ]

    ledger = _ReferenceLedger(marginals.freqs)
    counts = [np.zeros(f.size, dtype=np.int64) for f in marginals.freqs]

    stall = 0
    best_fill = 0
    iterations = 0
    cap = max(stall_factor * l, stall_factor)

    while ledger.n_active < l:
        iterations += 1

        best_v, best_b, best_vac = 0, 0, -1
        for v in range(n_vars):
            vacancy = marginals.freqs[v] - counts[v]
            b = int(np.argmax(vacancy))
            if vacancy[b] > best_vac:
                best_v, best_b, best_vac = v, b, int(vacancy[b])

        pool = pools[best_v][best_b]
        if pool.size > 0:
            seed_id = int(pool[rng.integers(pool.size)])
            seed = X[seed_id]
            if needs_kernel:
                seed_w, neighbors = Xw[seed_id], index.ids[seed_id]
        else:
            seed = mins + spans * rng.random(d)
            lo, hi = marginals.edges[best_v][best_b], marginals.edges[best_v][best_b + 1]
            seed[var_cols[best_v]] = lo + (hi - lo) * rng.random()
            if needs_kernel:
                seed_w = whiten_apply(transform, seed[np.newaxis, :])[0]
                neighbors, _ = query_neighbors(Xw, seed_w, k)
        y = seed
        if needs_kernel:
            picks = neighbors if m - 1 == k else neighbors[rng.permutation(k)[: m - 1]]
            kcs = np.vstack([seed_w[np.newaxis, :], Xw[picks]])
            y = whiten_invert(transform, rex_sample(kcs, rng)[np.newaxis, :])[0]

        if round_integers:
            y = np.sign(y) * np.floor(np.abs(y) + 0.5)

        bins = []
        in_range = True
        for v, col in enumerate(var_cols):
            b = int(marginals.bin_of(v, np.asarray([y[col]]))[0])
            if b < 0:
                in_range = False
                break
            bins.append(b)

        if in_range:
            ledger.add(y, tuple(bins))
            for v, b in enumerate(bins):
                counts[v][b] += 1
            for v, b in enumerate(bins):
                if counts[v][b] > marginals.freqs[v][b]:
                    bucket = ledger.members[v][b]
                    victim = bucket[rng.integers(len(bucket))]
                    for vv, bb in enumerate(ledger.point_bins[victim]):
                        counts[vv][bb] -= 1
                    ledger.remove(victim)

        if ledger.n_active > best_fill:
            best_fill = ledger.n_active
            stall = 0
        else:
            stall += 1
            if stall >= cap:
                deficits = {
                    str(marginals.names[v]): int((marginals.freqs[v] - counts[v]).sum())
                    for v in range(n_vars)
                }
                raise StallLimit(
                    f"no net progress for {stall} iterations "
                    f"({ledger.n_active}/{l} points placed)",
                    partial=ledger.survivors(d),
                    diagnostics={"iterations": iterations, "deficits": deficits},
                )

    return ledger.survivors(d)


def _outcome(run):
    """Output bytes, or the StallLimit partial and diagnostics, or the error."""
    try:
        out = run()
    except StallLimit as exc:
        return "stall", exc.partial.shape, exc.partial.tobytes(), exc.diagnostics, str(exc)
    except KnnRexError as exc:
        return type(exc).__name__, str(exc)
    return "done", out.shape, out.tobytes()


@st.composite
def _corrected_case(draw):
    """1-3 binned variables of a small sample (optionally with duplicated
    points and one extra unbinned column), 1-6 bins each, an optional bin
    outside the sample's range (the uniform-seed branch), totals from 0,
    round_integers on or off, and m in {1, 2, k+1, between}."""
    n_vars = draw(st.integers(1, 3))
    d = n_vars + draw(st.integers(0, 1))
    n = draw(st.integers(d + 2, 25))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, d))
    if draw(st.booleans()):
        X = X[rng.integers(0, n, size=n)]
    total = draw(st.integers(0, 40))
    edges, freqs = [], []
    for v in range(n_vars):
        e = np.linspace(X[:, v].min() - 0.5, X[:, v].max() + 0.5, draw(st.integers(1, 6)) + 1)
        if v == 0 and draw(st.booleans()):
            e = np.concatenate([[e[0] - 2.0], e])
        weights = np.histogram(X[:, v], bins=e)[0] + 0.5
        edges.append(e)
        freqs.append(rng.multinomial(total, weights / weights.sum()))
    names = tuple(f"x{v + 1}" for v in range(n_vars))
    marg = MarginalSpec(names=names, edges=tuple(edges), freqs=tuple(freqs), total=total)
    k = draw(st.integers(0, n - 1))
    m = draw(st.sampled_from(sorted({1, min(2, k + 1), k + 1, max(1, (k + 2) // 2)})))
    return X, marg, k, m, draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(_corrected_case())
def test_matches_reference_loop(case):
    X, marg, k, m, round_integers, seed = case
    got = _outcome(lambda: synth_bias_corrected(
        X, marg, k, m, np.random.default_rng(seed), round_integers=round_integers))
    want = _outcome(lambda: reference_bias_corrected(
        X, marg, k, m, np.random.default_rng(seed), round_integers=round_integers))
    assert got == want
