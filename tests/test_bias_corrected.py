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
    gen_gmm,
    synth_bias_corrected,
)
from knnrex.estimators import CORRECTED_COUNTERS, RESERVOIR_START, STALL_FACTOR


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


def _counts(Y, marg):
    """Per-variable bin counts of the rows of Y, variable v in column v."""
    return [histogram_oracle(Y[:, v], edges) for v, edges in enumerate(marg.edges)]


@settings(max_examples=150, deadline=None)
@given(_corrected_case())
def test_invariants_hold(case):
    X, marg, k, m, round_integers, seed = case

    def run():
        counters = {}
        try:
            out = synth_bias_corrected(
                X, marg, k, m, np.random.default_rng(seed), round_integers=round_integers,
                counters=counters)
        except StallLimit as exc:
            return exc.partial, exc.diagnostics, True
        except KnnRexError as exc:
            return type(exc).__name__, str(exc), None
        return out, counters, False

    out, counters, stalled = run()
    again = run()
    if stalled is None:  # a refused input is refused the same way every time
        assert again == (out, counters, None)
        return
    assert again[0].tobytes() == out.tobytes() and again[1:] == (counters, stalled)

    assert out.shape[1] == X.shape[1] and np.isfinite(out).all()
    if round_integers:
        assert np.array_equal(out, np.round(out))
    for v, edges in enumerate(marg.edges):  # every row lies inside a bin of every variable
        assert np.all((out[:, v] >= edges[0]) & (out[:, v] <= edges[-1]))
    counts = _counts(out, marg)
    if stalled:
        deficits = counters.pop("deficits")
        for v, name in enumerate(marg.names):
            assert np.all(counts[v] <= marg.freqs[v])
            assert deficits[name] == int((marg.freqs[v] - counts[v]).sum())
        assert counters["peak_stall"] == STALL_FACTOR * marg.total
    else:
        assert all(np.array_equal(c, f) for c, f in zip(counts, marg.freqs))
        assert out.shape[0] == marg.total
    assert list(counters) == list(CORRECTED_COUNTERS)
    # every iteration takes one drawn proposal and commits it or rejects it;
    # every commit not evicted since is an output row
    assert counters["proposals"] == counters["iterations"] + counters["unused"]
    assert counters["iterations"] - counters["rejected"] - counters["evictions"] == out.shape[0]
    assert counters["uniform_seeds"] <= counters["proposals"]


@pytest.mark.parametrize("empty_first", [True, False])
def test_ties_go_to_the_first_flat_id(empty_first):
    # Two bins with one point demanded each: the vacancies tie, so the first
    # refill goes to flat id 0. The bin outside the sample's range has no
    # pool, so its one refill is the uniform branch's.
    X = np.random.default_rng(12).uniform(0.0, 1.0, size=(20, 2))
    edges = np.asarray([-1.0, 0.0, 1.0]) if empty_first else np.asarray([0.0, 1.0, 2.0])
    marg = MarginalSpec(names=("x1",), edges=(edges,), freqs=(np.asarray([1, 1]),), total=2)
    counters = {}
    out = synth_bias_corrected(X, marg, k=0, m=1, rng=np.random.default_rng(0), counters=counters)
    assert edges[0] <= out[0, 0] < edges[1]  # the first output row comes from flat id 0
    assert counters["uniform_seeds"] == RESERVOIR_START
    assert counters["iterations"] == 2 and counters["proposals"] == 2 * RESERVOIR_START
