import sys

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
from knnrex import estimators
from knnrex.estimators import (
    CORRECTED_COUNTERS,
    RESERVOIR_CAP,
    RESERVOIR_START,
    STALL_FACTOR,
    _pick_neighbors,
    _round_half_away,
    check_corrected,
)
from knnrex.kernels import rex_batch
from knnrex.knn import build_knn, query_neighbors
from knnrex.whiten import whiten_apply, whiten_fit, whiten_invert


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


def test_nan_bin_edge_is_named_as_not_finite():
    with pytest.raises(BadSpec, match=r"^variable 'x2': bin edges must be finite, got \[nan, 21.0\]$"):
        MarginalSpec(names=("x2",), edges=(np.asarray([np.nan, 21.0]),), freqs=(np.asarray([200]),), total=200)


def test_frequency_outside_int64_is_a_bad_spec():
    with pytest.raises(BadSpec, match="bin frequencies must fit in int64"):
        MarginalSpec(names=("x1",), edges=([0.0, 1.0, 2.0],), freqs=([10**20, 1],), total=10)


def test_frequencies_that_wrap_int64_do_not_match_a_small_total():
    # the int64 sum of these four is 2**64 + 5, which wraps around to 5
    with pytest.raises(InconsistentMarginals, match=f"sum to {2**64 + 5}, declared total is 5"):
        MarginalSpec(names=("x1",), edges=([0.0, 1.0, 2.0, 3.0, 4.0],),
                     freqs=([2**62, 2**62, 2**62, 2**62 + 5],), total=5)


def test_marginal_variable_naming_two_columns_is_refused():
    X = np.array([[1.0, 2.0, 3.0], [2.0, 3.0, 4.0], [3.0, 1.0, 2.0], [4.0, 4.0, 1.0]])
    marg = MarginalSpec(names=("x",), edges=([0.0, 5.0],), freqs=([10],), total=10)
    with pytest.raises(BadSpec, match="marginal variable 'x' must name one column; it names 2 of"):
        check_corrected(X, marg, k=2, m=2, columns=["x", "x", "y"])
    with pytest.raises(BadSpec, match="marginal variable 'x' must name one column; it names 2 of"):
        synth_bias_corrected(X, marg, k=2, m=2, rng=np.random.default_rng(0), columns=["x", "x", "y"])


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


def reservoir_reference(
    X, marginals, k, m, rng, columns=None, round_integers=False, transform=None, index=None,
    counters=None,
):
    """Frozen copy of the marginal-exact loop that kept each bin's proposals
    in parallel reservoir lists refilled in the hot loop, with an early
    return for total 0 and the stall raised from inside the loop. The
    stream-based loop must reproduce it byte for byte."""
    X, var_cols, sample_bins = check_corrected(X, marginals, k, m, columns)
    n, d = X.shape
    l = marginals.total
    tally = dict.fromkeys(CORRECTED_COUNTERS, 0)
    if l == 0:
        if counters is not None:
            counters.update(tally)
        return np.empty((0, d))

    needs_kernel = m > 1
    if needs_kernel:
        if transform is None:
            transform = whiten_fit(X)
        Xw = whiten_apply(transform, X)
        if index is None:
            index = build_knn(Xw, k)
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
        """``size`` proposals seeded in bin f: their points and, per point,
        its flat id in each variable, or -1s when it is out of range."""
        pool = pools[f]
        if pool.size > 0:
            seed_ids = pool[rng.integers(pool.size, size=size)]
            Y = X[seed_ids]
            if needs_kernel:
                seeds_w, neighbors = Xw[seed_ids], index.ids[seed_ids]
        else:
            Y = mins + spans * rng.random((size, d))
            Y[:, flat_cols[f]] = lows[f] + (highs[f] - lows[f]) * rng.random(size)
            if needs_kernel:
                seeds_w = whiten_apply(transform, Y)
                neighbors, _ = query_neighbors(Xw, seeds_w, k)
        if needs_kernel:
            kcs = np.empty((size, m, d))
            kcs[:, 0] = seeds_w
            kcs[:, 1:] = Xw[_pick_neighbors(neighbors, m, rng)]
            Y = whiten_invert(transform, rex_batch(kcs, rng))
        if round_integers:
            Y = _round_half_away(Y)
        bins = np.column_stack([marginals.bin_of(v, Y[:, col]) for v, col in enumerate(var_cols)])
        ids = np.where((bins >= 0).all(axis=1, keepdims=True), bins + offsets[:-1], -1)
        return Y, ids.tolist()

    # Per flat id: reservoir points, their flat-id rows, the next row to
    # take, and the size of the next refill.
    res_points = [None] * n_flat
    res_ids = [[] for _ in range(n_flat)]
    res_next = [0] * n_flat
    refill = [RESERVOIR_START] * n_flat

    members = [[] for _ in range(n_flat)]  # point keys per flat id
    # Per point key: coordinates (a row of ``points``), flat ids and
    # position in each of its member lists. An evicted point's key goes on
    # the free list for the next commit, and a new key is made only when
    # every key is live, so there are at most l keys however long the loop
    # runs; the output is the live keys in key order.
    points = np.empty((l, d))
    point_ids, slots, free = [], [], []
    placed = 0

    def survivors():
        return np.delete(points[: len(point_ids)], np.array(free, dtype=np.int64), axis=0)

    def report():
        tally["unused"] = sum(len(ids) - pos for ids, pos in zip(res_ids, res_next))
        if counters is not None:
            counters.update(tally)
        return tally

    stall = 0
    best_fill = 0
    cap = STALL_FACTOR * l

    while placed < l:
        tally["iterations"] += 1

        f = vacancy.index(max(vacancy))
        pos = res_next[f]
        if pos == len(res_ids[f]):
            size = refill[f]
            refill[f] = min(2 * size, RESERVOIR_CAP)
            res_points[f], res_ids[f] = propose(f, size)
            tally["proposals"] += size
            if pools[f].size == 0:
                tally["uniform_seeds"] += size
            pos = 0
        res_next[f] = pos + 1

        ids = res_ids[f][pos]
        if ids[0] < 0:
            tally["rejected"] += 1
        else:
            if free:
                key = free.pop()
            else:
                key = len(point_ids)
                point_ids.append(None)
                slots.append(None)
            slot = []
            for g in ids:
                vacancy[g] -= 1
                bucket = members[g]
                slot.append(len(bucket))
                bucket.append(key)
            points[key] = res_points[f][pos]
            point_ids[key] = ids
            slots[key] = slot
            placed += 1
            # Drain any bin the new point overfilled; eviction frees the
            # victim's bins across all variables, so vacancies only go up.
            for g in ids:
                if vacancy[g] < 0:
                    bucket = members[g]
                    victim = bucket[rng.integers(len(bucket))]
                    for v, h in enumerate(point_ids[victim]):
                        vacancy[h] += 1
                        last = members[h].pop()
                        if last != victim:
                            members[h][slots[victim][v]] = last
                            slots[last][v] = slots[victim][v]
                    free.append(victim)
                    placed -= 1
                    tally["evictions"] += 1

        if placed > best_fill:
            best_fill = placed
            stall = 0
        else:
            stall += 1
            tally["peak_stall"] = max(tally["peak_stall"], stall)
            if stall >= cap:
                deficits = np.add.reduceat(vacancy, offsets[:-1]).tolist()
                raise StallLimit(
                    f"no net progress for {stall} iterations ({placed}/{l} points placed)",
                    partial=survivors(),
                    diagnostics={
                        **report(),
                        "deficits": dict(zip(map(str, marginals.names), deficits)),
                    },
                )

    report()
    return survivors()


def _outcome(synth, X, marg, k, m, round_integers, seed):
    """What one run shows: output bytes and counters, the StallLimit's
    message, partial and diagnostics, or the refusal; and the state the
    generator is left in."""
    rng = np.random.default_rng(seed)
    counters = {}
    try:
        out = synth(X, marg, k, m, rng, round_integers=round_integers, counters=counters)
        result = ("ok", out.shape, out.tobytes(), counters)
    except StallLimit as exc:
        result = ("stall", str(exc), exc.partial.shape, exc.partial.tobytes(), exc.diagnostics, counters)
    except KnnRexError as exc:
        result = (type(exc).__name__, str(exc))
    return result, rng.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(_corrected_case(), st.sampled_from([None, (1, 1), (2, 8)]))
def test_streams_reproduce_the_reservoir_loop(case, batches):
    # Totals stay small, so with the shipped batch sizes no stream leaves its
    # first batch or two; smaller (start, cap) pairs send them past the cap.
    with pytest.MonkeyPatch.context() as mp:
        if batches is not None:
            for module in (estimators, sys.modules[__name__]):
                mp.setattr(module, "RESERVOIR_START", batches[0])
                mp.setattr(module, "RESERVOIR_CAP", batches[1])
        assert _outcome(synth_bias_corrected, *case) == _outcome(reservoir_reference, *case)


def test_streams_reproduce_the_reservoir_loop_at_the_shipped_cap():
    # One bin demanding 3 * RESERVOIR_CAP points: its stream doubles from
    # RESERVOIR_START up to the cap, then draws two more batches at the cap.
    X = gmm_fixture(n=300, seed=13)
    marg = marginals_from_sample(X, [1], 3 * RESERVOIR_CAP)
    new, ref = (_outcome(synth, X, marg, 10, 3, False, 14) for synth in (synth_bias_corrected, reservoir_reference))
    assert new == ref
    doubling = RESERVOIR_START * (2 * RESERVOIR_CAP // RESERVOIR_START - 1)  # START + ... + CAP
    assert new[0][-1]["proposals"] == doubling + 2 * RESERVOIR_CAP


def test_total_zero_skips_the_kernel():
    # n < d + 1 cannot be whitened, but a total of 0 needs no kernel, so it
    # returns an empty population with every counter at 0, as before.
    X = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
    marg = MarginalSpec(names=("x1",), edges=(np.asarray([0.0, 1.0]),), freqs=(np.asarray([0]),), total=0)
    counters = {}
    out = synth_bias_corrected(X, marg, k=1, m=2, rng=np.random.default_rng(0), counters=counters)
    assert out.shape == (0, 3)
    assert counters == dict.fromkeys(CORRECTED_COUNTERS, 0)
    assert _outcome(synth_bias_corrected, X, marg, 1, 2, False, 0) == _outcome(
        reservoir_reference, X, marg, 1, 2, False, 0)
