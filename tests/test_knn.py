import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knnrex.knn
from knnrex import BadParams, DimensionMismatch, KTooLarge, build_knn, query_neighbors

FOUR_POINTS = np.array([[0.0], [1.0], [3.0], [7.0]])


def brute_force_knn(X, k):
    """Independent re-sort oracle: per point, sort all others by (distance, id)."""
    n = len(X)
    ids = np.empty((n, k), dtype=np.int64)
    dists = np.empty((n, k))
    for i in range(n):
        d2 = [(float(np.sum((X[j] - X[i]) ** 2)), j) for j in range(n) if j != i]
        d2.sort()
        ids[i] = [j for _, j in d2[:k]]
        dists[i] = [np.sqrt(v) for v, _ in d2[:k]]
    return ids, dists


def brute_force_query(X, q, k):
    """Oracle of query_neighbors: all rows sorted by (distance, id)."""
    d2 = sorted((float(np.sum((X[j] - q) ** 2)), j) for j in range(len(X)))
    return np.array([j for _, j in d2[:k]]), np.array([np.sqrt(v) for v, _ in d2[:k]])


def test_four_point_line():
    index = build_knn(FOUR_POINTS, 2)
    assert list(index.ids[0]) == [1, 2]          # the points with values 1 and 3
    assert np.allclose(index.dists[0], [1.0, 3.0])


def test_exhaustive_k():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(12, 3))
    index = build_knn(X, 11)
    oracle_ids, oracle_dists = brute_force_knn(X, 11)
    assert np.array_equal(index.ids, oracle_ids)
    # reduction order differs between the vectorized path and the oracle's
    # sequential sum, so distances agree to float noise, ids exactly
    assert np.allclose(index.dists, oracle_dists, rtol=1e-12, atol=0)
    for i in range(12):
        assert i not in index.ids[i]
        assert sorted(index.ids[i]) == [j for j in range(12) if j != i]


def test_duplicate_points_are_mutual_nearest():
    X = np.array([[1.0, 2.0], [1.0, 2.0], [5.0, 5.0]])
    index = build_knn(X, 1)
    assert index.ids[0, 0] == 1 and index.ids[1, 0] == 0
    assert index.dists[0, 0] == 0.0 and index.dists[1, 0] == 0.0


def test_query_tie_broken_by_lower_index():
    ids, dists = query_neighbors(FOUR_POINTS, np.array([2.0]), 2)
    assert list(ids) == [1, 2]
    assert np.allclose(dists, [1.0, 1.0])


def test_query_coincident_and_exhaustive():
    ids, dists = query_neighbors(FOUR_POINTS, np.array([3.0]), 1)
    assert list(ids) == [2] and dists[0] == 0.0
    ids, dists = query_neighbors(FOUR_POINTS, np.array([2.0]), 4)
    assert list(ids) == [1, 2, 0, 3]
    assert np.all(np.diff(dists) >= 0)


def test_errors():
    with pytest.raises(KTooLarge):
        build_knn(FOUR_POINTS, 4)
    with pytest.raises(BadParams):
        build_knn(FOUR_POINTS, 0)
    with pytest.raises(KTooLarge):
        query_neighbors(FOUR_POINTS, np.array([0.0]), 5)


def test_malformed_arrays_raise_dimension_mismatch():
    with pytest.raises(DimensionMismatch, match=r"^expected an n x d matrix, got shape \(4,\)$"):
        build_knn(FOUR_POINTS[:, 0], 2)
    with pytest.raises(DimensionMismatch, match=r"^expected points of dimension 1, got shape \(2,\)$"):
        query_neighbors(FOUR_POINTS, np.zeros(2), 2)
    with pytest.raises(DimensionMismatch, match=r"^expected points of dimension 1, got shape \(3, 2\)$"):
        query_neighbors(FOUR_POINTS, np.zeros((3, 2)), 2)
    with pytest.raises(DimensionMismatch, match=r"^expected points of dimension 1, got shape \(\)$"):
        query_neighbors(FOUR_POINTS, 0.0, 2)
    with pytest.raises(DimensionMismatch, match=r"^expected an n x d matrix, got shape \(4,\)$"):
        query_neighbors(FOUR_POINTS[:, 0], np.zeros(1), 2)


def test_agreement_with_oracle_on_random_instances():
    rng = np.random.default_rng(11)
    for n, d, k in [(60, 1, 5), (120, 3, 17), (200, 8, 30), (80, 2, 79)]:
        X = rng.normal(size=(n, d))
        index = build_knn(X, k)
        oracle_ids, oracle_dists = brute_force_knn(X, k)
        assert np.array_equal(index.ids, oracle_ids), (n, d, k)
        assert np.allclose(index.dists, oracle_dists, rtol=1e-12, atol=0)


def test_rows_sorted_and_self_excluded():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(50, 4))
    index = build_knn(X, 10)
    assert np.all(np.diff(index.dists, axis=1) >= 0)
    assert not np.any(index.ids == np.arange(50)[:, np.newaxis])
    assert index.ids.shape == (50, 10)


@st.composite
def _grid_case(draw):
    """Points on a small integer grid times a power of two, so every squared
    distance is exact in any summation order and ties are exact: many
    duplicates, constant columns, and often more than k points tied at the
    k-th distance. Returns (X, q, k)."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 4))
    span = draw(st.integers(0, 3))
    cells = st.integers(-span, span)
    X = np.array(draw(st.lists(st.lists(cells, min_size=d, max_size=d), min_size=n, max_size=n)),
                 dtype=np.float64)
    for col in range(d):
        if draw(st.integers(0, 3)) == 0:
            X[:, col] = draw(cells)  # a constant column
    q = np.array(draw(st.lists(cells, min_size=d, max_size=d)), dtype=np.float64)
    scale = 2.0 ** draw(st.integers(-4, 4))
    return X * scale, q * scale, draw(st.integers(1, n - 1))


@settings(max_examples=300, deadline=None)
@given(_grid_case())
def test_build_and_query_match_oracle_on_tied_grids(case):
    X, q, k = case
    index = build_knn(X, k)
    oracle_ids, oracle_dists = brute_force_knn(X, k)
    assert np.array_equal(index.ids, oracle_ids)
    assert np.array_equal(index.dists, oracle_dists)
    ids, dists = query_neighbors(X, q, k + 1)
    oracle_ids, oracle_dists = brute_force_query(X, q, k + 1)
    assert np.array_equal(ids, oracle_ids)
    assert np.array_equal(dists, oracle_dists)
    # a batch of queries: q, then every sample point (each coincides with itself)
    Q = np.vstack([q, X[::-1]])
    ids, dists = query_neighbors(X, Q, k + 1)
    assert ids.shape == dists.shape == (len(Q), k + 1)
    for row, point in enumerate(Q):
        oracle_ids, oracle_dists = brute_force_query(X, point, k + 1)
        assert np.array_equal(ids[row], oracle_ids)
        assert np.array_equal(dists[row], oracle_dists)


def test_batch_query_is_the_same_in_chunks(monkeypatch):
    rng = np.random.default_rng(8)
    X = rng.integers(0, 4, size=(60, 3)).astype(np.float64)
    Q = rng.integers(-1, 5, size=(25, 3)).astype(np.float64)
    whole = query_neighbors(X, Q, 7)
    two_rows = 2 * knnrex.knn._row_bytes(60, 3)  # two query rows per chunk
    monkeypatch.setattr(knnrex.knn, "_CHUNK_BYTES", two_rows)
    chunked = query_neighbors(X, Q, 7)
    assert all(np.array_equal(a, b) for a, b in zip(whole, chunked))


def test_ties_beyond_k_take_the_lower_indices():
    # point 0 at the origin; points 1..8 all at distance 1 from it
    ring = [[1, 0], [0, 1], [-1, 0], [0, -1]]
    X = np.array([[0, 0]] + ring + ring, dtype=np.float64)
    index = build_knn(X, 3)
    assert list(index.ids[0]) == [1, 2, 3]
    assert list(index.ids[5]) == [1, 0, 2]  # its duplicate 1, then the origin, then 2
    ids, dists = query_neighbors(X, np.zeros(2), 4)
    assert list(ids) == [0, 1, 2, 3] and list(dists) == [0.0, 1.0, 1.0, 1.0]


def sorted_chunk_reference(X, Q, k, exclude_self):
    """Byte-identity reference for the k-NN core, in one chunk: the same
    difference tensor and einsum, then the first k columns of a full stable
    argsort of every row, with no selection step."""
    diff = Q[:, np.newaxis, :] - X[np.newaxis, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    if exclude_self:
        d2[np.arange(len(Q)), np.arange(len(Q))] = np.inf
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return order, np.sqrt(np.take_along_axis(d2, order, axis=1))


@st.composite
def _core_case(draw):
    """A sample X and a batch Q, either normal floats (no ties: rows take the
    partition branch) or a small integer grid times a power of two (ties at
    the k boundary: rows take the full-sort fallback); a build k in
    [1, n - 1], a query k in [1, n], and a chunk budget from one row per
    chunk up to the default."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 4))
    s = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        X, Q = rng.normal(size=(n, d)), rng.normal(size=(s, d))
    else:
        span = draw(st.integers(0, 3))
        scale = 2.0 ** draw(st.integers(-4, 4))
        X = rng.integers(-span, span + 1, size=(n, d)) * scale
        Q = rng.integers(-span, span + 1, size=(s, d)) * scale
    row = knnrex.knn._row_bytes(n, d)
    budget = draw(st.sampled_from([row, 3 * row, knnrex.knn._CHUNK_BYTES]))
    return X, Q, draw(st.integers(1, n - 1)), draw(st.integers(1, n)), budget


@settings(max_examples=300, deadline=None)
@given(_core_case())
def test_build_and_query_equal_the_sorted_reference(case):
    X, Q, k, kq, budget = case
    with mock.patch.object(knnrex.knn, "_CHUNK_BYTES", budget):
        index = build_knn(X, k)
        ids, dists = query_neighbors(X, Q, kq)
    ref_ids, ref_dists = sorted_chunk_reference(X, X, k, exclude_self=True)
    assert np.array_equal(index.ids, ref_ids) and np.array_equal(index.dists, ref_dists)
    ref_ids, ref_dists = sorted_chunk_reference(X, Q, kq, exclude_self=False)
    assert np.array_equal(ids, ref_ids) and np.array_equal(dists, ref_dists)


@st.composite
def _split_case(draw):
    """A sample, either normal floats or a small integer grid (ties at the
    k-th distance), a k in [1, n - 1], and a chunk budget of 2 to 11 rows,
    so the sample spans several chunks and its last is mostly uneven."""
    n = draw(st.integers(3, 60))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        X = rng.normal(size=(n, d))
    else:
        X = rng.integers(0, draw(st.integers(1, 3)) + 1, size=(n, d)).astype(np.float64)
    k = draw(st.integers(1, n - 1))
    return X, k, draw(st.integers(2, 11)) * knnrex.knn._row_bytes(n, d)


@settings(max_examples=200, deadline=None)
@given(_split_case())
def test_build_is_the_same_on_any_number_of_workers(case):
    X, k, budget = case
    with mock.patch.object(knnrex.knn, "_CHUNK_BYTES", budget):
        one = build_knn(X, k)
        for workers in (2, 3, 7):
            split = build_knn(X, k, workers=workers)
            assert np.array_equal(split.ids, one.ids) and np.array_equal(split.dists, one.dists)


def test_workers_share_the_chunks_only_past_one_chunk(monkeypatch):
    """Worker 0 selects on the calling thread and the others on pool threads
    (an idle pool thread may take a second worker); a sample within one
    chunk stays on the calling thread."""
    callers = set()
    k_smallest = knnrex.knn._k_smallest

    def recording(d2, k):
        callers.add(threading.get_ident())
        return k_smallest(d2, k)

    monkeypatch.setattr(knnrex.knn, "_k_smallest", recording)
    X = np.random.default_rng(9).normal(size=(50, 2))
    monkeypatch.setattr(knnrex.knn, "_CHUNK_BYTES", 6 * knnrex.knn._row_bytes(50, 2))
    build_knn(X, 5, workers=3)
    assert len(callers) >= 2 and threading.get_ident() in callers
    callers.clear()
    build_knn(X[:6], 5, workers=3)
    assert callers == {threading.get_ident()}


def test_a_failing_worker_stops_the_others_before_their_next_chunk(monkeypatch):
    """An error on the calling thread, as an interrupt would be, reaches the
    caller once each pool worker ends the chunk it holds, not its share."""
    main = threading.get_ident()
    pool_chunks = []
    k_smallest = knnrex.knn._k_smallest

    def failing(d2, k):
        if threading.get_ident() == main:
            raise KeyboardInterrupt
        pool_chunks.append(1)
        time.sleep(0.05)
        return k_smallest(d2, k)

    monkeypatch.setattr(knnrex.knn, "_k_smallest", failing)
    X = np.random.default_rng(9).normal(size=(50, 2))
    monkeypatch.setattr(knnrex.knn, "_CHUNK_BYTES", 6 * knnrex.knn._row_bytes(50, 2))
    with pytest.raises(KeyboardInterrupt):
        build_knn(X, 5, workers=3)  # 25 chunks of 2 rows, 8 per pool worker
    assert len(pool_chunks) <= 4, len(pool_chunks)


def test_build_with_k_n_minus_1_ranks_every_other_point():
    # the (k+1)-th smallest of every row is the excluded self, at infinity
    X = np.random.default_rng(5).normal(size=(9, 2))
    index = build_knn(X, 8)
    ref_ids, ref_dists = sorted_chunk_reference(X, X, 8, exclude_self=True)
    assert np.array_equal(index.ids, ref_ids) and np.array_equal(index.dists, ref_dists)


def test_query_with_k_n_sorts_every_point():
    X = np.random.default_rng(6).normal(size=(9, 2))
    Q = np.random.default_rng(7).normal(size=(4, 2))
    ids, dists = query_neighbors(X, Q, 9)
    ref_ids, ref_dists = sorted_chunk_reference(X, Q, 9, exclude_self=False)
    assert np.array_equal(ids, ref_ids) and np.array_equal(dists, ref_dists)
    assert all(sorted(row) == list(range(9)) for row in ids)


def test_tie_at_the_k_boundary_goes_to_the_lower_index():
    # squared distances to the origin: 4 1 4 0 1 4 4 1. The 3rd and 4th
    # smallest are both 1, at ids 4 and 7; a bare argpartition can keep 7.
    X = np.array([[2], [1], [-2], [0], [-1], [2], [-2], [1]], dtype=np.float64)
    ids, dists = query_neighbors(X, np.zeros(1), 3)
    assert list(ids) == [3, 1, 4] and list(dists) == [0.0, 1.0, 1.0]


def test_working_set_is_the_chunk_budget_plus_the_output():
    # numpy reports its buffers to tracemalloc, so the peak is deterministic.
    # The integer grid ties most rows at the k boundary (the full-sort
    # fallback), and a query with k = n sorts every row.
    rng = np.random.default_rng(4)
    n, d, k = 4000, 3, 30
    X = rng.normal(size=(n, d))
    grid = rng.integers(0, 3, size=(n, d)).astype(np.float64)
    Q = rng.normal(size=(2000, d))
    for run, rows, cols in [
        (lambda: build_knn(X, k), n, k),
        (lambda: build_knn(grid, k), n, k),
        (lambda: query_neighbors(X, Q, k), len(Q), k),
        (lambda: query_neighbors(X, Q[:100], n), 100, n),
    ]:
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = rows * cols * 16  # int64 ids and float64 distances
        # slack for the (rows, k) candidate arrays and interpreter objects
        assert peak <= knnrex.knn._CHUNK_BYTES + output + (1 << 20), (rows, cols, peak)
