import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knnrex.knn
from knnrex import BadParams, KTooLarge, build_knn, query_neighbors

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
    monkeypatch.setattr(knnrex.knn, "_CHUNK_BUDGET", 2 * 60 * 3)  # two query rows per chunk
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
