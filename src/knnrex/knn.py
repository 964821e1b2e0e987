"""Exact k-nearest neighbors by naive all-pairs distances.

The build is the O(d n^2) hot path of the whole pipeline; it works on row
chunks to bound memory. Squared distances are used internally and distance
ties are broken by ascending point index (stable sort), so results are
deterministic and match a brute-force oracle exactly.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadParams, KTooLarge

# Rough cap on the number of temporary floats per distance chunk.
_CHUNK_BUDGET = 8_000_000


@dataclass(frozen=True)
class KnnIndex:
    """Per-point sorted neighbor ids and distances; immutable after build."""

    k: int
    ids: np.ndarray    # (n, k) int64, sorted by ascending distance
    dists: np.ndarray  # (n, k) float64


def build_knn(X: np.ndarray, k: int) -> KnnIndex:
    """Compute the exact k nearest neighbors of every row of X (self excluded)."""
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    if k < 1:
        raise BadParams(f"k must be >= 1, got {k}")
    if k > n - 1:
        raise KTooLarge(f"k = {k} but only {n - 1} other points exist")

    ids = np.empty((n, k), dtype=np.int64)
    dists = np.empty((n, k), dtype=np.float64)
    chunk = max(1, _CHUNK_BUDGET // (n * d))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        diff = X[start:stop, np.newaxis, :] - X[np.newaxis, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
        order = np.argsort(d2, axis=1, kind="stable")[:, :k]
        ids[start:stop] = order
        dists[start:stop] = np.sqrt(np.take_along_axis(d2, order, axis=1))
    return KnnIndex(k=k, ids=ids, dists=dists)


def query_neighbors(X: np.ndarray, q: np.ndarray, k: int):
    """Exact k nearest rows of X to an external point q.

    Returns (ids, dists) sorted by ascending distance, ties by lower index.
    q is assumed not to be a member of X, so there is no self-exclusion.
    """
    X = np.asarray(X, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    n = X.shape[0]
    if k < 1:
        raise BadParams(f"k must be >= 1, got {k}")
    if k > n:
        raise KTooLarge(f"k = {k} but only {n} points exist")
    diff = X - q
    d2 = np.einsum("ij,ij->i", diff, diff)
    order = np.argsort(d2, kind="stable")[:k]
    return order, np.sqrt(d2[order])
