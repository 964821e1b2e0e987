"""Reference computations the benchmark checks knnrex's outputs against.

These are written independently of knnrex so that a check does not pass
merely because the program agrees with itself.
"""

import numpy as np


def read_points(path):
    """A point CSV with one header row, as an (n, d) float64 array."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, dtype=np.float64)


def binned_hellinger(a, b, bins):
    """Hellinger distance between the histograms of ``a`` and ``b``.

    Equal-width bins per dimension over the range of both sets together,
    left-closed with the last bin right-closed (a constant dimension is one
    bin). Joint bins are linear keys in row-major order, so the occupied bins
    are summed in lexicographic order of their index tuples.
    """
    both = np.concatenate([a, b])
    dims = []
    idx = np.empty(both.shape, dtype=np.int64)
    for j in range(both.shape[1]):
        lo, hi = float(both[:, j].min()), float(both[:, j].max())
        nb = bins if hi > lo else 1
        edges = np.linspace(lo, hi, bins + 1) if hi > lo else np.asarray([lo, lo])
        idx[:, j] = np.clip(np.searchsorted(edges, both[:, j], side="right") - 1, 0, nb - 1)
        dims.append(nb)
    keys = np.ravel_multi_index(tuple(idx.T), dims)
    _, inverse = np.unique(keys, return_inverse=True)
    occupied = int(inverse.max()) + 1
    ca = np.bincount(inverse[: len(a)], minlength=occupied)
    cb = np.bincount(inverse[len(a):], minlength=occupied)
    pa = np.sqrt(ca / len(a))
    pb = np.sqrt(cb / len(b))
    return float(np.sqrt(0.5 * np.sum((pa - pb) ** 2)))


def marginal_counts(values, edges):
    """Counts per bin, left-closed with the last bin right-closed; values
    outside [edges[0], edges[-1]] are not counted."""
    inside = (values >= edges[0]) & (values <= edges[-1])
    idx = np.minimum(np.searchsorted(edges, values[inside], side="right") - 1, edges.size - 2)
    return np.bincount(idx, minlength=edges.size - 1)
