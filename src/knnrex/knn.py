"""Exact k-nearest neighbors by naive all-pairs distances.

The build is the O(d n^2) hot path of the whole pipeline. The build and the
query share one core that works on chunks of query rows, sized so that a
call's temporaries stay within ``_CHUNK_BYTES`` (8 MiB). A build so holds
this budget plus its (n, k) output; only past n of about 150k at d = 3, where
one row alone needs more, does a chunk of one row exceed it. Each row gets
the same arithmetic at any chunk size, so the budget changes no result.
A call allocates its difference and squared-distance buffers once, sized
for the budget, and reuses them for every chunk.
Squared distances are used internally and distance ties are broken by
ascending point index, so results are deterministic and match a brute-force
oracle exactly: every row holds the first k entries of a stable sort of its
distances.

``build_knn(X, k, workers)`` splits a sample that spans more than one chunk
among up to ``workers`` threads: each takes its own slice of the budget's
rows in the two buffers and works the chunks round-robin, worker 0 on the
calling thread. numpy releases the interpreter lock in the arithmetic, the
selection and the sorts, so the threads overlap; the result is the same
bytes at any count. A sample within one chunk starts no thread, and a
query runs on the calling thread alone. A worker that fails, or is
interrupted, stops the others before their next chunk. The synthesizers
pass ``usable_cores()``. A direct ``build_knn`` call defaults to one
worker: c09 times such calls, and its index share (the build's part of a
build and a 99n draw, floor 70%) read 68-79% over 20 runs of its steps on
two workers, against 82-86% on one.

The core selects rather than sorts. ``argpartition`` (introselect, O(n) per
row) finds k candidates; sorted by id and then stably by distance, they
keep the lower-index tie rule. A row's candidates are its k nearest only
when the largest of them is strictly below the (k+1)-th smallest distance.
A row with a tie at that boundary, such as integer-coded data often gives,
falls back to the full stable sort, as does a query with k equal to the
sample size.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import BadParams, KTooLarge

# Cap, in bytes, on the temporaries of one call of _nearest, whose workers
# split its rows: each worker's chunk is its share. A query row
# holds 8 bytes per sample point in each of at most d + 4 arrays at once:
# its d coordinate differences, its squared distances and three arrays of
# the selection. Those are argpartition's int64 ids and, for a row tied at
# the k boundary, a copy of its distances and their stable argsort; for a
# query with k = n, the argsort and the gathered and rooted distances.
#
# Do not go below 8 MiB. glibc's malloc maps a block above its mmap
# threshold afresh and, when such a block is freed, raises the threshold to
# its size. The build's difference buffer, the largest block it frees, so
# sets whether a later draw's ~2 MB per-block temporaries are reused from
# the heap or mapped and faulted in again. With c09's index (n = 4348,
# d = 4) that buffer is 4.2 MB at 8 MiB and 2.1 MB at 4 MiB. A 10k draw
# after the build then took no minor faults at 8 and 16 MiB, but about 1000
# at 2 and 4 MiB, and at 4 MiB it took 1.5 times as long as at 8 MiB (the
# median of 10 interleaved rounds on a 2-core Xeon). With
# MALLOC_MMAP_THRESHOLD_=33554432 MALLOC_TRIM_THRESHOLD_=67108864 set on the
# process it took no faults at any budget. c09's 4x synthesis scaling read
# x3.06-4.00 over 8 runs at 4 MiB, one of them below its floor of 3.2, and
# x3.56-4.04 over 12 runs at 8 MiB. The workers share one buffer of the
# budget's size, so the block a build frees, and with it the rule above, is
# the same at any worker count. Inside the CLI and icv_sweep the thresholds
# are set by raise_heap_thresholds before any work, not by this buffer; the
# 8 MiB floor still holds for other library callers such as c09, which call
# build_knn with its default of one worker.
_CHUNK_BYTES = 8 << 20


def usable_cores() -> int:
    """The CPUs this process may run on: its affinity set where the system
    reports one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity outside Linux and a few others
        return os.cpu_count() or 1


def raise_heap_thresholds() -> None:
    """Allocate and free one 4 MiB block, so that glibc's malloc keeps every
    later block up to that size on its heap.

    glibc maps a block above its mmap threshold (128 KiB at start) afresh
    and unmaps it when freed; freeing such a block raises the threshold to
    the block's size and the trim threshold to twice that (mallopt(3)). A
    draw's per-block temporaries (about 2 MB at k = 30 for 8192 rows) and an
    icv fold's k-NN and scoring arrays were otherwise mapped and faulted in
    again on every block, about 500 minor faults per fold of a 100-fold icv,
    unless a large k-NN build had freed its difference buffer first. 4 MiB
    is about what such a build frees (see _CHUNK_BYTES), so callers that run
    one start in the heap state they reach anyway. ``cli.main`` and
    ``evaluation.icv_sweep`` call this first. Above k = 64 a block's
    (8192, k) float64 score array exceeds 4 MiB and is still mapped per
    block. No arithmetic changes, so no output byte does; under another
    allocator this is one harmless allocation.
    """
    np.empty(4 << 20, dtype=np.uint8)


def _row_bytes(n: int, d: int) -> int:
    """Bytes of _nearest's temporaries per query row against n points in d dims."""
    return 8 * n * (d + 4)


@dataclass(frozen=True)
class KnnIndex:
    """Per-point sorted neighbor ids and distances; immutable after build."""

    k: int
    ids: np.ndarray    # (n, k) int64, sorted by ascending distance
    dists: np.ndarray  # (n, k) float64


def _k_smallest(d2: np.ndarray, k: int) -> np.ndarray:
    """Column ids of the k smallest entries of each row of d2, by ascending
    value, ties by lower id: the first k columns of a stable argsort."""
    if k == d2.shape[1]:
        return np.argsort(d2, axis=1, kind="stable")
    part = np.argpartition(d2, k, axis=1)
    cand = np.sort(part[:, :k], axis=1)
    cand_d2 = np.take_along_axis(d2, cand, axis=1)
    order = np.take_along_axis(cand, np.argsort(cand_d2, axis=1, kind="stable"), axis=1)
    # max < next is False for a tie at the boundary, and for any NaN
    tied = ~(cand_d2.max(axis=1) < np.take_along_axis(d2, part[:, k : k + 1], axis=1)[:, 0])
    if tied.any():
        order[tied] = np.argsort(d2[tied], axis=1, kind="stable")[:, :k]
    return order


def _nearest(X: np.ndarray, Q: np.ndarray, k: int, exclude_self: bool, workers: int = 1):
    """(ids, dists) of the k nearest rows of X to each row of Q. With
    ``exclude_self``, Q is X and row i never lists point i. Where Q spans
    more than one chunk, up to ``workers`` threads each take a slice of the
    chunk budget's rows and the chunks round-robin; worker 0 is the calling
    thread."""
    n, d = X.shape
    rows = Q.shape[0]
    ids = np.empty((rows, k), dtype=np.int64)
    dists = np.empty((rows, k), dtype=np.float64)
    budget = max(1, min(_CHUNK_BYTES // _row_bytes(n, d), rows))
    workers = max(1, min(workers, budget, -(-rows // budget)))
    chunk = budget // workers
    # The two largest temporaries are allocated once per call and every chunk
    # writes into them. A fresh pair per chunk let the allocator return their
    # pages to the kernel and fault them in again, thousands of pages a call.
    diff_buf = np.empty((budget, n, d))
    d2_buf = np.empty((budget, n))
    stopped = threading.Event()

    def work(worker):
        diff_rows = diff_buf[worker * chunk : (worker + 1) * chunk]
        d2_rows = d2_buf[worker * chunk : (worker + 1) * chunk]
        try:
            for start in range(worker * chunk, rows, workers * chunk):
                if stopped.is_set():
                    return
                stop = min(start + chunk, rows)
                diff = np.subtract(Q[start:stop, np.newaxis, :], X[np.newaxis, :, :], out=diff_rows[: stop - start])
                d2 = np.einsum("ijk,ijk->ij", diff, diff, out=d2_rows[: stop - start])
                if exclude_self:
                    d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
                order = _k_smallest(d2, k)
                ids[start:stop] = order
                dists[start:stop] = np.sqrt(np.take_along_axis(d2, order, axis=1))
        except BaseException:
            stopped.set()
            raise

    if workers == 1:
        work(0)
    else:
        with ThreadPoolExecutor(max_workers=workers - 1) as pool:
            others = [pool.submit(work, worker) for worker in range(1, workers)]
            work(0)
            for other in others:
                other.result()
    return ids, dists


def build_knn(X: np.ndarray, k: int, workers: int = 1) -> KnnIndex:
    """Compute the exact k nearest neighbors of every row of X (self excluded),
    on up to ``workers`` threads; the result is the same at any count."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if k < 1:
        raise BadParams(f"k must be >= 1, got {k}")
    if k > n - 1:
        raise KTooLarge(f"k = {k} but only {n - 1} other points exist")
    ids, dists = _nearest(X, X, k, exclude_self=True, workers=workers)
    return KnnIndex(k=k, ids=ids, dists=dists)


def query_neighbors(X: np.ndarray, q: np.ndarray, k: int):
    """Exact k nearest rows of X to an external point q, or to each row of
    an (s, d) batch q.

    Returns (ids, dists) sorted by ascending distance, ties by lower index:
    of shape (k,) for one point, and (s, k) for a batch with row i for q[i].
    The points of q are assumed not to be members of X, so there is no
    self-exclusion.
    """
    X = np.asarray(X, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    n = X.shape[0]
    if k < 1:
        raise BadParams(f"k must be >= 1, got {k}")
    if k > n:
        raise KTooLarge(f"k = {k} but only {n} points exist")
    ids, dists = _nearest(X, np.atleast_2d(q), k, exclude_self=False)
    return (ids[0], dists[0]) if q.ndim == 1 else (ids, dists)
