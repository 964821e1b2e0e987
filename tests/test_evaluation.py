import math
import os
import platform
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from knnrex import (
    BadParams,
    DegenerateVariance,
    DimensionMismatch,
    EmptyData,
    EstimatorConfig,
    TooFewPoints,
    gen_ring,
    hellinger,
    icv_run,
    icv_sweep,
    make_binning,
    welch_t,
)
import knnrex.evaluation
from knnrex.evaluation import Phases, union_hellinger


def dense_hellinger(Y, Z, binning):
    """Dense-histogram oracle with identical clamp semantics."""
    def counts(data):
        clipped = np.column_stack(
            [np.clip(data[:, j], e[0], e[-1]) for j, e in enumerate(binning.edges)]
        )
        edges = [e if e.size > 2 or e[0] != e[-1] else np.asarray([e[0], e[0] + 1.0]) for e in binning.edges]
        h, _ = np.histogramdd(clipped, bins=edges)
        return h.ravel()

    cy = counts(Y)
    cz = counts(Z)
    py = np.sqrt(cy / len(Y))
    pz = np.sqrt(cz / len(Z))
    return float(np.sqrt(0.5 * np.sum((py - pz) ** 2)))


def row_unique_hellinger(Y, Z, binning):
    """Oracle: the former implementation, a row-wise unique over index tuples,
    with the same clamp at 1."""
    iy = binning.assign(Y)
    iz = binning.assign(Z)
    both = np.concatenate([iy, iz], axis=0)
    _, inverse = np.unique(both, axis=0, return_inverse=True)
    n_bins = int(inverse.max()) + 1
    cy = np.bincount(inverse[: iy.shape[0]], minlength=n_bins)
    cz = np.bincount(inverse[iy.shape[0] :], minlength=n_bins)
    py = np.sqrt(cy / Y.shape[0])
    pz = np.sqrt(cz / Z.shape[0])
    return min(1.0, float(np.sqrt(0.5 * np.sum((py - pz) ** 2))))


def searchsorted_assign(binning, X):
    """Oracle: the former ``BinningSpec.assign``, one searchsorted per dimension."""
    X = np.asarray(X, dtype=np.float64)
    out = np.empty(X.shape, dtype=np.int64)
    for j, (edges, nb) in enumerate(zip(binning.edges, binning.bins_per_dim())):
        idx = np.searchsorted(edges, X[:, j], side="right") - 1
        out[:, j] = np.clip(idx, 0, nb - 1)
    return out


# ---------------------------------------------------------------------------
# Binning
# ---------------------------------------------------------------------------


def test_make_binning_unit_square():
    data = np.array([[0.0, 0.0], [1.0, 1.0], [0.3, 0.8]])
    spec = make_binning(data, 2)
    assert np.allclose(spec.edges[0], [0.0, 0.5, 1.0])
    assert np.allclose(spec.edges[1], [0.0, 0.5, 1.0])
    assert spec.bins_per_dim() == (2, 2)


def test_make_binning_constant_column():
    data = np.column_stack([np.arange(5.0), np.full(5, 2.0)])
    spec = make_binning(data, 4)
    assert spec.bins_per_dim()[1] == 1
    assert np.all(spec.assign(data)[:, 1] == 0)


def test_single_bin_means_zero_distance():
    rng = np.random.default_rng(0)
    Y, Z = rng.normal(size=(40, 2)), rng.normal(size=(30, 2)) + 5
    spec = make_binning(np.concatenate([Y, Z]), 1)
    assert hellinger(Y, Z, spec) == 0.0


def test_binning_boundaries_and_clamping():
    spec = make_binning(np.array([[0.0], [10.0]]), 5)
    idx = spec.assign(np.array([[0.0], [10.0], [-3.0], [13.0], [2.0], [1.9999]]))
    assert list(idx[:, 0]) == [0, 4, 0, 4, 1, 0]


TINY = 5e-324  # the smallest subnormal


@st.composite
def _column_range(draw):
    """(lo, hi) of one column: ordinary, constant, subnormal, near overflow,
    or only a few ulps wide, so that edges repeat."""
    kind = draw(st.sampled_from(["plain", "constant", "subnormal", "huge", "ulps"]))
    if kind == "plain":
        lo = draw(st.floats(-1e6, 1e6))
        return lo, lo + draw(st.floats(1e-9, 1e6))
    if kind == "constant":
        lo = draw(st.floats(-1e6, 1e6))
        return lo, lo
    if kind == "subnormal":  # the scale nb / (hi - lo) may overflow
        lo = draw(st.integers(-40, 40)) * TINY
        return lo, lo + draw(st.integers(1, 2**60)) * TINY
    if kind == "huge":  # the widest range make_binning accepts
        return -8.9e307, draw(st.floats(1e307, 8.9e307))
    lo = draw(st.sampled_from([1.0, -1.0])) * 2.0**53
    return lo, lo + 2.0 * draw(st.integers(1, 12))


def _values_around(edges, rng, n):
    """Each edge and one ulp either side of it, points inside and out of
    range, +-inf and NaN, shuffled into a column of n values."""
    lo, hi = edges[0], edges[-1]
    r = rng.random(8)
    inside = lo * (1.0 - r) + hi * r  # hi - lo may overflow
    special = [-np.inf, np.inf, np.nan, -1.7e308, 1.7e308, 0.0, -0.0, TINY, -TINY]
    values = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                             inside, special, [lo - 1.0, hi + 1.0]])
    return rng.permutation(np.resize(values, n))


@settings(max_examples=300, deadline=None)
@given(st.lists(_column_range(), min_size=1, max_size=4), st.integers(1, 12),
       st.integers(0, 2**32 - 1))
def test_assign_matches_searchsorted_on_linspace_edges(ranges, bins, seed):
    rng = np.random.default_rng(seed)
    spec = make_binning(np.array(ranges).T, bins)
    n = 3 * (bins + 1) + 30
    X = np.column_stack([_values_around(e, rng, n) for e in spec.edges])
    assert np.array_equal(spec.assign(X), searchsorted_assign(spec, X))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.booleans())
def test_assign_matches_searchsorted_on_hand_built_edges(nb, seed, coarse):
    """Non-uniform edges, rounded so that some repeat, and edges no search
    could order: all go through searchsorted where arithmetic misplaces."""
    rng = np.random.default_rng(seed)
    sorted_edges = np.sort(rng.normal(scale=3.0, size=nb + 1))
    if coarse:
        sorted_edges = np.round(sorted_edges)
    spec = knnrex.evaluation.BinningSpec(edges=(
        sorted_edges,
        rng.normal(size=nb + 1),  # unsorted
        np.concatenate([sorted_edges[:-1], [np.nan]]),
        np.array([-np.inf, *sorted_edges[1:-1], np.inf]) if nb > 1 else sorted_edges,
    ))
    X = np.column_stack([_values_around(e if np.isfinite(e).all() else sorted_edges, rng, 80)
                         for e in spec.edges])
    assert np.array_equal(spec.assign(X), searchsorted_assign(spec, X))


def test_assign_searches_only_the_rows_arithmetic_cannot_place(monkeypatch):
    searched = []
    search = knnrex.evaluation._searched_bins
    monkeypatch.setattr(knnrex.evaluation, "_searched_bins",
                        lambda edges, x: searched.append(x.size) or search(edges, x))
    data = np.random.default_rng(3).normal(size=(20_000, 3))
    spec = make_binning(data, 10)
    edges = np.column_stack(spec.edges)
    near = [np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf)]
    X = np.concatenate([data, *near, [[np.nan, np.inf, 0.0]]])
    assert np.array_equal(spec.assign(X), searchsorted_assign(spec, X))
    # Only the NaN and the +inf row. Points on an edge or one ulp from it,
    # where the floor can be one bin off, are moved by the edge comparisons.
    assert searched == [1, 1]


def test_make_binning_errors():
    with pytest.raises(EmptyData):
        make_binning(np.empty((0, 2)), 3)
    with pytest.raises(BadParams):
        make_binning(np.zeros((3, 2)), 0)
    # a range past float64 would give nan and inf edges, not a binning
    with pytest.raises(BadParams, match="column 1: range -1.7e\\+308 .. 1.7e\\+308 overflows"):
        make_binning(np.array([[0.0, -1.7e308], [1.0, 1.7e308], [2.0, 0.0]]), 4)


# ---------------------------------------------------------------------------
# Hellinger
# ---------------------------------------------------------------------------


def test_hellinger_identical_and_disjoint():
    rng = np.random.default_rng(1)
    Y = rng.normal(size=(50, 3))
    spec = make_binning(Y, 4)
    assert hellinger(Y, Y.copy(), spec) == 0.0

    a = np.zeros((20, 1))
    b = np.ones((20, 1))
    spec = make_binning(np.concatenate([a, b]), 2)
    assert hellinger(a, b, spec) == pytest.approx(1.0)


def test_hellinger_hand_case():
    # |Y| = |Z| = 4, two bins, counts (2,2) vs (1,3).
    spec = make_binning(np.array([[0.0], [1.0]]), 2)
    Y = np.array([[0.2], [0.2], [0.7], [0.7]])
    Z = np.array([[0.2], [0.7], [0.7], [0.7]])
    expected = math.sqrt(
        0.5 * ((math.sqrt(0.5) - math.sqrt(0.25)) ** 2 + (math.sqrt(0.5) - math.sqrt(0.75)) ** 2)
    )
    assert hellinger(Y, Z, spec) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.18459, abs=5e-6)


def test_hellinger_symmetric_bounded_relabeling():
    rng = np.random.default_rng(2)
    for _ in range(10):
        Y = rng.normal(size=(rng.integers(5, 60), 2))
        Z = rng.normal(size=(rng.integers(5, 60), 2)) + rng.normal()
        spec = make_binning(np.concatenate([Y, Z]), 5)
        h1 = hellinger(Y, Z, spec)
        assert 0.0 <= h1 <= 1.0 + 1e-12
        assert h1 == pytest.approx(hellinger(Z, Y, spec), abs=1e-15)
        # row order is irrelevant
        assert h1 == pytest.approx(
            hellinger(Y[rng.permutation(len(Y))], Z[rng.permutation(len(Z))], spec), abs=1e-15
        )


def test_hellinger_zero_iff_proportional():
    spec = make_binning(np.array([[0.0], [1.0]]), 4)
    rng = np.random.default_rng(3)
    Y = rng.uniform(size=(30, 1))
    Z = np.repeat(Y, 3, axis=0)  # proportional histograms
    assert hellinger(Y, Z, spec) == pytest.approx(0.0, abs=1e-15)


def test_hellinger_matches_dense_oracle():
    rng = np.random.default_rng(4)
    for _ in range(30):
        d = int(rng.integers(1, 4))
        Y = rng.normal(size=(int(rng.integers(5, 200)), d))
        Z = rng.normal(size=(int(rng.integers(5, 200)), d)) + rng.normal(scale=0.5)
        bins = int(rng.integers(1, 11))
        spec = make_binning(np.concatenate([Y, Z]), bins)
        assert hellinger(Y, Z, spec) == pytest.approx(dense_hellinger(Y, Z, spec), abs=1e-12)


@st.composite
def _hellinger_case(draw):
    """Y, Z and a binning built from a narrower third set, so that Y and Z
    also hold points outside its range; rounding makes shared bins likely."""
    d = draw(st.integers(1, 25))
    bins = draw(st.integers(1, 12))
    coarse = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def points(scale):
        X = rng.normal(scale=scale, size=(draw(st.integers(1, 60)), d))
        return np.round(X) if coarse else X

    Y, Z, basis = points(3.0), points(3.0), points(2.0)
    for j in draw(st.sets(st.integers(0, d - 1))):
        basis[:, j] = basis[0, j]  # constant dimension: a single bin
    return Y, Z, make_binning(basis, bins)


@settings(max_examples=300, deadline=None)
@given(_hellinger_case())
def test_hellinger_bit_identical_to_row_unique(case):
    Y, Z, spec = case
    assert hellinger(Y, Z, spec) == row_unique_hellinger(Y, Z, spec)


@settings(max_examples=300, deadline=None)
@given(_hellinger_case())
def test_hellinger_bounded_symmetric_and_zero_on_itself(case):
    Y, Z, spec = case
    h = hellinger(Y, Z, spec)
    assert 0.0 <= h <= 1.0
    assert hellinger(Z, Y, spec) == h
    assert hellinger(Y, Y, spec) == 0.0


def test_hellinger_bit_identical_when_keys_compact():
    # 10**20 joint bins overflow int64, so the tuples take the row-wise unique.
    spec = make_binning(np.array([[0.0] * 20, [10.0] * 20]), 10)
    assert math.prod(spec.bins_per_dim()) > 2**63
    # Unit-width bins; the digits of 2**64 as a bin tuple would wrap to the
    # key of the all-zero tuple if they were keyed by int64 strides.
    wrap = np.array([[int(c) + 0.5 for c in str(2**64)]])
    zero = np.full((1, 20), 0.5)
    assert hellinger(wrap, zero, spec) == row_unique_hellinger(wrap, zero, spec) == 1.0
    rng = np.random.default_rng(10)
    Y = rng.uniform(0.0, 10.0, size=(500, 20))
    Z = np.concatenate([Y[:200], wrap, np.round(rng.normal(5.0, 3.0, size=(300, 20)))])
    assert hellinger(Y, Z, spec) == row_unique_hellinger(Y, Z, spec)


@pytest.mark.parametrize(
    "d, bins, keyed",
    [
        (31, 4, True),  # exactly 2**62 joint bins: the largest keyed by int64 strides
        (32, 4, False),  # 2**64 joint bins: the row-wise unique
        (70, 1, True),  # one joint bin, past the index-array limit of np.ravel_multi_index
    ],
)
def test_hellinger_bit_identical_at_the_key_limit(d, bins, keyed):
    spec = make_binning(np.array([[0.0] * d, [1.0] * d]), bins)
    assert (math.prod(spec.bins_per_dim()) <= 2**62) == keyed
    rng = np.random.default_rng(d)
    Y = rng.uniform(-0.2, 1.2, size=(300, d))
    Z = np.concatenate([Y[:100], np.round(rng.uniform(0.0, 1.0, size=(200, d)), 1)])
    Z[:10] = spec.edges[0][-1]  # the last bin of every dimension: the largest key
    assert hellinger(Y, Z, spec) == row_unique_hellinger(Y, Z, spec)


@pytest.mark.parametrize("n_z, counted", [(60, True), (59, False)])
def test_hellinger_counts_bins_up_to_one_per_point(monkeypatch, n_z, counted):
    """100 joint bins: counted with bincount for 40 + 60 points, and by
    np.unique for 40 + 59; both match the row-wise unique bit for bit."""
    rng = np.random.default_rng(n_z)
    spec = make_binning(np.array([[0.0, 0.0], [1.0, 1.0]]), 10)
    Y = rng.uniform(-0.1, 1.1, size=(40, 2))
    Z = np.concatenate([Y[:20], np.round(rng.uniform(0.0, 1.0, size=(n_z - 20, 2)), 1)])
    expected = row_unique_hellinger(Y, Z, spec)
    uniques = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **kw: uniques.append(1) or unique(*a, **kw))
    assert hellinger(Y, Z, spec) == expected
    assert uniques == ([] if counted else [1])


def test_hellinger_empty_errors():
    spec = make_binning(np.array([[0.0], [1.0]]), 2)
    with pytest.raises(EmptyData):
        hellinger(np.empty((0, 1)), np.zeros((3, 1)), spec)


@pytest.mark.parametrize("shapes", [((4, 2), (5, 3)), ((4, 3), (5, 2)), ((4, 2), (5,))])
def test_hellinger_names_the_set_of_the_wrong_dimension(shapes):
    """Y and Z are binned in one call on their concatenation; a set of
    another dimension gets the message of ``assign``, not numpy's."""
    spec = make_binning(np.array([[0.0, 0.0], [1.0, 1.0]]), 2)
    Y, Z = np.zeros(shapes[0]), np.zeros(shapes[1])
    bad = Y if Y.shape[1:] != (2,) else Z
    message = f"expected points of dimension 2, got shape {bad.shape}"
    with pytest.raises(BadParams, match=re.escape(message)):
        hellinger(Y, Z, spec)


def test_hellinger_assigns_bins_once(monkeypatch):
    calls = []
    assign = knnrex.evaluation.BinningSpec.assign
    monkeypatch.setattr(knnrex.evaluation.BinningSpec, "assign",
                        lambda self, X: calls.append(len(X)) or assign(self, X))
    rng = np.random.default_rng(5)
    Y, Z = rng.normal(size=(40, 2)), rng.normal(size=(60, 2))
    assert hellinger(Y, Z, make_binning(np.concatenate([Y, Z]), 5)) == union_hellinger(Y, Z, 5)
    assert calls == [100, 100]


def test_union_hellinger_bins_the_union_and_checks_dimensions():
    rng = np.random.default_rng(4)
    Y, Z = rng.normal(size=(40, 2)), rng.normal(1.0, 2.0, size=(60, 2))
    assert union_hellinger(Y, Z, 5) == hellinger(Y, Z, make_binning(np.concatenate([Y, Z]), 5))
    with pytest.raises(DimensionMismatch):
        union_hellinger(Y, rng.normal(size=(60, 3)), 5)


# ---------------------------------------------------------------------------
# Welch's t-test
# ---------------------------------------------------------------------------


def test_welch_identity():
    t, dof, p = welch_t(1.3, 0.2, 50, 1.3, 0.2, 50)
    assert t == 0.0 and p == 1.0


def test_welch_hand_case():
    t, dof, p = welch_t(1.0, 1.0, 100, 2.0, 1.0, 100)
    assert t == pytest.approx(-7.0710678118654755, abs=1e-9)
    assert dof == pytest.approx(198.0, abs=1e-9)
    assert p < 1e-10


def test_welch_against_scipy_oracle():
    rng = np.random.default_rng(5)
    for _ in range(10):
        ma, mb = rng.normal(size=2)
        sa, sb = rng.uniform(0.1, 3.0, size=2)
        na, nb = int(rng.integers(2, 500)), int(rng.integers(2, 500))
        t, dof, p = welch_t(ma, sa, na, mb, sb, nb)
        res = scipy_stats.ttest_ind_from_stats(ma, sa, na, mb, sb, nb, equal_var=False)
        assert t == pytest.approx(res.statistic, abs=1e-6)
        assert p == pytest.approx(res.pvalue, abs=1e-6)


def test_welch_p_against_t_quantiles():
    # Two-sided p at the 97.5% t quantile must be 0.05, for dof 1, 10, 100.
    from knnrex.evaluation import _betainc_reg

    quantiles = {1: 12.706204736432095, 10: 2.2281388519649385, 100: 1.9839715184496334}
    for dof, q in quantiles.items():
        p = _betainc_reg(dof / 2.0, 0.5, dof / (dof + q * q))
        assert p == pytest.approx(0.05, abs=1e-6)


def test_welch_degenerate():
    with pytest.raises(DegenerateVariance):
        welch_t(1.0, 0.0, 10, 2.0, 0.0, 10)
    with pytest.raises(BadParams):
        welch_t(1.0, 1.0, 1, 2.0, 1.0, 10)


# ---------------------------------------------------------------------------
# Inverted cross-validation
# ---------------------------------------------------------------------------


def test_icv_fold_arithmetic_and_report():
    data = gen_ring(430, np.random.default_rng(6))
    cfg = EstimatorConfig(method="fixed_gaussian", h=0.1, seed=3)
    report = icv_run(data, cfg, folds=4, bins_per_dim=5)
    assert report.fold_size == 107
    assert report.n_used == 428
    assert report.population_size == 3 * 107
    assert report.fold_hellinger.shape == (4,)
    assert report.baseline_hellinger.shape == (4,)
    assert np.all(report.fold_seconds >= 0)
    assert report.mean == pytest.approx(float(np.mean(report.fold_hellinger)), abs=1e-12)
    assert report.std == pytest.approx(float(np.std(report.fold_hellinger, ddof=1)), abs=1e-12)
    assert report.config["method"] == "fixed_gaussian"


@pytest.mark.parametrize(
    "cfg",
    [
        EstimatorConfig(method="knn_rex", k=8, m=3, seed=5),
        EstimatorConfig(method="fixed_gaussian", h=0.1, seed=5),
        EstimatorConfig(method="bmp", k=8, h=0.3, seed=5),
        EstimatorConfig(method="km_rex", L=3, m=3, seed=5, stall_limit=30),
    ],
    ids=lambda cfg: cfg.method,
)
def test_icv_reproducible_and_thread_invariant(cfg):
    data = gen_ring(200, np.random.default_rng(7))
    r1 = icv_run(data, cfg, folds=4, bins_per_dim=5)
    r2 = icv_run(data, cfg, folds=4, bins_per_dim=5)
    r4 = icv_run(data, cfg, folds=4, bins_per_dim=5, threads=4)
    assert np.array_equal(r1.fold_hellinger, r2.fold_hellinger)
    assert np.array_equal(r1.baseline_hellinger, r2.baseline_hellinger)
    assert np.array_equal(r1.fold_hellinger, r4.fold_hellinger)


@pytest.mark.parametrize("threads", [1, 3])
def test_icv_sweep_matches_separate_runs(threads):
    # Two seeds, so a baseline reused across seeds would show.
    data = gen_ring(150, np.random.default_rng(11))
    cfgs = [
        EstimatorConfig(method="knn_rex", k=6, m=2, seed=4),
        EstimatorConfig(method="fixed_gaussian", h=0.2, seed=9),
        EstimatorConfig(method="knn_rex", k=6, m=3, seed=4),
        EstimatorConfig(method="bmp", k=5, h=0.3, seed=9),
    ]
    swept = icv_sweep(data, cfgs, folds=5, bins_per_dim=4, threads=threads)
    for cfg, report in zip(cfgs, swept):
        alone = icv_run(data, cfg, folds=5, bins_per_dim=4)
        assert report.config == alone.config
        assert np.array_equal(report.fold_hellinger, alone.fold_hellinger)
        assert np.array_equal(report.baseline_hellinger, alone.baseline_hellinger)
    assert not np.array_equal(swept[0].baseline_hellinger, swept[1].baseline_hellinger)


def test_icv_times_the_phases_of_each_fold():
    data = gen_ring(150, np.random.default_rng(12))
    cfgs = [
        EstimatorConfig(method="knn_rex", k=6, m=3, seed=4),
        EstimatorConfig(method="fixed_gaussian", h=0.2, seed=4),  # reuses the baselines
    ]
    rex, fixed = icv_sweep(data, cfgs, folds=5, bins_per_dim=4, threads=2)
    for report in (rex, fixed):
        assert list(report.phase_seconds) == list(knnrex.evaluation.FOLD_PHASES)
        phases = np.array(list(report.phase_seconds.values()))
        assert phases.shape == (5, 5) and (phases >= 0).all()
        assert (phases.sum(axis=0) <= report.fold_seconds).all()
    assert (rex.phase_seconds["index"] > 0).all() and (rex.phase_seconds["baseline"] > 0).all()
    assert (fixed.phase_seconds["index"] == 0).all() and (fixed.phase_seconds["baseline"] == 0).all()
    assert (fixed.phase_seconds["synthesis"] > 0).all() and (fixed.phase_seconds["score"] > 0).all()


def test_icv_methods_run():
    data = gen_ring(120, np.random.default_rng(8))
    for cfg in (
        EstimatorConfig(method="knn_rex", k=6, m=3, seed=1),
        EstimatorConfig(method="bmp", k=6, h=0.3, seed=1),
        EstimatorConfig(method="km_rex", L=3, m=3, seed=1, stall_limit=30),
    ):
        report = icv_run(data, cfg, folds=3, bins_per_dim=4)
        assert np.isfinite(report.mean)


# Runs a library icv twice in one process, then prints the minor page faults
# the second run took.
SECOND_ICV_FAULTS = """
import resource
import numpy as np
import knnrex
data = knnrex.gen_swiss_roll(5000, np.random.default_rng(3))
cfg = knnrex.EstimatorConfig(method="knn_rex", k=12, m=3, seed=5)
knnrex.icv_run(data, cfg, folds=50)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
knnrex.icv_run(data, cfg, folds=50)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts glibc's heap behaviour")
def test_library_icv_folds_reuse_their_heap_blocks():
    """Called outside the CLI, 100-point folds build no k-NN buffer large
    enough to raise glibc's mmap threshold, so each fold's draw and scoring
    arrays were mapped and faulted in afresh: about 21,000 minor faults for
    the second of two 50-fold runs on x86-64 Linux with glibc 2.36. With the
    threshold raised at the start of ``icv_sweep`` it took 0-1."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(knnrex.evaluation.__file__)))
    run = subprocess.run([sys.executable, "-c", SECOND_ICV_FAULTS], capture_output=True, text=True,
                         env=env, timeout=600)
    assert run.returncode == 0, run.stderr
    faults = int(run.stdout.split()[-1])
    assert faults < 1000, faults


def test_icv_errors():
    data = gen_ring(50, np.random.default_rng(9))
    with pytest.raises(BadParams):
        icv_run(data, EstimatorConfig(method="fixed_gaussian", h=0.1), folds=1)
    with pytest.raises(TooFewPoints):
        icv_run(data[:3], EstimatorConfig(method="fixed_gaussian", h=0.1), folds=4)
    with pytest.raises(BadParams):
        icv_run(data, EstimatorConfig(method="knn_rex_corrected"), folds=2)
    with pytest.raises(BadParams, match="^seed must be >= 0, got -1$"):  # before the split is drawn
        icv_run(data, EstimatorConfig("fixed_gaussian", h=0.1, seed=-1), folds=4)
    with pytest.raises(BadParams, match="^seed must be >= 0, got -2$"):
        icv_sweep(data, [EstimatorConfig("fixed_gaussian", h=0.1), EstimatorConfig("bmp", seed=-2)], folds=4)


def test_phases_add_up_blocks_and_keep_counts_in_order():
    phases = Phases(("read", "write"))
    assert phases.seconds == {"read": 0.0, "write": 0.0}
    with phases.measure("read"):
        time.sleep(0.002)
    once = phases.seconds["read"]
    with phases.measure("read"):
        time.sleep(0.002)
    with pytest.raises(KeyError), phases.measure("lookup"):  # a block that raises still counts
        {}["missing"]
    assert once > 0.0 and phases.seconds["read"] > once
    assert list(phases.seconds) == ["read", "write", "lookup"] and phases.seconds["write"] == 0.0
    phases.counts["zeta"] = 2
    phases.counts["alpha"] = 1
    assert list(phases.counts.items()) == [("zeta", 2), ("alpha", 1)]
    assert phases.total() >= sum(phases.seconds.values())


def test_nested_phases_count_for_the_inner_phase_only():
    phases = Phases()
    with phases.measure("write"):
        time.sleep(0.002)
        for _ in range(2):
            with phases.measure("synthesis"):
                time.sleep(0.004)
        with pytest.raises(KeyError), phases.measure("synthesis"):  # a block that raises still counts
            {}["missing"]
    total = phases.total()
    write, synthesis = phases.seconds["write"], phases.seconds["synthesis"]
    assert synthesis >= 0.008 and 0.002 <= write < 0.008
    assert write + synthesis <= total
    with phases.measure("write"):  # the inner seconds were taken off the block they ran in only
        pass
    assert phases.seconds["write"] - write < 0.002 and phases.seconds["synthesis"] == synthesis


def test_make_binning_refuses_edges_numpy_cannot_address():
    data = np.array([[0.0], [1.0]])
    for bins in (2**62, 2**63 - 1):
        with pytest.raises(MemoryError, match=rf"^Unable to allocate an array with shape \({bins + 1},\)"):
            make_binning(data, bins)
