"""Every export that takes a point array refuses a malformed one with a named
error: a wrong rank or width raises DimensionMismatch, NaN or an infinity
NonFiniteSample naming the row, an empty array the caller's own error and
a negative size BadParams. ``ROWS`` holds one malformed call per line;
``test_every_export_is_checked_or_takes_no_point_array`` keeps a new export
from leaving the table out."""

import numpy as np
import pytest

import knnrex
from knnrex import (
    BadParams,
    DimensionMismatch,
    EmptyData,
    EmptyKcs,
    EmptySample,
    EstimatorConfig,
    KmModel,
    KTooLarge,
    MarginalSpec,
    NonFiniteSample,
    PointSet,
    TooFewPoints,
)

X = np.random.default_rng(0).normal(size=(20, 3))
SPEC = knnrex.make_binning(X, 4)
TRANSFORM = knnrex.whiten_fit(X)
KCS = X[:4]
MODEL = KmModel(kcss=np.array([[0, 1, 2, 3], [4, 5, 6, 7]]), loglik=0.0)
MARGINALS = MarginalSpec(names=("x1",), edges=(np.array([-10.0, 0.0, 10.0]),), freqs=(np.array([3, 2]),), total=5)
CFG = EstimatorConfig("knn_rex", k=5, m=3)


def with_row(value):
    """X with ``value`` in column 1 of row 2, the row a NonFiniteSample names;
    ``KCS`` and the other slices of the first rows keep it."""
    Y = X.copy()
    Y[2, 1] = value
    return Y


NAN, INF, NEG_INF = with_row(np.nan), with_row(np.inf), with_row(-np.inf)
RANK1, RANK3, WIDTH2, EMPTY = X[:, 0], X[np.newaxis], X[:, :2], X[:0]


def rng():
    return np.random.default_rng(1)


# (export, fault, call, expected error)
ROWS = [
    ("whiten_fit", "rank", lambda: knnrex.whiten_fit(RANK1), DimensionMismatch),
    ("whiten_fit", "empty", lambda: knnrex.whiten_fit(EMPTY), TooFewPoints),
    ("whiten_fit", "nan", lambda: knnrex.whiten_fit(NAN), NonFiniteSample),
    ("whiten_fit", "inf", lambda: knnrex.whiten_fit(INF), NonFiniteSample),
    ("whiten_apply", "width", lambda: knnrex.whiten_apply(TRANSFORM, WIDTH2), DimensionMismatch),
    ("whiten_apply", "rank", lambda: knnrex.whiten_apply(TRANSFORM, X[0]), DimensionMismatch),
    ("whiten_apply", "nan", lambda: knnrex.whiten_apply(TRANSFORM, NAN), NonFiniteSample),
    ("whiten_invert", "width", lambda: knnrex.whiten_invert(TRANSFORM, WIDTH2), DimensionMismatch),
    ("whiten_invert", "-inf", lambda: knnrex.whiten_invert(TRANSFORM, NEG_INF), NonFiniteSample),
    ("build_knn", "rank", lambda: knnrex.build_knn(RANK3, 3), DimensionMismatch),
    ("build_knn", "empty", lambda: knnrex.build_knn(EMPTY, 3), EmptySample),
    ("build_knn", "nan", lambda: knnrex.build_knn(NAN, 3), NonFiniteSample),
    ("build_knn", "inf", lambda: knnrex.build_knn(INF, 3), NonFiniteSample),
    ("query_neighbors", "width", lambda: knnrex.query_neighbors(X, np.zeros(2), 3), DimensionMismatch),
    ("query_neighbors", "rank", lambda: knnrex.query_neighbors(X, np.zeros((1, 1, 3)), 3), DimensionMismatch),
    ("query_neighbors", "empty", lambda: knnrex.query_neighbors(EMPTY, np.zeros(3), 3), KTooLarge),
    ("query_neighbors", "nan", lambda: knnrex.query_neighbors(NAN, np.zeros(3), 3), NonFiniteSample),
    ("query_neighbors", "nan query", lambda: knnrex.query_neighbors(X, NAN[:3], 3), NonFiniteSample),
    ("kcs_stats", "rank", lambda: knnrex.kcs_stats(RANK3), DimensionMismatch),
    ("kcs_stats", "empty", lambda: knnrex.kcs_stats(EMPTY), EmptyKcs),
    ("kcs_stats", "nan", lambda: knnrex.kcs_stats(NAN), NonFiniteSample),
    ("rex_sample", "nan", lambda: knnrex.rex_sample(NAN[:4], rng()), NonFiniteSample),
    ("rex_sample", "empty", lambda: knnrex.rex_sample(EMPTY, rng()), EmptyKcs),
    ("rex_samples", "negative size", lambda: knnrex.rex_samples(KCS, -1, rng()), BadParams),
    ("rex_samples", "inf", lambda: knnrex.rex_samples(INF[:4], 4, rng()), NonFiniteSample),
    ("rex_log_density", "width", lambda: knnrex.rex_log_density(np.zeros(2), KCS), DimensionMismatch),
    ("rex_log_density", "nan", lambda: knnrex.rex_log_density(NAN, KCS), NonFiniteSample),
    ("rex_log_density", "kcs nan", lambda: knnrex.rex_log_density(X, NAN[:4]), NonFiniteSample),
    ("rex_density", "rank", lambda: knnrex.rex_density(RANK3, KCS), DimensionMismatch),
    ("rex_density", "inf", lambda: knnrex.rex_density(INF, KCS), NonFiniteSample),
    ("synthesize", "rank", lambda: knnrex.synthesize(CFG, RANK1, 10, rng()), DimensionMismatch),
    ("synthesize", "empty", lambda: knnrex.synthesize(CFG, EMPTY, 10, rng()), EmptySample),
    ("synthesize", "nan", lambda: knnrex.synthesize(CFG, NAN, 10, rng()), NonFiniteSample),
    ("synthesize", "negative size", lambda: knnrex.synthesize(CFG, X, -1, rng()), BadParams),
    ("synthesis_stream", "negative size", lambda: knnrex.synthesis_stream(CFG, X, -1, rng()), BadParams),
    ("synthesis_stream", "-inf", lambda: knnrex.synthesis_stream(CFG, NEG_INF, 10, rng()), NonFiniteSample),
    ("synth_knn_rex", "rank", lambda: knnrex.synth_knn_rex(RANK3, 5, 3, 10, rng()), DimensionMismatch),
    ("synth_knn_rex", "negative size", lambda: knnrex.synth_knn_rex(X, 5, 3, -1, rng()), BadParams),
    ("synth_knn_rex", "nan", lambda: knnrex.synth_knn_rex(NAN, 5, 3, 10, rng()), NonFiniteSample),
    ("synth_fixed_gaussian", "negative size", lambda: knnrex.synth_fixed_gaussian(X, 0.1, -1, rng()), BadParams),
    ("synth_fixed_gaussian", "inf", lambda: knnrex.synth_fixed_gaussian(INF, 0.1, 10, rng()), NonFiniteSample),
    ("synth_bmp", "negative size", lambda: knnrex.synth_bmp(X, 5, 0.1, -1, rng()), BadParams),
    ("synth_bmp", "rank", lambda: knnrex.synth_bmp(RANK1, 5, 0.1, 10, rng()), DimensionMismatch),
    ("synth_bias_corrected", "rank", lambda: knnrex.synth_bias_corrected(RANK1, MARGINALS, 5, 3, rng()),
     DimensionMismatch),
    ("synth_bias_corrected", "empty", lambda: knnrex.synth_bias_corrected(EMPTY, MARGINALS, 5, 3, rng()),
     EmptySample),
    ("synth_bias_corrected", "nan", lambda: knnrex.synth_bias_corrected(NAN, MARGINALS, 5, 3, rng()),
     NonFiniteSample),
    ("km_fit", "rank", lambda: knnrex.km_fit(RANK3, 2, 4, rng()), DimensionMismatch),
    ("km_fit", "inf", lambda: knnrex.km_fit(INF, 2, 4, rng()), NonFiniteSample),
    ("km_loglik", "rank", lambda: knnrex.km_loglik(RANK1, MODEL.kcss), DimensionMismatch),
    ("km_loglik", "nan", lambda: knnrex.km_loglik(NAN, MODEL.kcss), NonFiniteSample),
    ("km_synth", "negative size", lambda: knnrex.km_synth(MODEL, X, -1, rng()), BadParams),
    ("km_synth", "rank", lambda: knnrex.km_synth(MODEL, RANK3, 10, rng()), DimensionMismatch),
    ("km_synth", "nan", lambda: knnrex.km_synth(MODEL, NAN, 10, rng()), NonFiniteSample),
    ("make_binning", "rank", lambda: knnrex.make_binning(RANK3, 4), DimensionMismatch),
    ("make_binning", "empty", lambda: knnrex.make_binning(EMPTY, 4), EmptyData),
    ("make_binning", "nan", lambda: knnrex.make_binning(NAN, 4), NonFiniteSample),
    ("make_binning", "-inf", lambda: knnrex.make_binning(NEG_INF, 4), NonFiniteSample),
    ("BinningSpec", "width", lambda: SPEC.assign(WIDTH2), DimensionMismatch),
    ("BinningSpec", "rank", lambda: SPEC.assign(RANK1), DimensionMismatch),
    ("hellinger", "width", lambda: knnrex.hellinger(X, WIDTH2, SPEC), DimensionMismatch),
    ("hellinger", "empty", lambda: knnrex.hellinger(EMPTY, X, SPEC), EmptyData),
    ("hellinger", "nan", lambda: knnrex.hellinger(X, NAN, SPEC), NonFiniteSample),
    ("hellinger", "inf", lambda: knnrex.hellinger(INF, X, SPEC), NonFiniteSample),
    ("icv_run", "rank", lambda: knnrex.icv_run(RANK1, CFG, folds=2), DimensionMismatch),
    ("icv_run", "empty", lambda: knnrex.icv_run(EMPTY, CFG, folds=2), TooFewPoints),
    ("icv_run", "nan", lambda: knnrex.icv_run(NAN, CFG, folds=2), NonFiniteSample),
    ("icv_sweep", "inf", lambda: knnrex.icv_sweep(INF, [CFG], folds=2), NonFiniteSample),
    ("write_points_csv", "rank", lambda: knnrex.write_points_csv("no-such-dir/out.csv", PointSet(RANK1, [])),
     DimensionMismatch),
    ("write_points_csv", "width",
     lambda: knnrex.write_points_csv("no-such-dir/out.csv", PointSet(X, ["a", "b"])), DimensionMismatch),
]

# Exports that take no point array: constructors of plain records and
# models, readers of files, generators and parameter rules. ``BinningSpec``
# is in the table through its ``assign``.
NO_POINT_ARRAY = {
    "AsymptoticsReport", "DensityModel", "EstimatorConfig", "GmmSpec", "IcvReport", "KcsStats", "KmModel",
    "KnnIndex", "MarginalSpec", "PointSet", "PointStream", "WhitenTransform",
    "asymptotics_report", "ball_cov_mc", "ball_cov_theory", "linear_model", "uniform_model",
    "gen_gmm", "gen_ring", "gen_swiss_roll", "read_marginals_csv", "read_points_csv",
    "suggest_params", "welch_t",
}


@pytest.mark.parametrize("export, fault, call, error", ROWS, ids=[f"{row[0]}-{row[1]}" for row in ROWS])
def test_malformed_point_array_raises_a_named_error(export, fault, call, error):
    with pytest.raises(error, match=" row 2 is not finite" if error is NonFiniteSample else None):
        call()


def test_every_export_is_checked_or_takes_no_point_array():
    exports = {
        name for name, value in vars(knnrex).items()
        if not name.startswith("_") and callable(value)
        and not (isinstance(value, type) and issubclass(value, BaseException))
    }
    tabled = {row[0] for row in ROWS}
    assert not tabled & NO_POINT_ARRAY
    assert exports - tabled - NO_POINT_ARRAY == set(), "exports in neither the table nor NO_POINT_ARRAY"
    assert (tabled | NO_POINT_ARRAY) - exports == set(), "names that knnrex does not export"
