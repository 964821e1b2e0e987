import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knnrex import (
    BadParams,
    EmptySample,
    MarginalSpec,
    NonFiniteSample,
    SingularCovariance,
    build_knn,
    km_fit,
    km_synth,
    rex_sample,
    suggest_params,
    synth_bias_corrected,
    synth_bmp,
    synth_fixed_gaussian,
    synth_knn_rex,
    synthesize,
    whiten_apply,
    whiten_fit,
    whiten_invert,
)
import knnrex.estimators
from knnrex.estimators import DEFAULT_CHUNK, METHODS, EstimatorConfig


def rows_in(sample, data):
    return all(any(np.array_equal(row, x) for x in data) for row in sample)


def test_knn_rex_bootstrap_degeneracy():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 3))
    out = synth_knn_rex(X, 5, 1, 200, np.random.default_rng(1))
    assert out.shape == (200, 3)
    assert rows_in(out, X)
    # k = 0 forces m = 1 and skips the index entirely
    out0 = synth_knn_rex(X, 0, 1, 50, np.random.default_rng(1))
    assert rows_in(out0, X)


def test_knn_rex_contract():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 2))
    assert synth_knn_rex(X, 5, 3, 0, np.random.default_rng(0)).shape == (0, 2)
    out = synth_knn_rex(X, 5, 3, 500, np.random.default_rng(3))
    assert out.shape == (500, 2)
    assert np.isfinite(out).all()


def test_knn_rex_reproducible_and_chunk_contract():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 2))
    with mock.patch.object(knnrex.estimators, "DEFAULT_CHUNK", 128):
        a = synth_knn_rex(X, 7, 4, 300, np.random.default_rng(9))
        b = synth_knn_rex(X, 7, 4, 300, np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_knn_rex_prebuilt_index_equivalent():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 2))
    index = build_knn(X, 7)
    a = synth_knn_rex(X, 7, 4, 100, np.random.default_rng(9))
    b = synth_knn_rex(X, 7, 4, 100, np.random.default_rng(9), index=index)
    assert np.array_equal(a, b)


def test_knn_rex_all_kcs_sizes():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 2))
    for m in range(1, 7):  # exercises the m-1 in {0, 1, k, other} pick paths
        out = synth_knn_rex(X, 5, m, 64, np.random.default_rng(m))
        assert out.shape == (64, 2) and np.isfinite(out).all()


def test_knn_rex_bad_params():
    X = np.random.default_rng(0).normal(size=(20, 2))
    with pytest.raises(BadParams):
        synth_knn_rex(X, 3, 5, 10, np.random.default_rng(0))
    with pytest.raises(BadParams):
        synth_knn_rex(X, 0, 2, 10, np.random.default_rng(0))
    with pytest.raises(EmptySample):
        synth_knn_rex(np.empty((0, 2)), 3, 2, 10, np.random.default_rng(0))


def test_prebuilt_index_must_hold_k_neighbors_per_sample_point():
    X = np.random.default_rng(0).normal(size=(200, 2))
    rng = np.random.default_rng(1)
    index = build_knn(X, 5)
    with pytest.raises(BadParams, match=r"^prebuilt index has shape \(200, 5\), need \(200, 3\)$"):
        synth_knn_rex(X, 3, 3, 10, rng, index=index)
    with pytest.raises(BadParams, match=r"^prebuilt index has shape \(40, 5\), need \(200, 5\)$"):
        synth_knn_rex(X, 5, 3, 10, rng, index=build_knn(X[:40], 5))
    with pytest.raises(BadParams, match="^k must be >= 1, got 0$"):
        synth_bmp(X, 0, 0.5, 10, rng, index=index)
    with pytest.raises(BadParams, match=r"^prebuilt index has shape \(200, 5\), need \(200, 3\)$"):
        synth_bmp(X, 3, 0.5, 10, rng, index=index)


# Per case: a public entry point given a bad value, and the EstimatorConfig
# fields that hold the same value.
BAD_VALUES = {
    "knn_rex-m": (lambda X, marg, rng: synth_knn_rex(X, 3, 5, 10, rng),
                  dict(method="knn_rex", k=3, m=5)),
    "knn_rex-k0": (lambda X, marg, rng: synth_knn_rex(X, 0, 2, 10, rng),
                   dict(method="knn_rex", k=0, m=2)),
    "corrected-m": (lambda X, marg, rng: synth_bias_corrected(X, marg, 3, 5, rng),
                    dict(method="knn_rex", k=3, m=5)),
    "corrected-k0": (lambda X, marg, rng: synth_bias_corrected(X, marg, 0, 2, rng),
                     dict(method="knn_rex", k=0, m=2)),
    "fixed-h": (lambda X, marg, rng: synth_fixed_gaussian(X, math.nan, 10, rng),
                dict(method="fixed_gaussian", h=math.nan)),
    "bmp-h": (lambda X, marg, rng: synth_bmp(X, 4, math.nan, 10, rng),
              dict(method="bmp", k=4, h=math.nan)),
    "km-L": (lambda X, marg, rng: km_fit(X, 0, 3, rng, stall_limit=5),
             dict(method="km_rex", L=0, m=3, stall_limit=5)),
    "km-stall_limit": (lambda X, marg, rng: km_fit(X, 2, 3, rng, stall_limit=0),
                       dict(method="km_rex", L=2, m=3, stall_limit=0)),
    "synthesize-seed": (lambda X, marg, rng: synthesize(EstimatorConfig("bmp", seed=-1), X, 10, rng),
                        dict(method="bmp", seed=-1)),
}


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_entry_points_raise_the_message_of_validate(case):
    call, fields = BAD_VALUES[case]
    X = np.random.default_rng(0).normal(size=(30, 2))
    marg = MarginalSpec(names=("x1",), edges=([-10.0, 10.0],), freqs=([5],), total=5)
    with pytest.raises(BadParams) as expected:
        EstimatorConfig(**fields).validate()
    with pytest.raises(BadParams) as raised:
        call(X, marg, np.random.default_rng(1))
    assert str(raised.value) == str(expected.value)


def test_knn_rex_mean_zero_on_symmetric_sample():
    # For a sample symmetric under negation the whole pipeline (seeding,
    # neighborhoods, kernel draws) is negation-equivariant, so the output
    # mean must vanish.
    rng = np.random.default_rng(5)
    half = rng.normal(size=(30, 2))
    X = np.concatenate([half, -half])
    out = synth_knn_rex(X, 10, 3, 200_000, np.random.default_rng(6))
    assert np.abs(out.mean(axis=0)).max() < 0.01


def test_fixed_gaussian():
    X = np.zeros((1, 1))
    out = synth_fixed_gaussian(X, 1.0, 1_000_000, np.random.default_rng(0))
    assert abs(out.mean()) < 0.005
    assert abs(out.var() - 1.0) < 0.01

    rng = np.random.default_rng(1)
    data = rng.normal(size=(25, 3))
    boot = synth_fixed_gaussian(data, 0.0, 100, np.random.default_rng(2))
    assert rows_in(boot, data)
    assert synth_fixed_gaussian(data, 0.5, 5, np.random.default_rng(0)).shape == (5, 3)
    with pytest.raises(BadParams):
        synth_fixed_gaussian(data, -0.1, 5, np.random.default_rng(0))
    with pytest.raises(EmptySample):
        synth_fixed_gaussian(np.empty((0, 2)), 0.5, 5, np.random.default_rng(0))


def test_bmp_variance_matches_mixture_oracle():
    # X = {0,1,3,7}, k = 2, h = 0.5: per-point bandwidths are
    # 0.5 * delta_i2 = (1.5, 1, 1.5, 3); the output variance is
    # Var(seed) + mean(h_i^2), both computable by hand.
    X = np.array([[0.0], [1.0], [3.0], [7.0]])
    index = build_knn(X, 2)
    widths = 0.5 * index.dists[:, 1]
    assert np.allclose(widths, [1.5, 1.0, 1.5, 3.0])

    out = synth_bmp(X, 2, 0.5, 400_000, np.random.default_rng(3))
    expected_var = X.var() + np.mean(widths**2)
    assert abs(out.mean() - X.mean()) < 0.02
    assert abs(out.var() - expected_var) / expected_var < 0.02


def test_bmp_degenerate_and_bootstrap():
    X = np.array([[2.0, 2.0], [2.0, 2.0], [9.0, 9.0]])
    out = synth_bmp(X, 1, 1.0, 50, np.random.default_rng(0))
    # Outputs seeded on the duplicated point have bandwidth 0; the third
    # point's bandwidth is positive, so just check the duplicated value
    # appears exactly.
    assert any(np.array_equal(row, [2.0, 2.0]) for row in out)

    rng = np.random.default_rng(1)
    data = rng.normal(size=(25, 3))
    boot = synth_bmp(data, 3, 0.0, 80, np.random.default_rng(2))
    assert rows_in(boot, data)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("method", METHODS)
def test_non_finite_sample_rejected(method, bad):
    X = np.random.default_rng(3).normal(size=(30, 2))
    X[17, 0] = bad
    cfg = EstimatorConfig(method=method, k=5, m=3, L=2, stall_limit=5)
    with pytest.raises(NonFiniteSample, match="row 17"):
        synthesize(cfg, X, 10, np.random.default_rng(1))


def test_suggest_params():
    assert suggest_params(2) == (30, 3)
    assert suggest_params(1) == (30, 2)
    assert suggest_params(6) == (30, 7)
    assert suggest_params(2, n=20) == (19, 3)
    with pytest.raises(BadParams):
        suggest_params(0)


def test_estimator_config_validation():
    EstimatorConfig(method="knn_rex", k=12, m=3).validate()
    with pytest.raises(BadParams):
        EstimatorConfig(method="nope").validate()
    with pytest.raises(BadParams):
        EstimatorConfig(method="knn_rex", k=3, m=5).validate()
    with pytest.raises(BadParams):
        EstimatorConfig(method="knn_rex", k=0, m=2).validate()
    with pytest.raises(BadParams):
        EstimatorConfig(method="fixed_gaussian", h=-1.0).validate()
    with pytest.raises(BadParams):
        EstimatorConfig(method="km_rex", L=0).validate()
    with pytest.raises(BadParams, match="^seed must be >= 0, got -1$"):
        EstimatorConfig(method="knn_rex", seed=-1).validate()
    EstimatorConfig(method="knn_rex", seed=10**23).validate()  # numpy seeds take any size


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
def test_non_finite_or_negative_scales_rejected(bad):
    X = np.random.default_rng(0).normal(size=(30, 2))
    rng = np.random.default_rng(1)
    for method in ("fixed_gaussian", "bmp"):
        with pytest.raises(BadParams, match="bandwidth h must be finite and >= 0"):
            EstimatorConfig(method=method, h=bad).validate()
    with pytest.raises(BadParams):
        synth_fixed_gaussian(X, bad, 10, rng)
    with pytest.raises(BadParams):
        synth_bmp(X, 4, bad, 10, rng)


@pytest.mark.parametrize("L, stall_limit", [(0, 5), (-1, 5), (2, 0), (2, -5)])
def test_km_needs_positive_L_and_stall_limit(L, stall_limit):
    X = np.random.default_rng(0).normal(size=(30, 2))
    with pytest.raises(BadParams, match="need (L|stall_limit) >= 1"):
        EstimatorConfig(method="km_rex", L=L, stall_limit=stall_limit).validate()
    with pytest.raises(BadParams, match="need (L|stall_limit) >= 1"):
        km_fit(X, L, 3, np.random.default_rng(1), stall_limit=stall_limit)


def test_fixed_and_bmp_reproducible():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 2))
    assert np.array_equal(
        synth_fixed_gaussian(X, 0.3, 100, np.random.default_rng(5)),
        synth_fixed_gaussian(X, 0.3, 100, np.random.default_rng(5)),
    )
    assert np.array_equal(
        synth_bmp(X, 4, 0.3, 100, np.random.default_rng(5)),
        synth_bmp(X, 4, 0.3, 100, np.random.default_rng(5)),
    )


# ---------------------------------------------------------------------------
# The synthesizers as written before they shared one engine, kept as oracles,
# and km's draw written out to the same chunk contract: the engine must
# reproduce them bit for bit at every chunk size.
# ---------------------------------------------------------------------------


def _chunks(total, chunk_size):
    for start in range(0, total, chunk_size):
        yield start, min(start + chunk_size, total)


def reference_knn_rex(X, k, m, l, rng, chunk_size=DEFAULT_CHUNK):
    n, d = X.shape
    out = np.empty((l, d))
    if l == 0:
        return out
    index = build_knn(X, k) if m > 1 else None
    scale = math.sqrt(1.0 / m)
    streams = rng.spawn(len(range(0, l, chunk_size)))
    for (start, stop), crng in zip(_chunks(l, chunk_size), streams):
        size = stop - start
        seeds = crng.integers(0, n, size=size)
        if m == 1:
            out[start:stop] = X[seeds]
            continue
        neighbors = index.ids[seeds]
        if m - 1 == k:
            picks = neighbors
        elif m - 1 == 1:
            cols = crng.integers(0, k, size=size)
            picks = neighbors[np.arange(size), cols][:, np.newaxis]
        else:
            scores = crng.random((size, k))
            # the m-1 smallest scores in ascending order, the order of the
            # REX fold; a stable sort fixes it on every CPU
            pos = np.argsort(scores, axis=1, kind="stable")[:, : m - 1]
            picks = np.take_along_axis(neighbors, pos, axis=1)
        kcs = np.concatenate([X[seeds][:, np.newaxis, :], X[picks]], axis=1)
        mu = kcs.mean(axis=1)
        eps = crng.standard_normal((size, m)) * scale
        out[start:stop] = mu + np.einsum("sm,smd->sd", eps, kcs - mu[:, np.newaxis, :])
    return out


def reference_fixed_gaussian(X, h, l, rng, chunk_size=DEFAULT_CHUNK):
    n, d = X.shape
    out = np.empty((l, d))
    if l == 0:
        return out
    streams = rng.spawn(len(range(0, l, chunk_size)))
    for (start, stop), crng in zip(_chunks(l, chunk_size), streams):
        size = stop - start
        seeds = crng.integers(0, n, size=size)
        z = crng.standard_normal((size, d))
        out[start:stop] = X[seeds] + h * z
    return out


def reference_bmp(X, k, h, l, rng, chunk_size=DEFAULT_CHUNK):
    n, d = X.shape
    out = np.empty((l, d))
    if l == 0:
        return out
    widths = h * build_knn(X, k).dists[:, k - 1]
    streams = rng.spawn(len(range(0, l, chunk_size)))
    for (start, stop), crng in zip(_chunks(l, chunk_size), streams):
        size = stop - start
        seeds = crng.integers(0, n, size=size)
        z = crng.standard_normal((size, d))
        out[start:stop] = X[seeds] + widths[seeds, np.newaxis] * z
    return out


def reference_km_synth(model, X, l, rng, chunk_size=DEFAULT_CHUNK):
    d = X.shape[1]
    out = np.empty((l, d))
    if l == 0:
        return out
    L, m = model.kcss.shape
    scale = math.sqrt(1.0 / m)
    streams = rng.spawn(len(range(0, l, chunk_size)))
    for (start, stop), crng in zip(_chunks(l, chunk_size), streams):
        size = stop - start
        choice = crng.integers(0, L, size=size)
        kcs = X[model.kcss[choice]]
        mu = kcs.mean(axis=1)
        eps = crng.standard_normal((size, m)) * scale
        out[start:stop] = mu + np.einsum("sm,smd->sd", eps, kcs - mu[:, np.newaxis, :])
    return out


def reference_rex_sample(kcs, rng):
    m = kcs.shape[0]
    eps = rng.standard_normal(m) * math.sqrt(1.0 / m)
    mu = kcs.mean(axis=0)
    return mu + eps @ (kcs - mu)


def reference_synthesize(cfg, X, l, rng, chunk_size=DEFAULT_CHUNK):
    if cfg.method == "knn_rex":
        return reference_knn_rex(X, cfg.k, cfg.m, l, rng, chunk_size)
    if cfg.method == "fixed_gaussian":
        return reference_fixed_gaussian(X, cfg.h, l, rng, chunk_size)
    if cfg.method == "bmp":
        return reference_bmp(X, cfg.k, cfg.h, l, rng, chunk_size)
    model = km_fit(X, cfg.L, cfg.m, rng, stall_limit=cfg.stall_limit)
    return reference_km_synth(model, X, l, rng, chunk_size)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def _synthesis_case(draw):
    """A method with parameters valid for a small sample, covering m = 1, 2,
    k+1 and one in between, k = 0, and duplicated points (coarse rounding;
    not for km, whose density needs nonsingular KCSs)."""
    method = draw(st.sampled_from(METHODS))
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d + 2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, d))
    if method != "km_rex" and draw(st.booleans()):
        X = np.round(X)
    cfg = EstimatorConfig(method=method, seed=draw(st.integers(0, 2**32 - 1)), stall_limit=3)
    if method == "knn_rex":
        cfg.k = draw(st.integers(0, n - 1))
        cfg.m = draw(st.sampled_from(sorted({1, min(2, cfg.k + 1), cfg.k + 1, max(1, (cfg.k + 2) // 2)})))
    elif method == "km_rex":
        cfg.m = draw(st.integers(d + 1, n))
        cfg.L = draw(st.integers(1, 3))
    else:
        cfg.k = draw(st.integers(1, n - 1))
        cfg.h = draw(st.sampled_from([0.0, 0.05, 0.3, 1.7]))
    return cfg, X


@settings(max_examples=150, deadline=None)
@given(
    _synthesis_case(),
    st.sampled_from([0, 1, DEFAULT_CHUNK - 1, DEFAULT_CHUNK, DEFAULT_CHUNK + 1]),
)
def test_synthesize_matches_reference(case, l):
    # synthesize takes the sample in its own units and runs the method on
    # the whitened sample; a sample without a whitening is refused.
    cfg, X = case
    try:
        t = whiten_fit(X)
    except SingularCovariance:
        with pytest.raises(SingularCovariance):
            synthesize(cfg, X, l, np.random.default_rng(cfg.seed))
        return
    got = synthesize(cfg, X, l, np.random.default_rng(cfg.seed))
    reference = reference_synthesize(cfg, whiten_apply(t, X), l, np.random.default_rng(cfg.seed))
    assert same_bits(got, whiten_invert(t, reference))


@settings(max_examples=150, deadline=None)
@given(_synthesis_case(), st.integers(1, 40), st.integers(0, 200))
def test_chunked_synthesizers_match_reference(case, chunk_size, l):
    cfg, X = case
    engine = {
        "knn_rex": lambda rng: synth_knn_rex(X, cfg.k, cfg.m, l, rng),
        "fixed_gaussian": lambda rng: synth_fixed_gaussian(X, cfg.h, l, rng),
        "bmp": lambda rng: synth_bmp(X, cfg.k, cfg.h, l, rng),
        "km_rex": lambda rng: km_synth(
            km_fit(X, cfg.L, cfg.m, rng, stall_limit=cfg.stall_limit), X, l, rng
        ),
    }[cfg.method]
    reference = reference_synthesize(cfg, X, l, np.random.default_rng(cfg.seed), chunk_size)
    with mock.patch.object(knnrex.estimators, "DEFAULT_CHUNK", chunk_size):
        got = engine(np.random.default_rng(cfg.seed))
    assert same_bits(got, reference)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_rex_sample_matches_reference(m, d, seed):
    kcs = np.random.default_rng(seed).normal(scale=10.0, size=(m, d))
    got = rex_sample(kcs, np.random.default_rng(seed + 1))
    assert same_bits(got, reference_rex_sample(kcs, np.random.default_rng(seed + 1)))
