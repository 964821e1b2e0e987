import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knnrex import (
    EmptyKcs,
    SingularSigma,
    kcs_stats,
    rex_density,
    rex_log_density,
    rex_sample,
    rex_samples,
)
from knnrex.kernels import rex_batch

CROSS = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])


def test_kcs_stats_hand_case():
    stats = kcs_stats(CROSS)
    assert np.allclose(stats.mu, [0.0, 0.0])
    assert np.allclose(stats.sigma, np.diag([0.5, 0.5]))


def test_kcs_stats_degenerates():
    single = kcs_stats(np.array([[2.0, -3.0]]))
    assert np.array_equal(single.mu, [2.0, -3.0])
    assert np.array_equal(single.sigma, np.zeros((2, 2)))

    twin = kcs_stats(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert np.array_equal(twin.sigma, np.zeros((2, 2)))


def test_kcs_stats_symmetric_psd():
    rng = np.random.default_rng(0)
    for _ in range(20):
        kcs = rng.normal(size=(rng.integers(1, 9), 3))
        sigma = kcs_stats(kcs).sigma
        assert np.array_equal(sigma, sigma.T)
        assert np.linalg.eigvalsh(sigma).min() >= -1e-10


def test_empty_kcs():
    with pytest.raises(EmptyKcs):
        kcs_stats(np.empty((0, 2)))
    with pytest.raises(EmptyKcs):
        rex_sample(np.empty((0, 2)), np.random.default_rng(0))


def test_rex_single_point_collapses():
    point = np.array([[3.0, -1.0]])
    out = rex_sample(point, np.random.default_rng(5))
    assert np.array_equal(out, point[0])


def test_rex_identical_points_collapse():
    kcs = np.tile([[2.0, 2.0]], (4, 1))
    out = rex_sample(kcs, np.random.default_rng(5))
    assert np.array_equal(out, [2.0, 2.0])


def test_rex_consumes_exactly_m_draws_in_order():
    kcs = CROSS
    m = kcs.shape[0]
    rng = np.random.default_rng(99)
    out = rex_sample(kcs, rng)
    # Reconstruct from a fresh stream: m scaled draws applied in KCS order.
    ref_rng = np.random.default_rng(99)
    eps = ref_rng.standard_normal(m) * math.sqrt(1.0 / m)
    mu = kcs.mean(axis=0)
    assert np.array_equal(out, mu + eps @ (kcs - mu))
    # Both streams must now be in the same state.
    assert rng.standard_normal() == ref_rng.standard_normal()


def test_rex_moments_match_kcs_stats():
    rng = np.random.default_rng(123)
    draws = rex_samples(CROSS, 1_000_000, rng)
    assert np.abs(draws.mean(axis=0)).max() < 0.005
    dev = draws - draws.mean(axis=0)
    cov = dev.T @ dev / len(draws)
    assert np.abs(cov - np.diag([0.5, 0.5])).max() < 0.01


def test_rex_reproducible():
    a = rex_samples(CROSS, 100, np.random.default_rng(4))
    b = rex_samples(CROSS, 100, np.random.default_rng(4))
    assert np.array_equal(a, b)


def test_rex_density_hand_value():
    assert abs(rex_density(np.zeros(2), CROSS) - 1.0 / math.pi) < 1e-9


def test_rex_density_central_symmetry():
    for point in ([0.3, 0.4], [1.0, -2.0], [0.05, 0.0]):
        p = np.asarray(point)
        assert np.isclose(rex_density(p, CROSS), rex_density(-p, CROSS), rtol=1e-12)


def test_rex_density_singular_without_ridge():
    kcs = np.array([[0.0, 0.0], [1.0, 1.0]])  # rank 1 in d = 2
    with pytest.raises(SingularSigma):
        rex_density(np.zeros(2), kcs)
    # A ridge restores evaluability.
    assert np.isfinite(rex_log_density(np.zeros(2), kcs, ridge=1e-6))


def test_rex_density_normalizes_1d():
    kcs = np.array([[-1.0], [0.5], [2.0]])
    sigma = float(kcs_stats(kcs).sigma[0, 0])
    half = 6.0 * math.sqrt(sigma)
    grid = np.linspace(-half, half, 4001)[:, np.newaxis] + kcs.mean()
    vals = rex_density(grid, kcs)
    total = np.trapezoid(vals, grid[:, 0])
    assert abs(total - 1.0) < 1e-3


def test_rex_density_normalizes_2d():
    rng = np.random.default_rng(8)
    kcs = rng.normal(size=(5, 2))
    stats = kcs_stats(kcs)
    sd = np.sqrt(np.diag(stats.sigma))
    axes = [np.linspace(stats.mu[j] - 6 * sd[j], stats.mu[j] + 6 * sd[j], 401) for j in range(2)]
    gx, gy = np.meshgrid(axes[0], axes[1], indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    vals = rex_density(pts, kcs).reshape(gx.shape)
    total = np.trapezoid(np.trapezoid(vals, axes[1], axis=1), axes[0])
    assert abs(total - 1.0) < 1e-3


def einsum_rex_batch(kcs, rng):
    """Oracle: the former ``rex_batch``, a mean over m and one einsum."""
    s, m, _ = kcs.shape
    mu = kcs.mean(axis=1)
    eps = rng.standard_normal((s, m)) * math.sqrt(1.0 / m)
    return mu + np.einsum("sm,smd->sd", eps, kcs - mu[:, np.newaxis, :])


def kcs_stack(rng, s, m, d, integer):
    """An (s, m, d) stack at a random scale; integer-valued stacks hold many
    zero deviations, whose products with negative weights are -0.0."""
    kcs = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=(s, m, d))
    return np.round(kcs) if integer else kcs


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.integers(1, 40), st.integers(1, 8192), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_rex_batch_matches_einsum_oracle(d, m, s, integer, seed):
    kcs = kcs_stack(np.random.default_rng(seed), s, m, d, integer)
    got = rex_batch(kcs, np.random.default_rng(seed + 1))
    assert got.tobytes() == einsum_rex_batch(kcs, np.random.default_rng(seed + 1)).tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 12])
@pytest.mark.parametrize("m", [1, 2, 3, 8, 9, 40])
def test_rex_batch_matches_einsum_oracle_on_full_chunks(d, m):
    rng = np.random.default_rng(100 * d + m)
    for integer in (False, True):
        kcs = kcs_stack(rng, 8192, m, d, integer)
        got = rex_batch(kcs, np.random.default_rng(m))
        assert got.tobytes() == einsum_rex_batch(kcs, np.random.default_rng(m)).tobytes()
