import numpy as np
import pytest
from scipy import stats as scipy_stats

from knnrex import BadParams, BadSpec, GmmSpec, gen_gmm, gen_ring, gen_swiss_roll


def test_swiss_roll_construction():
    X = gen_swiss_roll(5000, np.random.default_rng(0))
    assert X.shape == (5000, 3)
    radius = np.hypot(X[:, 0], X[:, 2])
    assert radius.min() >= 1.5 * np.pi - 1e-12
    assert radius.max() <= 4.5 * np.pi + 1e-12
    assert X[:, 1].min() >= 0.0 and X[:, 1].max() <= 21.0


def test_swiss_roll_band_coordinate_mean():
    X = gen_swiss_roll(100_000, np.random.default_rng(1))
    assert abs(X[:, 1].mean() - 10.5) < 0.1


def test_swiss_roll_reproducible():
    a = gen_swiss_roll(100, np.random.default_rng(2))
    b = gen_swiss_roll(100, np.random.default_rng(2))
    assert np.array_equal(a, b)
    with pytest.raises(BadParams):
        gen_swiss_roll(0, np.random.default_rng(0))


def test_ring_moments():
    X = gen_ring(100_000, np.random.default_rng(3))
    assert X.shape == (100_000, 2)
    assert np.abs(X.mean(axis=0)).max() < 0.01
    radius = np.hypot(X[:, 0], X[:, 1])
    assert abs(radius.mean() - 1.0) < 0.005


def test_ring_angles_uniform():
    X = gen_ring(100_000, np.random.default_rng(4))
    angles = np.arctan2(X[:, 1], X[:, 0])
    counts, _ = np.histogram(angles, bins=36, range=(-np.pi, np.pi))
    assert scipy_stats.chisquare(counts).pvalue > 0.001


def test_gmm_single_component():
    spec = GmmSpec(weights=np.array([1.0]), means=np.array([[3.0, -2.0]]), covs=np.eye(2)[np.newaxis])
    X = gen_gmm(spec, 50_000, np.random.default_rng(5))
    assert np.abs(X.mean(axis=0) - [3.0, -2.0]).max() < 0.02


def test_gmm_zero_weight_component_never_drawn():
    spec = GmmSpec(
        weights=np.array([1.0, 0.0]),
        means=np.array([[0.0], [100.0]]),
        covs=np.ones((2, 1, 1)),
    )
    X = gen_gmm(spec, 2000, np.random.default_rng(6))
    assert np.all(X < 50.0)


def test_gmm_component_frequencies():
    spec = GmmSpec(
        weights=np.array([0.3, 0.7]),
        means=np.array([[0.0], [100.0]]),
        covs=np.ones((2, 1, 1)),
    )
    n = 20_000
    X = gen_gmm(spec, n, np.random.default_rng(7))
    frac = float(np.mean(X[:, 0] < 50.0))
    sigma = np.sqrt(0.3 * 0.7 / n)
    assert abs(frac - 0.3) < 3 * sigma


def test_gmm_bad_specs():
    with pytest.raises(BadSpec, match="finite"):  # construction alone checks the spec
        GmmSpec(weights=[1.0], means=[[1e999]], covs=[[[1.0]]])
    with pytest.raises(BadSpec):
        GmmSpec(weights=np.array([0.5, 0.4]), means=np.zeros((2, 1)), covs=np.ones((2, 1, 1))).validate()
    with pytest.raises(BadSpec):
        GmmSpec(weights=np.array([1.0]), means=np.zeros((1, 2)), covs=np.zeros((1, 2, 2))).validate()
    with pytest.raises(BadSpec):
        bad = np.array([[[1.0, 2.0], [0.0, 1.0]]])  # asymmetric
        GmmSpec(weights=np.array([1.0]), means=np.zeros((1, 2)), covs=bad).validate()


def test_ring_and_gmm_reproducible():
    assert np.array_equal(gen_ring(50, np.random.default_rng(9)), gen_ring(50, np.random.default_rng(9)))
    spec = GmmSpec(weights=np.array([0.5, 0.5]), means=np.zeros((2, 2)), covs=np.stack([np.eye(2)] * 2))
    assert np.array_equal(
        gen_gmm(spec, 50, np.random.default_rng(9)), gen_gmm(spec, 50, np.random.default_rng(9))
    )


@pytest.mark.parametrize("n", [2**62, 2**63 - 1])
def test_generators_refuse_sizes_numpy_cannot_address(n):
    rng = np.random.default_rng(0)
    spec = GmmSpec(weights=[1.0], means=[[0.0]], covs=[[[1.0]]])
    for generate, d in ((gen_swiss_roll, 3), (gen_ring, 2), (lambda n, rng: gen_gmm(spec, n, rng), 1)):
        with pytest.raises(MemoryError, match=rf"^Unable to allocate an array with shape \({n}, {d}\)"):
            generate(n, rng)
