import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knnrex import (
    DimensionMismatch,
    SingularCovariance,
    TooFewPoints,
    whiten_apply,
    whiten_fit,
    whiten_invert,
)
from knnrex.whiten import WhitenTransform


def identity_transform(d):
    return WhitenTransform(mean=np.zeros(d), forward=np.eye(d), inverse=np.eye(d))


def test_unit_square_corners():
    # Population covariance of the corners of [0,2]^2 is exactly I.
    X = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
    t = whiten_fit(X)
    assert np.allclose(t.mean, [1.0, 1.0])
    Xw = whiten_apply(t, X)
    assert np.abs(Xw.mean(axis=0)).max() < 1e-9
    cov = Xw.T @ Xw / len(Xw)
    assert np.abs(cov - np.eye(2)).max() < 1e-6


def test_idempotent_on_already_white_data():
    X = np.array([[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]])
    t = whiten_fit(X)
    assert np.abs(t.mean).max() < 1e-12
    assert np.abs(t.forward - np.eye(2)).max() < 1e-9


def test_constant_column_is_singular():
    X = np.column_stack([np.arange(10.0), np.full(10, 3.0)])
    with pytest.raises(SingularCovariance):
        whiten_fit(X)


def test_overflowing_covariance_is_refused_without_a_warning():
    # Every value is finite, but centered products near 1e400 overflow; the
    # overflow must neither warn nor reach the caller as a NaN transform.
    X = np.array([[1e200, -2e200], [-3e200, 1e200], [2e200, 3e200], [-1e200, -1e200]])
    with pytest.raises(SingularCovariance, match="sample covariance overflows float64"):
        whiten_fit(X)
    # The same shape at a scale whose covariance fits float64 still whitens.
    t = whiten_fit(X * 1e-60)
    assert np.isfinite(t.forward).all() and np.isfinite(t.inverse).all()


def test_too_few_points():
    with pytest.raises(TooFewPoints):
        whiten_fit(np.zeros((3, 3)))


def test_forward_inverse_identity_and_round_trip():
    rng = np.random.default_rng(42)
    for d in (1, 2, 5, 17, 32):
        rotation = rng.normal(size=(d, d))
        X = rng.normal(size=(200 + 4 * d, d)) @ rotation + rng.normal(size=d) * 10
        t = whiten_fit(X)
        assert np.abs(t.forward @ t.inverse - np.eye(d)).max() < 1e-9
        Xw = whiten_apply(t, X)
        assert np.abs(Xw.mean(axis=0)).max() < 1e-9
        cov = Xw.T @ Xw / len(Xw)
        assert np.abs(cov - np.eye(d)).max() < 1e-6
        back = whiten_invert(t, Xw)
        assert np.abs(back - X).max() < 1e-9


def test_apply_identity_and_definitions():
    t = identity_transform(3)
    X = np.arange(12.0).reshape(4, 3)
    assert np.array_equal(whiten_apply(t, X), X)
    assert np.array_equal(whiten_invert(t, X), X)

    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 3))
    fitted = whiten_fit(X)
    assert np.abs(whiten_apply(fitted, fitted.mean[np.newaxis, :])).max() < 1e-12
    assert np.allclose(whiten_invert(fitted, np.zeros((1, 3)))[0], fitted.mean)


def test_deterministic_fit():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(50, 4))
    t1 = whiten_fit(X)
    t2 = whiten_fit(X.copy())
    assert np.array_equal(t1.forward, t2.forward)
    assert np.array_equal(t1.inverse, t2.inverse)


def test_dimension_mismatch():
    t = identity_transform(3)
    with pytest.raises(DimensionMismatch):
        whiten_apply(t, np.zeros((5, 2)))
    with pytest.raises(DimensionMismatch):
        whiten_invert(t, np.zeros((5, 4)))


@st.composite
def _full_rank_sample(draw):
    """A correlated, shifted and scaled Gaussian sample of full rank."""
    d = draw(st.integers(1, 6))
    n = draw(st.integers(d + 1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mix = rng.normal(size=(d, d)) + 3.0 * np.eye(d)
    scale = 10.0 ** draw(st.integers(-3, 3))
    return scale * (rng.normal(size=(n, d)) @ mix + rng.normal(scale=5.0, size=d))


@settings(max_examples=200, deadline=None)
@given(_full_rank_sample())
def test_whitening_round_trip_and_moments(X):
    t = whiten_fit(X)
    Xw = whiten_apply(t, X)
    assert np.abs(whiten_invert(t, Xw) - X).max() < 1e-8 * max(1.0, np.abs(X).max())
    # Rounding in the whitened moments grows with the condition number of
    # the sample covariance, which n = d+1 points can push near 1e12.
    centered = X - X.mean(axis=0)
    tol = 1e-9 + 1e-14 * np.linalg.cond(centered.T @ centered)
    assert np.abs(Xw.mean(axis=0)).max() < tol
    cov = Xw.T @ Xw / len(Xw)
    assert np.abs(cov - np.eye(X.shape[1])).max() < tol
