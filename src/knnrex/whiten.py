"""Whitening: affine map to zero mean and identity covariance, plus inverse.

The covariance uses the population (1/n) normalizer so the whitened second
moment matches the maximum-likelihood convention used by the REX kernel.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SingularCovariance, TooFewPoints

# Smallest acceptable eigenvalue of the sample covariance, relative to the
# largest one. Below this the data is treated as degenerate.
_EIG_RTOL = 1e-12


@dataclass(frozen=True)
class WhitenTransform:
    """Immutable affine transform: x -> forward @ (x - mean)."""

    mean: np.ndarray
    forward: np.ndarray
    inverse: np.ndarray

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def whiten_fit(X: np.ndarray) -> WhitenTransform:
    """Fit a whitening transform to the rows of X (n x d).

    Uses the symmetric eigendecomposition of the 1/n covariance:
    forward = diag(1/sqrt(w)) @ Q.T. Eigenvector signs are fixed by making
    the largest-magnitude entry of each eigenvector positive, so the fit is
    deterministic.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionMismatch(f"expected an n x d matrix, got shape {X.shape}")
    n, d = X.shape
    if n < d + 1:
        raise TooFewPoints(f"need at least d+1 = {d + 1} points, got {n}")

    with np.errstate(over="ignore", invalid="ignore"):
        mean = X.mean(axis=0)
        centered = X - mean
        cov = centered.T @ centered / n
    if not np.isfinite(cov).all():
        raise SingularCovariance(
            "sample covariance overflows float64 (or the sample is not finite); "
            "rescale the data"
        )

    w, q = np.linalg.eigh(cov)
    if w[-1] <= 0.0 or w[0] <= _EIG_RTOL * w[-1]:
        raise SingularCovariance(
            "sample covariance is (near-)singular; a column may be constant "
            f"or collinear (eigenvalues {w.min():.3e} .. {w.max():.3e})"
        )

    # Deterministic eigenvector orientation.
    flip = q[np.abs(q).argmax(axis=0), np.arange(d)] < 0
    q = np.where(flip[np.newaxis, :], -q, q)

    forward = (q / np.sqrt(w)).T
    inverse = q * np.sqrt(w)
    return WhitenTransform(mean=mean, forward=forward, inverse=inverse)


def whiten_apply(transform: WhitenTransform, X: np.ndarray) -> np.ndarray:
    """Map points into whitened coordinates."""
    X = np.asarray(X, dtype=np.float64)
    _check_dim(transform, X)
    return (X - transform.mean) @ transform.forward.T


def whiten_invert(transform: WhitenTransform, Y: np.ndarray) -> np.ndarray:
    """Map whitened points back to original units."""
    Y = np.asarray(Y, dtype=np.float64)
    _check_dim(transform, Y)
    return Y @ transform.inverse.T + transform.mean


def _check_dim(transform: WhitenTransform, X: np.ndarray) -> None:
    if X.ndim != 2 or X.shape[1] != transform.dim:
        raise DimensionMismatch(
            f"expected points of dimension {transform.dim}, got shape {X.shape}"
        )
