"""Synthetic benchmark datasets: spiral band, ring, Gaussian mixtures.

All generators are pure functions of (parameters, seed).
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadParams, BadSpec, check_addressable


def _check_n(n: int, d: int) -> None:
    """BadParams for n < 1; MemoryError for n points of dimension d past
    what numpy can address."""
    if n < 1:
        raise BadParams(f"n must be >= 1, got {n}")
    check_addressable((n, d))


def gen_swiss_roll(n: int, rng: np.random.Generator) -> np.ndarray:
    """3-d spiral band (t cos t, u, t sin t), t ~ U[1.5pi, 4.5pi], u ~ U[0, 21].

    Intrinsic dimension 2 (the (t, u) sheet rolled into 3-space).
    """
    _check_n(n, 3)
    t = rng.uniform(1.5 * np.pi, 4.5 * np.pi, size=n)
    u = rng.uniform(0.0, 21.0, size=n)
    return np.column_stack([t * np.cos(t), u, t * np.sin(t)])


def gen_ring(n: int, rng: np.random.Generator, radius: float = 1.0, sigma: float = 0.1) -> np.ndarray:
    """2-d ring: radius ~ N(radius, sigma^2), angle uniform on [0, 2pi)."""
    _check_n(n, 2)
    r = rng.normal(radius, sigma, size=n)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


@dataclass(frozen=True)
class GmmSpec:
    """Mixture weights, component means and covariance matrices, converted
    to float64 and checked when made: a malformed spec raises BadSpec."""

    weights: np.ndarray
    means: np.ndarray   # (K, d)
    covs: np.ndarray    # (K, d, d)

    def __post_init__(self):
        for name in ("weights", "means", "covs"):
            try:
                object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
            except (ValueError, TypeError) as exc:
                raise BadSpec(f"{name}: {exc}") from None
        self.validate()

    def validate(self) -> None:
        w, means, covs = self.weights, self.means, self.covs
        if w.ndim != 1 or means.ndim != 2 or covs.ndim != 3:
            raise BadSpec("weights (K,), means (K,d), covs (K,d,d) expected")
        k, d = means.shape
        if w.size != k or covs.shape != (k, d, d):
            raise BadSpec("component counts of weights, means, covs disagree")
        if not (np.isfinite(w).all() and np.isfinite(means).all() and np.isfinite(covs).all()):
            raise BadSpec("weights, means and covs must be finite")
        if np.any(w < 0) or abs(float(w.sum()) - 1.0) > 1e-12:
            raise BadSpec("weights must be non-negative and sum to 1")
        for j in range(k):
            if not np.allclose(covs[j], covs[j].T):
                raise BadSpec(f"covariance {j} is not symmetric")
            try:
                np.linalg.cholesky(covs[j])
            except np.linalg.LinAlgError:
                raise BadSpec(f"covariance {j} is not positive definite") from None


def gen_gmm(spec: GmmSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws from the Gaussian mixture."""
    k, d = spec.means.shape
    _check_n(n, d)
    assignment = rng.choice(k, size=n, p=spec.weights)
    out = np.empty((n, d))
    for j in range(k):
        mask = assignment == j
        count = int(mask.sum())
        if count:
            chol = np.linalg.cholesky(spec.covs[j])
            out[mask] = spec.means[j] + rng.standard_normal((count, d)) @ chol.T
    return out
