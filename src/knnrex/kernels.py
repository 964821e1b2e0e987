"""REX crossover kernel: samplers and the implied Gaussian density.

A kernel construction set (KCS) is an (m, d) array of points. Sampling
never forms the covariance matrix: a draw is the KCS mean plus normally
weighted deviations of the members from the mean, which costs O(md). The
density path (needed only for the likelihood-optimized baseline and for
tests) forms the Gaussian MLE of the KCS explicitly.

Every synthesizer draws through ``rex_batch``, one draw from each KCS of an
(s, m, d) stack. For d >= 2 it forms the mean as the left fold
``(kcs[:, 0] + kcs[:, 1] + ...) / m`` and the weighted deviations as the
left fold ``0 + eps_0 (x_0 - mu) + eps_1 (x_1 - mu) + ...`` over strided
(s, d) slices, which is faster than ``mean(axis=1)`` and an ``einsum`` and
gives the same bits: numpy reduces a non-contiguous m axis in that order.
The sum starts at +0.0, as the ``einsum`` does; starting at the first term
would turn a +0.0 output into -0.0 where every term is -0.0 (zero
deviations of integer-valued data times negative weights). At d = 1 the m
axis is contiguous, and numpy sums it pairwise and unrolled: a fold would
differ from the ``einsum`` from m >= 3 and from ``mean`` from m >= 8, so d =
1 keeps the two. ``rex_samples`` draws many points from one KCS by the
matrix product ``eps @ (kcs - mu)``; it stays apart because one formula for
both would change output bits: given the same normals, the two differed in
at least one bit on 17,647 of 20,000 random KCSs (m < 40, d < 12).
``rex_sample``, its one-point case, is no longer called by any synthesizer
and stays as a public name that the benchmark's tracer wraps.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyKcs, SingularSigma, as_points, check_size

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class KcsStats:
    """Maximum-likelihood mean and covariance (1/m normalizer) of a KCS."""

    mu: np.ndarray     # (d,)
    sigma: np.ndarray  # (d, d)


def kcs_stats(kcs: np.ndarray) -> KcsStats:
    kcs = _as_kcs(kcs)
    mu = kcs.mean(axis=0)
    dev = kcs - mu
    sigma = dev.T @ dev / kcs.shape[0]
    return KcsStats(mu=mu, sigma=sigma)


def rex_sample(kcs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw one point: mu + sum_i eps_i (x_i - mu), eps_i ~ N(0, 1/m).

    Consumes exactly m standard-normal draws, in KCS order, so (seed, KCS)
    fully determines the output.
    """
    return rex_samples(kcs, 1, rng)[0]


def rex_samples(kcs: np.ndarray, n_points: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n_points i.i.d. REX points from one KCS (vectorized)."""
    kcs = _as_kcs(kcs)
    check_size(n_points, "n_points")
    m = kcs.shape[0]
    eps = rng.standard_normal((n_points, m)) * math.sqrt(1.0 / m)
    mu = np.add.reduce(kcs, axis=0) / m  # kcs.mean(axis=0) without its wrapper
    return mu + eps @ (kcs - mu)


def rex_batch(kcs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One REX draw from each KCS of an (s, m, d) stack, as an (s, d) array."""
    s, m, d = kcs.shape
    eps = rng.standard_normal((s, m)) * math.sqrt(1.0 / m)
    if d == 1:  # a contiguous m axis is summed pairwise, not folded (module docstring)
        mu = kcs.mean(axis=1)
        return mu + np.einsum("sm,smd->sd", eps, kcs - mu[:, np.newaxis, :])
    mu = kcs[:, 0].copy()
    for j in range(1, m):
        mu += kcs[:, j]
    mu /= m
    acc = np.zeros((s, d))  # +0.0, as the einsum starts
    dev = np.empty((s, d))
    for j in range(m):
        np.subtract(kcs[:, j], mu, out=dev)
        dev *= eps[:, j, np.newaxis]
        acc += dev
    return mu + acc


def rex_log_density(y: np.ndarray, kcs: np.ndarray, ridge: float = 0.0) -> np.ndarray:
    """Log density of the Gaussian N(mu, sigma + ridge*I) implied by the KCS.

    y may be a single point (d,) or a batch (n, d); the return matches.
    Raises SingularSigma when the regularized covariance is not positive
    definite (e.g. m <= d with ridge 0).
    """
    kcs = _as_kcs(kcs)
    d = kcs.shape[1]
    single = np.shape(y) == (d,)
    y = as_points(np.atleast_2d(y) if single else y, "y", d)
    stats = kcs_stats(kcs)
    sigma = stats.sigma
    if ridge:
        sigma = sigma + ridge * np.eye(d)
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise SingularSigma(
            f"KCS covariance is singular for m = {kcs.shape[0]}, d = {d} "
            f"(ridge = {ridge:g})"
        ) from None
    dev = y - stats.mu
    z = np.linalg.solve(chol, dev.T)
    maha = np.einsum("ij,ij->j", z, z)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    out = -0.5 * (d * _LOG_2PI + logdet + maha)
    return out[0] if single else out


def rex_density(y: np.ndarray, kcs: np.ndarray, ridge: float = 0.0) -> np.ndarray:
    return np.exp(rex_log_density(y, kcs, ridge=ridge))


def _as_kcs(kcs: np.ndarray) -> np.ndarray:
    kcs = as_points(kcs, "kernel construction set")
    if kcs.shape[0] == 0:
        raise EmptyKcs("kernel construction set must contain at least one point")
    return kcs
