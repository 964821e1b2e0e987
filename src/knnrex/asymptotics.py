"""Executable check of the small-ball covariance expansion.

For a smooth density f and a ball B(x, delta), the covariance of f
restricted to the ball is asymptotically

    delta^2/(d+2) * I  -  delta^4/(d+2)^2 * (grad f)(grad f)^T / f^2  at x,

an isotropic leading term plus a rank-one shrinkage along the gradient.
``ball_cov_theory`` evaluates the closed form; ``ball_cov_mc`` is the
independent Monte-Carlo oracle (rejection sampling on the ball).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParams, RejectionStall, ZeroDensity, check_addressable

# Rejection sampling gives up below this acceptance rate.
_MIN_ACCEPT_RATE = 1e-4
_PROPOSAL_CHUNK = 200_000


@dataclass(frozen=True)
class DensityModel:
    """Density with gradient and a per-ball upper bound, for the MC oracle.

    ``density`` maps an (n, d) batch to (n,) values, ``gradient`` maps one
    point to its (d,) gradient, and ``bound(x, delta)`` returns an upper
    bound of the density on B(x, delta) (needed by rejection sampling).
    """

    dim: int
    density: callable
    gradient: callable
    bound: callable


def uniform_model(dim: int) -> DensityModel:
    """Constant density (gradient zero everywhere)."""
    return DensityModel(
        dim=dim,
        density=lambda pts: np.ones(np.asarray(pts).shape[0]),
        gradient=lambda x: np.zeros(dim),
        bound=lambda x, delta: 1.0,
    )


def linear_model(dim: int, slope: float, axis: int = 0, offset: float = 1.0) -> DensityModel:
    """Density proportional to offset + slope * x[axis] (positive near 0)."""
    if not math.isfinite(slope):
        raise BadParams(f"slope must be finite, got {slope}")

    def density(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        return offset + slope * pts[:, axis]

    def gradient(x):
        g = np.zeros(dim)
        g[axis] = slope
        return g

    def bound(x, delta):
        return offset + slope * x[axis] + abs(slope) * delta

    return DensityModel(dim=dim, density=density, gradient=gradient, bound=bound)


def check_gradient(model: DensityModel, x: np.ndarray, step: float = 1e-5) -> float:
    """Max relative error of the stated gradient vs. central differences."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.asarray(model.gradient(x), dtype=np.float64)
    fd = np.empty_like(grad)
    for j in range(model.dim):
        hi = x.copy()
        lo = x.copy()
        hi[j] += step
        lo[j] -= step
        fd[j] = (model.density(hi[np.newaxis, :])[0] - model.density(lo[np.newaxis, :])[0]) / (2 * step)
    scale = max(float(np.max(np.abs(grad))), 1.0)
    return float(np.max(np.abs(grad - fd)) / scale)


def _check_delta(delta) -> None:
    if not 0 < delta < math.inf:  # also false for NaN
        raise BadParams(f"delta must be finite and > 0, got {delta}")


def _density_at(model: DensityModel, x: np.ndarray) -> float:
    """f(x) at the study point, which must be positive."""
    f_x = float(model.density(x[np.newaxis, :])[0])
    if f_x <= 0.0:
        raise ZeroDensity(f"density vanishes at the study point (f = {f_x:g})")
    return f_x


def ball_cov_theory(model: DensityModel, x: np.ndarray, delta: float) -> np.ndarray:
    """Closed-form covariance of the density restricted to B(x, delta)."""
    x = np.asarray(x, dtype=np.float64)
    _check_delta(delta)
    f_x = _density_at(model, x)
    return _cov_theory(model.dim, delta, f_x, np.asarray(model.gradient(x), dtype=np.float64))


def _cov_theory(d, delta, f_x, grad):
    """The closed form at a checked delta, density f_x > 0 and gradient grad."""
    first = delta**2 / (d + 2) * np.eye(d)
    rel = grad / f_x
    second = delta**4 / (d + 2) ** 2 * np.outer(rel, rel)
    return first - second


def ball_cov_mc(
    model: DensityModel,
    x: np.ndarray,
    delta: float,
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample covariance (1/N) of f conditioned on B(x, delta), by rejection."""
    _check_delta(delta)
    cov, _, _ = _ball_mc_detail(model, x, delta, n_samples, rng)
    return cov


def _ball_mc_detail(model, x, delta, n_samples, rng):
    """Returns (cov, se, acceptance_rate) at a checked delta.

    se is the entrywise standard error of the covariance estimate, from the
    sample's fourth moments. Proposals are uniform in the bounding cube of
    the ball; acceptance is proportional to f (bounded by ``model.bound``).
    """
    x = np.asarray(x, dtype=np.float64)
    if n_samples < 1:
        raise BadParams(f"n_samples must be >= 1, got {n_samples}")
    d = model.dim
    f_max = float(model.bound(x, delta))
    if f_max <= 0.0:
        raise ZeroDensity("density bound on the ball is not positive")

    # The accepted sample is filled in place, and its (n_samples, d, d)
    # fourth-moment products are the largest array made from it.
    check_addressable((n_samples, d, d))
    sample = np.empty((n_samples, d))
    accepted = 0
    proposed = 0
    while accepted < n_samples:
        pts = x + delta * (2.0 * rng.random((_PROPOSAL_CHUNK, d)) - 1.0)
        u = rng.random(_PROPOSAL_CHUNK) * f_max
        inside = np.einsum("ij,ij->i", pts - x, pts - x) <= delta * delta
        take = inside & (u < model.density(pts))
        proposed += _PROPOSAL_CHUNK
        got = pts[take][: n_samples - accepted]
        sample[accepted : accepted + got.shape[0]] = got
        accepted += int(take.sum())
        if proposed >= 100_000 and accepted / proposed < _MIN_ACCEPT_RATE:
            raise RejectionStall(
                f"acceptance rate {accepted / proposed:.2e} below {_MIN_ACCEPT_RATE:g} "
                f"after {proposed} proposals"
            )

    mean = sample.mean(axis=0)
    dev = sample - mean
    cov = dev.T @ dev / n_samples
    # Var((z_i z_j)) / N estimated from fourth moments.
    prod = dev[:, :, np.newaxis] * dev[:, np.newaxis, :]
    se = np.sqrt(np.maximum((prod * prod).mean(axis=0) - cov * cov, 0.0) / n_samples)
    return cov, se, accepted / proposed


@dataclass
class AsymptoticsEntry:
    delta: float
    n_samples: int
    acceptance_rate: float
    theory: np.ndarray
    mc: np.ndarray
    se: np.ndarray
    max_abs_dev: float
    max_dev_in_se: float
    first_term: float
    second_term_predicted: float
    second_term_measured: float


@dataclass
class AsymptoticsReport:
    dim: int
    point: np.ndarray
    gradient_check: float
    entries: list

    def deviation_ratios(self):
        """max_abs_dev(delta_i) / max_abs_dev(delta_{i+1}) down the list."""
        devs = [e.max_abs_dev for e in self.entries]
        return [devs[i] / devs[i + 1] if devs[i + 1] > 0 else math.inf for i in range(len(devs) - 1)]

    def second_term_ratios(self):
        mags = [e.second_term_measured for e in self.entries]
        return [mags[i] / mags[i + 1] if mags[i + 1] != 0 else math.inf for i in range(len(mags) - 1)]


def asymptotics_report(
    model: DensityModel,
    x: np.ndarray,
    deltas,
    n_samples: int,
    rng: np.random.Generator,
) -> AsymptoticsReport:
    """Compare theory and Monte Carlo over a decreasing list of radii.

    Each entry records the max entrywise deviation (absolute and in units of
    the MC standard error) plus the predicted and measured magnitude of the
    rank-one shrinkage along the gradient, so the delta^4 decay of the
    second term can be read off directly.
    """
    x = np.asarray(x, dtype=np.float64)
    deltas = [float(t) for t in deltas]
    if not deltas or not all(0 < t < math.inf for t in deltas):
        raise BadParams(f"deltas must be finite and > 0, got {deltas}")
    if any(a <= b for a, b in zip(deltas, deltas[1:])):
        raise BadParams("deltas must be strictly decreasing")

    d = model.dim
    f_x = _density_at(model, x)
    grad = np.asarray(model.gradient(x), dtype=np.float64)
    with np.errstate(over="ignore"):
        grad_norm = float(np.linalg.norm(grad))
        gradient_term = float(np.float64(grad_norm / f_x) ** 2)  # (|grad f| / f)^2
    if not math.isfinite(gradient_term):
        raise BadParams("gradient term (|grad f| / f)^2 at the study point overflows float64")
    unit = grad / grad_norm if grad_norm > 0 else None

    entries = []
    for delta in deltas:
        theory = _cov_theory(d, delta, f_x, grad)
        mc, se, rate = _ball_mc_detail(model, x, delta, n_samples, rng)
        dev = np.abs(theory - mc)
        first = delta**2 / (d + 2)
        predicted = delta**4 / (d + 2) ** 2 * gradient_term
        measured = float(unit @ (first * np.eye(d) - mc) @ unit) if unit is not None else 0.0
        entries.append(
            AsymptoticsEntry(
                delta=delta,
                n_samples=n_samples,
                acceptance_rate=rate,
                theory=theory,
                mc=mc,
                se=se,
                max_abs_dev=float(dev.max()),
                max_dev_in_se=float((dev / np.maximum(se, 1e-300)).max()),
                first_term=first,
                second_term_predicted=predicted,
                second_term_measured=measured,
            )
        )
    return AsymptoticsReport(
        dim=d, point=x, gradient_check=check_gradient(model, x), entries=entries
    )
