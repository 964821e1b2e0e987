import sys

import numpy as np
import pytest

from knnrex import (
    BadParams,
    DensityModel,
    RejectionStall,
    ZeroDensity,
    asymptotics_report,
    ball_cov_mc,
    ball_cov_theory,
    linear_model,
    uniform_model,
)
from knnrex.asymptotics import check_gradient
from knnrex.errors import check_addressable


def test_theory_uniform_1d_is_uniform_variance():
    model = uniform_model(1)
    cov = ball_cov_theory(model, np.zeros(1), 1.0)
    assert cov.shape == (1, 1)
    assert cov[0, 0] == pytest.approx(1.0 / 3.0)


def test_theory_uniform_2d():
    cov = ball_cov_theory(uniform_model(2), np.zeros(2), 0.1)
    assert np.allclose(cov, np.diag([0.0025, 0.0025]))


def test_theory_second_term_rank_one_along_gradient():
    d, slope, delta = 2, 5.0, 0.2
    model = linear_model(d, slope)
    cov = ball_cov_theory(model, np.zeros(d), delta)
    first = delta**2 / (d + 2)
    correction = first * np.eye(d) - cov
    eig, vec = np.linalg.eigh(correction)
    assert eig[0] == pytest.approx(0.0, abs=1e-15)        # rank one
    expected = delta**4 / (d + 2) ** 2 * slope**2          # |grad f / f|^2 at 0
    assert eig[-1] == pytest.approx(expected, rel=1e-12)
    assert abs(vec[:, -1][0]) == pytest.approx(1.0)        # parallel to e1


def test_theory_symmetric():
    model = linear_model(3, 2.0, axis=1)
    cov = ball_cov_theory(model, np.zeros(3), 0.3)
    assert np.array_equal(cov, cov.T)


def test_theory_errors():
    with pytest.raises(BadParams):
        ball_cov_theory(uniform_model(1), np.zeros(1), 0.0)
    with pytest.raises(ZeroDensity):
        ball_cov_theory(linear_model(1, 1.0, offset=0.0), np.zeros(1), 0.1)


def test_mc_uniform_1d():
    cov = ball_cov_mc(uniform_model(1), np.zeros(1), 1.0, 1_000_000, np.random.default_rng(0))
    assert abs(cov[0, 0] - 1.0 / 3.0) / (1.0 / 3.0) < 0.01


def test_mc_uniform_2d():
    cov = ball_cov_mc(uniform_model(2), np.zeros(2), 0.1, 400_000, np.random.default_rng(1))
    diag = np.diag(cov)
    assert np.all(np.abs(diag / 0.0025 - 1.0) < 0.02)
    assert abs(cov[0, 1]) < 2e-4


def test_mc_linear_gradient_shrinks_one_direction():
    d, slope, delta = 2, 5.0, 0.2
    mc = ball_cov_mc(linear_model(d, slope), np.zeros(d), delta, 1_000_000, np.random.default_rng(2))
    eig = np.linalg.eigvalsh(mc)
    gap = eig[-1] - eig[0]
    predicted = delta**4 / (d + 2) ** 2 * slope**2
    assert gap < predicted * 1.25 and gap > predicted * 0.75


def test_mc_convergence_rate():
    # Quadrupling the sample size should roughly halve the deviation.
    model = uniform_model(2)
    x = np.zeros(2)
    theory = ball_cov_theory(model, x, 0.5)

    def deviation(n, seed):
        devs = []
        for s in range(seed, seed + 4):
            mc = ball_cov_mc(model, x, 0.5, n, np.random.default_rng(s))
            devs.append(np.abs(mc - theory).max())
        return float(np.mean(devs))

    ratio = deviation(50_000, 10) / deviation(200_000, 20)
    assert 1.6 <= ratio <= 2.6


def test_mc_errors():
    with pytest.raises(BadParams):
        ball_cov_mc(uniform_model(1), np.zeros(1), 0.1, 0, np.random.default_rng(0))
    vanishing = DensityModel(
        dim=1,
        density=lambda pts: np.zeros(np.asarray(pts).shape[0]),
        gradient=lambda x: np.zeros(1),
        bound=lambda x, delta: 1.0,
    )
    with pytest.raises(RejectionStall):
        ball_cov_mc(vanishing, np.zeros(1), 0.5, 1000, np.random.default_rng(0))


def test_gradient_check():
    assert check_gradient(uniform_model(2), np.zeros(2)) < 1e-4
    assert check_gradient(linear_model(3, 5.0), np.zeros(3)) < 1e-4
    lying = DensityModel(
        dim=1,
        density=lambda pts: 1.0 + 2.0 * np.atleast_2d(pts)[:, 0],
        gradient=lambda x: np.asarray([7.0]),
        bound=lambda x, delta: 10.0,
    )
    assert check_gradient(lying, np.zeros(1)) > 1e-4


def test_report_uniform_deviations_are_noise():
    report = asymptotics_report(
        uniform_model(2), np.zeros(2), [0.2, 0.1], 200_000, np.random.default_rng(3)
    )
    assert report.gradient_check < 1e-4
    for entry in report.entries:
        assert entry.max_dev_in_se < 3.0
        assert entry.second_term_predicted == 0.0


def test_report_linear_delta4_scaling():
    report = asymptotics_report(
        linear_model(2, 5.0), np.zeros(2), [0.2, 0.1], 1_000_000, np.random.default_rng(4)
    )
    # halving delta shrinks the measured shrinkage about 16x
    ratio = report.second_term_ratios()[0]
    assert 10.0 <= ratio <= 24.0
    # measured vs predicted magnitude within 25% at both radii
    for e in report.entries:
        assert abs(e.second_term_measured / e.second_term_predicted - 1.0) < 0.25
    # second/first ratio prediction: delta^2 |grad f / f|^2 / (d+2)
    for e in report.entries:
        predicted_ratio = e.delta**2 * 25.0 / 4.0
        assert abs((e.second_term_measured / e.first_term) / predicted_ratio - 1.0) < 0.25


def test_report_validates_deltas():
    with pytest.raises(BadParams):
        asymptotics_report(uniform_model(1), np.zeros(1), [0.1, 0.2], 1000, np.random.default_rng(0))
    with pytest.raises(BadParams):
        asymptotics_report(uniform_model(1), np.zeros(1), [], 1000, np.random.default_rng(0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -0.1])
def test_delta_must_be_finite_and_positive(bad):
    model, x, rng = uniform_model(2), np.zeros(2), np.random.default_rng(0)
    with pytest.raises(BadParams, match="must be finite and > 0"):
        ball_cov_theory(model, x, bad)
    with pytest.raises(BadParams, match="must be finite and > 0"):
        ball_cov_mc(model, x, bad, 1000, rng)
    with pytest.raises(BadParams, match="must be finite and > 0"):
        asymptotics_report(model, x, [0.2, bad], 1000, rng)


class _NoDraws:
    """A generator stand-in that fails any draw."""

    def __getattr__(self, name):
        raise AssertionError(f"drew with rng.{name} before the size check")


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_mc_refuses_a_sample_numpy_cannot_address_before_drawing(dim):
    """The (n_samples, d, d) fourth-moment products are the largest array
    made from the sample: the last size numpy can address passes the check,
    the next one is refused before anything is drawn or allocated, and a
    small one goes on to draw."""
    largest = sys.maxsize // (8 * dim * dim)
    check_addressable((largest, dim, dim))
    with pytest.raises(MemoryError, match=rf"^Unable to allocate an array with shape \({largest + 1}, {dim}, {dim}\)"):
        ball_cov_mc(uniform_model(dim), np.zeros(dim), 0.2, largest + 1, _NoDraws())
    with pytest.raises(AssertionError, match="before the size check"):
        ball_cov_mc(uniform_model(dim), np.zeros(dim), 0.2, 10, _NoDraws())
