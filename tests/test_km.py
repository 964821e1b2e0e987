import numpy as np
import pytest

from knnrex import BadParams, gen_ring, kcs_stats, km_fit, km_loglik, km_synth


def ring_sample(n=80, seed=1):
    return gen_ring(n, np.random.default_rng(seed))


def test_accepted_moves_strictly_increase():
    X = ring_sample()
    model = km_fit(X, L=6, m=4, rng=np.random.default_rng(2), stall_limit=150)
    assert len(model.history) == model.accepted + 1
    assert np.all(np.diff(model.history) > 0)
    assert model.loglik == model.history[-1]


def test_final_at_least_initial():
    X = ring_sample(seed=3)
    n = len(X)
    seed_rng = np.random.default_rng(4)
    initial = np.stack([seed_rng.permutation(n)[:4] for _ in range(5)])
    ll0 = km_loglik(X, initial)
    model = km_fit(X, L=5, m=4, rng=np.random.default_rng(4), stall_limit=100)
    assert model.history[0] == pytest.approx(ll0, abs=1e-9)
    assert model.loglik >= ll0


def test_forced_single_configuration():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(3, 2))
    model = km_fit(X, L=1, m=3, rng=np.random.default_rng(6), stall_limit=25)
    assert sorted(model.kcss[0]) == [0, 1, 2]
    assert model.loglik == pytest.approx(km_loglik(X, model.kcss), abs=1e-9)
    assert model.accepted == 0  # every proposal is the same set


def test_cached_loglik_matches_recompute():
    X = ring_sample(seed=7)
    model = km_fit(X, L=8, m=4, rng=np.random.default_rng(8), stall_limit=200)
    assert abs(model.loglik - km_loglik(X, model.kcss)) < 1e-6


def test_termination_bound():
    X = ring_sample(seed=9)
    stall_limit = 120
    model = km_fit(X, L=4, m=4, rng=np.random.default_rng(10), stall_limit=stall_limit)
    # Runs end on a full stall stretch; every accepted move restarts at most
    # one stretch.
    assert model.iterations <= stall_limit * (model.accepted + 1) + model.accepted
    assert model.iterations >= stall_limit


def test_bad_params():
    X = ring_sample()
    with pytest.raises(BadParams):
        km_fit(X, L=2, m=2, rng=np.random.default_rng(0))  # m < d+1
    with pytest.raises(BadParams):
        km_fit(X, L=0, m=3, rng=np.random.default_rng(0))
    with pytest.raises(BadParams):
        km_fit(X[:2], L=1, m=3, rng=np.random.default_rng(0))  # n < m


def test_synth_degenerate_kcs():
    X = np.tile([[1.5, -2.0]], (5, 1))
    model = km_fit(X, L=1, m=3, rng=np.random.default_rng(0), stall_limit=5)
    out = km_synth(model, X, 20, np.random.default_rng(1))
    assert np.allclose(out, [1.5, -2.0])


def test_synth_contract_and_moments():
    X = ring_sample(seed=13)
    model = km_fit(X, L=1, m=5, rng=np.random.default_rng(14), stall_limit=50)
    assert km_synth(model, X, 7, np.random.default_rng(0)).shape == (7, 2)

    draws = km_synth(model, X, 500_000, np.random.default_rng(15))
    stats = kcs_stats(X[model.kcss[0]])
    assert np.abs(draws.mean(axis=0) - stats.mu).max() < 0.01
    dev = draws - draws.mean(axis=0)
    cov = dev.T @ dev / len(draws)
    assert np.abs(cov - stats.sigma).max() < 0.01


def test_fit_and_synth_reproducible():
    X = ring_sample(seed=15)
    a = km_fit(X, L=3, m=4, rng=np.random.default_rng(16), stall_limit=40)
    b = km_fit(X, L=3, m=4, rng=np.random.default_rng(16), stall_limit=40)
    assert np.array_equal(a.kcss, b.kcss) and a.loglik == b.loglik
    assert np.array_equal(
        km_synth(a, X, 50, np.random.default_rng(0)),
        km_synth(b, X, 50, np.random.default_rng(0)),
    )
