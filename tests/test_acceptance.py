"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run it with ``pytest tests/test_acceptance.py -v -s`` (or standalone via
``python3 tests/test_acceptance.py``). The Swiss-Roll cross-validation
criterion takes the longest; the whole module runs in a few minutes.
"""

import math
import time

import numpy as np

import knnrex as kx

# Reference oracle values for Welch's t-test, computed independently
# (scipy.stats.ttest_ind_from_stats) and frozen before the implementation
# was written. Columns: mean_a, sd_a, n_a, mean_b, sd_b, n_b, t, p.
WELCH_ORACLE = [
    (0.0, 1.0, 30, 0.0, 1.0, 30, 0.0, 1.0),
    (3.087, 0.912, 366, 4.926, 2.039, 398, -16.306576963240882, 3.378016679975058e-49),
    (0.202, 0.616, 107, 2.584, 1.027, 69, -17.357641167235162, 6.631553878789931e-32),
    (1.919, 0.442, 275, -2.194, 1.501, 3, 4.7438760122242805, 0.04152465664500875),
    (2.435, 2.039, 139, -4.129, 1.573, 131, 29.71437053398683, 2.8257567187816325e-85),
    (2.709, 0.839, 332, -4.442, 2.212, 86, 29.43647396509159, 2.0128817953388762e-48),
    (0.491, 0.817, 61, -2.005, 0.817, 30, 13.70021470060959, 8.415532330642527e-20),
    (-1.294, 2.245, 149, 0.817, 0.859, 309, -11.09308064005558, 7.7577299090193785e-22),
    (4.973, 2.419, 79, -1.991, 2.266, 33, 14.531401983642992, 6.547735560360406e-22),
    (1.0, 1.0, 100, 2.0, 1.0, 100, -7.0710678118654755, 2.5806165219366507e-11),
]

# Best parameters reported for the spiral-band benchmark, kept for the
# informational magnitude comparison (ours uses a different binning, so
# only orderings are asserted).
REFERENCE_MEANS = {"knn_rex": 0.341, "fixed_gaussian": 0.402, "baseline": 0.665}


def check(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status}  criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_c01_preservation_of_statistics():
    start = time.perf_counter()
    rng = np.random.default_rng(123)
    worst_mean_sigmas = 0.0
    worst_cov = 0.0
    for trial in range(50):
        d = 2 if trial % 2 == 0 else 5
        m = 2 + trial % 7
        kcs = rng.standard_normal((m, d))
        stats = kx.kcs_stats(kcs)
        draws = kx.rex_samples(kcs, 1_000_000, rng)
        target_sd = np.sqrt(np.maximum(np.diag(stats.sigma), 1e-30))
        mean_err = np.abs(draws.mean(axis=0) - stats.mu)
        worst_mean_sigmas = max(worst_mean_sigmas, float((mean_err / (target_sd * 1e-3)).max()))
        dev = draws - draws.mean(axis=0)
        cov = dev.T @ dev / len(draws)
        worst_cov = max(worst_cov, float(np.abs(cov - stats.sigma).max()))
    elapsed = time.perf_counter() - start
    check(
        1,
        worst_mean_sigmas < 5.0 and worst_cov < 0.01 and elapsed < 60.0,
        f"50 KCSs x 1e6 draws: worst mean err {worst_mean_sigmas:.2f} of 5 allowed sigma, "
        f"worst cov err {worst_cov:.4f} < 0.01, {elapsed:.1f}s < 60s",
    )


def test_c02_rex_density_closed_form():
    cross = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    density_err = abs(kx.rex_density(np.zeros(2), cross) - 1.0 / math.pi)

    kcs1 = np.array([[-1.0], [0.5], [2.0]])
    sd = math.sqrt(float(kx.kcs_stats(kcs1).sigma[0, 0]))
    grid = np.linspace(-6 * sd, 6 * sd, 4001)[:, np.newaxis] + kcs1.mean()
    total_1d = np.trapezoid(kx.rex_density(grid, kcs1), grid[:, 0])

    rng = np.random.default_rng(8)
    kcs2 = rng.normal(size=(5, 2))
    stats = kx.kcs_stats(kcs2)
    sds = np.sqrt(np.diag(stats.sigma))
    axes = [np.linspace(stats.mu[j] - 6 * sds[j], stats.mu[j] + 6 * sds[j], 401) for j in range(2)]
    gx, gy = np.meshgrid(axes[0], axes[1], indexing="ij")
    vals = kx.rex_density(np.column_stack([gx.ravel(), gy.ravel()]), kcs2).reshape(gx.shape)
    total_2d = np.trapezoid(np.trapezoid(vals, axes[1], axis=1), axes[0])

    check(
        2,
        density_err < 1e-9 and abs(total_1d - 1.0) < 1e-3 and abs(total_2d - 1.0) < 1e-3,
        f"density at mean off by {density_err:.1e} < 1e-9; quadrature mass "
        f"1d {total_1d:.6f}, 2d {total_2d:.6f} within 1e-3 of 1",
    )


def test_c03_ball_covariance_validation():
    start = time.perf_counter()
    rng = np.random.default_rng(9)

    uniform = kx.uniform_model(2)
    mc = kx.ball_cov_mc(uniform, np.zeros(2), 0.1, 1_000_000, rng)
    diag_rel = float(np.abs(np.diag(mc) / 0.0025 - 1.0).max())

    linear = kx.linear_model(2, 5.0)
    report = kx.asymptotics_report(linear, np.zeros(2), [0.2, 0.1], 1_000_000, rng)
    second_rel = max(
        abs(e.second_term_measured / e.second_term_predicted - 1.0) for e in report.entries
    )
    scaling = report.second_term_ratios()[0]

    # rank-1 shrinkage direction: the smaller eigenvalue's axis is e1
    eigvals, eigvecs = np.linalg.eigh(report.entries[0].mc)
    along_gradient = abs(eigvecs[0, 0])

    elapsed = time.perf_counter() - start
    check(
        3,
        diag_rel < 0.02
        and second_rel < 0.25
        and 10.0 <= scaling <= 24.0
        and along_gradient > 0.99
        and elapsed < 120.0,
        f"uniform diag rel err {diag_rel:.4f} < 2%; gradient shrinkage within "
        f"{second_rel:.1%} of prediction (25% allowed); halving delta scaled it "
        f"{scaling:.1f}x (in [10, 24]); {elapsed:.1f}s < 120s",
    )


def test_c04_dense_sample_matches_ball_covariance():
    rng = np.random.default_rng(5)
    n, d, k = 10_000, 2, 50
    X = rng.random((n, d))
    index = kx.build_knn(X, k)
    radius = index.dists[:, k - 1]

    margin = np.minimum(X.min(axis=1), (1.0 - X).min(axis=1))
    interior = np.flatnonzero(margin > radius)

    kcs = np.concatenate([X[interior, np.newaxis, :], X[index.ids[interior]]], axis=1)
    mu = kcs.mean(axis=1)
    dev = kcs - mu[:, np.newaxis, :]
    sigma = np.einsum("pmi,pmj->pij", dev, dev) / (k + 1)
    normalized = (sigma / (radius[interior] ** 2)[:, np.newaxis, np.newaxis]).mean(axis=0)
    eigvals = np.linalg.eigvalsh(normalized)
    rel = np.abs(eigvals * (d + 2) - 1.0)
    check(
        4,
        float(rel.max()) < 0.15,
        f"{interior.size} interior points: normalized eigenvalues {eigvals.round(4)} vs "
        f"1/(d+2) = 0.25, rel err {rel.max():.3f} < 0.15",
    )


def test_c05_spiral_band_icv_ordering():
    start = time.perf_counter()
    data = kx.gen_swiss_roll(10_000, np.random.default_rng(42))

    rex = kx.icv_run(data, kx.EstimatorConfig(method="knn_rex", k=12, m=3, seed=11), folds=100)
    fixed_reports = [
        kx.icv_run(data, kx.EstimatorConfig(method="fixed_gaussian", h=h, seed=11), folds=100)
        for h in (0.02, 0.04, 0.056, 0.08, 0.10)
    ]
    best_fixed = min(fixed_reports, key=lambda r: r.mean)

    _, _, p_rex_fixed = kx.welch_t(rex.mean, rex.std, 100, best_fixed.mean, best_fixed.std, 100)
    _, _, p_fixed_base = kx.welch_t(
        best_fixed.mean, best_fixed.std, 100, rex.baseline_mean, rex.baseline_std, 100
    )
    ordering = rex.mean < best_fixed.mean < rex.baseline_mean
    significant = p_rex_fixed < 0.01 and p_fixed_base < 0.01
    elapsed = time.perf_counter() - start

    for label, mean, ref in (
        ("knn-rex", rex.mean, REFERENCE_MEANS["knn_rex"]),
        ("fixed", best_fixed.mean, REFERENCE_MEANS["fixed_gaussian"]),
        ("baseline", rex.baseline_mean, REFERENCE_MEANS["baseline"]),
    ):
        tag = "within" if abs(mean - ref) <= 0.10 else "OUTSIDE"
        print(f"      info: {label} mean {mean:.4f} is {tag} +-0.10 of reference {ref} "
              "(binning differs; informational only)")

    check(
        5,
        ordering and significant and elapsed < 900.0,
        f"ordering {rex.mean:.4f} (knn-rex, h* = {best_fixed.config['h']}) < "
        f"{best_fixed.mean:.4f} (fixed) < {rex.baseline_mean:.4f} (baseline), "
        f"p = {p_rex_fixed:.2e} and {p_fixed_base:.2e} < 0.01, {elapsed:.0f}s < 900s",
    )


def test_c06_bootstrap_degeneracies():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(50, 3))

    def subset_of_sample(out):
        return all(any(np.array_equal(row, x) for x in X) for row in out)

    multiset_ok = (
        subset_of_sample(kx.synth_knn_rex(X, 12, 1, 300, np.random.default_rng(1)))
        and subset_of_sample(kx.synth_fixed_gaussian(X, 0.0, 300, np.random.default_rng(2)))
        and subset_of_sample(kx.synth_bmp(X, 12, 0.0, 300, np.random.default_rng(3)))
    )

    data = kx.gen_swiss_roll(10_000, np.random.default_rng(42))
    p_values = []
    for cfg in (
        kx.EstimatorConfig(method="knn_rex", k=12, m=1, seed=11),
        kx.EstimatorConfig(method="fixed_gaussian", h=0.0, seed=11),
        kx.EstimatorConfig(method="bmp", k=12, h=0.0, seed=11),
    ):
        report = kx.icv_run(data, cfg, folds=100)
        _, _, p = kx.welch_t(
            report.mean, report.std, 100, report.baseline_mean, report.baseline_std, 100
        )
        p_values.append(p)

    check(
        6,
        multiset_ok and all(p > 0.01 for p in p_values),
        f"all degenerate outputs are training multisets; Welch p vs baseline = "
        f"{', '.join(f'{p:.2f}' for p in p_values)} (all > 0.01)",
    )


def test_c07_marginal_exactness():
    spec = kx.GmmSpec(
        weights=np.array([0.4, 0.6]),
        means=np.array([[0.0, 0.0, 0.0], [4.0, 2.0, -1.0]]),
        covs=np.stack([np.eye(3), np.diag([1.5, 0.5, 1.0])]),
    )
    X = kx.gen_gmm(spec, 500, np.random.default_rng(77))
    total = 5000

    names, edges, freqs = [], [], []
    for j, nb in enumerate((5, 4, 6)):
        e = np.linspace(X[:, j].min() - 1.0, X[:, j].max() + 1.0, nb + 1)
        h, _ = np.histogram(X[:, j], bins=e)
        f = np.floor(h / h.sum() * total).astype(int)
        f[int(np.argmax(h))] += total - f.sum()
        names.append(f"x{j + 1}")
        edges.append(e)
        freqs.append(f)
    marg = kx.MarginalSpec(names=tuple(names), edges=tuple(edges), freqs=tuple(freqs), total=total)
    out = kx.synth_bias_corrected(X, marg, k=15, m=4, rng=np.random.default_rng(3))
    exact = all(
        np.array_equal(np.histogram(out[:, v], bins=marg.edges[v])[0], marg.freqs[v])
        for v in range(3)
    )

    # force an empty source bin on variable 1 and demand 40 points there
    lo = X[:, 0].min() - 1.0
    body = np.linspace(lo, X[:, 0].max() + 1.0, 5)
    edges1 = np.concatenate([[lo - 5.0], body])
    h, _ = np.histogram(X[:, 0], bins=body)
    f = np.floor(h / h.sum() * (total - 40)).astype(int)
    freqs1 = np.concatenate([[40], f])
    freqs1[1 + int(np.argmax(h))] += total - freqs1.sum()
    marg1 = kx.MarginalSpec(names=("x1",), edges=(edges1,), freqs=(freqs1,), total=total)
    out1 = kx.synth_bias_corrected(X, marg1, k=15, m=4, rng=np.random.default_rng(4))
    got1 = np.histogram(out1[:, 0], bins=edges1)[0]
    empty_ok = np.array_equal(got1, freqs1) and got1[0] == 40

    check(
        7,
        exact and empty_ok,
        f"all marginal counts equal their targets for l = {total}; empty-source bin "
        f"filled its quota of 40 via uniform generation",
    )


def test_c08_km_monotonicity_and_stall():
    X = kx.gen_ring(80, np.random.default_rng(1))
    stall_limit = 150
    model = kx.km_fit(X, L=6, m=4, rng=np.random.default_rng(2), stall_limit=stall_limit)
    strictly_up = bool(np.all(np.diff(model.history) > 0))
    within_bound = model.iterations <= stall_limit * (model.accepted + 1) + model.accepted
    recompute = abs(model.loglik - kx.km_loglik(X, model.kcss))
    check(
        8,
        strictly_up and within_bound and recompute < 1e-6,
        f"{model.accepted} accepted moves strictly increasing; terminated after "
        f"{model.iterations} iterations (bound {stall_limit * (model.accepted + 1) + model.accepted}); "
        f"recomputed loglik off by {recompute:.2e} < 1e-6",
    )


def test_c09_complexity():
    rng = np.random.default_rng(1)
    d, k = 4, 30

    data = {n: rng.random((n, d)) for n in (2000, 4000)}
    build = {n: float("inf") for n in data}
    for _ in range(5):  # interleaved rounds, so a slow spell hits both sizes
        for n, points in data.items():
            t0 = time.perf_counter()
            kx.build_knn(points, k)
            build[n] = min(build[n], time.perf_counter() - t0)
    build_ratio = build[4000] / build[2000]

    n = 4348
    X = rng.random((n, d))
    index = kx.build_knn(X, k)
    sizes = (10_000, 20_000, 40_000)
    kx.synth_knn_rex(X, k, 3, 45_000, np.random.default_rng(0), index=index)  # warm-up
    best = {l: float("inf") for l in sizes}
    for _ in range(15):  # interleaved rounds defeat background-load noise
        for l in sizes:
            t0 = time.perf_counter()
            kx.synth_knn_rex(X, k, 3, l, np.random.default_rng(0), index=index)
            best[l] = min(best[l], time.perf_counter() - t0)
    ratio2 = best[20_000] / best[10_000]
    ratio4 = best[40_000] / best[10_000]
    linear = abs(ratio2 / 2.0 - 1.0) < 0.2 and abs(ratio4 / 4.0 - 1.0) < 0.2

    t0 = time.perf_counter()
    index2 = kx.build_knn(X, k)
    t_build = time.perf_counter() - t0
    t0 = time.perf_counter()
    kx.synth_knn_rex(X, k, 2, 99 * n, np.random.default_rng(0), index=index2)
    t_synth = time.perf_counter() - t0
    share = t_build / (t_build + t_synth)

    check(
        9,
        3.0 <= build_ratio <= 6.0 and linear and share > 0.70,
        f"build time ratio 2000->4000 = {build_ratio:.2f} (in [3, 6]); synthesis scales "
        f"x{ratio2:.2f} and x{ratio4:.2f} for 2x and 4x l (within 20% of linear); index "
        f"build takes {share:.0%} of an n = 4348, l = 99n run (> 70%)",
    )


def test_c10_hellinger_metric_properties():
    rng = np.random.default_rng(4)
    worst_gap = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 4))
        Y = rng.normal(size=(int(rng.integers(5, 200)), d))
        Z = rng.normal(size=(int(rng.integers(5, 200)), d)) + rng.normal(scale=0.5)
        bins = int(rng.integers(1, 11))
        spec = kx.make_binning(np.concatenate([Y, Z]), bins)
        h = kx.hellinger(Y, Z, spec)
        assert 0.0 <= h <= 1.0 + 1e-12
        assert abs(h - kx.hellinger(Z, Y, spec)) < 1e-15
        dense = _dense_hellinger(Y, Z, spec)
        worst_gap = max(worst_gap, abs(h - dense))

    spec = kx.make_binning(np.array([[0.0], [1.0]]), 4)
    identical = kx.hellinger(np.asarray([[0.1], [0.9]]), np.asarray([[0.11], [0.89]]), spec)
    disjoint = kx.hellinger(np.zeros((5, 1)), np.ones((5, 1)), spec)
    check(
        10,
        worst_gap < 1e-12 and identical == 0.0 and disjoint == 1.0,
        f"100 random instances agree with the dense-histogram oracle to "
        f"{worst_gap:.1e} (< 1e-12); identity gives 0, disjoint support gives 1",
    )


def _dense_hellinger(Y, Z, binning):
    def counts(data):
        clipped = np.column_stack(
            [np.clip(data[:, j], e[0], e[-1]) for j, e in enumerate(binning.edges)]
        )
        edges = [
            e if e.size > 2 or e[0] != e[-1] else np.asarray([e[0], e[0] + 1.0])
            for e in binning.edges
        ]
        h, _ = np.histogramdd(clipped, bins=edges)
        return h.ravel()

    py = np.sqrt(counts(Y) / len(Y))
    pz = np.sqrt(counts(Z) / len(Z))
    return float(np.sqrt(0.5 * np.sum((py - pz) ** 2)))


def test_c11_welch_oracle():
    worst_t = 0.0
    worst_p = 0.0
    for ma, sa, na, mb, sb, nb, t_ref, p_ref in WELCH_ORACLE:
        t, _, p = kx.welch_t(ma, sa, na, mb, sb, nb)
        worst_t = max(worst_t, abs(t - t_ref))
        worst_p = max(worst_p, abs(p - p_ref))
    check(
        11,
        worst_t < 1e-6 and worst_p < 1e-6,
        f"10 precomputed cases (incl. t = 0, p = 1): max |t err| {worst_t:.1e}, "
        f"max |p err| {worst_p:.1e} (both < 1e-6)",
    )


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_c") and callable(fn):
            try:
                fn()
            except AssertionError as exc:
                failures += 1
                print(f"FAIL  {name}: {exc}")
    raise SystemExit(1 if failures else 0)
