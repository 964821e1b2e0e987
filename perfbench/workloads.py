"""The four benchmark workloads: inputs, the knnrex command, output checks.

Each workload makes its inputs from the benchmark seed with the benchmark's
own generators and writers, so knnrex receives only CSV and marginal files
and a later change to ``knnrex.datagen`` or ``knnrex.dataio`` cannot change
what is measured. Every command is run through ``knnrex.cli.main``.

An operation is one command, except for ``icv_spiral`` where it is one fold
(fold times come from the report knnrex writes). A repeated command must
produce byte-identical output (timing lines aside), so each command is
checked by digest against the first output of its input set, and each
input set's output on disk is checked in full once, after the timed loop.
"""

import hashlib
import math
import zlib

import numpy as np

from checks import binned_hellinger, marginal_counts, read_points

# Smoke sizes are also the warm-up sizes of a full run.
SIZES = {
    "full": {
        "population_n": 4000, "population_l": 396_000,
        "icv_n": 10_000, "icv_folds": 100,
        "corrected_n": 1000, "corrected_total": 20_000, "corrected_quota": 160,
        "evaluate_n": 200_000,
        # quality_hellinger must stay under these (observed at seeds 1-5:
        # 0.11-0.12, 0.43, 0.16-0.17 and 0.023-0.025)
        "population_ceiling": 0.15, "icv_spiral_ceiling": 0.5, "corrected_ceiling": 0.25, "evaluate_ceiling": 0.05,
    },
    "smoke": {
        "population_n": 400, "population_l": 39_600,
        "icv_n": 1000, "icv_folds": 10,
        "corrected_n": 500, "corrected_total": 2000, "corrected_quota": 16,
        "evaluate_n": 5000,
        "population_ceiling": 0.4, "icv_spiral_ceiling": 0.7, "corrected_ceiling": 0.45, "evaluate_ceiling": 0.25,
    },
}

# The c07 mixture: two 3-d Gaussian components.
GMM_WEIGHTS = np.array([0.4, 0.6])
GMM_MEANS = np.array([[0.0, 0.0, 0.0], [4.0, 2.0, -1.0]])
GMM_COVS = np.stack([np.eye(3), np.diag([1.5, 0.5, 1.0])])

COLUMNS = ("x1", "x2", "x3")
BINS = 10
WARM = "warm-"


def swiss_roll(n, rng):
    """3-d spiral band (t cos t, u, t sin t), t ~ U[1.5pi, 4.5pi], u ~ U[0, 21]."""
    t = rng.uniform(1.5 * math.pi, 4.5 * math.pi, size=n)
    u = rng.uniform(0.0, 21.0, size=n)
    return np.column_stack([t * np.cos(t), u, t * np.sin(t)])


def gmm(n, rng):
    assignment = rng.choice(GMM_WEIGHTS.size, size=n, p=GMM_WEIGHTS)
    out = np.empty((n, GMM_MEANS.shape[1]))
    for j in range(GMM_WEIGHTS.size):
        mask = assignment == j
        chol = np.linalg.cholesky(GMM_COVS[j])
        out[mask] = GMM_MEANS[j] + rng.standard_normal((int(mask.sum()), chol.shape[0])) @ chol.T
    return out


def write_points(path, values):
    """CSV with a header row; repr() round-trips every float exactly."""
    body = "\n".join(",".join(map(repr, row)) for row in values.tolist())
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(COLUMNS) + "\n" + body + "\n")


def digest(path, skip_timing=False):
    """SHA-256 of a file; with ``skip_timing``, lines starting time_ are left out."""
    with open(path, "rb") as handle:
        data = handle.read()
    if skip_timing:
        data = b"\n".join(line for line in data.split(b"\n") if not line.startswith(b"time_"))
    return hashlib.sha256(data).hexdigest()


class Workload:
    """One input set and the knnrex command run on it, closed loop."""

    name = ""
    points_label = ""
    # Input sets per run: commands cycle through them, so a run averages
    # over inputs where the work depends on them.
    variants = 1

    def __init__(self, workdir, seeds, sizes):
        self.dir = workdir
        self.seeds = seeds
        self.sizes = sizes
        self.refs = {}  # per tag: what the output is checked against

    def path(self, name):
        return str(self.dir / name)

    def seed(self, tag, kind):
        """The ``data`` or ``knnrex`` seed of the inputs tagged ``tag``.

        The warm-up uses fixed seeds: how long the bias loop runs depends on
        its input and random stream, and set-up time should not depend on
        the benchmark seed.
        """
        return 0 if tag == WARM else self.seeds[kind]

    def rng(self, tag, name):
        """An independent generator per input file."""
        return np.random.default_rng([self.seed(tag, "data"), zlib.crc32((tag + name).encode())])

    def ceiling(self):
        """Largest acceptable quality_hellinger at these sizes."""
        return self.sizes[self.name + "_ceiling"]

    def setup(self, sizes, tag):
        """Write the inputs for ``sizes``; file names and streams get ``tag``."""
        raise NotImplementedError

    def argv(self, sizes, tag):
        raise NotImplementedError

    def points(self):
        """Points synthesized or scored by one command."""
        raise NotImplementedError

    def operations(self):
        """Operations in one command."""
        return 1

    def samples(self, tag, seconds):
        """Operation latencies of the command just run."""
        return [seconds]

    def output_digest(self, tag):
        raise NotImplementedError

    def check(self, tag):
        """Check the output on disk. Returns (problems, quality_hellinger)."""
        raise NotImplementedError


class Population(Workload):
    """The paper's use case: ``synthesize`` CSV -> CSV at l = 99n.

    The k-NN build and the CSV write do almost all the work, the draws are a
    small share, and there is no Hellinger and no bias loop.
    """

    name = "population"
    points_label = "points synthesized"

    def setup(self, sizes, tag):
        write_points(self.path(tag + "train.csv"), swiss_roll(sizes["population_n"], self.rng(tag, "train")))
        if tag != WARM:
            self.refs[tag] = swiss_roll(sizes["population_l"], self.rng(tag, "heldout"))

    def argv(self, sizes, tag):
        # (k, m) = (30, 3) is suggest_params(2) for the 2-d sheet
        return ["synthesize", "--method", "knn-rex", "--k", "30", "--m", "3",
                "--l", str(sizes["population_l"]), "--seed", str(self.seed(tag, "knnrex")),
                "--in", self.path(tag + "train.csv"), "--out", self.path(tag + "pop.csv")]

    def points(self):
        return self.sizes["population_l"]

    def output_digest(self, tag):
        return digest(self.path(tag + "pop.csv"))

    def check(self, tag):
        out = read_points(self.path(tag + "pop.csv"))
        problems = _shape_problems(out, (self.sizes["population_l"], 3))
        return problems, binned_hellinger(out, self.refs[tag], BINS)


class IcvSpiral(Workload):
    """The paper's spiral-band evaluation: ``icv`` with 100 folds on 10k points.

    Binning plus Hellinger take most of the time; the draw layer runs as 100
    calls of 9,900 points. The k-NN build is ~1% (n = 100 per fold) and there
    is no CSV write.
    """

    name = "icv_spiral"
    points_label = "points synthesized"

    def setup(self, sizes, tag):
        write_points(self.path(tag + "swiss.csv"), swiss_roll(sizes["icv_n"], self.rng(tag, "swiss")))

    def argv(self, sizes, tag):
        return ["icv", "--method", "knn-rex", "--k", "12", "--m", "3",
                "--folds", str(sizes["icv_folds"]), "--bins", str(BINS), "--threads", "1",
                "--seed", str(self.seed(tag, "knnrex")),
                "--in", self.path(tag + "swiss.csv"), "--out", self.path(tag + "icv.txt")]

    def points(self):
        folds = self.sizes["icv_folds"]
        return folds * (folds - 1) * (self.sizes["icv_n"] // folds)

    def operations(self):
        return self.sizes["icv_folds"]

    def _report(self, tag):
        with open(self.path(tag + "icv.txt"), encoding="utf-8") as handle:
            return handle.read().splitlines()

    def samples(self, tag, seconds):
        for line in self._report(tag):
            if line.startswith("time_fold_seconds:"):
                return [float(v) for v in line.split(":", 1)[1].split()]
        return []

    def output_digest(self, tag):
        return digest(self.path(tag + "icv.txt"), skip_timing=True)

    def check(self, tag):
        lines = self._report(tag)
        fields = dict(line.split(": ", 1) for line in lines if ": " in line)
        folds = self.sizes["icv_folds"]
        first = lines.index("fold hellinger baseline") + 1
        # scores are written with repr(), which for numpy scalars reads np.float64(x)
        table = [[v.removeprefix("np.float64(").rstrip(")") for v in row.split()[1:]]
                 for row in lines[first:] if row[:1].isdigit()]
        scores = np.array(table, dtype=np.float64)
        problems = _shape_problems(scores, (folds, 2))
        if not problems and not np.all((scores >= 0.0) & (scores <= 1.0)):
            problems.append("a fold score lies outside [0, 1]")
        mean = float(fields["mean"])
        baseline = float(fields["baseline_mean"])
        if not mean < baseline:
            problems.append(f"ICV mean {mean!r} is not below the copying baseline {baseline!r}")
        if len(self.samples(tag, 0.0)) != folds:
            problems.append("the report does not time every fold")
        return problems, mean


class Corrected(Workload):
    """``synthesize-corrected`` on a 1000-point 3-d GMM sample, total 20k.

    c07-style marginals on three variables (5/4/6 bins) plus one forced
    empty-source bin on x1. The per-point bias loop dominates; it is the only
    workload that runs ``rex_sample`` per point and ``query_neighbors`` (the
    uniform branch for the empty-source bin). How long the loop runs depends
    on its input, so a run cycles through six samples.
    """

    name = "corrected"
    points_label = "points synthesized"
    variants = 6

    def setup(self, sizes, tag):
        sample = gmm(sizes["corrected_n"], self.rng(tag, "sample"))
        write_points(self.path(tag + "sample.csv"), sample)
        edges, freqs = c07_marginals(sample, sizes["corrected_total"], sizes["corrected_quota"])
        rows = ["variable,lo,hi,freq"]
        for name, e, f in zip(COLUMNS, edges, freqs):
            rows += [f"{name},{float(e[b])!r},{float(e[b + 1])!r},{int(f[b])}" for b in range(f.size)]
        with open(self.path(tag + "marginals.csv"), "w", encoding="utf-8") as handle:
            handle.write("\n".join(rows) + "\n")
        if tag != WARM:
            self.refs[tag] = (edges, freqs, gmm(sizes["corrected_total"], self.rng(tag, "heldout")))

    def argv(self, sizes, tag):
        return ["synthesize-corrected", "--k", "15", "--m", "4", "--seed", str(self.seed(tag, "knnrex")),
                "--marginals", self.path(tag + "marginals.csv"), "--total", str(sizes["corrected_total"]),
                "--in", self.path(tag + "sample.csv"), "--out", self.path(tag + "corrected.csv")]

    def points(self):
        return self.sizes["corrected_total"]

    def output_digest(self, tag):
        return digest(self.path(tag + "corrected.csv"))

    def check(self, tag):
        out = read_points(self.path(tag + "corrected.csv"))
        edges, freqs, heldout = self.refs[tag]
        problems = _shape_problems(out, (self.sizes["corrected_total"], 3))
        if not problems:
            for j, (e, f) in enumerate(zip(edges, freqs)):
                got = marginal_counts(out[:, j], e)
                if not np.array_equal(got, f):
                    problems.append(f"{COLUMNS[j]}: bin counts {got.tolist()} != targets {f.tolist()}")
        return problems, binned_hellinger(out, heldout, BINS)


def c07_marginals(sample, total, quota):
    """Per-variable targets proportional to the sample's histogram (5/4/6
    bins over the sample range widened by 1), and on x1 an extra bin left of
    the range with no sample point in it and ``quota`` points demanded."""
    edges, freqs = [], []
    for j, nb in enumerate((5, 4, 6)):
        e = np.linspace(sample[:, j].min() - 1.0, sample[:, j].max() + 1.0, nb + 1)
        h, _ = np.histogram(sample[:, j], bins=e)
        target = total - quota if j == 0 else total
        f = np.floor(h / h.sum() * target).astype(np.int64)
        f[int(np.argmax(h))] += target - f.sum()
        if j == 0:
            e = np.concatenate([[e[0] - 5.0], e])
            f = np.concatenate([[quota], f])
        edges.append(e)
        freqs.append(f)
    return edges, freqs


class Evaluate(Workload):
    """``evaluate --bins 10`` on two 200k x 3 CSVs (two draws of the spiral band).

    The only workload where CSV read matters, and the one-large-call shape
    of Hellinger beside the 200 small calls of ``icv_spiral``. No whitening,
    k-NN, draws or CSV write.
    """

    name = "evaluate"
    points_label = "points scored"

    def setup(self, sizes, tag):
        a = swiss_roll(sizes["evaluate_n"], self.rng(tag, "a"))
        b = swiss_roll(sizes["evaluate_n"], self.rng(tag, "b"))
        write_points(self.path(tag + "a.csv"), a)
        write_points(self.path(tag + "b.csv"), b)
        if tag != WARM:
            self.refs[tag] = (a, b)

    def argv(self, sizes, tag):
        return ["evaluate", "--a", self.path(tag + "a.csv"), "--b", self.path(tag + "b.csv"),
                "--bins", str(BINS), "--out", self.path(tag + "evaluate.txt")]

    def points(self):
        return 2 * self.sizes["evaluate_n"]

    def output_digest(self, tag):
        return digest(self.path(tag + "evaluate.txt"), skip_timing=True)

    def check(self, tag):
        with open(self.path(tag + "evaluate.txt"), encoding="utf-8") as handle:
            fields = dict(line.split(": ", 1) for line in handle.read().splitlines() if ": " in line)
        distance = float(fields["hellinger"])
        problems = []
        if not 0.0 <= distance <= 1.0:
            problems.append(f"distance {distance!r} is outside [0, 1]")
        expected = binned_hellinger(*self.refs[tag], BINS)
        # equal up to float64 summation order
        if abs(distance - expected) > 1e-12:
            problems.append(f"distance {distance!r} != recomputed {expected!r}")
        return problems, distance


def _shape_problems(values, shape):
    if values.shape != shape:
        return [f"output shape {values.shape} != expected {shape}"]
    if not np.all(np.isfinite(values)):
        return ["output has non-finite values"]
    return []


WORKLOADS = {w.name: w for w in (Population, IcvSpiral, Corrected, Evaluate)}
