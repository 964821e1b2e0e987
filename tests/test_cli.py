import os
import pathlib
import platform
import re
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import knnrex.evaluation
from knnrex.cli import _resolve_config, build_parser
from knnrex.cli import main as cli_main
from knnrex.dataio import WRITE_BLOCK_ROWS, read_points_csv
from knnrex.estimators import CORRECTED_COUNTERS, STALL_FACTOR, EstimatorConfig

from golden_cases import CASES, GOLDEN_DIR, run_case, strip_timings
from test_dataio import reference_write_points_csv


def run_cli(argv):
    """Invoke the CLI in-process; argparse usage errors become exit code 2."""
    try:
        return cli_main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    case = CASES[name]
    run_case(case, tmp_path)
    for artifact in case["artifacts"]:
        produced = strip_timings((tmp_path / artifact).read_text())
        expected = strip_timings((GOLDEN_DIR / name / artifact).read_text())
        assert produced == expected, f"{name}/{artifact} drifted from the golden copy"


@pytest.mark.parametrize("name", sorted(CASES))
def test_manifest_echoes_every_flag(name):
    # subcommand, then every flag the parser set except None, sorted by dest,
    # then the command's counters, then the timings
    case = CASES[name]
    args = vars(build_parser().parse_args(case["command"]))
    flags = sorted(k for k, v in args.items() if v is not None and k not in ("func", "subcommand"))
    [report] = [a for a in case["artifacts"] if not a.endswith(".csv")]
    manifest = (GOLDEN_DIR / name / report).read_text().split("[manifest]\n")[-1]
    keys = [line.split(": ", 1)[0] for line in manifest.splitlines()]
    assert keys[: len(flags) + 1] == ["subcommand", *flags]
    rest = keys[len(flags) + 1 :]
    counts = [key for key in rest if key.startswith("count_")]
    want = [f"count_{c}" for c in CORRECTED_COUNTERS] if name == "synthesize_corrected" else []
    assert counts == want
    assert rest[: len(counts)] == counts
    assert rest[len(counts) :] and all(key.startswith("time_") for key in rest[len(counts) :])


@pytest.mark.parametrize("name", ["synthesize_knn_rex", "synthesize_bmp", "synthesize_corrected"])
def test_fresh_manifest_has_exclusive_phases(name, tmp_path):
    case = CASES[name]
    run_case(case, tmp_path)
    manifest = (tmp_path / case["artifacts"][-1]).read_text().splitlines()
    times = dict(line.split(": ", 1) for line in manifest if line.startswith("time_"))
    times = {key: float(value) for key, value in times.items()}
    assert {"time_whiten", "time_index", "time_synthesis"} <= set(times)
    total = times.pop("time_total")
    assert sum(times.values()) <= total + 1e-5  # 6-decimal rounding


def test_corrected_bootstrap_neither_whitens_nor_indexes(tmp_path):
    case = CASES["synthesize_corrected"]
    command = list(case["command"])
    command[command.index("--m") + 1] = "1"
    run_case({**case, "command": command}, tmp_path)
    manifest = (tmp_path / "corrected.csv.manifest.txt").read_text()
    assert "time_synthesis: " in manifest
    assert "time_whiten" not in manifest and "time_index" not in manifest


def test_synthesize_byte_identical_reruns(tmp_path):
    case = CASES["synthesize_knn_rex"]
    run_case(case, tmp_path)
    first = (tmp_path / "pop.csv").read_bytes()
    run_case(case, tmp_path)
    assert (tmp_path / "pop.csv").read_bytes() == first


def test_icv_identical_reruns(tmp_path):
    case = CASES["icv"]
    run_case(case, tmp_path)
    first = strip_timings((tmp_path / "icv.txt").read_text())
    run_case(case, tmp_path)
    assert strip_timings((tmp_path / "icv.txt").read_text()) == first


def test_icv_times_each_phase_of_each_fold(tmp_path):
    case = CASES["icv"]
    command = [*case["command"][:2], "knn-rex", "--k", "4", "--m", "3", *case["command"][5:]]
    run_case({**case, "command": command}, tmp_path)
    text = (tmp_path / "icv.txt").read_text()
    timing = text.split("[timing]\n")[1].split("[manifest]\n")[0].splitlines()
    rows = dict(line.split(": ", 1) for line in timing)
    assert list(rows) == ["time_fold_seconds", *(f"time_fold_{p}" for p in knnrex.evaluation.FOLD_PHASES)]
    seconds = {key: np.array(value.split(), dtype=float) for key, value in rows.items()}
    assert all(values.shape == (4,) and (values >= 0).all() for values in seconds.values())
    assert (seconds["time_fold_synthesis"] > 0).all()
    phases = sum(values for key, values in seconds.items() if key != "time_fold_seconds")
    assert (phases <= seconds["time_fold_seconds"] + 5e-6 * len(knnrex.evaluation.FOLD_PHASES)).all()


def test_evaluate_identical_inputs_zero(tmp_path, capsys):
    assert run_cli(["gen-data", "--dataset", "ring", "--n", "30", "--seed", "1",
                    "--out", str(tmp_path / "p.csv")]) == 0
    code = run_cli(["evaluate", "--a", str(tmp_path / "p.csv"), "--b", str(tmp_path / "p.csv"),
                    "--bins", "10"])
    assert code == 0
    assert "hellinger: 0.0" in capsys.readouterr().out


def test_usage_errors_exit_2(tmp_path):
    assert run_cli(["synthesize", "--method", "warp-drive", "--l", "5",
                    "--in", "x.csv", "--out", "y.csv"]) == 2
    assert run_cli(["no-such-command"]) == 2
    assert run_cli(["synthesize", "--method", "knn-rex", "--in", "x.csv", "--out", "y.csv"]) == 2


def test_runtime_errors_exit_1(tmp_path, capsys):
    assert run_cli(["synthesize", "--method", "knn-rex", "--l", "5",
                    "--in", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "y.csv")]) == 1

    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n3,zap\n")
    assert run_cli(["synthesize", "--method", "knn-rex", "--l", "5",
                    "--in", str(bad), "--out", str(tmp_path / "y.csv")]) == 1
    assert "line 3" in capsys.readouterr().err

    train = tmp_path / "train.csv"
    assert run_cli(["gen-data", "--dataset", "ring", "--n", "30", "--seed", "0",
                    "--out", str(train)]) == 0
    marg = tmp_path / "marg.csv"
    marg.write_text("variable,lo,hi,freq\nx1,-9,9,7\n")
    code = run_cli(["synthesize-corrected", "--k", "3", "--m", "2", "--total", "9",
                    "--marginals", str(marg), "--in", str(train),
                    "--out", str(tmp_path / "y.csv")])
    assert code == 1
    assert "InconsistentMarginals" in capsys.readouterr().err


@pytest.mark.parametrize("marginals, error", [
    ("variable,lo,hi,freq\nx9,0,9,5\n", "BadSpec"),
    ("variable,lo,hi,freq\nx1,5,9,5\n", "InconsistentMarginals"),
])
def test_corrected_checks_marginals_before_the_index(tmp_path, capsys, marginals, error):
    """A constant column cannot be whitened, and k = 8 is too large for four
    points; the marginals that do not fit the sample are named first."""
    train = tmp_path / "train.csv"
    train.write_text("x1,x2\n1,3\n2,3\n3,3\n4,3\n")
    marg = tmp_path / "marg.csv"
    marg.write_text(marginals)
    code = run_cli(["synthesize-corrected", "--k", "8", "--m", "2", "--total", "5",
                    "--marginals", str(marg), "--in", str(train), "--out", str(tmp_path / "y.csv")])
    assert code == 1
    assert error in capsys.readouterr().err


def test_stalled_corrected_run_prints_its_counters_and_deficits(tmp_path, capsys):
    """Every output coordinate is rounded to an integer, so the x1 bin
    [1.4, 1.6) can never be filled: the run stalls with 2 of x1 missing."""
    train = tmp_path / "train.csv"
    train.write_text("x1,x2\n1.0,0.2\n1.1,0.5\n0.9,0.8\n1.2,0.3\n1.5,0.6\n1.45,0.1\n1.55,0.9\n")
    marg = tmp_path / "marg.csv"
    marg.write_text("variable,lo,hi,freq\nx1,0.6,1.4,4\nx1,1.4,1.6,2\nx2,-0.5,0.5,3\nx2,0.5,1.5,3\n")
    out = tmp_path / "y.csv"
    code = run_cli(["synthesize-corrected", "--k", "0", "--m", "1", "--round-integers",
                    "--total", "6", "--marginals", str(marg), "--in", str(train), "--out", str(out)])
    assert code == 1
    first, *lines = capsys.readouterr().err.splitlines()
    assert first.startswith("error: StallLimit: no net progress")
    fields = dict(line.split(": ", 1) for line in lines)
    assert list(fields) == [f"count_{c}" for c in CORRECTED_COUNTERS] + ["deficit_x1", "deficit_x2"]
    assert fields["count_peak_stall"] == str(STALL_FACTOR * 6)
    assert fields["deficit_x1"] == "2"
    assert not out.exists()
    manifest = (tmp_path / "y.csv.manifest.txt").read_text().splitlines()
    assert manifest[0] == "subcommand: synthesize-corrected"
    echoed = dict(line.split(": ", 1) for line in manifest[1:])
    assert echoed["total"] == "6" and echoed["round_integers"] == "True"
    diagnostics = [line for line in manifest if line.startswith(("count_", "deficit_"))]
    assert diagnostics == lines
    timings = manifest[manifest.index(lines[-1]) + 1 :]
    assert timings and all(line.startswith("time_") for line in timings)
    assert timings[-1].startswith("time_total: ")


def test_stall_whose_sidecar_cannot_be_written_still_explains_itself(tmp_path, capsys):
    """The stall of the test above with ``--out`` in a missing directory: the
    counts and deficits still reach stderr, then the sidecar's own error."""
    train = tmp_path / "train.csv"
    train.write_text("x1,x2\n1.0,0.2\n1.1,0.5\n0.9,0.8\n1.2,0.3\n1.5,0.6\n1.45,0.1\n1.55,0.9\n")
    marg = tmp_path / "marg.csv"
    marg.write_text("variable,lo,hi,freq\nx1,0.6,1.4,4\nx1,1.4,1.6,2\nx2,-0.5,0.5,3\nx2,0.5,1.5,3\n")
    out = tmp_path / "missing" / "y.csv"
    code = run_cli(["synthesize-corrected", "--k", "0", "--m", "1", "--round-integers",
                    "--total", "6", "--marginals", str(marg), "--in", str(train), "--out", str(out)])
    assert code == 1
    first, *lines, last = capsys.readouterr().err.splitlines()
    assert first.startswith("error: StallLimit: no net progress")
    assert [line.split(": ", 1)[0] for line in lines] == (
        [f"count_{c}" for c in CORRECTED_COUNTERS] + ["deficit_x1", "deficit_x2"]
    )
    assert last == f"error: [Errno 2] No such file or directory: '{out}.manifest.txt'"
    assert not out.parent.exists()


def test_synthesize_is_byte_identical_at_one_and_two_blas_threads(tmp_path):
    train = tmp_path / "train.csv"
    assert run_cli(["gen-data", "--dataset", "swissroll", "--n", "2000", "--seed", "5",
                    "--out", str(train)]) == 0
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"pop{threads}.csv"
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(knnrex.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-m", "knnrex.cli", "synthesize", "--method",
                              "knn-rex", "--k", "30", "--m", "3", "--l", "20000", "--seed", "9",
                              "--in", str(train), "--out", str(out)],
                             capture_output=True, text=True, env=env)
        assert run.returncode == 0, run.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


# Runs the CLI pinned to one of the CPUs this process may use; os.sched_setaffinity
# acts on this process only.
ONE_CPU = """
import os, sys
import knnrex.cli
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.exit(knnrex.cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_synthesis_is_byte_identical_on_one_usable_cpu(tmp_path):
    """A 2000-point sample spans many k-NN chunks, so an unpinned build splits
    them among the usable cores; pinned to one CPU it runs on one thread."""
    train = tmp_path / "train.csv"
    assert run_cli(["gen-data", "--dataset", "swissroll", "--n", "2000", "--seed", "5",
                    "--out", str(train)]) == 0
    marginals = tmp_path / "marginals.csv"
    marginals.write_text("variable,lo,hi,freq\nx2,0,10,1500\nx2,10,21,1500\n")
    for argv in (["synthesize", "--method", "knn-rex", "--k", "30", "--m", "3", "--l", "20000"],
                 ["synthesize-corrected", "--k", "15", "--m", "3", "--total", "3000",
                  "--marginals", str(marginals)]):
        outputs = []
        for pinned in (False, True):
            out = tmp_path / f"pop{pinned}.csv"
            run = _cli(*(["-c", ONE_CPU] if pinned else ["-m", "knnrex.cli"]), *argv, "--seed", "9",
                       "--in", str(train), "--out", str(out))
            assert run.returncode == 0, run.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], argv


def test_synthesize_over_two_write_blocks_writes_the_row_writer_bytes(tmp_path):
    """At l = 140000 the population spans three write blocks, so its second
    half is formatted by a forked child."""
    assert 140_000 > 2 * WRITE_BLOCK_ROWS
    train = tmp_path / "train.csv"
    assert run_cli(["gen-data", "--dataset", "ring", "--n", "200", "--seed", "2",
                    "--out", str(train)]) == 0
    out = tmp_path / "pop.csv"
    assert run_cli(["synthesize", "--method", "knn-rex", "--k", "5", "--m", "2", "--l", "140000",
                    "--seed", "4", "--in", str(train), "--out", str(out)]) == 0
    reference_write_points_csv(tmp_path / "ref.csv", read_points_csv(out))
    assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()


# Runs the CLI with a formatter process that exits 1 once it has read the
# header of its first block.
FAILING_CHILD = """
import sys
import knnrex.cli, knnrex.dataio
knnrex.dataio._FORMATTER = "import sys; sys.stdin.buffer.read(8); sys.exit(1)"
sys.exit(knnrex.cli.main(sys.argv[1:]))
"""


def test_failed_formatting_child_exit_1(tmp_path):
    train = tmp_path / "train.csv"
    assert run_cli(["gen-data", "--dataset", "ring", "--n", "200", "--seed", "2",
                    "--out", str(train)]) == 0
    out = tmp_path / "pop.csv"
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(knnrex.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", FAILING_CHILD, "synthesize", "--method",
                          "knn-rex", "--k", "5", "--m", "2", "--l", "140000",
                          "--in", str(train), "--out", str(out)],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 1
    assert "Traceback" not in run.stderr and "Warning" not in run.stderr
    assert run.stderr.splitlines() == [
        f"error: {out}: the formatting process exited with status 1"
    ]
    assert not (tmp_path / "pop.csv.manifest.txt").exists()
    assert not out.exists()


def _cli(*args, env=None):
    """Run ``python *args`` with the package importable; its CompletedProcess."""
    env = dict(os.environ if env is None else env, PYTHONPATH=str(pathlib.Path(knnrex.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=600)


def test_synthesize_runs_clean_under_dev_mode_and_warnings_as_errors(tmp_path):
    """Past two write blocks, under ``-X dev -W error``: a leaked pipe, an
    unreaped formatter or a fork in a threaded process would warn."""
    train = tmp_path / "train.csv"
    assert run_cli(["gen-data", "--dataset", "ring", "--n", "200", "--seed", "2",
                    "--out", str(train)]) == 0
    out = tmp_path / "pop.csv"
    run = _cli("-X", "dev", "-W", "error", "-m", "knnrex.cli", "synthesize", "--method", "knn-rex",
               "--k", "5", "--m", "2", "--l", "140000", "--seed", "4", "--in", str(train), "--out", str(out))
    assert (run.returncode, run.stderr) == (0, "")
    assert len(out.read_bytes().splitlines()) == 140_001


# Runs the CLI, then prints the process's own peak resident set in KiB.
PEAK_RSS = """
import resource, sys
import knnrex.cli
code = knnrex.cli.main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
sys.exit(code)
"""


def test_synthesize_peak_memory_does_not_grow_with_l(tmp_path):
    """The population is drawn, mapped back and written block by block, so
    450,000 more rows (7.2 MB as float64 at d = 2, which a whole-array
    synthesis holds twice over) leave the process's peak within 4 MB."""
    train = tmp_path / "train.csv"
    assert run_cli(["gen-data", "--dataset", "ring", "--n", "200", "--seed", "2",
                    "--out", str(train)]) == 0
    peaks = []
    for l in (50_000, 500_000):
        out = tmp_path / f"pop{l}.csv"
        run = _cli("-c", PEAK_RSS, "synthesize", "--method", "knn-rex", "--k", "5", "--m", "2",
                   "--l", str(l), "--seed", "4", "--in", str(train), "--out", str(out))
        assert run.returncode == 0, run.stderr
        peaks.append(int(run.stdout.split()[-1]) / 1024)
        out.unlink()
    assert abs(peaks[1] - peaks[0]) < 4.0, peaks


def test_synthesize_corrected_peak_memory_per_point(tmp_path):
    """The bias loop's ledger holds a placed point's flat ids and member
    positions as int64 entries of flat arrays. From total 20k to 200k on
    c07-style marginals (3 variables, 5/4/6 bins), the process's peak grew
    by 45-47 B a point on x86-64 Linux with CPython 3.11; the same ledger in
    Python lists and ints grew it by 358-360 B a point."""
    spec = knnrex.GmmSpec(
        weights=np.array([0.4, 0.6]),
        means=np.array([[0.0, 0.0, 0.0], [4.0, 2.0, -1.0]]),
        covs=np.stack([np.eye(3), np.diag([1.5, 0.5, 1.0])]),
    )
    X = knnrex.gen_gmm(spec, 500, np.random.default_rng(77))
    train = tmp_path / "train.csv"
    train.write_text("x1,x2,x3\n" + "".join(",".join(map(repr, row)) + "\n" for row in X.tolist()))
    totals = (20_000, 200_000)
    peaks = []
    for total in totals:
        rows = ["variable,lo,hi,freq"]
        for j, nb in enumerate((5, 4, 6)):
            e = np.linspace(X[:, j].min() - 1.0, X[:, j].max() + 1.0, nb + 1)
            h, _ = np.histogram(X[:, j], bins=e)
            f = np.floor(h / h.sum() * total).astype(int)
            f[int(np.argmax(h))] += total - f.sum()
            e, f = e.tolist(), f.tolist()
            rows += [f"x{j + 1},{e[b]!r},{e[b + 1]!r},{f[b]}" for b in range(nb)]
        marg = tmp_path / f"marg{total}.csv"
        marg.write_text("\n".join(rows) + "\n")
        out = tmp_path / f"pop{total}.csv"
        run = _cli("-c", PEAK_RSS, "synthesize-corrected", "--k", "15", "--m", "4", "--seed", "3",
                   "--marginals", str(marg), "--total", str(total), "--in", str(train), "--out", str(out))
        assert run.returncode == 0, run.stderr
        peaks.append(int(run.stdout.split()[-1]) * 1024)
        out.unlink()
    per_point = (peaks[1] - peaks[0]) / (totals[1] - totals[0])
    assert per_point < 250, (peaks, per_point)


# Runs the CLI twice in one process, then prints the minor page faults the
# second command took.
SECOND_RUN_FAULTS = """
import resource, sys
import knnrex.cli
assert knnrex.cli.main(sys.argv[1:]) == 0
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
code = knnrex.cli.main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
sys.exit(code)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts glibc's heap behaviour")
def test_small_sample_draws_reuse_their_heap_blocks(tmp_path):
    """A 200-point sample builds no k-NN buffer large enough to raise glibc's
    mmap threshold, so each 8192-row block's ~2 MB of draw temporaries were
    mapped and faulted in afresh: 2,800-3,900 minor faults per command on
    x86-64 Linux with glibc 2.36. With the threshold raised once, when
    ``knnrex.knn`` is imported, the repeated command took 0-22."""
    train = tmp_path / "train.csv"
    assert run_cli(["gen-data", "--dataset", "ring", "--n", "200", "--seed", "2",
                    "--out", str(train)]) == 0
    run = _cli("-c", SECOND_RUN_FAULTS, "synthesize", "--method", "knn-rex", "--k", "30", "--m", "3",
               "--l", "40000", "--seed", "4", "--in", str(train), "--out", str(tmp_path / "pop.csv"))
    assert run.returncode == 0, run.stderr
    faults = int(run.stdout.split()[-1])
    assert faults < 300, faults


# Without these features numpy runs other kernels for its CPU-dispatched
# selection and sorting; the order of the m - 1 neighbor picks, which is the
# order of the REX fold, must not depend on which kernel runs.
BASELINE_CPU = "AVX512_ICL AVX512_SPR X86_V4 X86_V3"


def _outputs_with_and_without_dispatched_cpu_features(tmp_path, argv):
    """The outputs of ``knnrex *argv`` on a 300-point ring, run with numpy's
    dispatched CPU features and with ``BASELINE_CPU`` disabled."""
    train = tmp_path / "train.csv"
    assert run_cli(["gen-data", "--dataset", "ring", "--n", "300", "--seed", "0",
                    "--out", str(train)]) == 0
    outputs = []
    for features in ("", BASELINE_CPU):
        out = tmp_path / f"pop{len(outputs)}.csv"
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=features)
        run = _cli("-m", "knnrex.cli", *argv, "--in", str(train), "--out", str(out), env=env)
        if run.returncode != 0 and "NPY_DISABLE_CPU_FEATURES" in run.stderr:
            pytest.skip(f"numpy refuses NPY_DISABLE_CPU_FEATURES={features!r}")
        assert run.returncode == 0, run.stderr
        outputs.append(out)
    return outputs


@pytest.mark.parametrize("m", [3, 4])
def test_synthesize_writes_the_same_bytes_without_dispatched_cpu_features(tmp_path, m):
    a, b = _outputs_with_and_without_dispatched_cpu_features(
        tmp_path, ["synthesize", "--method", "knn-rex", "--k", "15", "--m", str(m), "--l", "20000",
                   "--seed", "3"])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("m", [3, 4])
def test_synthesize_corrected_writes_the_same_bytes_without_dispatched_cpu_features(tmp_path, m):
    # x1's top bin lies past the ring, so it is seeded by the uniform branch
    marginals = tmp_path / "marginals.csv"
    marginals.write_text("variable,lo,hi,freq\nx1,-1.5,0,1000\nx1,0,1.25,995\nx1,1.25,1.5,5\n"
                         "x2,-1.5,0,1000\nx2,0,1.5,1000\n")
    a, b = _outputs_with_and_without_dispatched_cpu_features(
        tmp_path, ["synthesize-corrected", "--k", "15", "--m", str(m), "--seed", "3", "--total", "2000",
                   "--marginals", str(marginals)])
    assert a.read_bytes() == b.read_bytes()
    for out in (a, b):
        manifest = pathlib.Path(f"{out}.manifest.txt").read_text()
        assert re.search(r"^count_uniform_seeds: [1-9][0-9]*$", manifest, re.M), manifest


def test_non_finite_input_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,x2\n0.5,1.5\n1.0,2.0\nnan,inf\n2.0,0.5\n")
    out = tmp_path / "pop.csv"
    assert run_cli(["synthesize", "--method", "fixed", "--h", "0.1", "--l", "5",
                    "--in", str(bad), "--out", str(out)]) == 1
    assert "CsvFormatError" in capsys.readouterr().err
    assert not out.exists()

    good = tmp_path / "good.csv"
    good.write_text("x1,x2\n0.5,1.5\n1.0,2.0\n")
    assert run_cli(["evaluate", "--a", str(good), "--b", str(bad)]) == 1
    assert "line 4: non-finite" in capsys.readouterr().err


# Undecodable bytes, and a field over the csv module's 131072-character limit.
UNREADABLE = {
    "not_utf8": (b"\xff", "not UTF-8 text"),
    "huge_field": (b"1" * 140_000, "line 3: field larger than field limit"),
}


@pytest.mark.parametrize("kind", sorted(UNREADABLE))
def test_unreadable_csv_exit_1(tmp_path, capsys, kind):
    field, message = UNREADABLE[kind]
    points = tmp_path / "points.csv"
    points.write_bytes(b"x1,x2\n0.5,1.5\n" + field + b",2.0\n")
    assert run_cli(["evaluate", "--a", str(points), "--b", str(points)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: CsvFormatError: {points}: ") and message in err

    train = tmp_path / "train.csv"
    assert run_cli(["gen-data", "--dataset", "ring", "--n", "30", "--out", str(train)]) == 0
    marg = tmp_path / "marg.csv"
    marg.write_bytes(b"variable,lo,hi,freq\nx1,-9,9,5\nx1,9," + field + b",0\n")
    assert run_cli(["synthesize-corrected", "--total", "5", "--marginals", str(marg),
                    "--in", str(train), "--out", str(tmp_path / "y.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: CsvFormatError: {marg}: ") and message in err


def test_negative_population_size_exit_2(tmp_path, capsys):
    train = tmp_path / "train.csv"
    assert run_cli(["gen-data", "--dataset", "ring", "--n", "30", "--seed", "0",
                    "--out", str(train)]) == 0
    code = run_cli(["synthesize", "--method", "knn-rex", "--k", "5", "--m", "3", "--l", "-3",
                    "--in", str(train), "--out", str(tmp_path / "y.csv")])
    assert code == 2
    assert "--l: must be >= 1, got -3" in capsys.readouterr().err
    assert not (tmp_path / "y.csv").exists()


def test_zero_population_size_exit_2(tmp_path, capsys):
    # A header-only CSV would be unreadable by knnrex itself (no data rows).
    train = tmp_path / "train.csv"
    assert run_cli(["gen-data", "--dataset", "ring", "--n", "30", "--seed", "0",
                    "--out", str(train)]) == 0
    code = run_cli(["synthesize", "--method", "fixed", "--h", "0.1", "--l", "0",
                    "--in", str(train), "--out", str(tmp_path / "y.csv")])
    assert code == 2
    assert "--l: must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "y.csv").exists()


@pytest.mark.parametrize("command", ["icv", "sweep"])
@pytest.mark.parametrize("threads", ["0", "-1", "-2"])
def test_threads_below_one_exit_2(tmp_path, capsys, command, threads):
    data = tmp_path / "data.csv"
    assert run_cli(["gen-data", "--dataset", "ring", "--n", "50", "--seed", "0",
                    "--out", str(data)]) == 0
    code = run_cli([command, "--method", "fixed", "--h", "0.1", "--folds", "2",
                    "--threads", threads, "--in", str(data)])
    assert code == 2
    assert f"--threads: must be >= 1, got {threads}" in capsys.readouterr().err


def test_bad_method_params_exit_1(tmp_path, capsys):
    train = tmp_path / "train.csv"
    assert run_cli(["gen-data", "--dataset", "ring", "--n", "30", "--seed", "0",
                    "--out", str(train)]) == 0
    code = run_cli(["synthesize", "--method", "knn-rex", "--k", "3", "--m", "9", "--l", "5",
                    "--in", str(train), "--out", str(tmp_path / "y.csv")])
    assert code == 1
    assert "BadParams" in capsys.readouterr().err


def test_km_on_repeated_values_exit_0(tmp_path):
    # Integer-coded data: some drawn KCSs have all members equal, so their
    # covariance is 0 and they must be rejected, not raise SingularSigma.
    X = np.random.default_rng(0).integers(0, 3, size=(40, 2))
    train = tmp_path / "train.csv"
    train.write_text("x1,x2\n" + "".join(f"{a},{b}\n" for a, b in X))
    out = tmp_path / "pop.csv"
    assert run_cli(["synthesize", "--method", "km", "--m", "3", "--L", "10", "--l", "50",
                    "--stall-limit", "200", "--in", str(train), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 51


def test_timing_partition(tmp_path):
    train = tmp_path / "train.csv"
    assert run_cli(["gen-data", "--dataset", "swissroll", "--n", "1500", "--seed", "0",
                    "--out", str(train)]) == 0
    out = tmp_path / "pop.csv"
    assert run_cli(["synthesize", "--method", "knn-rex", "--k", "30", "--m", "3",
                    "--l", "20000", "--seed", "1", "--in", str(train), "--out", str(out)]) == 0
    manifest = (tmp_path / "pop.csv.manifest.txt").read_text()
    phases = {}
    total = None
    for line in manifest.splitlines():
        if line.startswith("time_total:"):
            total = float(line.split(":")[1])
        elif line.startswith("time_"):
            phases[line.split(":")[0]] = float(line.split(":")[1])
    assert total is not None and phases
    assert abs(sum(phases.values()) - total) / total < 0.05


def test_threads_flag_matches_reference(tmp_path):
    data = tmp_path / "data.csv"
    assert run_cli(["gen-data", "--dataset", "ring", "--n", "60", "--seed", "8",
                    "--out", str(data)]) == 0
    args = ["icv", "--method", "fixed", "--h", "0.1", "--folds", "4", "--bins", "5",
            "--seed", "9", "--in", str(data)]
    one = tmp_path / "one.txt"
    four = tmp_path / "four.txt"
    assert run_cli(args + ["--threads", "1", "--out", str(one)]) == 0
    assert run_cli(args + ["--threads", "4", "--out", str(four)]) == 0
    # identical results; only the manifest echoes the differing thread cap
    results = lambda text: strip_timings(text).split("[manifest]")[0]
    assert results(one.read_text()) == results(four.read_text())


def test_gmm_gen_data(tmp_path):
    spec = tmp_path / "gmm.json"
    spec.write_text('{"weights": [1.0], "means": [[0.0, 5.0]], "covs": [[[1.0, 0.0], [0.0, 1.0]]]}')
    out = tmp_path / "gmm.csv"
    assert run_cli(["gen-data", "--dataset", "gmm", "--n", "200", "--seed", "3",
                    "--spec", str(spec), "--out", str(out)]) == 0
    from knnrex import read_points_csv

    points = read_points_csv(out)
    assert points.values.shape == (200, 2)
    assert abs(points.values[:, 1].mean() - 5.0) < 0.3


def test_malformed_gmm_spec_exit_1(tmp_path, capsys):
    spec = tmp_path / "gmm.json"
    spec.write_text('{"weights": [1.0]}')
    code = run_cli(["gen-data", "--dataset", "gmm", "--n", "10", "--seed", "0",
                    "--spec", str(spec), "--out", str(tmp_path / "out.csv")])
    assert code == 1
    assert "BadSpec" in capsys.readouterr().err

    spec.write_text("not json at all {")
    code = run_cli(["gen-data", "--dataset", "gmm", "--n", "10", "--seed", "0",
                    "--spec", str(spec), "--out", str(tmp_path / "out.csv")])
    assert code == 1

    for text in (
        b'{"weights": [0.5, 0.5], "means": [[1.0, 2.0], [3.0]], "covs": [[[1.0]]]}',  # ragged
        b'{"weights": [1.0], "means": [["a"]], "covs": [[[1.0]]]}',  # not a number
        b'{"weights": [NaN], "means": [[0.0]], "covs": [[[1.0]]]}',
        b'{"weights": [1.0], "means": [[1e999]], "covs": [[[1.0]]]}',  # infinite once parsed
        b'{"weights": [1.0], "means": [[0.0]], "covs": [[[1.0]]], "name": "\xff"}',  # not UTF-8
        b'{"weights": [0.5, 0.6], "means": [[0.0], [1.0]], "covs": [[[1.0]], [[1.0]]]}',  # sum 1.1
        b'{"weights": [1.0], "means": [[0.0, 0.0]], "covs": [[[1.0, 0.5], [0.0, 1.0]]]}',  # asymmetric
        b'{"weights": [1.0], "means": [[0.0, 0.0]], "covs": [[[1.0, 2.0], [2.0, 1.0]]]}',  # not PD
    ):
        spec.write_bytes(text)
        code = run_cli(["gen-data", "--dataset", "gmm", "--n", "10", "--seed", "0",
                        "--spec", str(spec), "--out", str(tmp_path / "out.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: BadSpec: {spec}: ")


def test_version():
    assert run_cli(["--version"]) == 0


def test_sweep_scores_the_copying_baseline_once(tmp_path, monkeypatch):
    # 2 grid points x 4 folds of method scores, plus 4 baseline scores shared
    # by both grid points (they have the same seed, so the same folds).
    calls = []
    hellinger = knnrex.evaluation.hellinger

    def counting(*args, **kwargs):
        calls.append(1)
        return hellinger(*args, **kwargs)

    data = str(tmp_path / "data.csv")
    assert run_cli(["gen-data", "--dataset", "ring", "--n", "60", "--seed", "2", "--out", data]) == 0
    monkeypatch.setattr(knnrex.evaluation, "hellinger", counting)
    argv = ["sweep", "--method", "knn-rex", "--k", "5,8", "--folds", "4", "--in", data]
    assert run_cli(argv + ["--out", str(tmp_path / "sweep.txt")]) == 0
    assert len(calls) == 12


# Malformed invocations: (argv, exit code, stderr fragment). {ring} is a 2-D
# and {swiss} a 3-D point set; {missing} does not exist, so a diagnostic about
# the flags shows they are checked before any input is read. {inf_hi} and
# {inf_lo} are marginals whose outer x1 bin, holding no ring point, runs to
# +inf or from -inf; {total_1e18} puts 10**18 points in one x1 bin, and
# {freq_1e20} asks 10**20 of one.
MALFORMED = [
    (["synthesize", "--method", "fixed", "--h", "nan", "--l", "5", "--in", "{ring}"], 1,
     "BadParams: bandwidth h must be finite and >= 0, got nan"),
    (["synthesize", "--method", "bmp", "--h", "inf", "--l", "5", "--in", "{ring}"], 1,
     "BadParams: bandwidth h must be finite and >= 0, got inf"),
    (["synthesize", "--method", "km", "--ridge", "1", "--l", "5", "--in", "{ring}"], 2,
     "unrecognized arguments: --ridge 1"),
    (["synthesize", "--method", "km", "--stall-limit", "0", "--l", "5", "--in", "{ring}"], 1,
     "BadParams: need stall_limit >= 1, got 0"),
    (["icv", "--method", "fixed", "--h", "nan", "--folds", "2", "--in", "{missing}"], 1,
     "BadParams: bandwidth h"),
    (["synthesize", "--method", "km", "--stall-limit", "-5", "--l", "5", "--in", "{ring}"], 1,
     "BadParams: need stall_limit >= 1, got -5"),
    (["sweep", "--method", "bmp", "--k", "3", "--h", "0.1,inf", "--folds", "2",
      "--in", "{missing}"], 1, "BadParams: bandwidth h"),
    (["evaluate", "--a", "{ring}", "--b", "{swiss}"], 1, "DimensionMismatch"),
    (["sweep", "--method", "knn-rex", "--k", "5,x", "--folds", "2", "--in", "{ring}"], 2,
     "--k: invalid comma-separated int list: '5,x'"),
    (["sweep", "--method", "knn-rex", "--k", ",", "--folds", "2", "--in", "{ring}"], 2,
     "--k: invalid comma-separated int list: ','"),
    (["validate-asymptotics", "--deltas", "0.2,abc", "--samples", "100"], 2,
     "--deltas: invalid comma-separated float list: '0.2,abc'"),
    (["validate-asymptotics", "--dim", "0", "--samples", "100"], 2, "--dim: must be >= 1, got 0"),
    (["validate-asymptotics", "--dim", "-1", "--samples", "100"], 2,
     "--dim: must be >= 1, got -1"),
    (["sweep", "--method", "knn-rex", "--k", "5", "--h", "7,8", "--folds", "2",
      "--in", "{missing}"], 1,
     "BadParams: sweep --method knn-rex grids over k, m only; --h takes one value, got 7.0,8.0"),
    (["sweep", "--method", "fixed", "--k", "5,6", "--folds", "2", "--in", "{missing}"], 1,
     "BadParams: sweep --method fixed grids over h only; --k takes one value, got 5,6"),
    (["synthesize-corrected", "--marginals", "{missing}", "--total", "0", "--in", "{ring}"], 2,
     "--total: must be >= 1, got 0"),
    (["validate-asymptotics", "--deltas", "nan", "--samples", "100"], 1,
     "BadParams: deltas must be finite and > 0, got [nan]"),
    (["validate-asymptotics", "--deltas", "0.2,inf", "--samples", "100"], 1,
     "BadParams: deltas must be finite and > 0, got [0.2, inf]"),
    (["synthesize-corrected", "--m", "1", "--marginals", "{inf_hi}", "--total", "10",
      "--in", "{ring}"], 1, "BadSpec: variable 'x1': bin edges must be finite"),
    (["synthesize-corrected", "--m", "1", "--marginals", "{inf_lo}", "--total", "10",
      "--in", "{ring}"], 1, "BadSpec: variable 'x1': bin edges must be finite"),
    (["gen-data", "--dataset", "ring", "--n", "5", "--spec", "{missing}"], 1,
     "BadParams: gen-data --dataset ring takes no --spec (gmm only)"),
    (["gen-data", "--dataset", "swissroll", "--n", "5", "--spec", "{missing}"], 1,
     "BadParams: gen-data --dataset swissroll takes no --spec (gmm only)"),
    (["validate-asymptotics", "--slope", "99", "--samples", "100"], 1,
     "BadParams: validate-asymptotics --density uniform takes no --slope (linear only)"),
    (["synthesize", "--method", "knn-rex", "--k", "2", "--m", "2", "--l", "5", "--in", "{huge}"], 1,
     "SingularCovariance: sample covariance overflows float64"),
    (["sweep", "--method", "bmp", "--k", "5,0", "--h", "0.1", "--folds", "2", "--in", "{missing}"], 1,
     "BadParams: k must be >= 1, got 0"),
    (["gen-data", "--dataset", "gmm", "--n", "5"], 1,
     "BadParams: gen-data --dataset gmm requires --spec"),
    # sizes beyond any address space: refused by the allocator, whatever the
    # overcommit mode; a streamed population, by the free space of the output's disk
    (["synthesize", "--method", "knn-rex", "--k", "5", "--l", "100000000000000000",
      "--in", "{ring}"], 1, "error: [Errno 28] No space left on device"),
    (["evaluate", "--a", "{ring}", "--b", "{ring}", "--bins", "100000000000000000"], 1,
     "error: Unable to allocate"),
    (["validate-asymptotics", "--density", "linear", "--slope", "inf", "--samples", "100"], 1,
     "BadParams: slope must be finite, got inf"),
    (["validate-asymptotics", "--density", "linear", "--slope", "nan", "--samples", "100"], 1,
     "BadParams: slope must be finite, got nan"),
    (["validate-asymptotics", "--density", "linear", "--slope", "1e200", "--samples", "100"], 1,
     "BadParams: gradient term (|grad f| / f)^2 at the study point overflows float64"),
    (["synthesize-corrected", "--k", "3", "--m", "9", "--marginals", "{missing}", "--total", "10",
      "--in", "{missing}"], 1, "BadParams: need 1 <= m <= k+1"),
    (["evaluate", "--a", "{missing}", "--b", "{missing}", "--bins", "0"], 2,
     "--bins: must be >= 1, got 0"),
    (["icv", "--method", "knn-rex", "--bins", "-3", "--in", "{missing}"], 2,
     "--bins: must be >= 1, got -3"),
    (["icv", "--method", "knn-rex", "--folds", "1", "--in", "{missing}"], 2,
     "--folds: must be >= 2, got 1"),
    (["sweep", "--method", "knn-rex", "--k", "5", "--bins", "0", "--in", "{missing}"], 2,
     "--bins: must be >= 1, got 0"),
    (["sweep", "--method", "knn-rex", "--k", "5", "--folds", "0", "--in", "{missing}"], 2,
     "--folds: must be >= 2, got 0"),
    # negative seeds, in every command that takes one, before any input is read
    (["gen-data", "--dataset", "ring", "--n", "5", "--seed", "-1"], 2, "--seed: must be >= 0, got -1"),
    (["synthesize", "--method", "knn-rex", "--l", "5", "--seed", "-1", "--in", "{missing}"], 1,
     "BadParams: seed must be >= 0, got -1"),
    (["synthesize-corrected", "--seed", "-1", "--marginals", "{missing}", "--total", "10",
      "--in", "{missing}"], 1, "BadParams: seed must be >= 0, got -1"),
    (["icv", "--method", "fixed", "--seed", "-1", "--folds", "2", "--in", "{missing}"], 1,
     "BadParams: seed must be >= 0, got -1"),
    (["sweep", "--method", "fixed", "--seed", "-1", "--folds", "2", "--in", "{missing}"], 1,
     "BadParams: seed must be >= 0, got -1"),
    (["validate-asymptotics", "--seed", "-1", "--samples", "100"], 2, "--seed: must be >= 0, got -1"),
    # sizes past what numpy can address: a usage error above 2**63 - 1, and
    # below it the one-line error of a size no memory can hold
    (["synthesize", "--method", "knn-rex", "--k", "5", "--l", "1000000000000000000",
      "--in", "{ring}"], 1, "error: [Errno 28] No space left on device"),
    (["synthesize", "--method", "knn-rex", "--l", "10000000000000000000", "--in", "{missing}"], 2,
     "--l: must be <= 9223372036854775807, got 10000000000000000000"),
    (["synthesize-corrected", "--marginals", "{total_1e18}", "--total", "1000000000000000000",
      "--in", "{ring}"], 1, "error: Unable to allocate"),
    (["synthesize-corrected", "--marginals", "{missing}", "--total", "10000000000000000000",
      "--in", "{missing}"], 2, "--total: must be <= 9223372036854775807"),
    (["synthesize-corrected", "--marginals", "{freq_1e20}", "--total", "10", "--in", "{ring}"], 1,
     "BadSpec: bin frequencies must fit in int64"),
    (["gen-data", "--dataset", "ring", "--n", "10000000000000000000"], 2,
     "--n: must be <= 9223372036854775807"),
    (["evaluate", "--a", "{missing}", "--b", "{missing}", "--bins", "100000000000000000000"], 2,
     "--bins: must be <= 9223372036854775807"),
    (["validate-asymptotics", "--dim", "100000000000000000000"], 2,
     "--dim: must be <= 9223372036854775807"),
    (["validate-asymptotics", "--samples", "10000000000000000000"], 2,
     "--samples: must be <= 9223372036854775807"),
    # sizes within 2**63 - 1 that no array numpy can address holds, refused
    # before anything is allocated
    (["evaluate", "--a", "{ring}", "--b", "{ring}", "--bins", "4611686018427387904"], 1,
     "error: Unable to allocate an array with shape (4611686018427387905,)"),
    (["evaluate", "--a", "{ring}", "--b", "{ring}", "--bins", "9223372036854775807"], 1,
     "error: Unable to allocate an array with shape (9223372036854775808,)"),
    (["icv", "--method", "knn-rex", "--k", "5", "--folds", "2", "--bins", "9223372036854775807",
      "--in", "{ring}"], 1, "error: Unable to allocate an array with shape (9223372036854775808,)"),
    (["gen-data", "--dataset", "swissroll", "--n", "9223372036854775807"], 1,
     "error: Unable to allocate an array with shape (9223372036854775807, 3)"),
    (["validate-asymptotics", "--dim", "4611686018427387904"], 1,
     "error: Unable to allocate an array with shape (4611686018427387904,)"),
    (["synthesize", "--method", "km", "--m", "3", "--L", "4611686018427387904", "--l", "5",
      "--in", "{ring}"], 1, "error: Unable to allocate an array with shape (40, 4611686018427387904)"),
]


@pytest.fixture(scope="module")
def point_sets(tmp_path_factory):
    root = tmp_path_factory.mktemp("points")
    paths = {"ring": root / "ring.csv", "swiss": root / "swiss.csv", "missing": root / "no.csv",
             "inf_hi": root / "inf_hi.csv", "inf_lo": root / "inf_lo.csv", "huge": root / "huge.csv",
             "total_1e18": root / "total_1e18.csv", "freq_1e20": root / "freq_1e20.csv"}
    for dataset, name in (("ring", "ring"), ("swissroll", "swiss")):
        assert run_cli(["gen-data", "--dataset", dataset, "--n", "40", "--seed", "0",
                        "--out", str(paths[name])]) == 0
    paths["inf_hi"].write_text("variable,lo,hi,freq\nx1,-5,5,0\nx1,5,inf,10\n")
    paths["inf_lo"].write_text("variable,lo,hi,freq\nx1,-inf,-5,10\nx1,-5,5,0\n")
    paths["total_1e18"].write_text("variable,lo,hi,freq\nx1,-5,5,1000000000000000000\n")
    paths["freq_1e20"].write_text("variable,lo,hi,freq\nx1,-5,0,100000000000000000000\nx1,0,5,1\n")
    # finite values whose covariance overflows float64
    paths["huge"].write_text("x1,x2\n1e200,-2e200\n-3e200,1e200\n2e200,3e200\n-1e200,-1e200\n")
    return paths


@pytest.mark.parametrize("argv, code, message", MALFORMED)
def test_malformed_invocations_get_a_diagnostic(tmp_path, point_sets, argv, code, message):
    out = tmp_path / "out.txt"
    argv = [arg.format(**point_sets) for arg in argv] + ["--out", str(out)]
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(knnrex.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-m", "knnrex.cli", *argv],
                         capture_output=True, text=True, env=env)
    assert run.returncode == code
    assert "Traceback" not in run.stderr and "Warning" not in run.stderr
    assert message in run.stderr
    assert not out.exists() and not (tmp_path / "out.txt.manifest.txt").exists()


@pytest.mark.parametrize("command", ["synthesize", "icv", "sweep"])
def test_bare_parse_resolves_to_config_defaults(command):
    argv = [command, "--method", "knn-rex", "--in", "x.csv"]
    if command == "synthesize":
        argv += ["--l", "1", "--out", "y.csv"]
    args = build_parser().parse_args(argv)
    defaults = EstimatorConfig("knn_rex")
    for field in fields(EstimatorConfig)[1:]:
        expected = getattr(defaults, field.name)
        if command == "sweep" and field.name in ("k", "m", "h", "L"):
            expected = [expected]
        assert getattr(args, field.name) == expected
    if command != "sweep":
        assert _resolve_config(args) == defaults


def test_sweep_runs_and_echoes_an_unswept_flag(tmp_path):
    data = str(tmp_path / "data.csv")
    assert run_cli(["gen-data", "--dataset", "ring", "--n", "40", "--seed", "2", "--out", data]) == 0
    out = tmp_path / "sweep.txt"
    assert run_cli(["sweep", "--method", "knn-rex", "--k", "5", "--m", "2,3", "--h", "7",
                    "--folds", "2", "--bins", "4", "--in", data, "--out", str(out)]) == 0
    table, manifest = out.read_text().split("[manifest]")
    rows = table.splitlines()[2:]
    assert [row.split()[1:5] for row in rows] == [["5", "2", "7.0", "10"], ["5", "3", "7.0", "10"]]
    assert "\nh: 7.0\n" in manifest and "\nk: 5\n" in manifest and "\nm: 2,3\n" in manifest


def test_golden_regeneration_refuses_unknown_cases():
    script = pathlib.Path(__file__).parent / "golden_cases.py"
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(knnrex.__file__).parents[1]))
    run = subprocess.run([sys.executable, str(script), "sweep", "no_such_case"],
                         capture_output=True, text=True, env=env)
    assert run.returncode != 0
    assert "unknown case(s) no_such_case" in run.stderr


@pytest.mark.parametrize("command", [
    ["gen-data", "--dataset", "ring", "--n", "5"],
    ["validate-asymptotics", "--deltas", "0.4", "--samples", "200"],
])
def test_seeds_past_int64_are_accepted(tmp_path, command):
    assert run_cli([*command, "--seed", str(10**23), "--out", str(tmp_path / "out.txt")]) == 0


def test_linear_slope_defaults_to_five(tmp_path):
    argv = ["validate-asymptotics", "--density", "linear", "--deltas", "0.4",
            "--samples", "2000", "--seed", "3", "--out"]
    assert run_cli(argv + [str(tmp_path / "default.txt")]) == 0
    assert run_cli(argv + [str(tmp_path / "five.txt"), "--slope", "5"]) == 0
    default, five = ((tmp_path / name).read_text().split("[manifest]")
                     for name in ("default.txt", "five.txt"))
    assert default[0] == five[0] and "\nslope: 5.0\n" in default[0]
    assert "\nslope:" not in default[1] and "\nslope: 5.0\n" in five[1]


def test_uniform_report_has_no_slope(tmp_path):
    out = tmp_path / "asym.txt"
    assert run_cli(["validate-asymptotics", "--deltas", "0.4", "--samples", "2000",
                    "--out", str(out)]) == 0
    assert "\nslope:" not in out.read_text()
