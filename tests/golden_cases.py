"""Shared definitions of the golden-file CLI cases.

Each case prepares its inputs inside a working directory (via more CLI
calls, so everything is seed-deterministic), runs one artifact-writing
command, and lists the artifacts to compare. Timing lines (``time_`` keys)
are stripped before comparison; everything else must match byte for byte.
Regenerate the committed files with ``python3 tests/golden_cases.py [CASE ...]``:
only the named cases, or all of them when none is named.
"""

import os
import pathlib
import shutil
import sys

from knnrex.cli import main as cli_main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _gen(dataset, n, seed, out):
    return ["gen-data", "--dataset", dataset, "--n", str(n), "--seed", str(seed), "--out", out]


def _marginals_file(path):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            "variable,lo,hi,freq\n"
            "x2,0,7,30\n"
            "x2,7,14,40\n"
            "x2,14,21,30\n"
        )


def _gmm_spec_file(path):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            '{"weights": [0.5, 0.5], "means": [[0.0, 0.0], [5.0, 5.0]],'
            ' "covs": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]]}'
        )


CASES = {
    "gen_swiss": {
        "setup": [],
        "command": _gen("swissroll", 8, 3, "swiss8.csv"),
        "artifacts": ["swiss8.csv", "swiss8.csv.manifest.txt"],
    },
    "gen_gmm": {
        "setup": [("gmm_spec", "mix.json")],
        "command": [
            "gen-data", "--dataset", "gmm", "--n", "7", "--seed", "4",
            "--spec", "mix.json", "--out", "mix.csv",
        ],
        "artifacts": ["mix.csv", "mix.csv.manifest.txt"],
    },
    "gen_ring": {
        "setup": [],
        "command": _gen("ring", 6, 2, "ring6.csv"),
        "artifacts": ["ring6.csv", "ring6.csv.manifest.txt"],
    },
    "synthesize_knn_rex": {
        "setup": [_gen("swissroll", 30, 1, "train.csv")],
        "command": [
            "synthesize", "--method", "knn-rex", "--k", "5", "--m", "3",
            "--l", "12", "--seed", "7", "--in", "train.csv", "--out", "pop.csv",
        ],
        "artifacts": ["pop.csv", "pop.csv.manifest.txt"],
    },
    "synthesize_bmp": {
        "setup": [_gen("ring", 25, 4, "train.csv")],
        "command": [
            "synthesize", "--method", "bmp", "--k", "4", "--h", "0.3",
            "--l", "10", "--seed", "2", "--in", "train.csv", "--out", "pop.csv",
        ],
        "artifacts": ["pop.csv", "pop.csv.manifest.txt"],
    },
    "synthesize_corrected": {
        "setup": [_gen("swissroll", 40, 5, "train.csv"), ("marginals", "marg.csv")],
        "command": [
            "synthesize-corrected", "--k", "6", "--m", "3", "--seed", "11",
            "--marginals", "marg.csv", "--total", "100",
            "--in", "train.csv", "--out", "corrected.csv",
        ],
        "artifacts": ["corrected.csv", "corrected.csv.manifest.txt"],
    },
    "evaluate": {
        "setup": [_gen("ring", 50, 6, "a.csv"), _gen("ring", 50, 7, "b.csv")],
        "command": ["evaluate", "--a", "a.csv", "--b", "b.csv", "--bins", "4", "--out", "eval.txt"],
        "artifacts": ["eval.txt"],
    },
    "icv": {
        "setup": [_gen("ring", 60, 8, "data.csv")],
        "command": [
            "icv", "--method", "fixed", "--h", "0.1", "--folds", "4", "--bins", "5",
            "--seed", "9", "--in", "data.csv", "--out", "icv.txt",
        ],
        "artifacts": ["icv.txt"],
    },
    "sweep": {
        "setup": [_gen("ring", 45, 9, "data.csv")],
        "command": [
            "sweep", "--method", "knn-rex", "--k", "4,6", "--m", "2,3",
            "--folds", "3", "--bins", "4", "--seed", "1", "--in", "data.csv", "--out", "sweep.txt",
        ],
        "artifacts": ["sweep.txt"],
    },
    "validate_asymptotics": {
        "setup": [],
        "command": [
            "validate-asymptotics", "--density", "linear", "--dim", "2", "--slope", "5",
            "--deltas", "0.4,0.2", "--samples", "20000", "--seed", "5", "--out", "asym.txt",
        ],
        "artifacts": ["asym.txt"],
    },
}


def strip_timings(text):
    kept = [line for line in text.splitlines() if not line.startswith("time_")]
    return "\n".join(kept) + "\n"


def run_case(case, workdir):
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for step in case["setup"]:
            if isinstance(step, tuple) and step[0] == "marginals":
                _marginals_file(step[1])
            elif isinstance(step, tuple) and step[0] == "gmm_spec":
                _gmm_spec_file(step[1])
            else:
                status = cli_main(step)
                assert status == 0, f"setup failed: {step}"
        status = cli_main(case["command"])
        assert status == 0, f"command failed: {case['command']}"
    finally:
        os.chdir(cwd)


def regenerate(names):
    import tempfile

    unknown = [name for name in names if name not in CASES]
    if unknown:
        raise SystemExit(f"unknown case(s) {', '.join(unknown)}; known: {', '.join(CASES)}")
    for name in names or CASES:
        case = CASES[name]
        with tempfile.TemporaryDirectory() as workdir:
            run_case(case, workdir)
            target = GOLDEN_DIR / name
            target.mkdir(parents=True, exist_ok=True)
            for artifact in case["artifacts"]:
                shutil.copy(pathlib.Path(workdir) / artifact, target / artifact)
        print(f"regenerated {name}")


if __name__ == "__main__":
    regenerate(sys.argv[1:])
