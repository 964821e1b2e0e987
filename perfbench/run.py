"""knnrex benchmark: one workload per invocation, closed loop, in-process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload population --seed 1 --seconds 25 --trace 0

One caller runs the workload's knnrex command back to back through the
public ``knnrex.cli.main(argv)`` entry point, from this single process, until
the next command would end after ``--seconds`` (untraced: at least three
commands, and at least one per input set). Every output is checked. The run prints a table
of metrics with their units and sample counts, then, as its last line, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json with tracing
off; ``wall_s`` is the mean command time of the run. ``--trace 1`` reports
its per-layer metrics: each input is run once untraced and then once traced,
and the traced command records spans around the public functions of each
layer (see spans.py); ``trace.overhead_s`` is the traced command time minus
the untraced one. ``--smoke`` runs reduced
sizes.

Set-up (a cold ``import knnrex.cli`` in a child process, writing the inputs,
and a warm-up command at smoke size) is repeated three times and its median
reported as ``setup_s``. BLAS threads are capped at the number of usable
cores. The environment, every command time, and the spans of a traced run
are written to ``perfbench/out/``.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes, for the benchmark's tests")
    return parser.parse_args(argv)


def cap_blas_threads():
    """Cap BLAS threads at the usable cores; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        current = os.environ.get(var, "")
        limit = int(current) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(min(limit, nproc))


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "knnrex" / "cli.py").is_file():
        print(f"error: knnrex sources not found under {src}", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path.insert(0, str(src))
    import bench

    return bench.run(args, ROOT, BLAS_VARS)


if __name__ == "__main__":
    sys.exit(main())
