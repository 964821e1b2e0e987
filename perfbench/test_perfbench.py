"""Smoke tests of the benchmark itself: every workload at reduced size, with
tracing off and on, through the same command the benchmark is run with.

    python3 -m pytest perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# The wrapped functions each workload calls, as its BENCHMARK.json entry says;
# every other wrapped function must not be called.
EXERCISED = {
    "population": {"dataio.read", "dataio.write", "whiten.fit", "whiten.apply", "whiten.invert", "knn.build"},
    "icv_spiral": {"dataio.read", "whiten.fit", "whiten.apply", "whiten.invert", "knn.build",
                   "evaluation.hellinger", "evaluation.binning"},
    "corrected": {"dataio.read", "dataio.write", "whiten.fit", "whiten.apply", "whiten.invert", "knn.build",
                  "knn.query", "kernels.rex_sample"},
    "evaluate": {"dataio.read", "evaluation.hellinger", "evaluation.binning"},
}


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], "\n".join(line for line in lines if "FAILED CHECK" in line)
    assert result["attempted"] >= 1 and result["failed"] == 0

    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, float) and math.isfinite(v) for v in values.values())
    # the table before the JSON line names every metric with its unit
    for m in declared:
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line.split() for line in lines), m["name"]
    if trace:
        layers = ("dataio", "whiten", "knn", "kernels", "estimators", "evaluation", "cli")
        assert sum(values[f"{layer}.self_s"] for layer in layers) == pytest.approx(values["trace.wall_s"], rel=1e-9)
        called = {name[: -len("_calls")] for name, v in values.items() if name.endswith("_calls") and v > 0}
        assert called == EXERCISED[workload]
        assert values["cli.self_s"] > 0
    else:
        assert all(values[name] > 0 for name in values)


def test_fails_without_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, the run
    exits non-zero without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
