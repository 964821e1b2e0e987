"""One benchmark run: set-up, the closed loop, output checks, metrics.

Started by run.py, which caps BLAS threads and puts knnrex's sources on the
import path before this module (and numpy) is imported.
"""

import gc
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

from knnrex.cli import main as cli_main
from spans import LAYERS, Tracer
from workloads import SIZES, WARM, WORKLOADS

MIN_COMMANDS = 3
SETUP_REPS = 3


def environment(blas_vars):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in blas_vars},
    }


def call_cli(argv):
    """Exit code of one in-process command; None if it raised unexpectedly."""
    try:
        return cli_main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code
    except Exception:  # a crash is a failed operation, not a failed benchmark
        traceback.print_exc()
        return None


def variant_tags(workload):
    return [f"v{i}-" for i in range(workload.variants)]


def setup_once(workload, src):
    """One set-up: a cold import of knnrex in a child process, the inputs, and
    a warm-up command at smoke size. Returns (seconds, problems)."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import knnrex.cli"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        check=True,
        timeout=120,
    )
    for tag in variant_tags(workload):
        workload.setup(workload.sizes, tag)
    workload.setup(SIZES["smoke"], WARM)
    code = call_cli(workload.argv(SIZES["smoke"], WARM))
    seconds = time.perf_counter() - start
    return seconds, [] if code == 0 else [f"warm-up command exited with {code}"]


def run_commands(workload, seconds, tracer):
    """Closed loop over the input variants, each run at least once, until the
    next round would end after ``seconds``. A round is one command; with a
    tracer it is one untraced and one traced command on the same input, so
    the two differ only by the tracing."""
    tags = variant_tags(workload)
    modes = (False, True) if tracer is not None else (False,)
    least = len(modes) if tracer is not None else max(MIN_COMMANDS, len(tags))
    commands = []
    start = time.perf_counter()
    for round_index in itertools.count():
        tag = tags[round_index % len(tags)]
        round_start = time.perf_counter()
        for traced in modes:
            commands.append(run_one(workload, tag, tracer if traced else None))
        now = time.perf_counter()
        if len(commands) >= least and now - start + (now - round_start) > seconds:
            return commands


def run_one(workload, tag, tracer):
    argv = workload.argv(workload.sizes, tag)
    gc.collect()  # every command starts from the same collector state
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        if tracer is not None:
            with tracer.root():
                code = call_cli(argv)
        else:
            code = call_cli(argv)
    finally:
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    command = {"tag": tag, "seconds": elapsed, "traced": tracer is not None, "exit": code,
               "samples": [], "digest": None}
    if code == 0:
        command["samples"] = workload.samples(tag, elapsed)
        command["digest"] = workload.output_digest(tag)
    return command


def check_outputs(workload, commands):
    """Check each variant's output and mark failed commands.

    A command fails when it exits non-zero, when its output differs from the
    first output of the same variant, or when that output fails a check.
    Returns (problems, failed operations, quality_hellinger).
    """
    problems, qualities, bad_tags = [], [], set()
    reference = {}
    for c in commands:
        if c["exit"] == 0:
            reference.setdefault(c["tag"], c["digest"])
    for tag in reference:
        try:
            found, quality = workload.check(tag)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            found, quality = [f"output could not be checked: {exc!r}"], float("nan")
        problems += [f"{tag}{p}" for p in found]
        qualities.append(quality)
        if found:
            bad_tags.add(tag)
    bad = [c for c in commands
           if c["exit"] != 0 or c["digest"] != reference.get(c["tag"]) or c["tag"] in bad_tags]
    if bad:
        problems.append(f"{len(bad)} of {len(commands)} commands failed or changed their output")
    quality = statistics.fmean(qualities) if qualities else float("nan")
    if not quality <= workload.ceiling():
        problems.append(f"quality_hellinger {quality!r} is not under the ceiling {workload.ceiling()}")
        bad = commands
    return problems, workload.operations() * len(bad), quality


def end_to_end(workload, commands, setups, peak_rss_mb, quality):
    """Metrics as {name: (value, samples)} plus table-only extras."""
    walls = [c["seconds"] for c in commands]
    samples = [s for c in commands for s in c["samples"]]
    # The mean, not the median: the host alternates for seconds at a time
    # between a fast and a slow phase (interpreted code runs up to twice as
    # long in the slow one), so command times are bimodal and their median
    # jumps between the phases, while the mean follows the share of the run
    # spent in each.
    wall = statistics.fmean(walls)
    metrics = {
        "wall_s": (wall, len(walls)),
        "setup_s": (statistics.median(setups), len(setups)),
        "peak_rss_mb": (peak_rss_mb, 1),
        "quality_hellinger": (quality, workload.variants),
    }
    # Not gated in BENCHMARK.json: points / wall_s restates wall_s, and
    # op_p50_s is the median command time on the three workloads whose
    # operation is one command.
    extra = {"points_per_s": (workload.points() / wall, "1/s", len(walls)),
             "op_p50_s": (statistics.median(samples) if samples else wall, "s", len(samples))}
    if len(samples) >= 100:
        # nearest-rank p90: at least ten samples lie beyond it
        extra["op_p90_s"] = (sorted(samples)[-(-len(samples) * 9 // 10) - 1], "s", len(samples))
    return metrics, extra


def per_layer(tracer, commands):
    """Per-layer metrics per traced command, as {name: (value, samples)},
    and problems if the layer self times do not add up to the traced wall."""
    traced = tracer.root_durations()
    metrics = tracer.layer_metrics()
    metrics["trace.wall_s"] = statistics.fmean(traced)
    metrics["trace.untraced_wall_s"] = statistics.fmean(c["seconds"] for c in commands if not c["traced"])
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    layer_sum = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    problems = []
    if abs(layer_sum - metrics["trace.wall_s"]) > 1e-9 * max(1.0, layer_sum):
        problems.append(f"layer self times sum to {layer_sum!r}, traced wall is {metrics['trace.wall_s']!r}")
    return {name: (value, len(traced)) for name, value in metrics.items()}, problems


def run(args, root, blas_vars):
    with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    size_name = "smoke" if args.smoke else "full"
    seeds = {"data": args.seed, "knnrex": int(np.random.SeedSequence([args.seed, 1]).generate_state(1)[0])}
    out = root / "perfbench" / "out"
    workdir = out / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](workdir, seeds, SIZES[size_name])
    tracer = Tracer() if args.trace else None
    problems = []
    try:
        setups = []
        for _ in range(SETUP_REPS):
            seconds, found = setup_once(workload, root / "src")
            setups.append(seconds)
            problems += found
        commands = run_commands(workload, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        found, failed, quality = check_outputs(workload, commands)
        problems += found
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = workload.operations() * len(commands)
    extra = {}
    if tracer is None:
        metrics, extra = end_to_end(workload, commands, setups, peak_rss_mb, quality)
    else:
        metrics, found = per_layer(tracer, commands)
        problems += found
    if problems:
        failed = attempted if failed == 0 else failed
    extra["fail_ratio"] = (failed / attempted, "ratio", attempted)
    mismatch = {m["name"] for m in declared} ^ set(metrics)
    if mismatch:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(mismatch)}")

    env = environment(blas_vars)
    header = {"workload": args.workload, "seed": args.seed, "seeds": seeds, "sizes": size_name,
              "seconds": args.seconds, "trace": args.trace, "commands": len(commands),
              "argv": ["knnrex"] + workload.argv(workload.sizes, variant_tags(workload)[0])}
    rows = [(name, value, units[name], n) for name, (value, n) in metrics.items()]
    rows += [(name, value, unit, n) for name, (value, unit, n) in extra.items()]
    print("# " + json.dumps(header))
    print("# env " + json.dumps(env))
    print(f"# {workload.points()} {workload.points_label} per command, {workload.variants} input set(s); "
          "closed loop, one caller")
    print(f"# {'metric':<34} {'value':>24} {'unit':<8} samples")
    for name, value, unit, n in rows:
        print(f"  {name:<34} {value!r:>24} {unit:<8} {n}")
    for problem in problems:
        print(f"# FAILED CHECK: {problem}")

    record = dict(header, env=env, problems=problems, setup_seconds=setups,
                  metrics={name: {"value": v, "unit": u, "samples": n} for name, v, u, n in rows},
                  commands=[{k: c[k] for k in ("tag", "seconds", "traced", "exit", "samples")} for c in commands])
    if tracer is not None:
        record["spans"] = tracer.dump()
    suffix = "-smoke" if args.smoke else ""
    with open(out / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json", "w",
              encoding="utf-8") as handle:
        json.dump(record, handle)

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _) in metrics.items()},
    }))
    return 0
