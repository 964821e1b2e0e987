"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of each knnrex layer from outside the
program: every module attribute under ``knnrex`` that is bound to a wrapped
function is replaced while the tracer is installed, so calls through any
import path (``knnrex.cli.build_knn``, ``knnrex.estimators.build_knn``, ...)
are recorded. Each call becomes one span (name, start, end, parent) kept in
memory; per-layer self times and counters are derived from the spans when the
run ends. Spans assume one calling thread, which the benchmark guarantees by
running ``icv`` with ``--threads 1``.
"""

import functools
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from knnrex.errors import KnnRexError

ROOT_SPAN = "cli.main"

# Layers in report order; the span name's prefix before the first dot is
# its layer.
LAYERS = ("dataio", "whiten", "knn", "kernels", "estimators", "evaluation", "cli")


def _read_rows(counters, args, result):
    freqs = getattr(result, "freqs", None)
    counters["dataio.read_rows"] += result.n if freqs is None else sum(f.size for f in freqs)


def _write_rows(counters, args, result):
    path, points = args
    counters["dataio.write_rows"] += points.values.shape[0]
    counters["dataio.write_bytes"] += os.path.getsize(path)


def _build_work(counters, args, result):
    n, d = args[0].shape
    counters["knn.dist_evals"] += n * n
    # the (n, n, d) difference tensor plus the (n, n) squared distances
    counters["knn.bytes_computed"] += n * n * (d + 1) * 8


def _synth_points(counters, args, result):
    counters["estimators.synth_points"] += result.shape[0]


def _corrected_points(counters, args, result):
    counters["estimators.corrected_points"] += result.shape[0]


def _hellinger_rows(counters, args, result):
    counters["evaluation.hellinger_rows"] += len(args[0]) + len(args[1])


# (module, attribute, span name, counter hook). An attribute written as
# "Class.method" is wrapped on the class.
TARGETS = (
    ("knnrex.dataio", "read_points_csv", "dataio.read", _read_rows),
    ("knnrex.dataio", "read_marginals_csv", "dataio.read", _read_rows),
    ("knnrex.dataio", "write_points_csv", "dataio.write", _write_rows),
    ("knnrex.whiten", "whiten_fit", "whiten.fit", None),
    ("knnrex.whiten", "whiten_apply", "whiten.apply", None),
    ("knnrex.whiten", "whiten_invert", "whiten.invert", None),
    ("knnrex.knn", "build_knn", "knn.build", _build_work),
    ("knnrex.knn", "query_neighbors", "knn.query", None),
    ("knnrex.kernels", "rex_sample", "kernels.rex_sample", None),
    ("knnrex.estimators", "synth_knn_rex", "estimators.synth", _synth_points),
    ("knnrex.estimators", "synth_bias_corrected", "estimators.corrected", _corrected_points),
    ("knnrex.evaluation", "make_binning", "evaluation.binning", None),
    ("knnrex.evaluation", "BinningSpec.assign", "evaluation.binning", None),
    ("knnrex.evaluation", "hellinger", "evaluation.hellinger", _hellinger_rows),
    ("knnrex.evaluation", "icv_run", "evaluation.icv", None),
)


class Tracer:
    """Records spans while installed; summarises them per traced command."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counters = Counter()
        self.errors = Counter()
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index):
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self):
        """Span around one whole command; its self time is ``cli.self_s``."""
        index = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, fn, name, hook):
        layer = name.split(".", 1)[0]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except KnnRexError:
                tracer.errors[layer] += 1
                raise
            finally:
                tracer._close(index)
            if hook is not None:
                hook(tracer.counters, args, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        """Replace every knnrex binding of each target with its wrapper."""
        modules = [m for key, m in list(sys.modules.items()) if key == "knnrex" or key.startswith("knnrex.")]
        for module_name, attr, name, hook in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, original, self._wrap(original, name, hook))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, holder, key, original, wrapper):
        setattr(holder, key, wrapper)
        self._patches.append((holder, key, original))

    def uninstall(self):
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    # -- summary -----------------------------------------------------------

    def self_times(self):
        """Per span name: (total self seconds, calls)."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        seconds = defaultdict(float)
        calls = Counter()
        for i, name in enumerate(self.names):
            seconds[name] += self.ends[i] - self.starts[i] - child[i]
            calls[name] += 1
        return seconds, calls

    def root_durations(self):
        return [
            self.ends[i] - self.starts[i]
            for i, name in enumerate(self.names)
            if name == ROOT_SPAN
        ]

    def layer_metrics(self):
        """Per-layer metrics, each per traced command (totals / commands)."""
        seconds, calls = self.self_times()
        commands = len(self.root_durations())
        if commands == 0:
            raise ValueError("no traced command was recorded")
        c = self.counters

        def per(value):
            return value / commands

        def rate(amount, secs):
            return amount / secs if secs > 0 else 0.0

        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = per(
                sum(s for name, s in seconds.items() if name.split(".", 1)[0] == layer)
            )
        out.update({
            "dataio.read_s": per(seconds["dataio.read"]),
            "dataio.read_calls": per(calls["dataio.read"]),
            "dataio.read_rows_per_s": rate(c["dataio.read_rows"], seconds["dataio.read"]),
            "dataio.write_s": per(seconds["dataio.write"]),
            "dataio.write_calls": per(calls["dataio.write"]),
            "dataio.write_rows_per_s": rate(c["dataio.write_rows"], seconds["dataio.write"]),
            "dataio.write_bytes": per(c["dataio.write_bytes"]),
            "whiten.fit_s": per(seconds["whiten.fit"]),
            "whiten.fit_calls": per(calls["whiten.fit"]),
            "whiten.apply_s": per(seconds["whiten.apply"]),
            "whiten.apply_calls": per(calls["whiten.apply"]),
            "whiten.invert_s": per(seconds["whiten.invert"]),
            "whiten.invert_calls": per(calls["whiten.invert"]),
            "knn.build_s": per(seconds["knn.build"]),
            "knn.build_calls": per(calls["knn.build"]),
            "knn.dist_evals": per(c["knn.dist_evals"]),
            "knn.dist_evals_per_s": rate(c["knn.dist_evals"], seconds["knn.build"]),
            "knn.bytes_computed": per(c["knn.bytes_computed"]),
            "knn.query_s": per(seconds["knn.query"]),
            "knn.query_calls": per(calls["knn.query"]),
            "kernels.rex_sample_s": per(seconds["kernels.rex_sample"]),
            "kernels.rex_sample_calls": per(calls["kernels.rex_sample"]),
            "estimators.synth_self_s": per(seconds["estimators.synth"]),
            "estimators.synth_points_per_s": rate(c["estimators.synth_points"], seconds["estimators.synth"]),
            "estimators.corrected_self_s": per(seconds["estimators.corrected"]),
            # points kept / proposals; every proposal is one rex_sample call
            "estimators.corrected_yield": rate(c["estimators.corrected_points"], calls["kernels.rex_sample"]),
            "evaluation.hellinger_s": per(seconds["evaluation.hellinger"]),
            "evaluation.hellinger_calls": per(calls["evaluation.hellinger"]),
            "evaluation.hellinger_rows_per_s": rate(c["evaluation.hellinger_rows"], seconds["evaluation.hellinger"]),
            "evaluation.binning_s": per(seconds["evaluation.binning"]),
            "evaluation.binning_calls": per(calls["evaluation.binning"]),
            "evaluation.icv_self_s": per(seconds["evaluation.icv"]),
            "cli.self_s": per(seconds[ROOT_SPAN]),
            "trace.spans_per_command": per(len(self.names)),
        })
        for layer in LAYERS[:-1]:
            out[f"{layer}.errors"] = per(self.errors[layer])
        return out

    def dump(self):
        """Spans as columns, times in integer nanoseconds from the first span."""
        origin = self.starts[0] if self.starts else 0.0
        names = sorted(set(self.names))
        ids = {name: i for i, name in enumerate(names)}
        return {
            "names": names,
            "name": [ids[n] for n in self.names],
            "start_ns": [round((t - origin) * 1e9) for t in self.starts],
            "end_ns": [round((t - origin) * 1e9) for t in self.ends],
            "parent": self.parents,
        }
