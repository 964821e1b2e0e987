"""Command-line surface: data generation, synthesis, evaluation, sweeps.

Every artifact-writing subcommand drops a ``<out>.manifest.txt`` sidecar,
and text reports end in the same manifest block. The manifest echoes the
subcommand and every flag that holds a value, then the command's
deterministic ``count_`` lines, if any, then per-phase wall-clock timings.
Timing lines carry a ``time_`` key prefix; everything else in a report is
byte-reproducible given the same inputs and seed.
"""

import argparse
import itertools
import json
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from .asymptotics import asymptotics_report, linear_model, uniform_model
from .datagen import GmmSpec, gen_gmm, gen_ring, gen_swiss_roll
from .dataio import PointSet, default_columns, read_marginals_csv, read_points_csv, write_points_csv
from .errors import BadParams, BadSpec, KnnRexError, StallLimit, check_addressable
from .estimators import EstimatorConfig, synth_bias_corrected, synthesis_stream
from .evaluation import Phases, icv_run, icv_sweep, union_hellinger

METHOD_FLAGS = {
    "knn-rex": "knn_rex",
    "fixed": "fixed_gaussian",
    "bmp": "bmp",
    "km": "km_rex",
}

# The EstimatorConfig fields other than the method; the synthesis commands
# take each as a flag typed and defaulted by the field.
PARAMS = {f.name: f for f in fields(EstimatorConfig) if f.name != "method"}

# Per method, the fields a sweep grids over; sweep takes these as comma lists.
SWEPT = {
    "knn_rex": ("k", "m"),
    "fixed_gaussian": ("h",),
    "bmp": ("k", "h"),
    "km_rex": ("L", "m"),
}
GRID_FLAGS = [name for name in PARAMS if any(name in names for names in SWEPT.values())]

# validate-asymptotics --density linear without --slope.
DEFAULT_SLOPE = 5.0

# The largest size or count a flag takes: numpy indexes with int64.
MAX_SIZE = 2**63 - 1


def _manifest_lines(args, phases, diagnostics=()):
    """``subcommand``, then every parsed flag that holds a value, sorted by
    dest name, then the counts in the order recorded, then the ``diagnostics``
    lines of a failed run, then the phase timings."""
    lines = [f"subcommand: {args.subcommand}"]
    for key, value in sorted(vars(args).items()):
        if key in ("func", "subcommand") or value is None:
            continue
        if isinstance(value, list):
            value = ",".join(map(str, value))
        elif key == "method":
            value = METHOD_FLAGS.get(value, value)
        lines.append(f"{key}: {value}")
    for name, count in phases.counts.items():
        lines.append(f"count_{name}: {count}")
    lines.extend(diagnostics)
    for name in sorted(phases.seconds):
        lines.append(f"time_{name}: {phases.seconds[name]:.6f}")
    lines.append(f"time_total: {phases.total():.6f}")
    return lines


def _write_output(args, phases, sections, diagnostics=()):
    """An artifact command (``sections`` is None) gets the manifest in its
    ``<out>.manifest.txt`` sidecar; a report ends in a ``[manifest]`` block
    and goes to ``--out``, or to stdout without one."""
    manifest = _manifest_lines(args, phases, diagnostics)
    if sections is None:
        path, blocks = f"{args.out}.manifest.txt", [manifest]
    else:
        path, blocks = args.out, [*sections, ["[manifest]", *manifest]]
    text = "\n".join("\n".join(block) for block in blocks) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _int_at_least(lo, hi=MAX_SIZE):
    """argparse type: an int no smaller than ``lo`` and, unless ``hi`` is
    None, no larger than ``hi``."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        if hi is not None and value > hi:
            raise argparse.ArgumentTypeError(f"must be <= {hi}, got {value}")
        return value

    return parse


def _comma_list(parse):
    """argparse type: a non-empty comma-separated list of ``parse`` values."""

    def parse_list(text):
        try:
            return [parse(v) for v in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid comma-separated {parse.__name__} list: {text!r}"
            ) from None

    return parse_list


# ---------------------------------------------------------------------------
# Subcommands: each takes (args, phases) and either writes its artifact and
# returns None or returns its report sections; main writes the manifest.
# ---------------------------------------------------------------------------


def cmd_gen_data(args, phases):
    if args.spec is not None and args.dataset != "gmm":
        raise BadParams(f"gen-data --dataset {args.dataset} takes no --spec (gmm only)")
    if args.spec is None and args.dataset == "gmm":
        raise BadParams("gen-data --dataset gmm requires --spec with weights/means/covs (JSON)")
    rng = np.random.default_rng(args.seed)
    with phases.measure("generate"):
        if args.dataset == "swissroll":
            values = gen_swiss_roll(args.n, rng)
        elif args.dataset == "ring":
            values = gen_ring(args.n, rng)
        else:
            try:
                with open(args.spec, "r", encoding="utf-8") as handle:
                    raw = json.load(handle)
                spec = GmmSpec(weights=raw["weights"], means=raw["means"], covs=raw["covs"])
            except (ValueError, KeyError, TypeError) as exc:  # ValueError covers JSON and UTF-8 errors
                raise BadSpec(f"{args.spec}: malformed mixture description: {exc}") from None
            except BadSpec as exc:  # parsed, but not a valid mixture
                raise BadSpec(f"{args.spec}: {exc}") from None
            values = gen_gmm(spec, args.n, rng)
    with phases.measure("write"):
        write_points_csv(args.out, PointSet(values, default_columns(values.shape[1])))


def _resolve_config(args, **values):
    """The validated config of ``--method`` and its flags; ``values``
    override the flags of the same name."""
    values = {name: values.get(name, getattr(args, name)) for name in PARAMS}
    cfg = EstimatorConfig(METHOD_FLAGS[args.method], **values)
    cfg.validate()
    return cfg


def cmd_synthesize(args, phases):
    cfg = _resolve_config(args)
    rng = np.random.default_rng(cfg.seed)
    with phases.measure("read"):
        train = read_points_csv(getattr(args, "in"))
    synth = synthesis_stream(cfg, train.values, args.l, rng, measure=phases.measure)
    with phases.measure("write"):  # draws each block, timed as "synthesis", as it writes
        write_points_csv(args.out, PointSet(synth, train.columns))


def cmd_synthesize_corrected(args, phases):
    EstimatorConfig("knn_rex", k=args.k, m=args.m, seed=args.seed).validate()  # before any input is read
    rng = np.random.default_rng(args.seed)
    with phases.measure("read"):
        train = read_points_csv(getattr(args, "in"))
        marginals = read_marginals_csv(args.marginals, args.total)
    synth = synth_bias_corrected(
        train.values,
        marginals,
        args.k,
        args.m,
        rng,
        columns=train.columns,
        round_integers=args.round_integers,
        measure=phases.measure,
        counters=phases.counts,
    )
    with phases.measure("write"):
        write_points_csv(args.out, PointSet(synth, train.columns))


def explain_stall(args, phases, exc):
    """After a StallLimit, print the counts the loop recorded and what is
    still missing, and keep the same lines in the sidecar with the flags and
    the timings."""
    counts = [f"count_{name}: {count}" for name, count in phases.counts.items()]
    deficits = [f"deficit_{name}: {d}" for name, d in exc.diagnostics["deficits"].items()]
    print("\n".join(counts + deficits), file=sys.stderr)
    try:  # the sidecar's manifest holds the counts already
        _write_output(args, phases, None, deficits)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)


def cmd_evaluate(args, phases):
    with phases.measure("read"):
        a = read_points_csv(args.a)
        b = read_points_csv(args.b)
    with phases.measure("evaluation"):
        distance = union_hellinger(a.values, b.values, args.bins)
    results = [
        "[results]",
        f"hellinger: {distance!r}",
        f"n_a: {a.n}",
        f"n_b: {b.n}",
        f"bins_per_dim: {args.bins}",
    ]
    return [results]


def cmd_icv(args, phases):
    cfg = _resolve_config(args)
    with phases.measure("read"):
        data = read_points_csv(getattr(args, "in"))
    with phases.measure("evaluation"):
        report = icv_run(
            data.values,
            cfg,
            folds=args.folds,
            bins_per_dim=args.bins,
            threads=args.threads,
        )
    results = [
        "[results]",
        f"mean: {report.mean!r}",
        f"std: {report.std!r}",
        f"baseline_mean: {report.baseline_mean!r}",
        f"baseline_std: {report.baseline_std!r}",
        f"folds: {report.folds}",
        f"fold_size: {report.fold_size}",
        f"population_size: {report.population_size}",
        f"n_used: {report.n_used}",
        f"bins_per_dim: {report.bins_per_dim}",
    ]
    table = ["[folds]", "fold hellinger baseline"]
    scores = zip(report.fold_hellinger.tolist(), report.baseline_hellinger.tolist())
    for i, (score, base) in enumerate(scores):
        table.append(f"{i:03d} {score!r} {base!r}")
    timing = ["[timing]", "time_fold_seconds: " + " ".join(f"{s:.6f}" for s in report.fold_seconds)]
    for name, seconds in report.phase_seconds.items():
        timing.append(f"time_fold_{name}: " + " ".join(f"{s:.6f}" for s in seconds))
    return [results, table, timing]


def cmd_sweep(args, phases):
    swept = SWEPT[METHOD_FLAGS[args.method]]
    axes = {name: getattr(args, name) for name in (*swept, *GRID_FLAGS)}  # swept axes first
    for name, values in axes.items():
        if len(values) > 1 and name not in swept:
            raise BadParams(f"sweep --method {args.method} grids over {', '.join(swept)} only; "
                            f"--{name} takes one value, got {','.join(map(str, values))}")
    grid = itertools.product(*axes.values())
    cfgs = [_resolve_config(args, **dict(zip(axes, point))) for point in grid]
    with phases.measure("read"):
        data = read_points_csv(getattr(args, "in"))
    with phases.measure("evaluation"):
        reports = icv_sweep(
            data.values, cfgs, folds=args.folds, bins_per_dim=args.bins, threads=args.threads
        )
    table = ["[sweep]", "method k m h L mean std baseline_mean"]
    for cfg, report in zip(cfgs, reports):
        table.append(
            f"{cfg.method} {cfg.k} {cfg.m} {cfg.h!r} {cfg.L} "
            f"{report.mean!r} {report.std!r} {report.baseline_mean!r}"
        )
    return [table]


def cmd_validate_asymptotics(args, phases):
    rng = np.random.default_rng(args.seed)
    if args.density == "uniform":
        if args.slope is not None:
            raise BadParams("validate-asymptotics --density uniform takes no --slope (linear only)")
        model, slope_lines = uniform_model(args.dim), []
    else:
        value = DEFAULT_SLOPE if args.slope is None else args.slope
        model, slope_lines = linear_model(args.dim, value), [f"slope: {value!r}"]
    check_addressable((args.dim,))
    x = np.zeros(args.dim)
    with phases.measure("evaluation"):
        report = asymptotics_report(model, x, args.deltas, args.samples, rng)
    lines = [
        "[results]",
        f"density: {args.density}",
        f"dim: {args.dim}",
        *slope_lines,
        f"samples: {args.samples}",
        f"gradient_check: {report.gradient_check!r}",
        "delta acceptance_rate first_term second_predicted second_measured max_abs_dev max_dev_in_se",
    ]
    for e in report.entries:
        lines.append(
            f"{e.delta!r} {e.acceptance_rate:.4f} {e.first_term!r} "
            f"{e.second_term_predicted!r} {e.second_term_measured!r} "
            f"{e.max_abs_dev!r} {e.max_dev_in_se:.3f}"
        )
    lines.append(
        "deviation_ratios: " + " ".join(f"{r!r}" for r in report.deviation_ratios())
    )
    lines.append(
        "second_term_ratios: " + " ".join(f"{r!r}" for r in report.second_term_ratios())
    )
    return [lines]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_param_flag(sub, name, listed=False):
    """Declare the flag of config field ``name`` with the field's type and
    default; a ``listed`` flag takes a comma list, by default the one-item
    list of the field's default."""
    field = PARAMS[name]
    sub.add_argument(
        "--" + name.replace("_", "-"),
        dest=name,
        type=_comma_list(field.type) if listed else field.type,
        default=[field.default] if listed else field.default,
        help="comma-separated list" if listed else None,
    )


def _add_method_flags(sub, lists=()):
    sub.add_argument("--method", required=True, choices=sorted(METHOD_FLAGS))
    for name in PARAMS:
        _add_param_flag(sub, name, listed=name in lists)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="knnrex",
        description="Population synthesis by k-nearest-neighbor crossover kernels",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    gen = subs.add_parser("gen-data", help="generate a benchmark dataset CSV")
    gen.add_argument("--dataset", required=True, choices=["swissroll", "ring", "gmm"])
    gen.add_argument("--n", type=_int_at_least(1), required=True)
    gen.add_argument("--seed", type=_int_at_least(0, hi=None), default=0)
    gen.add_argument("--spec", help="JSON file with weights/means/covs (gmm only)")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen_data)

    syn = subs.add_parser("synthesize", help="whiten, resample, write a population CSV")
    _add_method_flags(syn)
    syn.add_argument(
        "--l", type=_int_at_least(1), required=True, help="population size to synthesize"
    )
    syn.add_argument("--in", required=True)
    syn.add_argument("--out", required=True)
    syn.set_defaults(func=cmd_synthesize)

    cor = subs.add_parser("synthesize-corrected", help="synthesis matching marginal frequencies")
    for name in ("k", "m", "seed"):
        _add_param_flag(cor, name)
    cor.add_argument("--round-integers", action="store_true", dest="round_integers")
    cor.add_argument("--marginals", required=True, help="CSV: variable,lo,hi,freq")
    cor.add_argument("--total", type=_int_at_least(1), required=True, help="population size")
    cor.add_argument("--in", required=True)
    cor.add_argument("--out", required=True)
    cor.set_defaults(func=cmd_synthesize_corrected, method="knn_rex_corrected")

    ev = subs.add_parser("evaluate", help="binned Hellinger distance between two CSVs")
    ev.add_argument("--a", required=True)
    ev.add_argument("--b", required=True)
    ev.add_argument("--bins", type=_int_at_least(1), default=10)
    ev.add_argument("--out")
    ev.set_defaults(func=cmd_evaluate)

    for name, func, lists, summary in (
        ("icv", cmd_icv, (), "inverted cross-validation of one method"),
        ("sweep", cmd_sweep, GRID_FLAGS, "parameter grid of inverted cross-validations"),
    ):
        sub = subs.add_parser(name, help=summary)
        _add_method_flags(sub, lists=lists)
        sub.add_argument("--folds", type=_int_at_least(2), default=100)
        sub.add_argument("--bins", type=_int_at_least(1), default=10)
        sub.add_argument("--threads", type=_int_at_least(1), default=1)
        sub.add_argument("--in", required=True)
        sub.add_argument("--out")
        sub.set_defaults(func=func)

    va = subs.add_parser("validate-asymptotics", help="small-ball covariance: theory vs Monte Carlo")
    va.add_argument("--density", choices=["uniform", "linear"], default="uniform")
    va.add_argument("--dim", type=_int_at_least(1), default=2)
    va.add_argument("--slope", type=float, help=f"linear only; default {DEFAULT_SLOPE}")
    va.add_argument("--deltas", type=_comma_list(float), default=[0.2, 0.1])
    va.add_argument("--samples", type=_int_at_least(1), default=100_000)
    va.add_argument("--seed", type=_int_at_least(0, hi=None), default=0)
    va.add_argument("--out")
    va.set_defaults(func=cmd_validate_asymptotics)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    phases = Phases()
    try:
        _write_output(args, phases, args.func(args, phases))
    except KnnRexError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if isinstance(exc, StallLimit):
            explain_stall(args, phases, exc)
        return 1
    except (OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
