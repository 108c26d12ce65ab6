"""Command-line surface tying the library together.

Exit codes: 0 success, 2 input error, 3 numerical failure, 4 infeasible plan.
Errors print one machine-parsable line to stderr: "<error-class>: <message>".

numpy's OpenBLAS runs on one thread in a camcurves process: the fits multiply
matrices of a few thousand rows by ~20 columns, where a second thread spins
and saves no time.  OpenBLAS reads OPENBLAS_NUM_THREADS once, as numpy loads,
so this module sets it before its numpy import, and only where it is unset:
to give BLAS more threads, run e.g. `OPENBLAS_NUM_THREADS=2 camcurves ...`.
Importing the library (`import camcurves`) leaves the variable alone.

Once this module has imported numpy and the camcurves modules, `gc.freeze()`
moves every object the collector then tracks (~22,000, nearly all left by
those imports) into the permanent generation.  Unfrozen, they would be walked
again by each full collection and by the interpreter's last one at exit:
~9 ms of every process on a 2-vCPU Xeon.  Frozen, they are never walked
again; what the command allocates is collected as usual.  The collector stays
on while the modules load: turning it off there saved ~3 ms more, but it kept
the imports' cyclic garbage, and a command's own peak RSS rose by up to 0.3 MB.
As with the BLAS setting, only this module, the program's own, freezes: the
library modules leave the collector alone.

Standard output is written through `_print`, which flushes each write.  An
OSError there (a full disk, a closed pipe) is one input-error line with exit
2, as for an unwritable --out, and standard output then points at os.devnull,
so that the interpreter's last flush fails no more.
"""

from __future__ import annotations

import gc
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads: see above

import argparse
import csv
import dataclasses
import math
import sys

import numpy as np

# at module level, because bench/tracer.py reads these modules from sys.modules right
# after `import camcurves.cli`; plotting is imported by the one command that draws
from . import betagam, curves, design, io, metrics, planner
from .errors import CamcurvesError, ConvergenceError, InfeasiblePlanError, InputError

gc.freeze()  # after the imports: see above

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_INFEASIBLE = 4


class _Parser(argparse.ArgumentParser):
    """Argument parser, subcommands included, whose usage errors are input errors."""

    def error(self, message):
        raise InputError(message)

    def print_help(self, file=None):
        _print(self.format_help().rstrip("\n"))  # argparse ends it with one newline


def _print(text: str) -> None:
    """Print to standard output and flush; an OSError there is an input error."""
    try:
        print(text, flush=True)
    except OSError as exc:
        # what is left in the buffer goes to os.devnull at the interpreter's last flush
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise InputError(f"cannot write standard output: {exc.strerror or exc}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="camcurves",
        description="Classifier metrics, learning-curve models and sample-size planning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "metrics",
        help="per-class metric table from prediction records",
        description="Score each class one-vs-rest on a predictions CSV (image_id, true_class, "
        "predicted_class, optional location_id and ISO-8601 timestamp) and write one row per "
        "class: class,tp,fp,tn,fn,ACC,PRC,TPR,FPR, the metrics to 2 decimals. PRC reads NA "
        "for a class that is never predicted. A class absent from the test set (undefined "
        "TPR) or a test set of one class (undefined FPR) is an input error.",
    )
    p.add_argument("--predictions", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--classes", help="comma-separated class set (default: observed labels)")

    p = sub.add_parser("aggregate", help="grouped means/stds of metric observations")
    p.add_argument("--observations", required=True)
    p.add_argument("--by", required=True, help="comma-separated covariate fields")
    p.add_argument("--out")

    one_metric = (
        "Only the records of that metric, and any of an unknown metric kind, are converted and "
        "checked; those of the other metrics are skipped as they are read."
    )
    p = sub.add_parser(
        "fit-ols",
        help="fit a logarithmic learning-curve model",
        description=f"Fit a metric's values on log size by least squares. {one_metric}",
    )
    p.add_argument("--observations", required=True)
    p.add_argument("--metric", required=True, choices=metrics.METRIC_KINDS)
    p.add_argument("--out", required=True)

    p = sub.add_parser(
        "fit-gam",
        help="fit a Beta additive model",
        description="Fit a Beta additive model to one metric of an observation CSV. "
        f"{one_metric} A value of exactly 0 or 1 is moved inside to squeeze_eps "
        f"({betagam.ModelSpec.squeeze_eps}) or 1 - squeeze_eps; other values are fitted as "
        "they are.",
    )
    p.add_argument("--observations", required=True)
    p.add_argument("--metric", required=True, choices=metrics.METRIC_KINDS)
    p.add_argument("--eliminate", action="store_true", help="backward stepwise elimination")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--lambdas", help="comma-separated fixed smoothing parameters, each <= 1e12")
    p.add_argument("--out", required=True)

    p = sub.add_parser("plan", help="required training-set size for metric targets")
    p.add_argument("--model", help="fitted model JSON")
    p.add_argument("--preset", choices=["table1"], help="use the published preset curves")
    p.add_argument("--target", type=float, help="target for the --model metric")
    p.add_argument("--target-acc", type=float)
    p.add_argument("--target-prc", type=float)
    p.add_argument("--target-tpr", type=float)
    p.add_argument("--target-fpr", type=float)
    p.add_argument("--cell", help="dataset,tuning,architecture (needed for GAM models only)")
    p.add_argument(
        "--ceiling",
        type=int,
        default=planner.DEFAULT_SEARCH_CEILING,
        help="largest size searched: the answer is the smallest n from which every size up "
        "to the ceiling meets the target; unattainable otherwise (default: %(default)s)",
    )
    p.add_argument("--out", help="write the report as JSON")

    p = sub.add_parser("design", help="balanced sampling design from an image index")
    p.add_argument("--manifest-in", required=True, help="CSV: image_id,class[,location_id]")
    p.add_argument("--test", type=int, default=design.DEFAULT_TEST_SIZE)
    p.add_argument("--ladder", default=",".join(str(s) for s in design.DEFAULT_SIZE_LADDER))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--select", type=int, help="equal-spacing pool size per class before splitting")
    p.add_argument("--independent", action="store_true", help="non-nested training subsets")
    p.add_argument("--out", required=True)

    p = sub.add_parser("simulate", help="synthetic experiment-grid observations")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser(
        "curve-plot",
        help="scatter + fitted curve SVG",
        description=f"Plot the observations of the model's metric and its curve. {one_metric}",
    )
    p.add_argument("--model", required=True)
    p.add_argument("--observations", required=True)
    p.add_argument("--cell", help="dataset,tuning,architecture (needed for GAM models)")
    p.add_argument("--out", required=True)

    return parser


def _parse_cell(raw: str) -> dict:
    parts = [s.strip() for s in raw.split(",")]
    if len(parts) != 3:
        raise InputError("--cell expects dataset,tuning,architecture")
    return {"dataset": parts[0], "tuning": parts[1], "architecture": parts[2]}


def _parse_numbers(raw: str, flag: str, convert) -> list:
    """Comma-separated finite numbers of one flag; empty items are skipped."""
    values = []
    for item in (s.strip() for s in raw.split(",")):
        if not item:
            continue
        try:
            value = convert(item)
            if not math.isfinite(value):
                raise ValueError(item)
        except ValueError:
            raise InputError(f"{flag}: {item!r} is not a finite {convert.__name__}") from None
        values.append(value)
    return values


def _cmd_metrics(args) -> int:
    predictions = io.parse_predictions(args.predictions)
    if args.classes is not None:
        classes = [c.strip() for c in args.classes.split(",") if c.strip()]
        if not classes:
            raise InputError(f"--classes {args.classes!r} names no class")
    else:
        classes = sorted({*predictions["true_class"], *predictions["predicted_class"]})
    scores = metrics.one_vs_rest(metrics.confusion_matrix(predictions, classes))
    for label, tpr, fpr in zip(classes, scores["TPR"], scores["FPR"]):
        if np.isnan(tpr):
            raise InputError(f"true positive rate undefined: class {label!r} absent from test set")
        if np.isnan(fpr):
            raise InputError(f"false positive rate undefined: class {label!r} has no negatives")
    counts = [scores[name].tolist() for name in ("tp", "fp", "tn", "fn")]
    ratios = [
        ["NA" if math.isnan(v) else f"{v:.2f}" for v in scores[kind].tolist()]  # NA: only PRC
        for kind in metrics.METRIC_KINDS
    ]
    with io.atomic_write(args.out) as handle:
        writer = csv.writer(handle)
        writer.writerow(["class", "tp", "fp", "tn", "fn", *metrics.METRIC_KINDS])
        writer.writerows(zip(classes, *counts, *ratios))
    _print(f"wrote per-class metrics for {len(classes)} classes to {args.out}")
    return EXIT_OK


def _cmd_aggregate(args) -> int:
    table = io.parse_observations(args.observations)
    fields = [f.strip() for f in args.by.split(",") if f.strip()]
    group_by = fields if "metric" in fields else ["metric", *fields]
    rows = metrics.aggregate(table, group_by)
    header = [*group_by, "mean", "std", "count"]
    lines = [header]
    for row in rows:  # the mean as precise as the std: FPR means are ~0.01-0.05
        std = "" if row.std is None else f"{row.std:.3f}"
        lines.append([*row.key, f"{row.mean:.3f}", std, row.count])
    if args.out:
        with io.atomic_write(args.out) as handle:
            csv.writer(handle).writerows(lines)
        _print(f"wrote {len(rows)} groups to {args.out}")
    else:
        _print("\n".join(",".join(str(v) for v in line) for line in lines))
    return EXIT_OK


def _cmd_fit_ols(args) -> int:
    table = io.parse_observations(args.observations, args.metric)
    model = curves.fit_log_curve(table, args.metric)
    io.save_model(model, args.out)
    _print(
        f"{args.metric}: intercept {model.intercept:.4f}, slope {model.slope:.4f}, "
        f"adj-R2 {model.adj_r_squared:.3f} ({model.n_obs} points) -> {args.out}"
    )
    return EXIT_OK


def _cmd_fit_gam(args) -> int:
    if not 0.0 < args.alpha < 1.0:  # rejected with or without --eliminate
        raise InputError(f"--alpha must lie in (0, 1), got {args.alpha}")
    lambdas = None if args.lambdas is None else _parse_numbers(args.lambdas, "--lambdas", float)
    io.check_writable(args.out)  # before the fit, which takes seconds
    table = io.parse_observations(args.observations, args.metric)
    spec = betagam.ModelSpec(args.metric)
    if args.eliminate:
        model, trace = betagam.backward_eliminate(spec, table, alpha=args.alpha, lambdas=lambdas)
        for step in trace:
            _print(f"dropped {step.dropped} (p = {step.p_value:.4g})")
    else:
        model = betagam.fit(spec, table, lambdas=lambdas)
    io.save_model(model, args.out)
    stats = model.fit_stats
    _print(
        f"{args.metric}: deviance explained {stats.deviance_explained:.3f}, "
        f"adj-R2 {stats.adj_r_squared:.3f}, phi {model.phi:.1f} -> {args.out}"
    )
    return EXIT_OK


def _plan_line(result: planner.PlanResult) -> str:
    rel = "<=" if result.metric == "FPR" else ">="
    if not result.attainable:
        return f"{result.metric} {rel} {result.target}: unattainable"
    note = " extrapolated beyond the fitted size range" if result.extrapolated else ""
    return (
        f"{result.metric} {rel} {result.target}: required_n {result.required_n} "
        f"(predicted {result.predicted_value:.4f}){note}"
    )


def _cmd_plan(args) -> int:
    if bool(args.model) == bool(args.preset):
        raise InputError("give exactly one of --model or --preset")
    per_metric = "--target-acc/--target-prc/--target-tpr/--target-fpr"
    targets = {metric: getattr(args, f"target_{metric.lower()}") for metric in metrics.METRIC_KINDS}
    targets = {metric: value for metric, value in targets.items() if value is not None}
    if args.preset:
        if args.target is not None or args.cell is not None:
            raise InputError(f"--preset plans with {per_metric}; it takes no --target or --cell")
        if not targets:
            raise InputError(f"give at least one of {per_metric}")
        models, cell = curves.table1_presets(), None
    else:
        if targets:
            raise InputError(f"--model plans its metric with --target; it takes no {per_metric}")
        model = io.load_model(args.model)
        if args.target is None:
            raise InputError("--model planning needs --target")
        targets = {model.metric: args.target}
        models = {model.metric: model}
        if isinstance(model, betagam.AdditiveModel) != (args.cell is not None):
            raise InputError("planning against a GAM needs --cell; a log-size curve takes none")
        cell = _parse_cell(args.cell) if args.cell is not None else None
    if args.out:
        io.check_writable(args.out)  # before any plan line is printed
    report = planner.plan_report(targets, models, cell=cell, search_ceiling=args.ceiling)
    for result in report.results:
        _print(_plan_line(result))
    if len(report.results) > 1:
        _print(f"binding required_n {report.binding_n}")
    if args.out:
        payload = {
            "schema": "camcurves-plan/1",
            "binding_n": report.binding_n,
            "results": [dataclasses.asdict(r) for r in report.results],
        }
        with io.atomic_write(args.out) as handle:
            handle.write(io.canonical_json(payload))
    return EXIT_OK


def _cmd_design(args) -> int:
    ladder = _parse_numbers(args.ladder, "--ladder", int)
    pools, locations = io.parse_image_index(args.manifest_in)
    if args.select is not None:
        for label in sorted(pools):
            try:
                pools[label] = design.equal_space_select(pools[label], args.select)
            except InputError as exc:
                raise InputError(f"class {label!r}: {exc}") from None
    manifest = design.split_design(
        pools,
        test_size=args.test,
        size_ladder=ladder,
        seed=args.seed,
        nested=not args.independent,
    )
    if locations:
        coverage = design.validate_location_coverage(manifest, locations)
        manifest["location_coverage"] = coverage
        if coverage["status"] != "ok":
            detail = f": {coverage['detail']}" if "detail" in coverage else ""
            print(f"location coverage: {coverage['status']}{detail}", file=sys.stderr)
    io.save_manifest(manifest, args.out)
    _print(f"wrote design for {len(manifest['classes'])} classes to {args.out}")
    return EXIT_OK


def _grid_blocks(seed: int):
    """The simulated grid's table, one (dataset, size) rung of cells at a time."""
    rung = math.prod(len(axis) for axis in design.GRID_AXES[2:])
    for start in range(0, design.GRID_CELLS, rung):
        yield design.simulate_grid(seed, range(start, start + rung))


def _cmd_simulate(args) -> int:
    # written as it is drawn, so the process holds one rung's table, never the grid's
    rows = io.write_observations_csv(args.out, _grid_blocks(args.seed))
    _print(f"wrote {rows} observations ({design.GRID_CELLS} cells) to {args.out}")
    return EXIT_OK


def _cmd_curve_plot(args) -> int:
    from . import plotting  # here, so that no other command imports it, or html

    model = io.load_model(args.model)
    gam = isinstance(model, betagam.AdditiveModel)
    if gam != (args.cell is not None):
        raise InputError(
            "plotting a GAM needs --cell dataset,tuning,architecture; a log-size curve takes none"
        )
    rows = io.parse_observations(args.observations, model.metric)
    if not len(rows):
        raise InputError(f"no observations with metric {model.metric}")
    sizes = rows.num_tr_images.astype(float)
    scatter = list(zip(sizes.tolist(), rows.value.tolist()))
    grid = np.exp(np.linspace(np.log(sizes.min()), np.log(sizes.max()), 200))
    if gam:
        values = model.predict_sizes(_parse_cell(args.cell), grid)
        title = f"{model.metric} fit ({args.cell})"
    else:
        values = np.array([curves.predict_metric(model, n) for n in grid])
        title = f"{model.metric} log-size fit"
    plotting.write_curve_plot(
        args.out,
        scatter,
        list(zip(grid.tolist(), values.tolist())),
        title=title,
        y_label=model.metric,
    )
    _print(f"wrote {args.out}")
    return EXIT_OK


_COMMANDS = {
    "metrics": _cmd_metrics,
    "aggregate": _cmd_aggregate,
    "fit-ols": _cmd_fit_ols,
    "fit-gam": _cmd_fit_gam,
    "plan": _cmd_plan,
    "design": _cmd_design,
    "simulate": _cmd_simulate,
    "curve-plot": _cmd_curve_plot,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except InfeasiblePlanError as exc:
        print(f"infeasible-plan: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ConvergenceError, np.linalg.LinAlgError) as exc:
        print(f"numerical-error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except CamcurvesError as exc:
        print(f"input-error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
