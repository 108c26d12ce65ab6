"""Command-line surface tying the library together.

Exit codes: 0 success, 2 input error, 3 numerical failure, 4 infeasible plan.
Errors print one machine-parsable line to stderr: "<error-class>: <message>".
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

import numpy as np

from . import betagam, curves, design, io, metrics, planner, plotting
from .errors import (
    CamcurvesError,
    ConvergenceError,
    InfeasiblePlanError,
    InputError,
    NoPositivePredictions,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_INFEASIBLE = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="camcurves",
        description="Classifier metrics, learning-curve models and sample-size planning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("metrics", help="per-class metric table from prediction records")
    p.add_argument("--predictions", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--classes", help="comma-separated class set (default: observed labels)")

    p = sub.add_parser("aggregate", help="grouped means/stds of metric observations")
    p.add_argument("--observations", required=True)
    p.add_argument("--by", required=True, help="comma-separated covariate fields")
    p.add_argument("--out")

    p = sub.add_parser("fit-ols", help="fit a logarithmic learning-curve model")
    p.add_argument("--observations", required=True)
    p.add_argument("--metric", required=True, choices=metrics.METRIC_KINDS)
    p.add_argument("--out", required=True)

    p = sub.add_parser("fit-gam", help="fit a Beta additive model")
    p.add_argument("--observations", required=True)
    p.add_argument("--metric", required=True, choices=metrics.METRIC_KINDS)
    p.add_argument("--eliminate", action="store_true", help="backward stepwise elimination")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--lambdas", help="comma-separated fixed smoothing parameters")
    p.add_argument("--out", required=True)

    p = sub.add_parser("plan", help="required training-set size for metric targets")
    p.add_argument("--model", help="fitted model JSON")
    p.add_argument("--preset", choices=["table1"], help="use the published preset curves")
    p.add_argument("--target", type=float, help="target for the --model metric")
    p.add_argument("--target-acc", type=float)
    p.add_argument("--target-prc", type=float)
    p.add_argument("--target-tpr", type=float)
    p.add_argument("--target-fpr", type=float)
    p.add_argument("--cell", help="dataset,tuning,architecture (needed for GAM models)")
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

    p = sub.add_parser("curve-plot", help="scatter + fitted curve SVG")
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
    records = io.parse_predictions(args.predictions)
    if args.classes:
        class_set = [c.strip() for c in args.classes.split(",") if c.strip()]
    else:
        class_set = sorted({r.true_class for r in records} | {r.predicted_class for r in records})
    tallies = metrics.tally_confusion(records, class_set)
    with io.atomic_write(args.out) as handle:
        writer = csv.writer(handle)
        writer.writerow(["class", "tp", "fp", "tn", "fn", "ACC", "PRC", "TPR", "FPR"])
        for label in class_set:
            c = tallies[label]
            row = [label, c.tp, c.fp, c.tn, c.fn]
            for kind in metrics.METRIC_KINDS:
                try:
                    row.append(f"{metrics.metric_value(kind, c):.2f}")
                except NoPositivePredictions:
                    row.append("NA")
            writer.writerow(row)
    print(f"wrote per-class metrics for {len(class_set)} classes to {args.out}")
    return EXIT_OK


def _cmd_aggregate(args) -> int:
    table = io.parse_observations(args.observations)
    fields = [f.strip() for f in args.by.split(",") if f.strip()]
    group_by = fields if "metric" in fields else ["metric", *fields]
    rows = metrics.aggregate(table, group_by)
    header = [*group_by, "mean", "std", "count"]
    lines = [header]
    for row in rows:
        std = "" if row.std is None else f"{row.std:.3f}"
        lines.append([*row.key, f"{row.mean:.2f}", std, row.count])
    if args.out:
        with io.atomic_write(args.out) as handle:
            csv.writer(handle).writerows(lines)
        print(f"wrote {len(rows)} groups to {args.out}")
    else:
        for line in lines:
            print(",".join(str(v) for v in line))
    return EXIT_OK


def _cmd_fit_ols(args) -> int:
    table = io.parse_observations(args.observations)
    rows = table[table.metric == args.metric]
    if not len(rows):
        raise InputError(f"no observations with metric {args.metric}")
    points = list(zip(rows.num_tr_images.tolist(), rows.value.tolist()))
    model = curves.fit_log_curve(points, args.metric)
    io.save_model(model, args.out)
    print(
        f"{args.metric}: intercept {model.intercept:.4f}, slope {model.slope:.4f}, "
        f"adj-R2 {model.adj_r_squared:.3f} ({model.n_obs} points) -> {args.out}"
    )
    return EXIT_OK


def _cmd_fit_gam(args) -> int:
    lambdas = _parse_numbers(args.lambdas, "--lambdas", float) if args.lambdas else None
    io.check_writable(args.out)  # before the fit, which takes seconds
    table = io.parse_observations(args.observations)
    spec = betagam.default_spec(args.metric)
    prepared = table[table.metric == args.metric]
    # only values at exactly 0 or 1 are squeezed; the table holds none outside [0, 1]
    boundary = (prepared.value == 0.0) | (prepared.value == 1.0)
    prepared.value[boundary] = betagam.squeeze(prepared.value[boundary], spec.squeeze_eps)
    if args.eliminate:
        model, trace = betagam.backward_eliminate(spec, prepared, alpha=args.alpha, lambdas=lambdas)
        for step in trace:
            print(f"dropped {step.dropped} (p = {step.p_value:.4g})")
    else:
        model = betagam.fit(spec, prepared, lambdas=lambdas)
    io.save_model(model, args.out)
    stats = model.fit_stats
    print(
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
    if args.preset:
        models = curves.table1_presets()
        targets = {}
        for metric, value in (
            ("ACC", args.target_acc),
            ("PRC", args.target_prc),
            ("TPR", args.target_tpr),
            ("FPR", args.target_fpr),
        ):
            if value is not None:
                targets[metric] = value
        if not targets:
            raise InputError("give at least one of --target-acc/--target-prc/--target-tpr/--target-fpr")
        cell = None
    else:
        model = io.load_model(args.model)
        if args.target is None:
            raise InputError("--model planning needs --target")
        targets = {model.metric: args.target}
        models = {model.metric: model}
        cell = _parse_cell(args.cell) if args.cell else None
        if isinstance(model, betagam.AdditiveModel) and cell is None:
            raise InputError("planning against a GAM needs --cell dataset,tuning,architecture")
    report = planner.plan_report(targets, models, cell=cell, search_ceiling=args.ceiling)
    for result in report.results:
        print(_plan_line(result))
    if len(report.results) > 1:
        print(f"binding required_n {report.binding_n}")
    if args.out:
        payload = {
            "schema": "camcurves-plan/1",
            "binding_n": report.binding_n,
            "results": [
                {
                    "metric": r.metric,
                    "target": r.target,
                    "required_n": r.required_n,
                    "predicted_value": r.predicted_value,
                    "extrapolated": r.extrapolated,
                    "source": r.source,
                }
                for r in report.results
            ],
        }
        with io.atomic_write(args.out) as handle:
            handle.write(io.canonical_json(payload))
    return EXIT_OK


def _cmd_design(args) -> int:
    ladder = _parse_numbers(args.ladder, "--ladder", int)
    pools, locations = io.parse_image_index(args.manifest_in)
    if args.select is not None:
        pools = {label: design.equal_space_select(ids, args.select) for label, ids in pools.items()}
    manifest = design.split_design(
        pools,
        test_size=args.test,
        size_ladder=ladder,
        seed=args.seed,
        nested=not args.independent,
    )
    extra = {}
    if locations:
        report = design.validate_location_coverage(manifest, locations)
        coverage = {
            "status": report.status,
            "violations": [
                {
                    "class": v.class_label,
                    "split": v.split,
                    "distinct_locations": v.distinct_locations,
                }
                for v in report.violations
            ],
        }
        if report.detail:
            coverage["detail"] = report.detail
        extra["location_coverage"] = coverage
        if report.status != "ok":
            detail = f": {report.detail}" if report.detail else ""
            print(f"location coverage: {report.status}{detail}", file=sys.stderr)
    io.save_manifest(manifest, args.out, extra=extra)
    print(f"wrote design for {len(manifest.classes)} classes to {args.out}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    table = design.simulate_grid(args.seed)
    io.write_observations_csv(args.out, table)
    cells = math.prod(len(axis) for axis in design.GRID_AXES)
    print(f"wrote {len(table)} observations ({cells} cells) to {args.out}")
    return EXIT_OK


def _cmd_curve_plot(args) -> int:
    model = io.load_model(args.model)
    table = io.parse_observations(args.observations)
    rows = table[table.metric == model.metric]
    if not len(rows):
        raise InputError(f"no observations with metric {model.metric}")
    sizes = rows.num_tr_images.astype(float)
    scatter = list(zip(sizes.tolist(), rows.value.tolist()))
    grid = np.exp(np.linspace(np.log(sizes.min()), np.log(sizes.max()), 200))
    if isinstance(model, betagam.AdditiveModel):
        if not args.cell:
            raise InputError("plotting a GAM needs --cell dataset,tuning,architecture")
        cell = _parse_cell(args.cell)
        values = model.predict_sizes(cell, grid)
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
    print(f"wrote {args.out}")
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
    args = _build_parser().parse_args(argv)
    try:
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
