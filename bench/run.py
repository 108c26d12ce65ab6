#!/usr/bin/env python3
"""Benchmark of the camcurves command-line program.

A run executes one workload's command sequence through the real CLI, as
child processes started one at a time (a closed loop with one client),
checks every output, and prints each metric by name with its unit.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
BENCHMARK.json with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  A traced run runs the same commands under bench/tracer.py
and also makes untraced passes, so the tracing overhead is measured.

Run from the repository root (it needs the source tree under src/):

    python3 bench/run.py --workload grid_fit --seed 20260811 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 20260811 --seconds 1 --trace 0

Each run also writes a result file with the workload's properties, the
environment and every call under .bench_results/.  See bench/README.md for
the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
WORK_ROOT = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

# the test suite's CALIBRATION_SEED; bench/reference.json holds its answers
REFERENCE_SEED = 20260811
WORKLOADS = ("grid_fit", "distinct_fit", "plan_scan")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150.0

GRID_ROWS = 31_104
GRID_ROWS_PER_METRIC = 7_776
DEFAULT_CEILING = 100_000  # the CLI's default --ceiling
LARGE_CEILING = 2_000_000

# factor levels of the calibrated grid, reused for the distinct_fit input
DATASETS = ("AU", "SE", "WI")
ARCHITECTURES = ("dnsNet121", "dnsNet161", "dnsNet201", "resNet18", "resNet50", "resNet152")
TUNINGS = ("deep", "shallow")
AUGMENTATIONS = ("trainOnly", "trainAndTest", "testOnly", "none")
CLASSES = {
    "AU": ("blank", "cat", "dog", "fox", "horse", "kangaroo", "lyrebird", "others", "pig"),
    "SE": ("baboon", "blank", "buffalo", "cheetah", "elephant", "hippopotamus", "impala",
           "others", "zebra"),
    "WI": ("bear", "blank", "elk", "opossum", "others", "porcupine", "raccoon",
           "snowshoe_hare", "turkey"),
}
# distinct_fit draws one size per row; 6 draws per cell and class match the
# grid's 6-size ladder, so both fit workloads have 7,776 rows per metric
SIZE_DRAWS = 6
SIZE_RANGE = (10, 1000)
# logit-scale law of the distinct_fit values: intercept and slope in ln(n)
DISTINCT_LAW = {"ACC": (1.2, 0.40), "PRC": (-1.1, 0.48)}
DATASET_SHIFT = {"AU": 0.0, "SE": 0.1, "WI": -0.2}
ARCHITECTURE_SHIFT = dict(zip(ARCHITECTURES, (0.0, 0.09, 0.04, -0.13, -0.06, -0.05)))
TUNING_SHIFT = {"deep": 0.0, "shallow": 0.05}
CLASS_SD = 0.25
PHI = 250.0

PLAN_MODELS = ("acc.json", "fpr.json")
# the worst ACC cell of the grid: its predicted ACC stays below 0.998 up to
# the default ceiling, so this target has no answer
INFEASIBLE_CELL = "WI,deep,resNet18"
INFEASIBLE_ACC = 0.9999

# answers compared with a tolerance on the reference seed; the rest must be equal
LOGLIK_RTOL = 1e-6
DEVIANCE_EXPLAINED_ATOL = 1e-6

PLAN_LINE = re.compile(r"^(ACC|PRC|TPR|FPR) (>=|<=) ([0-9.]+): required_n (\d+)")
DROPPED_LINE = re.compile(r"^dropped (\S+) \(p = ")


@dataclass
class Call:
    label: str
    kind: str  # help | simulate | fit | eliminate | plan
    phase: str  # setup | prep | pass
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    trace_file: str | None
    failure: str | None = None


@dataclass
class Pass:
    traced: bool
    calls: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.calls)

    @property
    def cpu_s(self) -> float:
        return sum(c.cpu_s for c in self.calls)

    @property
    def peak_rss_mb(self) -> float:
        return max(c.peak_rss_mb for c in self.calls)


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def meets(metric: str, value: float, target: float) -> bool:
    return value <= target if metric == "FPR" else value >= target


# ---------------------------------------------------------------------------
# inputs generated from the seed
# ---------------------------------------------------------------------------


def write_distinct_csv(path: Path, seed: int) -> None:
    """ACC and PRC observations on the grid's factor levels.  Each row draws
    its own log-uniform training-set size, redrawn until no other row of its
    (dataset, tuning, architecture) cell has it, so no design row repeats."""
    rng = random.Random(seed)
    lo, hi = (math.log(s) for s in SIZE_RANGE)
    lines = ["metric,value,dataset,class,num_tr_images,architecture,tuning,augmentation"]
    for metric, (intercept, slope) in DISTINCT_LAW.items():
        for dataset in DATASETS:
            class_shift = {c: rng.gauss(0.0, CLASS_SD) for c in CLASSES[dataset]}
            for arch in ARCHITECTURES:
                for tuning in TUNINGS:
                    used = set()
                    for aug in AUGMENTATIONS:
                        for _ in range(SIZE_DRAWS):
                            for label in CLASSES[dataset]:
                                n = round(math.exp(rng.uniform(lo, hi)))
                                while n in used:
                                    n = round(math.exp(rng.uniform(lo, hi)))
                                used.add(n)
                                eta = (
                                    intercept
                                    + slope * math.log(n)
                                    + DATASET_SHIFT[dataset]
                                    + ARCHITECTURE_SHIFT[arch]
                                    + TUNING_SHIFT[tuning]
                                    + class_shift[label]
                                )
                                mu = 1.0 / (1.0 + math.exp(-eta))
                                value = rng.betavariate(mu * PHI, (1.0 - mu) * PHI)
                                lines.append(
                                    f"{metric},{value!r},{dataset},{label},{n},{arch},{tuning},{aug}"
                                )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def plan_queries(seed: int) -> list:
    """(metric, cell, target, ceiling) per plan call; ceiling None is the default.

    Every target has an answer on the reference-seed models.  Their FPR curve
    for WI rises again beyond the largest observed size, to 0.034 at the
    default ceiling, so lower FPR targets have no answer there.
    """
    rng = random.Random(seed)
    queries = []
    for dataset in DATASETS:
        cell = f"{dataset},{rng.choice(TUNINGS)},{rng.choice(ARCHITECTURES)}"
        queries.append(("ACC", cell, round(rng.uniform(0.90, 0.95), 3), LARGE_CEILING))
        queries.append(("FPR", cell, round(rng.uniform(0.037, 0.05), 3), None))
    return queries


def preset_targets(seed: int) -> dict:
    rng = random.Random(seed + 1)
    return {
        "ACC": round(rng.uniform(0.90, 0.97), 3),
        "PRC": round(rng.uniform(0.60, 0.90), 3),
        "TPR": round(rng.uniform(0.60, 0.90), 3),
        "FPR": round(rng.uniform(0.02, 0.05), 3),
    }


def design_row_share(csv_path: Path) -> dict:
    """Per metric: rows, and distinct (dataset, tuning, architecture, size) rows."""
    rows: dict = {}
    distinct: dict = {}
    with open(csv_path, encoding="utf-8") as handle:
        next(handle)
        for line in handle:
            metric, _v, dataset, _c, size, arch, tuning, _a = line.rstrip("\n").split(",")
            rows[metric] = rows.get(metric, 0) + 1
            distinct.setdefault(metric, set()).add((dataset, tuning, arch, size))
    return {
        m: {"rows": rows[m], "distinct_rows": len(distinct[m]), "share": len(distinct[m]) / rows[m]}
        for m in sorted(rows)
    }


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def check_answer(answer: dict, expected: dict | None) -> str | None:
    """Compare one call's answer with the reference answer recorded for it."""
    if expected is None:
        return "no reference answer recorded for this call"
    for key in sorted(set(answer) | set(expected)):
        got, want = answer.get(key), expected.get(key)
        if key == "loglik":
            ok = got is not None and want is not None and abs(got - want) <= LOGLIK_RTOL * max(1.0, abs(want))
        elif key == "deviance_explained":
            ok = got is not None and want is not None and abs(got - want) <= DEVIANCE_EXPLAINED_ATOL
        else:
            ok = got == want
        if not ok:
            return f"{key}: got {got!r}, reference {want!r}"
    return None


class Run:
    """One benchmark run of one workload: its work directory, calls and checks."""

    def __init__(self, workload: str, seed: int, work: Path, trace_dir: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.trace_dir = trace_dir
        self.calls: list = []
        self.answers: dict = {}
        self.properties: dict = {"seed": seed}
        self.reference = json.loads(REFERENCE_FILE.read_text())["workloads"][workload]
        # plan_scan prepares its models on the reference seed whatever the run's seed
        self.reference_checked = seed == REFERENCE_SEED
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        from camcurves import curves, io

        self._io = io
        self._presets = curves.table1_presets()
        self._predict_metric = curves.predict_metric
        self._models: dict = {}  # plan model file -> loaded model, for the plan checks

    def cli(self, kind: str, phase: str, argv: list, expect_exit: int = 0, traced: bool = False) -> Call:
        label = " ".join(argv)
        trace_file = None
        if traced:
            trace_file = str(self.trace_dir / f"{len(self.calls):04d}.json")
            cmd = [sys.executable, str(TRACER), trace_file, *argv]
        else:
            cmd = [sys.executable, "-m", "camcurves.cli", *argv]
        wall, cpu, rss, code, out, err = self._spawn(cmd)
        call = Call(label, kind, phase, wall, cpu, rss, code, trace_file)
        if code != expect_exit:
            call.failure = f"exit code {code}, expected {expect_exit}: {err.strip()[-300:]}"
        elif "Traceback" in err:
            call.failure = "traceback on stderr"
        else:
            try:
                call.failure = self._check(kind, phase, argv, out, err, code)
            except Exception as exc:  # a check that cannot run is a failed check
                call.failure = f"check raised {type(exc).__name__}: {exc}"
        self.calls.append(call)
        return call

    def _spawn(self, cmd: list):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with tempfile.TemporaryFile(dir=self.work) as out, tempfile.TemporaryFile(dir=self.work) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child running
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return (
                wall,
                usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0,
                proc.returncode,
                out.read().decode("utf-8", "replace"),
                err.read().decode("utf-8", "replace"),
            )

    # -- per-command checks -------------------------------------------------

    def _check(self, kind: str, phase: str, argv: list, out: str, err: str, code: int) -> str | None:
        if kind == "help":
            return None if out.startswith("usage:") else "no usage text"
        if kind == "simulate":
            answer = self._check_simulate(argv)
        elif kind in ("fit", "eliminate"):
            answer = self._check_fit(argv, out)
        else:
            answer = self._check_plan(argv, out, err, code)
        if isinstance(answer, str):
            return answer
        label = " ".join(argv)
        self.answers[label] = answer
        if self.reference_checked or phase == "prep":
            return check_answer(answer, self.reference.get(label))
        return None

    def _check_simulate(self, argv: list):
        path = self.work / argv[argv.index("--out") + 1]
        with open(path, encoding="utf-8") as handle:
            rows = sum(1 for _ in handle) - 1
        if rows != GRID_ROWS:
            return f"{rows} observations, expected {GRID_ROWS}"
        return {"sha256": sha256_file(path)}

    def _check_fit(self, argv: list, out: str):
        path = self.work / argv[argv.index("--out") + 1]
        model = self._io.load_model(str(path))
        expected_rows = self.rows_per_metric()
        if model.fit_stats.n_obs != expected_rows:
            return f"model has {model.fit_stats.n_obs} observations, expected {expected_rows}"
        return {
            "lambdas": dict(model.lambdas),
            "loglik": model.fit_stats.loglik,
            "deviance_explained": model.fit_stats.deviance_explained,
            "dropped": [m.group(1) for m in map(DROPPED_LINE.match, out.splitlines()) if m],
        }

    def _check_plan(self, argv: list, out: str, err: str, code: int):
        if code == 4:
            if not err.startswith("infeasible-plan:"):
                return "exit 4 without an infeasible-plan: line"
            return {"exit_code": 4}
        found = [m.groups() for m in map(PLAN_LINE.match, out.splitlines()) if m]
        if not found:
            return "no required_n in the plan output"
        answer = {"exit_code": code}
        for metric, _rel, target, n in found:
            n = int(n)
            answer[metric] = n
            sizes = [n - 1, n] if n > 1 else [n]
            if "--preset" in argv:
                values = [self._predict_metric(self._presets[metric], s) for s in sizes]
            else:
                name = argv[argv.index("--model") + 1]
                if name not in self._models:
                    self._models[name] = self._io.load_model(str(self.work / name))
                model = self._models[name]
                dataset, tuning, arch = argv[argv.index("--cell") + 1].split(",")
                cell = {"dataset": dataset, "tuning": tuning, "architecture": arch}
                values = model.predict_sizes(cell, sizes).tolist()
            if not meets(metric, values[-1], float(target)):
                return f"{metric} target {target} not met at the answer {n}"
            if n > 1 and meets(metric, values[0], float(target)):
                return f"{metric} target {target} already met at {n - 1}, answer {n}"
        return answer

    @property
    def setup_calls(self) -> int:
        return sum(c.kind == "help" for c in self.calls)

    def rows_per_metric(self) -> int:
        if self.workload == "distinct_fit":
            classes = sum(len(CLASSES[d]) for d in DATASETS)
            return classes * len(ARCHITECTURES) * len(TUNINGS) * len(AUGMENTATIONS) * SIZE_DRAWS
        return GRID_ROWS_PER_METRIC

    def record_inputs(self) -> None:
        """Workload properties of the input files the passes read."""
        names = {"grid_fit": ("grid.csv",), "distinct_fit": ("distinct.csv",), "plan_scan": PLAN_MODELS}
        for name in names[self.workload]:
            path = self.work / name
            if not path.is_file():
                continue
            self.properties.setdefault("inputs", {})[name] = {
                "sha256": sha256_file(path),
                "bytes": path.stat().st_size,
            }
            if name.endswith(".csv"):
                shares = design_row_share(path)
                self.properties["observations"] = sum(m["rows"] for m in shares.values())
                self.properties["design_rows"] = shares
            else:
                n_obs = json.loads(path.read_text())["fit_stats"]["n_obs"]
                self.properties.setdefault("model_observations", {})[name] = n_obs


# ---------------------------------------------------------------------------
# workloads: untimed preparation, then passes of the command sequence
# ---------------------------------------------------------------------------


def fit_argv(csv: str, metric: str, out: str, eliminate: bool = False) -> list:
    argv = ["fit-gam", "--observations", csv, "--metric", metric, "--out", out]
    return argv + ["--eliminate"] if eliminate else argv


def prepare(run: Run, traced: bool) -> None:
    if run.workload == "distinct_fit":
        write_distinct_csv(run.work / "distinct.csv", run.seed)
    elif run.workload == "plan_scan":
        # the models come from the reference-seed grid; the seed draws the queries
        seed = str(REFERENCE_SEED)
        run.cli("simulate", "prep", ["simulate", "--seed", seed, "--out", "grid.csv"], traced=traced)
        run.cli("fit", "prep", fit_argv("grid.csv", "ACC", "acc.json"), traced=traced)
        run.cli("fit", "prep", fit_argv("grid.csv", "FPR", "fpr.json"), traced=traced)
        run.properties["plan_queries"] = [
            {"metric": m, "cell": c, "target": t, "ceiling": ceiling or DEFAULT_CEILING}
            for m, c, t, ceiling in plan_queries(run.seed)
        ]


def pass_commands(run: Run) -> list:
    """(kind, argv, expected exit code) of each call of one pass."""
    if run.workload == "grid_fit":
        return [
            ("simulate", ["simulate", "--seed", str(run.seed), "--out", "grid.csv"], 0),
            ("fit", fit_argv("grid.csv", "ACC", "acc.json"), 0),
            ("fit", fit_argv("grid.csv", "PRC", "prc.json"), 0),
            ("eliminate", fit_argv("grid.csv", "FPR", "fpr.json", eliminate=True), 0),
        ]
    if run.workload == "distinct_fit":
        return [
            ("fit", fit_argv("distinct.csv", "ACC", "acc.json"), 0),
            ("fit", fit_argv("distinct.csv", "PRC", "prc.json"), 0),
        ]
    commands = []
    for metric, cell, target, ceiling in plan_queries(run.seed):
        model = "acc.json" if metric == "ACC" else "fpr.json"
        argv = ["plan", "--model", model, "--target", str(target), "--cell", cell]
        if ceiling is not None:
            argv += ["--ceiling", str(ceiling)]
        commands.append(("plan", argv, 0))
    argv = ["plan", "--model", "acc.json", "--target", str(INFEASIBLE_ACC), "--cell", INFEASIBLE_CELL]
    commands.append(("plan", argv, 4))
    argv = ["plan", "--preset", "table1"]
    for metric, target in preset_targets(run.seed).items():
        argv += [f"--target-{metric.lower()}", str(target)]
    commands.append(("plan", argv, 0))
    return commands


def run_pass(run: Run, traced: bool) -> Pass:
    calls = []
    for kind, argv, expect_exit in pass_commands(run):
        # The set-up calls are spread over the run, one before each command
        # until there are SETUP_REPEATS, so that their median does not hang
        # on one slow phase of a shared host.
        if run.setup_calls < SETUP_REPEATS:
            run.cli("help", "setup", ["--help"])
        calls.append(run.cli(kind, "pass", argv, expect_exit, traced=traced))
    return Pass(traced, calls)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def median_of(values: list) -> float | None:
    return statistics.median(values) if values else None


def end_to_end(run: Run, passes: list) -> dict:
    """Every end-to-end metric of the run, in its unit; None where a command is absent."""
    untraced = [p for p in passes if not p.traced]
    timed = [c for c in run.calls if c.trace_file is None and c.phase != "prep"]

    def per_kind(kind):
        return median_of([c.wall_s for c in timed if c.kind == kind])

    failed = sum(1 for c in run.calls if c.failure)
    return {
        "setup_s": per_kind("help"),
        "wall_s": median_of([p.wall_s for p in untraced]),
        "cpu_s": median_of([p.cpu_s for p in untraced]),
        "peak_rss_mb": median_of([p.peak_rss_mb for p in untraced]),
        "simulate_s": per_kind("simulate"),
        "fit_gam_s": per_kind("fit"),
        "eliminate_s": per_kind("eliminate"),
        "plan_s": per_kind("plan"),
        "error_rate": failed / len(run.calls),
    }


def trace_totals(path: Path) -> dict:
    """Self time, total time and calls per span name, plus the counts, of one traced call."""
    data = json.loads(path.read_text())
    spans = data["spans"]
    child_time = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict = {"cli.import_s": data["import_s"]}
    for (name, start, end, _parent), inner in zip(spans, child_time):
        for key, value in ((f"{name}.self_s", end - start - inner), (f"{name}.total_s", end - start), (f"{name}.calls", 1)):
            totals[key] = totals.get(key, 0) + value
    for key, value in data["counts"].items():
        totals[key] = totals.get(key, 0) + value
    return totals


def summed_trace(calls: list) -> dict:
    out: dict = {}
    for call in calls:
        if not Path(call.trace_file).is_file():  # the traced child failed; the call counts as failed
            continue
        for key, value in trace_totals(Path(call.trace_file)).items():
            out[key] = out.get(key, 0) + value
    return out


def per_layer(run: Run, passes: list) -> tuple:
    """Layer metrics of one execution: the mean traced pass.

    A layer that no pass runs (the fit layers of plan_scan) takes its value
    from the traced preparation instead; the names of those are returned too.
    """
    pass_totals = [summed_trace(p.calls) for p in passes if p.traced]
    prep = summed_trace([c for c in run.calls if c.phase == "prep"])
    in_passes = set().union(*pass_totals)
    from_prep = sorted(set(prep) - in_passes)
    values = {key: statistics.fmean(t.get(key, 0) for t in pass_totals) for key in in_passes}
    values.update((key, prep[key]) for key in from_prep)
    layers = {
        key: int(value) if not key.endswith("_s") and float(value).is_integer() else value
        for key, value in sorted(values.items())
    }
    rows = layers.get("betagam.fit.rows", 0)
    layers["betagam.fit.distinct_row_share"] = layers.get("betagam.fit.distinct_rows", 0) / rows if rows else 0.0
    if "betagam.fit.rows" in from_prep:
        from_prep.append("betagam.fit.distinct_row_share")
    return layers, from_prep


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def blas_threads():
    """Thread count of the OpenBLAS that NumPy loaded, or None if it cannot be asked."""
    import numpy

    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# one run of a workload, and its report
# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK_ROOT.mkdir(exist_ok=True)
    RESULTS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    trace_dir = RESULTS / f"{stem}-spans"
    shutil.rmtree(trace_dir, ignore_errors=True)
    if trace:
        trace_dir.mkdir()
    try:
        run = Run(workload, seed, work, trace_dir)
        run.cli("help", "setup", ["--help"])
        prepare(run, traced=trace)
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(run_pass(run, traced=False))
            if trace:
                passes.append(run_pass(run, traced=True))
        while run.setup_calls < SETUP_REPEATS:
            run.cli("help", "setup", ["--help"])
        run.record_inputs()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = end_to_end(run, passes)
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "reference_checked": run.reference_checked,
        "environment": environment(),
        "properties": run.properties,
        "metrics": metrics,
        "passes": [{"traced": p.traced, "wall_s": p.wall_s, "cpu_s": p.cpu_s, "peak_rss_mb": p.peak_rss_mb} for p in passes],
        "calls": [asdict(c) for c in run.calls],
        "answers": run.answers,
        "attempted": len(run.calls),
        "failed": sum(1 for c in run.calls if c.failure),
    }
    if trace:
        result["per_layer"], result["per_layer_from_preparation"] = per_layer(run, passes)
        walls = {t: median_of([p.wall_s for p in passes if p.traced == t]) for t in (False, True)}
        result["tracing_overhead_s"] = walls[True] - walls[False]
        result["properties"]["sizes_scanned_per_query"] = [
            summed_trace([c]).get("planner.gam_required_sample_size.sizes_scanned", 0)
            for c in next(p for p in passes if p.traced).calls
            if c.kind == "plan"
        ]
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return result


UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "simulate_s": "s",
    "fit_gam_s": "s", "eliminate_s": "s", "plan_s": "s", "error_rate": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_share") else "count"


def report(result: dict, spec: dict) -> dict:
    """Print every metric of one workload; return the metrics of the JSON line."""
    name = result["workload"]
    for call in result["calls"]:
        if call["failure"]:
            print(f"{name} FAILED {call['label']}: {call['failure']}")
    for key, value in result["metrics"].items():
        shown = "n/a (no such command in this workload)" if value is None else f"{value:.6g}"
        print(f"{name} {key} {shown} {UNITS[key]}")
    if result["trace"]:
        values = {m["name"]: 0 for m in spec["per_layer"]}  # a layer that never ran did 0 work
        values.update(result["per_layer"])
        from_prep = set(result["per_layer_from_preparation"])
        for key in sorted(values):
            note = " (traced preparation)" if key in from_prep else ""
            print(f"{name} {key} {values[key]:.6g} {layer_unit(key)}{note}")
        print(f"{name} tracing_overhead_s {result['tracing_overhead_s']:.6g} s")
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]
        values = result["metrics"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwind, so the current child is killed
    if args.seed < 0:
        parser.error("--seed must be >= 0 (it seeds the grid simulator)")
    if not (SRC / "camcurves" / "cli.py").is_file():
        print(f"bench: no camcurves source tree under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics: dict = {}
    attempted = failed = 0
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        shown = report(result, spec)
        attempted += result["attempted"]
        failed += result["failed"]
        if args.workload == "all":
            shown = {f"{name}.{k}": v for k, v in shown.items()}
        metrics.update(shown)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
