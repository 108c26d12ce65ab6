"""Tests of the benchmark's own code.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import copy
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def load_run_module():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


bench_run = load_run_module()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((BENCH / "reference.json").read_text())["workloads"]


def run_benchmark(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace, group", [("0", "end_to_end"), ("1", "per_layer")])
def test_tiny_run_emits_every_metric_with_its_unit(trace, group, monkeypatch, capsys):
    monkeypatch.setattr(bench_run, "SIZE_DRAWS", 1)  # 1,296 rows per metric
    argv = ["--workload", "distinct_fit", "--seed", "5", "--seconds", "0", "--trace", trace]
    assert bench_run.main(argv) == 0
    printed = capsys.readouterr().out
    result = json.loads(printed.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if group == "end_to_end":
            assert metric["value"] > 0, name
    for name in expected:
        assert f"distinct_fit {name} " in printed


@pytest.mark.parametrize(
    "workload, label, key, corrupt",
    [
        ("grid_fit", "simulate --seed 20260811 --out grid.csv", "sha256", lambda v: "0" * 64),
        (
            "grid_fit",
            "fit-gam --observations grid.csv --metric PRC --out prc.json",
            "lambdas",
            lambda v: {k: x * 10.0 for k, x in v.items()},
        ),
        (
            "grid_fit",
            "fit-gam --observations grid.csv --metric FPR --out fpr.json --eliminate",
            "dropped",
            lambda v: [],
        ),
        (
            "distinct_fit",
            "fit-gam --observations distinct.csv --metric ACC --out acc.json",
            "loglik",
            lambda v: v * (1.0 + 1e-5),
        ),
        (
            "plan_scan",
            "plan --model acc.json --target 0.916 --cell AU,deep,dnsNet121 --ceiling 2000000",
            "ACC",
            lambda v: v + 1,
        ),
    ],
)
def test_corrupted_reference_answer_is_a_failure(workload, label, key, corrupt):
    answer = REFERENCE[workload][label]
    bad = copy.deepcopy(answer)
    bad[key] = corrupt(bad[key])
    assert bench_run.check_answer(answer, answer) is None
    assert bench_run.check_answer(answer, bad) is not None


def test_loglik_within_tolerance_passes():
    answer = REFERENCE["distinct_fit"]["fit-gam --observations distinct.csv --metric ACC --out acc.json"]
    near = dict(answer, loglik=answer["loglik"] * (1.0 + 1e-8))
    assert bench_run.check_answer(answer, near) is None


def test_run_with_corrupted_reference_counts_the_failure(tmp_path, monkeypatch):
    reference = json.loads((BENCH / "reference.json").read_text())
    label = "fit-gam --observations distinct.csv --metric PRC --out prc.json"
    reference["workloads"]["distinct_fit"][label]["lambdas"] = {"s(num_tr_images)": 1.0}
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(reference))
    monkeypatch.setattr(bench_run, "REFERENCE_FILE", corrupted)
    result = bench_run.run_workload("distinct_fit", bench_run.REFERENCE_SEED, 0, False)
    assert result["reference_checked"]
    failed = [c for c in result["calls"] if c["failure"]]
    assert [c["label"] for c in failed] == [label]
    assert "lambdas" in failed[0]["failure"]
    assert result["failed"] == 1 and result["metrics"]["error_rate"] > 0


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark("--workload", "grid_fit", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
