import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import camcurves
from camcurves import cli, design, io
from camcurves.design import ARCHITECTURES, DATASETS, TUNINGS

from camcurves.metrics import METRIC_KINDS

from conftest import as_table, make_obs, observation_rows

SIZES = (10, 20, 50, 150, 500, 1000)


def assert_one_error_line(code, capsys, exit_code, prefix, *fragments):
    """Check the one error line on stderr; returns what was printed on stdout."""
    out, err = capsys.readouterr()
    assert code == exit_code
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix)
    for fragment in fragments:
        assert fragment in lines[0]
    return out


def assert_one_input_error(code, capsys, *fragments):
    return assert_one_error_line(code, capsys, cli.EXIT_INPUT, "input-error: ", *fragments)


@pytest.fixture
def observations_csv(tmp_path):
    rng = np.random.default_rng(0)
    sizes = np.tile(SIZES, 8)
    values = rng.beta(80 * 0.8, 80 * 0.2, sizes.size)
    path = tmp_path / "obs.csv"
    io.write_observations_csv(str(path), [observation_rows(values, sizes)])
    return str(path)


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["plan", "--preset", "table1", "--ceiling", "x"], "invalid int value: 'x'"),
        (["fit-gam", "--observations", "o.csv", "--metric", "ACC", "--alpha", "x",
          "--out", "m.json"], "invalid float value: 'x'"),
        (["simulate", "--seed", "1", "--out", "g.csv", "--bogus"],
         "unrecognized arguments: --bogus"),
        ([], "required: command"),
        (["plan", "--preset", "table1", "--target-acc", "-inf"], "--target-acc"),
    ],
)
def test_usage_error_is_one_input_error_line(argv, fragment, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert_one_input_error(cli.main(argv), capsys, fragment)
    assert list(tmp_path.iterdir()) == []


def test_help_prints_usage_and_exits_zero(capsys):
    with pytest.raises(SystemExit) as stop:
        cli.main(["plan", "--help"])
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith("usage: camcurves plan")


def test_bad_lambda_item_is_an_input_error(observations_csv, tmp_path, capsys):
    argv = ["fit-gam", "--observations", observations_csv, "--metric", "ACC"]
    code = cli.main(argv + ["--lambdas", "1,x,3", "--out", str(tmp_path / "m.json")])
    assert_one_input_error(code, capsys, "--lambdas", "'x'")


@pytest.mark.parametrize("lambdas", ["", " ", ","])
def test_lambdas_that_name_no_number_are_an_input_error(
    observations_csv, tmp_path, capsys, lambdas
):
    # an empty --lambdas fixes no smoothing parameter; it does not mean the search
    out = tmp_path / "m.json"
    argv = ["fit-gam", "--observations", observations_csv, "--metric", "ACC"]
    code = cli.main(argv + ["--lambdas", lambdas, "--out", str(out)])
    assert_one_input_error(code, capsys, "smoothing parameters, got 0")
    assert not out.exists()


def test_huge_lambda_is_an_input_error(observations_csv, tmp_path, capsys):
    out = tmp_path / "m.json"
    argv = ["fit-gam", "--observations", observations_csv, "--metric", "ACC"]
    code = cli.main(argv + ["--lambdas", "1e308", "--out", str(out)])
    message = "smoothing parameters must lie in [0, 1e+12], got [1e+308]"
    assert_one_input_error(code, capsys, message)
    assert not out.exists()


@pytest.mark.parametrize("eliminate", [False, True], ids=["fit", "eliminate"])
@pytest.mark.parametrize("lam", ["1e18", "1e20"])
def test_lambda_above_1e12_is_an_input_error(observations_csv, tmp_path, capsys, lam, eliminate):
    # past ~1e17 rounding in lambda*S erases the smooth's unpenalized line, and the
    # fit would exit 0 with a wrong model
    out = tmp_path / "m.json"
    argv = ["fit-gam", "--observations", observations_csv, "--metric", "ACC"]
    argv += ["--eliminate"] * eliminate + ["--lambdas", lam, "--out", str(out)]
    assert_one_input_error(cli.main(argv), capsys, "smoothing parameters must lie in [0, 1e+12]")
    assert not out.exists()


def test_intercept_only_model_explains_no_negative_deviance(tmp_path, capsys):
    grid = design.simulate_grid(1)
    acc = grid[grid.metric == "ACC"]
    acc.value = np.random.default_rng(0).beta(180, 20, acc.size)
    path, out = str(tmp_path / "acc.csv"), str(tmp_path / "m.json")
    io.write_observations_csv(path, [acc])
    argv = ["fit-gam", "--observations", path, "--metric", "ACC", "--eliminate"]
    assert cli.main(argv + ["--lambdas", "1,1,1", "--out", out]) == cli.EXIT_OK
    model = io.load_model(out)
    assert model.coef_names == ("(intercept)",)
    assert model.fit_stats.deviance_explained >= 0.0
    assert "deviance explained 0.000" in capsys.readouterr().out


def test_eliminate_on_one_cell_offers_no_single_level_factor(calibrated_observations, tmp_path):
    # tuning and architecture have one level in one cell, so no coefficient to test
    grid = calibrated_observations
    cell = (
        (grid.metric == "ACC") & (grid.dataset == "AU") & (grid.tuning == "deep")
        & (grid.architecture == "dnsNet121")
    )
    path, out = tmp_path / "cell.csv", tmp_path / "m.json"
    io.write_observations_csv(str(path), [grid[cell]])
    argv = ["fit-gam", "--observations", str(path), "--metric", "ACC", "--eliminate"]
    src = str(Path(camcurves.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "camcurves.cli", *argv, "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert int(cell.sum()) == 216
    assert done.returncode == cli.EXIT_OK, done.stderr
    assert "Traceback" not in done.stderr
    assert io.load_model(str(out)).metric == "ACC"


def test_fit_gam_without_records_of_its_metric_is_an_input_error(tmp_path, capsys):
    path = str(tmp_path / "prc.csv")
    io.write_observations_csv(path, [observation_rows([0.8, 0.9], [10, 20], metric="PRC")])
    code = cli.main(["fit-gam", "--observations", path, "--metric", "ACC", "--out", path + ".json"])
    assert_one_input_error(code, capsys, "no observations with metric 'ACC'")


@pytest.mark.parametrize("count", [1, 2])
def test_fit_gam_on_fewer_than_three_sizes_is_an_input_error(tmp_path, capsys, count):
    path = str(tmp_path / "obs.csv")
    io.write_observations_csv(path, [observation_rows([0.8, 0.9] * count, SIZES[:count] * 2)])
    code = cli.main(["fit-gam", "--observations", path, "--metric", "ACC", "--out", path + ".json"])
    assert_one_input_error(code, capsys, f"needs 3 distinct sizes, got {count}")


@pytest.mark.parametrize(
    "field, raw, fragment",
    [
        ("metric", "MAP", "unknown metric kind 'MAP'"),
        ("value", "high", "bad value 'high'"),
        ("value", "1.5", "outside [0, 1]"),
        ("num_tr_images", "ten", "bad num_tr_images 'ten'"),
        ("num_tr_images", "0", "must be a positive integer"),
        ("num_tr_images", "99999999999999999999", "bad num_tr_images '99999999999999999999'"),
    ],
    ids=["metric", "value", "value-range", "size", "zero-size", "size-beyond-64-bit"],
)
def test_bad_observation_row_names_its_line(tmp_path, capsys, field, raw, fragment):
    path = tmp_path / "obs.csv"
    io.write_observations_csv(str(path), [observation_rows([0.8, 0.9], [10, 20])])
    header, first, second = path.read_text().splitlines()
    cells = second.split(",")
    cells[header.split(",").index(field)] = raw
    path.write_text("\n".join([header, first, ",".join(cells)]) + "\n")
    code = cli.main(["aggregate", "--observations", str(path), "--by", "dataset"])
    assert_one_input_error(code, capsys, f"{path}:3: ", fragment)


@pytest.mark.parametrize(
    "record, fragment",
    [
        (b"ACC,0.9,AU,caf\xe9,10,a,deep,none", "can't decode byte 0xe9"),
        (b"ACC,0.9,AU," + b"x" * 200_000 + b",10,a,deep,none", "field limit"),
    ],
    ids=["latin-1", "huge-field"],
)
def test_unreadable_csv_is_an_input_error(tmp_path, capsys, record, fragment):
    path = tmp_path / "obs.csv"
    header = ",".join(io.OBSERVATION_COLUMNS).encode()
    path.write_bytes(header + b"\n" + record + b"\n")
    code = cli.main(["aggregate", "--observations", str(path), "--by", "dataset"])
    assert_one_input_error(code, capsys, f"{path}: unreadable as UTF-8 CSV", fragment)


@pytest.mark.parametrize(
    "second, third, expected",
    [
        (("value", "1.5"), ("num_tr_images", "ten"), ":2: metric value 1.5 outside [0, 1]"),
        (("num_tr_images", "ten"), ("metric", "MAP"), ":2: bad num_tr_images 'ten'"),
    ],
    ids=["range-before-parse", "parse-before-range"],
)
def test_first_bad_observation_line_is_named(tmp_path, capsys, second, third, expected):
    path = tmp_path / "obs.csv"
    io.write_observations_csv(str(path), [observation_rows([0.8, 0.9], [10, 20])])
    header, *records = path.read_text().splitlines()
    for i, (field, raw) in enumerate((second, third)):
        cells = records[i].split(",")
        cells[header.split(",").index(field)] = raw
        records[i] = ",".join(cells)
    path.write_text("\n".join([header, *records]) + "\n")
    code = cli.main(["aggregate", "--observations", str(path), "--by", "dataset"])
    assert_one_input_error(code, capsys, f"{path}{expected}")


def test_aggregate_by_class_names_the_csv_column(tmp_path, capsys):
    path = tmp_path / "obs.csv"
    rows = [make_obs(0.8, 10, class_label="fox"), make_obs(0.6, 10, class_label="cat")]
    io.write_observations_csv(str(path), [as_table(rows + [make_obs(0.7, 10, class_label="fox")])])
    argv = ["aggregate", "--observations", str(path), "--by"]
    assert cli.main(argv + ["class"]) == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "metric,class,mean,std,count",
        "ACC,cat,0.600,,1",
        "ACC,fox,0.750,0.071,2",
    ]
    code = cli.main(argv + ["class_label"])
    assert_one_input_error(code, capsys, "cannot group by 'class_label'")


def test_aggregate_orders_groups_by_their_typed_key(observations_csv, capsys):
    argv = ["aggregate", "--observations", observations_csv, "--by", "num_tr_images"]
    assert cli.main(argv) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[1] for line in lines[1:]] == ["10", "20", "50", "150", "500", "1000"]


@pytest.mark.parametrize(
    "by, field",
    [
        ("metric,metric", "metric"),
        ("dataset,dataset", "dataset"),
        ("dataset, class,dataset", "dataset"),
    ],
)
def test_aggregate_by_a_repeated_field_is_an_input_error(
    observations_csv, tmp_path, capsys, by, field
):
    out = tmp_path / "groups.csv"
    argv = ["aggregate", "--observations", observations_csv, "--by", by, "--out", str(out)]
    assert_one_input_error(cli.main(argv), capsys, f"field {field!r} is named more than once")
    assert not out.exists()


AGGREGATE_RECORDS = [
    make_obs(0.5 + 0.01 * i, n, metric=metric, dataset=dataset, class_label=label)
    for i, (metric, dataset, label, n) in enumerate(
        itertools.product(("ACC", "FPR"), ("AU", "SE"), ("cat", "fox"), (10, 50, 150))
    )
    if (dataset, label, n) != ("SE", "fox", 50)
]
GROUPABLE = [c for c in io.OBSERVATION_COLUMNS if c != "value"]
def test_aggregate_prints_a_small_mean_with_the_digits_of_its_std(tmp_path, capsys):
    # FPR means are a few hundredths; at two decimals 0.034 and 0.025 read 0.03
    path = tmp_path / "obs.csv"
    values = [0.012, 0.056, 0.020, 0.030]
    rows = [make_obs(v, 10, metric="FPR", dataset=d) for v, d in zip(values, "AAWW")]
    io.write_observations_csv(str(path), [as_table(rows)])
    assert cli.main(["aggregate", "--observations", str(path), "--by", "dataset"]) == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "metric,dataset,mean,std,count",
        "FPR,A,0.034,0.031,2",
        "FPR,W,0.025,0.007,2",
    ]


# --by items: every groupable field, and unknown, blank and padded ones
BY_ITEMS = [*GROUPABLE, "value", "class_label", "Dataset", "", " ", " tuning "]


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(st.lists(st.sampled_from(BY_ITEMS), max_size=5))
def test_aggregate_exits_0_or_2_with_one_row_per_group(tmp_path, capsys, items):
    path = tmp_path / "obs.csv"
    io.write_observations_csv(str(path), [as_table(AGGREGATE_RECORDS)])
    code = cli.main(["aggregate", "--observations", str(path), "--by", ",".join(items)])
    fields = [item.strip() for item in items if item.strip()]
    group_by = fields if "metric" in fields else ["metric", *fields]
    if not set(group_by) <= set(GROUPABLE) or len(set(group_by)) < len(group_by):
        assert_one_input_error(code, capsys)
        return
    assert code == cli.EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    header, *lines = [line.split(",") for line in captured.out.splitlines()]
    assert header == [*group_by, "mean", "std", "count"]
    columns = [io.OBSERVATION_COLUMNS.index(f) for f in group_by]
    expected = Counter(tuple(str(r[j]) for j in columns) for r in AGGREGATE_RECORDS)
    assert {tuple(line[: len(group_by)]): int(line[-1]) for line in lines} == expected
    assert len(lines) == len(expected)


# eight test images of four classes; D is in the test set but never predicted
PREDICTIONS = """\
image_id,true_class,predicted_class
i0,A,A
i1,A,B
i2,B,B
i3,B,A
i4,C,C
i5,C,A
i6,A,A
i7,D,C
"""

METRIC_ROWS = {
    "A": "A,2,2,3,1,0.62,0.50,0.67,0.40",
    "B": "B,1,1,5,1,0.75,0.50,0.50,0.17",
    "C": "C,1,1,5,1,0.75,0.50,0.50,0.17",
    "D": "D,0,0,7,1,0.88,NA,0.00,0.00",
}


@pytest.fixture
def predictions_csv(tmp_path):
    path = tmp_path / "predictions.csv"
    path.write_text(PREDICTIONS)
    return str(path)


@pytest.mark.parametrize(
    "classes, order",
    [([], "ABCD"), (["--classes", " C, A,D,B,"], "CADB")],
    ids=["observed-labels", "given-classes"],
)
def test_metrics_writes_the_pinned_table(predictions_csv, tmp_path, capsys, classes, order):
    out = tmp_path / "metrics.csv"
    code = cli.main(["metrics", "--predictions", predictions_csv, "--out", str(out), *classes])
    assert code == cli.EXIT_OK
    assert capsys.readouterr().out == f"wrote per-class metrics for 4 classes to {out}\n"
    rows = ["class,tp,fp,tn,fn,ACC,PRC,TPR,FPR", *(METRIC_ROWS[c] for c in order)]
    assert out.read_bytes() == "".join(row + "\r\n" for row in rows).encode()


@pytest.mark.parametrize(
    "classes, fragments",
    [
        ("A,B,C", ["unknown class label 'D' in record 'i7'"]),
        ("A,A,B,C,D", ["class 'A'", "more than once"]),
        ("A,B,C,D,E", ["true positive rate undefined", "class 'E'"]),
        ("", ["--classes '' names no class"]),
        (" , ,", ["--classes ' , ,' names no class"]),
    ],
    ids=["unknown-label", "repeated-class", "absent-class", "empty", "only-commas"],
)
def test_metrics_class_set_errors(predictions_csv, tmp_path, capsys, classes, fragments):
    out = tmp_path / "metrics.csv"
    argv = ["metrics", "--predictions", predictions_csv, "--out", str(out), "--classes", classes]
    assert_one_input_error(cli.main(argv), capsys, *fragments)
    assert not out.exists()


def test_metrics_names_the_class_without_negative_images(tmp_path, capsys):
    path = tmp_path / "predictions.csv"
    path.write_text("image_id,true_class,predicted_class\ni0,A,A\ni1,A,A\n")
    argv = ["metrics", "--predictions", str(path), "--out", str(tmp_path / "metrics.csv")]
    assert_one_input_error(cli.main(argv), capsys, "false positive rate undefined", "class 'A'")


def test_metrics_rejects_an_image_listed_twice(tmp_path, capsys):
    path, out = tmp_path / "predictions.csv", tmp_path / "metrics.csv"
    path.write_text("image_id,true_class,predicted_class\na,x,x\na,y,x\nb,y,y\n")
    argv = ["metrics", "--predictions", str(path), "--out", str(out)]
    assert_one_input_error(cli.main(argv), capsys, "image id 'a' is listed twice")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, column",
    [("metrics", "location_id"), ("metrics", "timestamp"), ("design", "timestamp")],
)
def test_a_dropped_column_is_an_unrecognized_column(
    command, column, image_index, tmp_path, capsys
):
    # the file runs without the column and fails, with no output written, with it
    if command == "metrics":
        text, flags = PREDICTIONS, ["--predictions"]
    else:
        text = Path(image_index).read_text()
        flags = ["--seed", "1", "--test", "5", "--ladder", "5,10", "--manifest-in"]
    header, *rows = text.splitlines()
    path, out = tmp_path / "input.csv", tmp_path / "out"
    argv = [command, *flags, str(path), "--out", str(out)]
    path.write_text(text)
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    out.unlink()
    path.write_text("\n".join([f"{header},{column}", *(f"{row}," for row in rows)]) + "\n")
    assert_one_input_error(cli.main(argv), capsys, f"{path}: unrecognized columns [{column!r}]")
    assert not out.exists()


@st.composite
def prediction_records(draw):
    """(true, predicted) per record: a balanced test set over some of A-D, with
    predictions among its classes and D."""
    truth = draw(st.lists(st.sampled_from("ABCD"), min_size=1, unique=True))
    per_class = draw(st.integers(1, 3))
    return [
        (true, draw(st.sampled_from([*truth, "D"]))) for true in truth for _ in range(per_class)
    ]


# a --classes value: labels (an unknown one, repeats) with stray spaces and commas
class_flags = st.none() | st.lists(st.sampled_from(["A", "B", "C", "D", "E", " A", ""])).map(
    ",".join
)


@settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(prediction_records(), class_flags)
def test_metrics_exits_0_or_2_with_consistent_counts(tmp_path, capsys, records, classes):
    path = tmp_path / "predictions.csv"
    lines = ["image_id,true_class,predicted_class"]
    lines += [f"i{j},{t},{p}" for j, (t, p) in enumerate(records)]
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "metrics.csv"
    out.unlink(missing_ok=True)
    argv = ["metrics", "--predictions", str(path), "--out", str(out)]
    code = cli.main(argv + ([] if classes is None else ["--classes", classes]))
    if code != cli.EXIT_OK:
        assert_one_input_error(code, capsys)
        assert not out.exists()
        return
    assert capsys.readouterr().err == ""
    header, *rows = out.read_text().splitlines()
    assert header == "class,tp,fp,tn,fn,ACC,PRC,TPR,FPR"
    if classes is None:
        expected = sorted({label for t, p in records for label in (t, p)})
    else:
        expected = [c.strip() for c in classes.split(",") if c.strip()]
    assert [row.split(",")[0] for row in rows] == expected
    for row in rows:
        label, *counts = row.split(",")[:5]
        tp = sum(1 for t, p in records if t == label and p == label)
        fn = sum(1 for t, p in records if t == label and p != label)
        fp = sum(1 for t, p in records if t != label and p == label)
        tn = sum(1 for t, p in records if t != label and p != label)
        assert [int(c) for c in counts] == [tp, fp, tn, fn]
        assert tp + fp + tn + fn == len(records)


@pytest.fixture
def image_index(tmp_path):
    """Two classes of 20 image ids, without locations."""
    index = tmp_path / "index.csv"
    index.write_text("image_id,class\n" + "".join(f"i{j},c{j % 2}\n" for j in range(40)))
    return str(index)


def test_bad_ladder_item_is_an_input_error(image_index, tmp_path, capsys):
    argv = ["design", "--manifest-in", image_index, "--seed", "1", "--out", str(tmp_path / "d.json")]
    assert_one_input_error(cli.main(argv + ["--ladder", "5,abc"]), capsys, "--ladder", "'abc'")
    code = cli.main(argv + ["--ladder", ","])
    assert_one_input_error(code, capsys, "size ladder must be distinct positive integers")


@pytest.mark.parametrize("command", ["simulate", "design"])
def test_negative_seed_is_an_input_error(command, image_index, tmp_path, capsys):
    out = tmp_path / "out.file"
    argv = [command, "--seed", "-5", "--out", str(out)]
    if command == "design":
        argv += ["--manifest-in", image_index, "--test", "5", "--ladder", "5,10"]
    code = cli.main(argv)
    assert_one_input_error(code, capsys, "seed must be a non-negative integer")
    assert not out.exists()


# --out targets that cannot be written, relative to a directory that holds
# an empty directory "dir": (id suffix, target)
UNWRITABLE_OUT = [
    ("", os.path.join("missing", "out.file")),
    ("-directory", "dir"),
    ("-dot", "."),
    ("-trailing-separator", "out.file" + os.sep),  # names a directory that does not exist
]
OUT_COMMANDS = {
    "simulate": ["simulate", "--seed", "1"],
    "plan": ["plan", "--preset", "table1", "--target-acc", "0.9"],
    "fit-gam": ["fit-gam", "--metric", "ACC", "--lambdas", "1"],
    "fit-ols": ["fit-ols", "--metric", "ACC"],
    "aggregate": ["aggregate", "--by", "dataset"],
}


def in_work_directory(tmp_path, monkeypatch):
    """Change into a fresh directory under `tmp_path` that holds an empty directory "dir"."""
    work = tmp_path / "work"
    (work / "dir").mkdir(parents=True)
    monkeypatch.chdir(work)
    return work


@pytest.mark.parametrize(
    "argv, target",
    [
        pytest.param(argv, target, id=name + suffix)
        for suffix, target in UNWRITABLE_OUT
        for name, argv in OUT_COMMANDS.items()
    ],
)
def test_out_in_missing_directory_is_an_input_error(
    argv, target, observations_csv, tmp_path, capsys, monkeypatch
):
    work = in_work_directory(tmp_path, monkeypatch)
    if argv[0] in ("fit-gam", "fit-ols", "aggregate"):
        argv = argv + ["--observations", observations_csv]
    code = cli.main(argv + ["--out", target])
    # nothing on stdout: plan checks --out before it prints a plan line
    assert assert_one_input_error(code, capsys, f"cannot write {target}: ") == ""
    assert [p.name for p in work.iterdir()] == ["dir"]  # no output and no temp file left
    assert not any((work / "dir").iterdir())


def test_fit_gam_rejects_missing_out_directory_before_fitting(
    observations_csv, tmp_path, capsys, monkeypatch
):
    def no_fit(*args, **kwargs):
        raise AssertionError("fit-gam fitted before checking --out")

    monkeypatch.setattr(cli.betagam, "fit", no_fit)
    monkeypatch.setattr(cli.betagam, "backward_eliminate", no_fit)
    work = in_work_directory(tmp_path, monkeypatch)
    argv = ["fit-gam", "--observations", observations_csv, "--metric", "ACC"]
    for _, target in UNWRITABLE_OUT:
        for extra in ([], ["--eliminate"]):
            code = cli.main(argv + ["--out", target] + extra)
            assert_one_input_error(code, capsys, f"cannot write {target}: ")
    assert [p.name for p in work.iterdir()] == ["dir"]


STDOUT_COMMANDS = {
    "plan": OUT_COMMANDS["plan"],
    "aggregate": OUT_COMMANDS["aggregate"],  # its table, on stdout without --out
    "help": ["--help"],
}


@pytest.mark.parametrize("command", STDOUT_COMMANDS)
@pytest.mark.parametrize("stdout", ["/dev/full", "closed pipe"])
def test_failed_write_to_standard_output_is_one_input_error_line(
    command, stdout, observations_csv
):
    if stdout == "closed pipe":
        read_end, fd = os.pipe()
        os.close(read_end)
    elif os.path.exists(stdout):
        fd = os.open(stdout, os.O_WRONLY)
    else:
        pytest.skip(f"no {stdout}")
    argv = STDOUT_COMMANDS[command]
    if command == "aggregate":
        argv = argv + ["--observations", observations_csv]
    src = str(Path(camcurves.__file__).resolve().parent.parent)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "camcurves.cli", *argv],
            env=dict(os.environ, PYTHONPATH=src),
            stdout=fd,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(fd)
    assert done.returncode == cli.EXIT_INPUT
    assert "Traceback" not in done.stderr
    # one line: the interpreter's last flush reports no ignored exception
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("input-error: cannot write standard output: ")


@pytest.mark.parametrize("alpha", ["2", "0", "nan"])
@pytest.mark.parametrize("extra", [[], ["--eliminate"]], ids=["fit", "eliminate"])
def test_alpha_outside_the_unit_interval_is_an_input_error(
    alpha, extra, observations_csv, tmp_path, capsys, monkeypatch
):
    def no_parse(*args, **kwargs):
        raise AssertionError("fit-gam parsed the observations before checking --alpha")

    monkeypatch.setattr(cli.io, "parse_observations", no_parse)
    out = tmp_path / "m.json"
    argv = ["fit-gam", "--observations", observations_csv, "--metric", "ACC", "--out", str(out)]
    code = cli.main(argv + ["--alpha", alpha] + extra)
    assert_one_input_error(code, capsys, "--alpha must lie in (0, 1)")
    assert not out.exists()


def test_fit_gam_squeezes_only_values_at_the_bounds(tmp_path):
    values = np.random.default_rng(0).beta(80 * 0.8, 80 * 0.2, 48)

    def model_bytes(name, first_three):
        values[:3] = first_three
        path = str(tmp_path / f"{name}.csv")
        io.write_observations_csv(path, [observation_rows(values, np.tile(SIZES, 8))])
        out = tmp_path / f"{name}.json"
        argv = ["fit-gam", "--observations", path, "--metric", "ACC", "--lambdas", "1"]
        assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_OK
        return out.read_bytes()

    at_bounds = model_bytes("bounds", [0.0, 5e-5, 1.0])
    assert model_bytes("squeezed", [1e-4, 5e-5, 1.0 - 1e-4]) == at_bounds
    assert model_bytes("interior-moved", [1e-4, 1e-4, 1.0 - 1e-4]) != at_bounds


def test_select_zero_is_an_input_error(image_index, tmp_path, capsys):
    argv = ["design", "--manifest-in", image_index, "--seed", "1", "--select", "0"]
    code = cli.main(argv + ["--out", str(tmp_path / "d.json")])
    assert_one_input_error(code, capsys, "selection count must be >= 1")
    assert not (tmp_path / "d.json").exists()


def test_image_listed_under_two_classes_is_an_input_error(image_index, tmp_path, capsys):
    # at the largest ladder size, i0 would train c0 and test c1
    with open(image_index, "a") as handle:
        handle.write("i0,c1\n")
    out = tmp_path / "d.json"
    argv = ["design", "--manifest-in", image_index, "--seed", "1", "--test", "5"]
    code = cli.main(argv + ["--ladder", "5,10", "--out", str(out)])
    assert_one_input_error(code, capsys, "image id 'i0' is listed twice", "'c0' and in class 'c1'")
    assert not out.exists()


def test_image_listed_twice_in_one_class_is_an_input_error(image_index, tmp_path, capsys):
    with open(image_index, "a") as handle:
        handle.write("i0,c0\n")
    out = tmp_path / "d.json"
    argv = ["design", "--manifest-in", image_index, "--seed", "1", "--test", "5"]
    code = cli.main(argv + ["--ladder", "5,10", "--out", str(out)])
    assert_one_input_error(code, capsys, "image id 'i0' is listed twice in class 'c0'")
    assert not out.exists()


def test_design_reports_which_ids_lack_a_location(tmp_path, capsys):
    rows = [f"i{j},c{j % 2},{'' if j == 5 else f'L{j % 8}'}\n" for j in range(40)]
    index = tmp_path / "index.csv"
    index.write_text("image_id,class,location_id\n" + "".join(rows))
    out = tmp_path / "d.json"
    argv = ["design", "--manifest-in", str(index), "--seed", "1", "--test", "5"]
    code = cli.main(argv + ["--ladder", "5,10", "--out", str(out)])
    assert code == cli.EXIT_OK
    detail = "1 image ids lack a location (e.g. 'i5')"
    assert capsys.readouterr().err == f"location coverage: cannot_validate: {detail}\n"
    coverage = json.loads(out.read_text())["location_coverage"]
    assert coverage == {"status": "cannot_validate", "violations": [], "detail": detail}


def test_design_with_an_empty_location_column_cannot_validate(tmp_path, capsys):
    # a location_id column with no location in it is never a silent pass
    index, out = tmp_path / "index.csv", tmp_path / "d.json"
    rows = "".join(f"i{j},c{j % 2},\n" for j in range(40))
    index.write_text("image_id,class,location_id\n" + rows)
    argv = ["design", "--manifest-in", str(index), "--seed", "1", "--test", "5"]
    assert cli.main(argv + ["--ladder", "5,10", "--out", str(out)]) == cli.EXIT_OK
    err = capsys.readouterr().err
    assert err.startswith("location coverage: cannot_validate: 40 image ids lack a location")
    coverage = json.loads(out.read_text())["location_coverage"]
    assert coverage["status"] == "cannot_validate" and coverage["detail"] in err


# location of image i{j} (class c{j % 3}) per coverage case; None: no location column
INDEX_LOCATIONS = {
    "none": None,
    "ok": lambda j: f"L{j % 7}",
    "violations": lambda j: f"L{j % 2}" if j % 3 == 2 else f"L{j % 7}",
    "cannot_validate": lambda j: "" if j == 5 else f"L{j % 7}",
}
COVERAGE_STDERR = {
    "none": "",
    "ok": "",
    "violations": "location coverage: violations\n",
    "cannot_validate": "location coverage: cannot_validate: 1 image ids lack a location "
    "(e.g. 'i5')\n",
}
# sha256 of the manifest JSON text per (subset flags, coverage case)
PINNED_MANIFESTS = {
    ("nested", "none"): "564bb8a35b785a53bc5e074a6402e0697a3b7af9be674722aeb557e3f13917b0",
    ("nested", "ok"): "1f2f406012b4e12908c584bf560834c360c3307ff8e154f9d13164dedfbd6bc7",
    ("nested", "violations"): "eecdf45044aa09f2216965d687d30321c81fbcbb60ac79fa5d2dd0edb639469f",
    ("nested", "cannot_validate"):
        "aaf59d3472c8ddded15321a99f78c133359fdb95835fe0677a0a2da6c4647c95",
    ("independent", "none"): "d9e78db128dee360bdb9c8fdca4f4c70c790f7baf2ae2ef2d7ddd77d271187f8",
    ("independent", "ok"): "2ef3a7a4d5249f898df885532abad0020f42bce63e262bd96389b429c2fbdd44",
    ("independent", "violations"):
        "f0234f976a773b51902c67697e5a1618618752565bb691d7cc8561081d679b77",
    ("independent", "cannot_validate"):
        "cd2304871fd5ddb6894163201eca04bd7aa1db2e904ae9efb769ec2a15904bd0",
}


@pytest.mark.parametrize("coverage", list(INDEX_LOCATIONS))
@pytest.mark.parametrize(
    "subsets, flags",
    [("nested", ["--ladder", "2,5,9"]),
     ("independent", ["--ladder", "9,2,5", "--independent", "--select", "17"])],
    ids=["nested", "independent"],
)
def test_design_manifest_bytes_are_pinned(subsets, flags, coverage, tmp_path, capsys):
    place = INDEX_LOCATIONS[coverage]
    if place is None:
        text = "image_id,class\n" + "".join(f"i{j},c{j % 3}\n" for j in range(60))
    else:
        rows = "".join(f"i{j},c{j % 3},{place(j)}\n" for j in range(60))
        text = "image_id,class,location_id\n" + rows
    index, out = tmp_path / "index.csv", tmp_path / "d.json"
    index.write_text(text)
    argv = ["design", "--manifest-in", str(index), "--seed", "7", "--test", "4", *flags]
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == f"wrote design for 3 classes to {out}\n"
    assert captured.err == COVERAGE_STDERR[coverage]
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == PINNED_MANIFESTS[(subsets, coverage)]


def test_linalg_failure_is_a_numerical_error(observations_csv, tmp_path, capsys, monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli.betagam, "fit", singular)
    argv = ["fit-gam", "--observations", observations_csv, "--metric", "ACC"]
    code = cli.main(argv + ["--out", str(tmp_path / "m.json")])
    assert_one_error_line(code, capsys, cli.EXIT_NUMERICAL, "numerical-error: ", "Singular matrix")


@pytest.mark.parametrize("flags", [[], ["--lambdas", "1e-4,1e-4"]], ids=["search", "fixed"])
def test_a_fit_that_fails_on_an_extreme_ladder_prints_one_line(flags, tmp_path, capsys):
    # sizes 64 apart near 1e15: a state whose mean rounds to 0 or 1 has no likelihood,
    # and the fit fails with its one error line, not a numpy warning before it
    sizes = 10**15 + np.arange(0, 256, 64)
    cells = itertools.product(("AU", "SE"), ("deep", "shallow"), sizes, range(10))
    rng = np.random.default_rng(0)
    table = as_table([
        make_obs(0.8 + rng.uniform(-0.03, 0.03), n, dataset=d, tuning=t, class_label=f"c{c}")
        for d, t, n, c in cells
    ])
    path = tmp_path / "ladder.csv"
    io.write_observations_csv(str(path), [table])
    argv = ["fit-gam", "--observations", str(path), "--metric", "ACC", *flags]
    code = cli.main(argv + ["--out", str(tmp_path / "m.json")])
    assert_one_error_line(code, capsys, cli.EXIT_NUMERICAL, "numerical-error: ")


# Modules that no command needs but that slow its start: scipy, which only the
# tests use, as an oracle, and xml.sax, which pulls in urllib.request,
# http.client and email; `site` may preload urllib.parse, so urllib itself is
# not listed.
HEAVY_MODULES = ("scipy", "xml.sax", "urllib.request", "http.client", "email")

LOADED_AFTER_EACH_COMMAND = """
import json, sys

heavy = json.loads(sys.argv[1])


def loaded():
    return sorted(m for m in sys.modules if any(m == h or m.startswith(h + ".") for h in heavy))


import camcurves.cli

report = [["import", None, loaded()]]
for argv in json.loads(sys.argv[2]):
    report.append([argv[0], camcurves.cli.main(argv), loaded()])
print(json.dumps(report))
"""


def test_cli_import_leaves_scipy_stats_unloaded(calibrated_acc_model, observations_csv, tmp_path):
    """Importing the CLI and running any command, a fit and a Wald test included, loads no
    heavy module."""
    io.save_model(calibrated_acc_model, str(tmp_path / "acc.json"))
    index = tmp_path / "index.csv"
    rows = "".join(f"i{j},c{j % 2},L{j % 8}\n" for j in range(40))
    index.write_text("image_id,class,location_id\n" + rows)
    cell = ["--cell", "WI,deep,resNet18"]
    commands = [
        ["simulate", "--seed", "1", "--out", "grid.csv"],
        ["plan", "--model", "acc.json", "--target", "0.95", *cell],
        ["plan", "--preset", "table1", "--target-acc", "0.9", "--target-fpr", "0.05"],
        ["design", "--manifest-in", str(index), "--seed", "1", "--test", "5", "--ladder", "5,10",
         "--out", "d.json"],
        ["curve-plot", "--model", "acc.json", "--observations", "grid.csv", *cell,
         "--out", "acc.svg"],
        ["fit-gam", "--observations", observations_csv, "--metric", "ACC", "--lambdas", "1",
         "--out", "m.json"],
        ["fit-gam", "--observations", "grid.csv", "--metric", "FPR", "--eliminate",
         "--lambdas", "1,1,1", "--out", "fpr.json"],
    ]
    src = str(Path(camcurves.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", LOADED_AFTER_EACH_COMMAND, json.dumps(HEAVY_MODULES),
         json.dumps(commands)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    report = json.loads(done.stdout.splitlines()[-1])
    assert [step[1] for step in report] == [None] + [cli.EXIT_OK] * len(commands)
    assert [names for _, _, names in report] == [[]] * len(report)


def test_fits_leave_numpy_ma_unloaded(grid_csv, tmp_path):
    """A fit finds distinct values by one sort (`_numeric.distinct`), not np.unique,
    whose first call imports numpy.ma (~12 ms) though no fit uses masked arrays."""
    commands = [
        ["fit-gam", "--observations", grid_csv, "--metric", "ACC", "--out", "m.json"],
        ["fit-gam", "--observations", grid_csv, "--metric", "FPR", "--eliminate",
         "--out", "e.json"],
        ["fit-ols", "--observations", grid_csv, "--metric", "ACC", "--out", "o.json"],
    ]
    src = str(Path(camcurves.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", LOADED_AFTER_EACH_COMMAND, json.dumps(["numpy.ma"]),
         json.dumps(commands)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    report = json.loads(done.stdout.splitlines()[-1])
    assert [step[1] for step in report] == [None] + [cli.EXIT_OK] * len(commands)
    assert [names for _, _, names in report] == [[]] * len(report)


def test_plan_with_a_huge_ceiling_stays_bounded(calibrated_acc_model, tmp_path, capsys):
    model = str(tmp_path / "acc.json")
    io.save_model(calibrated_acc_model, model)
    argv = ["plan", "--model", model, "--cell", "WI,deep,resNet18", "--ceiling", "1000000000000"]
    for target in ("0.95", "0.9999"):
        code = cli.main(argv + ["--target", target])
        err = capsys.readouterr().err
        assert code in (cli.EXIT_OK, cli.EXIT_INFEASIBLE)
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "last_knot, ceiling, code",
    [(800.0, None, cli.EXIT_OK), (800.0, 2**53, cli.EXIT_OK), (25.0, 2**53, cli.EXIT_OK)],
)
def test_plan_past_a_far_last_knot_exits_with_one_line(
    calibrated_acc_model, tmp_path, capsys, last_knot, ceiling, code
):
    # exp(800) overflows a float, and e^25 sizes would need 536 GiB in one array; a
    # plan predicts the ends of its monotone runs and a bisection, whatever the knots
    payload = io.model_to_dict(calibrated_acc_model)
    payload["knots"][-1] = last_knot
    model = tmp_path / "acc.json"
    model.write_text(io.canonical_json(payload))
    argv = ["plan", "--model", str(model), "--target", "0.9", "--cell", "WI,deep,resNet18"]
    if ceiling is not None:
        argv += ["--ceiling", str(ceiling)]
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("ACC >= 0.9: required_n ") and captured.out.count("\n") == 1


@pytest.mark.parametrize("target", ["0.9", "0.97", "0.995"])
@pytest.mark.parametrize("cell", ["AU,deep,dnsNet121", "SE,shallow,resNet152", "WI,deep,resNet18"])
def test_plan_with_every_knot_far_plans_at_the_largest_ceiling(
    calibrated_acc_model, tmp_path, capsys, cell, target
):
    # knots shifted by 20 in log n, from e^22.3 to e^26.9
    model = tmp_path / "acc.json"
    io.save_model(replace(calibrated_acc_model, knots=calibrated_acc_model.knots + 20.0), str(model))
    argv = ["plan", "--model", str(model), "--target", target, "--cell", cell]
    code = cli.main(argv + ["--ceiling", "9007199254740992"])
    assert code in (cli.EXIT_OK, cli.EXIT_INFEASIBLE)
    if code == cli.EXIT_OK:
        assert capsys.readouterr().err == ""
    else:
        assert_one_error_line(code, capsys, code, "infeasible-plan: ")


def _drop_phi(d):
    del d["phi"]


def _drop_wi_constraint(d):
    del d["smooth_constraints"]["s(num_tr_images):dataset[WI]"]


def _rename_wi_block(d):
    for key in ("smooth_constraints", "lambdas"):
        d[key]["s(num_tr_images):dataset[XX]"] = d[key].pop("s(num_tr_images):dataset[WI]")


def _rename_wi_lambda(d):
    d["lambdas"]["s(num_tr_images):dataset[XX]"] = d["lambdas"].pop("s(num_tr_images):dataset[WI]")


def _drop_last_coef(d):
    d["coef"].pop()


def _drop_last_edf(d):
    d["edf_by_coef"].pop()


def _drop_covariance_row(d):
    d["covariance"].pop()


def _drop_tuning_levels(d):
    del d["factor_levels"]["tuning"]


def _fractional_observed_size(d):
    d["observed_sizes"][-1] = 1000.5


def _text_observed_size(d):
    d["observed_sizes"][0] = "10"


def _fractional_k(d):
    d["smooth_terms"][0]["k"] = 5.7


def _boolean_k(d):
    d["smooth_terms"][0]["k"] = True


def _k_without_its_knots(d):
    d["smooth_terms"][0]["k"] = 7


def _fractional_n_obs(d):
    d["fit_stats"]["n_obs"] = 3.7


def _fractional_iterations(d):
    d["fit_stats"]["iterations"] = 2.5


def _by_factor_not_in_the_model(d):
    d["smooth_terms"][0]["by_factor"] = "class"


def _second_smooth(d):
    d["smooth_terms"].append(dict(d["smooth_terms"][0], by_factor=None))


def _phi_beyond_the_float_range_as_an_integer(d):
    d["phi"] = 10**400


def _text_phi(d):
    d["phi"] = "nan"


def _text_lambdas(d):
    d["lambdas"] = {label: str(value) for label, value in d["lambdas"].items()}


def _integer_coef_name(d):
    d["coef_names"][0] = 1


def _integer_dataset_level(d):
    d["factor_levels"]["dataset"][1] = 7


def _zero_observed_size(d):
    d["observed_sizes"][0] = 0


def _ragged_covariance(d):
    d["covariance"][3].pop()


def _text_covariance_entry(d):
    d["covariance"][3][4] = "1"


def _two_knots(d):
    d["knots"] = d["knots"][:2]


def _reversed_knots(d):
    d["knots"].reverse()


def _nested_knots(d):
    d["knots"] = [d["knots"]]


@pytest.mark.parametrize(
    "edit, fragment",
    [
        (_drop_phi, "missing key 'phi'"),
        (_drop_wi_constraint, "s(num_tr_images):dataset[WI]"),
        (_rename_wi_block, "no 5 x 4 smooth constraint for 's(num_tr_images):dataset[WI]'"),
        (_rename_wi_lambda, "lambdas name ["),
        (_drop_last_coef, "coef has shape"),
        (_drop_last_edf, "edf_by_coef has shape"),
        (_drop_covariance_row, "covariance has shape"),
        (_drop_tuning_levels, "disagree with its parametric terms"),
        (_fractional_observed_size, "observed_sizes[5] must be an integer, got 1000.5"),
        (_text_observed_size, "observed_sizes[0] must be an integer, got '10'"),
        (_fractional_k, "smooth_terms[0] k must be an integer, got 5.7"),
        (_boolean_k, "smooth_terms[0] k must be an integer, got True"),
        (_k_without_its_knots, "smooth term k=7 disagrees with its 5 knots"),
        (_fractional_n_obs, "fit_stats n_obs must be an integer, got 3.7"),
        (_fractional_iterations, "fit_stats iterations must be an integer, got 2.5"),
        (_by_factor_not_in_the_model, "smooth by-factor 'class' is not a parametric term"),
        (_second_smooth, "at most one smooth term is supported"),
        (_phi_beyond_the_float_range_as_an_integer, "malformed model: int too large"),
        (_text_phi, "model phi must be a number, got 'nan'"),
        (_text_lambdas, "lambdas['s(num_tr_images):dataset[AU]'] must be a number, got '"),
        (_integer_coef_name, "coef_names[0] must be a string, got 1"),
        (_integer_dataset_level, "factor_levels['dataset'][1] must be a string, got 7"),
        (_zero_observed_size, "observed_sizes must be positive, got 0"),
        (_ragged_covariance, "covariance rows must be equally long, got lengths [20, 21]"),
        (_text_covariance_entry, "covariance[3][4] must be a number, got '1'"),
        (_two_knots, "model knots must be 3 or more strictly increasing numbers"),
        (_reversed_knots, "model knots must be 3 or more strictly increasing numbers"),
        (_nested_knots, "model knots must be 3 or more strictly increasing numbers"),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_malformed_gam_file_is_an_input_error(
    calibrated_acc_model, tmp_path, capsys, edit, fragment
):
    payload = io.model_to_dict(calibrated_acc_model)
    edit(payload)
    model = tmp_path / "acc.json"
    model.write_text(io.canonical_json(payload))
    argv = ["plan", "--model", str(model), "--target", "0.95", "--cell", "WI,deep,resNet18"]
    assert_one_input_error(cli.main(argv), capsys, fragment)


@pytest.mark.parametrize(
    "edit, fragment",
    [
        (lambda d: d.pop("slope"), "missing key 'slope'"),
        (lambda d: d.update(size_range=[10]), "size_range must be a list of 2 items, got [10]"),
        (lambda d: d.update(size_range=["a", "b"]), "size_range[0] must be an integer, got 'a'"),
        (lambda d: d.update(size_range=[0, 500]), "size_range must be positive, got 0"),
        (lambda d: d.update(size_range=[1000, 10]), "size_range must not be reversed, got [1000"),
        (lambda d: d.update(n_obs=3.9), "n_obs must be an integer, got 3.9"),
        (lambda d: d.update(n_obs=True), "n_obs must be an integer, got True"),
        (lambda d: d.update(slope="inf"), "model slope must be a number, got 'inf'"),
        (lambda d: d.update(intercept="nan"), "model intercept must be a number, got 'nan'"),
    ],
    ids=[
        "missing-slope",
        "one-size",
        "text-sizes",
        "zero-size",
        "reversed-sizes",
        "fractional-n-obs",
        "boolean-n-obs",
        "text-slope",
        "text-intercept",
    ],
)
def test_malformed_ols_file_is_an_input_error(tmp_path, capsys, edit, fragment):
    table = observation_rows([0.6 + 0.05 * i for i in range(len(SIZES))], SIZES)
    payload = io.model_to_dict(camcurves.fit_log_curve(table, "ACC"))
    edit(payload)
    model = tmp_path / "acc.json"
    model.write_text(io.canonical_json(payload))
    code = cli.main(["plan", "--model", str(model), "--target", "0.9"])
    assert_one_input_error(code, capsys, fragment)


def test_model_file_nested_too_deep_to_decode_is_an_input_error(tmp_path, capsys):
    # json's decoder recurses once per level and stops at the interpreter's limit
    model = tmp_path / "deep.json"
    model.write_text("[" * 100_000 + "]" * 100_000)
    code = cli.main(["plan", "--model", str(model), "--target", "0.9"])
    assert_one_input_error(code, capsys, f"{model}: invalid JSON (maximum recursion depth")


def with_non_finite(document, path, token) -> str:
    """The JSON text of `document` with the number at `path` (a key, then indices) as `token`."""
    *parents, last = path
    target = document
    for key in parents:
        target = target[key]
    target[last] = "__non-finite__"
    return io.canonical_json(document).replace('"__non-finite__"', token)


@pytest.mark.parametrize(
    "command, path, token",
    [
        ("plan-ols", ["slope"], "Infinity"),
        ("plan-gam", ["coef", 0], "NaN"),
        ("curve-plot-gam", ["coef", 0], "NaN"),
        ("plan-gam", ["phi"], "1e999"),
        ("plan-gam", ["covariance", 0, 0], "-Infinity"),
    ],
    ids=["ols-slope-infinity", "gam-coef-nan", "curve-plot-gam-coef-nan", "gam-phi-1e999",
         "gam-covariance-minus-infinity"],
)
def test_non_finite_number_in_a_model_file_is_an_input_error(
    calibrated_acc_model, observations_csv, tmp_path, capsys, command, path, token
):
    # json reads NaN, Infinity and 1e999 (as inf) by default; a model holding one
    # would plan a size, or plot a curve of nan, and exit 0
    family = command.rsplit("-", 1)[1]
    if family == "gam":
        payload = io.model_to_dict(calibrated_acc_model)
    else:
        table = observation_rows([0.6 + 0.05 * i for i in range(len(SIZES))], SIZES)
        payload = io.model_to_dict(camcurves.fit_log_curve(table, "ACC"))
    model, svg = tmp_path / "model.json", tmp_path / "curve.svg"
    model.write_text(with_non_finite(payload, path, token))
    if command.startswith("plan"):
        argv = ["plan", "--model", str(model), "--target", "0.95"]
    else:
        argv = ["curve-plot", "--model", str(model), "--observations", observations_csv,
                "--out", str(svg)]
    if family == "gam":
        argv += ["--cell", "WI,deep,resNet18"]
    assert_one_input_error(cli.main(argv), capsys, f"invalid JSON (non-finite number {token})")
    assert not svg.exists()


@pytest.mark.parametrize("command", ["plan", "curve-plot"])
def test_model_whose_linear_predictor_overflows_is_an_input_error(
    calibrated_acc_model, observations_csv, tmp_path, capsys, command
):
    # every coefficient is finite, but their sum at the cell is not
    payload = io.model_to_dict(calibrated_acc_model)
    payload["coef"] = [1e308] * len(payload["coef"])
    model, svg = tmp_path / "model.json", tmp_path / "curve.svg"
    model.write_text(io.canonical_json(payload))
    if command == "plan":
        argv = ["plan", "--model", str(model), "--target", "0.95"]
    else:
        argv = ["curve-plot", "--model", str(model), "--observations", observations_csv,
                "--out", str(svg)]
    code = cli.main(argv + ["--cell", "WI,deep,resNet18"])
    assert_one_input_error(code, capsys, "linear predictor is not finite at num_tr_images ")
    assert not svg.exists()


def test_model_with_huge_coefficients_of_opposite_sign_plans_no_size(
    calibrated_acc_model, tmp_path, capsys
):
    # the tuning coefficient is not used at a deep cell, so the linear predictor
    # is about -1e308: finite, with a mean of 0 that meets no ACC target
    payload = io.model_to_dict(calibrated_acc_model)
    payload["coef"][0], payload["coef"][1] = -1e308, 1e308
    assert payload["coef_names"][1] == "tuning[shallow]"
    model = tmp_path / "model.json"
    model.write_text(io.canonical_json(payload))
    argv = ["plan", "--model", str(model), "--target", "0.95", "--cell", "WI,deep,resNet18"]
    assert_one_error_line(cli.main(argv), capsys, cli.EXIT_INFEASIBLE, "infeasible-plan: ")


def test_curve_plot_of_a_log_size_model_with_a_cell_is_an_input_error(
    ols_file, observations_csv, tmp_path, capsys
):
    svg = tmp_path / "ols.svg"
    argv = ["curve-plot", "--model", ols_file, "--observations", observations_csv]
    code = cli.main(argv + ["--cell", "AU,deep,resNet50", "--out", str(svg)])
    assert_one_input_error(code, capsys, "a log-size curve takes none")
    assert not svg.exists()
    assert cli.main(argv + ["--out", str(svg)]) == cli.EXIT_OK


def test_model_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    model = tmp_path / "acc.json"
    model.write_bytes(b'{"schema": "camcurves-model/1", "metric": "\xff"}')
    code = cli.main(["plan", "--model", str(model), "--target", "0.9"])
    assert_one_input_error(code, capsys, "unreadable as UTF-8")


@pytest.fixture
def gam_file(calibrated_acc_model, tmp_path):
    path = str(tmp_path / "acc.json")
    io.save_model(calibrated_acc_model, path)
    return path


@pytest.mark.parametrize("source", ["gam", "preset"])
def test_ceiling_above_2_pow_53_is_an_input_error(gam_file, capsys, source):
    if source == "gam":
        argv = ["plan", "--model", gam_file, "--target", "0.95", "--cell", "WI,deep,resNet18"]
    else:
        argv = ["plan", "--preset", "table1", "--target-acc", "0.95"]
    code = cli.main(argv + ["--ceiling", str(2**53)])
    assert code == cli.EXIT_OK
    assert "required_n" in capsys.readouterr().out
    for ceiling in (2**53 + 1, 10**400):
        code = cli.main(argv + ["--ceiling", str(ceiling)])
        assert_one_input_error(code, capsys, "search ceiling must lie in [1, 2**53")


@pytest.fixture
def ols_file(tmp_path):
    path = str(tmp_path / "ols.json")
    table = observation_rows([0.6 + 0.05 * i for i in range(len(SIZES))], SIZES)
    io.save_model(camcurves.fit_log_curve(table, "ACC"), path)
    return path


PLAN_JSON = """\
{
  "binding_n": 1097,
  "results": [
    {
      "extrapolated": false,
      "metric": "ACC",
      "predicted_value": 0.9500789261189092,
      "required_n": 149,
      "source": "log-curve[ACC]",
      "target": 0.95
    },
    {
      "extrapolated": false,
      "metric": "PRC",
      "predicted_value": 0.9000318641264231,
      "required_n": 504,
      "source": "log-curve[PRC]",
      "target": 0.9
    },
    {
      "extrapolated": true,
      "metric": "FPR",
      "predicted_value": 0.019996655397247695,
      "required_n": 1097,
      "source": "log-curve[FPR]",
      "target": 0.02
    }
  ],
  "schema": "camcurves-plan/1"
}
"""


def test_plan_out_writes_the_pinned_report(tmp_path, capsys):
    out = tmp_path / "plan.json"
    argv = ["plan", "--preset", "table1", "--target-acc", "0.95", "--target-prc", "0.9"]
    assert cli.main(argv + ["--target-fpr", "0.02", "--out", str(out)]) == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == "binding required_n 1097"
    assert out.read_text() == PLAN_JSON


def test_curve_plot_of_one_size_is_an_input_error(ols_file, tmp_path, capsys):
    # the curve grid's exp(log 10) is 10.000000000000002, a range of zero width on a log axis
    path, out = tmp_path / "one.csv", tmp_path / "ols.svg"
    io.write_observations_csv(str(path), [observation_rows([0.8], [10])])
    argv = ["curve-plot", "--model", ols_file, "--observations", str(path)]
    code = cli.main(argv + ["--out", str(out)])
    assert_one_input_error(code, capsys, "need a positive size range spanning more than one value")
    assert not out.exists()


def test_fit_ols_and_curve_plot_read_only_their_metric(ols_file, tmp_path, capsys):
    # a bad value in a record of another metric no longer fails either command
    path = tmp_path / "obs.csv"
    io.write_observations_csv(str(path), [observation_rows([0.6, 0.7, 0.8], [10, 50, 150])])
    path.write_text(path.read_text() + "FPR,1.5,AU,c0,10,dnsNet121,deep,none\n")
    out = tmp_path / "ols.json"
    argv = ["fit-ols", "--observations", str(path), "--metric", "ACC", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    assert json.loads(out.read_text())["n_obs"] == 3
    svg = tmp_path / "acc.svg"
    argv = ["curve-plot", "--model", ols_file, "--observations", str(path), "--out", str(svg)]
    assert cli.main(argv) == cli.EXIT_OK
    assert svg.read_text().count("<circle") == 3
    # the metric's own records are still checked, and the line named
    argv = ["fit-ols", "--observations", str(path), "--metric", "FPR", "--out", str(out)]
    assert_one_input_error(cli.main(argv), capsys, f"{path}:5: metric value 1.5 outside [0, 1]")


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["--preset", "table1", "--target-acc", "0.95", "--target", "0.5"], "takes no --target"),
        (["--preset", "table1", "--target-acc", "0.95", "--cell", "AU,deep,x"], "or --cell"),
        (
            ["--model", "gam", "--target", "0.9", "--target-fpr", "0.01", "--cell", "AU,deep,x"],
            "takes no --target-acc/--target-prc/--target-tpr/--target-fpr",
        ),
        (["--model", "ols", "--target", "0.9", "--cell", "AU,deep,x"], "log-size curve takes none"),
    ],
    ids=["preset-target", "preset-cell", "model-per-metric-target", "ols-cell"],
)
def test_plan_flag_its_source_never_reads_is_an_input_error(
    gam_file, ols_file, capsys, argv, fragment
):
    argv = [{"gam": gam_file, "ols": ols_file}.get(arg, arg) for arg in argv]
    assert_one_input_error(cli.main(["plan", *argv]), capsys, fragment)


def observation_lines(draw, count):
    """`count` observation CSV records on a ladder of sizes, at most one with a bad cell."""
    rows = [
        [
            draw(st.sampled_from(["ACC", "FPR"])),
            repr(draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))),
            "AU",
            "c0",
            str(draw(st.sampled_from([1, 10, 20, 50, 150, 500, 1000]))),
            "dnsNet121",
            "deep",
            "none",
        ]
        for _ in range(count)
    ]
    bad = draw(st.sampled_from([None] * 4 + [(1, "1.5"), (4, "0"), (0, "MAP")]))
    if bad is not None and rows:
        rows[draw(st.integers(0, count - 1))][bad[0]] = bad[1]
    return [",".join(io.OBSERVATION_COLUMNS)] + [",".join(row) for row in rows]


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(st.data(), st.integers(0, 8), st.sampled_from(["ACC", "FPR"]))
def test_fit_ols_exits_0_or_2_with_the_least_squares_line(tmp_path, capsys, data, count, metric):
    path = tmp_path / "obs.csv"
    path.write_text("\n".join(observation_lines(data.draw, count)) + "\n")
    out = tmp_path / "ols.json"
    out.unlink(missing_ok=True)
    code = cli.main(["fit-ols", "--observations", str(path), "--metric", metric, "--out", str(out)])
    if code != cli.EXIT_OK:
        assert_one_input_error(code, capsys)
        assert not out.exists()
        return
    assert capsys.readouterr().err == ""
    # a bad cell in a record of the other metric is skipped with its record
    rows = io.parse_observations(str(path), metric)
    x = np.log(rows.num_tr_images) * (-1.0 if metric == "FPR" else 1.0)
    slope, intercept = np.polyfit(x, rows.value, 1)
    model = json.loads(out.read_text())
    assert model["n_obs"] == len(rows)
    assert model["slope"] == pytest.approx(slope, rel=1e-9, abs=1e-9)
    assert model["intercept"] == pytest.approx(intercept, rel=1e-9, abs=1e-9)


def mostly(valid, invalid, share):
    """`valid`, or one of the `invalid` values in about `share` of the draws."""
    return st.sampled_from([*invalid, *[None] * round(len(invalid) / share)]).flatmap(
        lambda bad: valid if bad is None else st.just(bad)
    )


# an invalid flag exits 2; mostly valid ones, so that most runs plan
targets = mostly(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), [0.0, 1.0, math.nan, math.inf], 0.1
)
ceilings = mostly(st.integers(1, 100) | st.integers(1, 2**53), [0, 2**53 + 1], 0.1)


@settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(st.dictionaries(st.sampled_from(camcurves.metrics.METRIC_KINDS), targets), ceilings)
def test_plan_preset_exits_0_2_or_4_with_the_last_crossing(capsys, targets, ceiling):
    argv = ["plan", "--preset", "table1", f"--ceiling={ceiling}"]
    code = cli.main(argv + [f"--target-{m.lower()}={v!r}" for m, v in targets.items()])
    if code != cli.EXIT_OK:
        prefix = {cli.EXIT_INPUT: "input-error: ", cli.EXIT_INFEASIBLE: "infeasible-plan: "}
        assert code in prefix
        assert_one_error_line(code, capsys, code, prefix[code])
        return
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert len(lines) == len(targets) + (len(targets) > 1)
    presets = camcurves.table1_presets()

    def met(metric, n):
        value = camcurves.predict_metric(presets[metric], n)
        return value <= targets[metric] if metric == "FPR" else value >= targets[metric]

    attained = []
    ordered = [metric for metric in camcurves.metrics.METRIC_KINDS if metric in targets]
    for metric, line in zip(ordered, lines):
        assert line.startswith(f"{metric} {'<=' if metric == 'FPR' else '>='} ")
        if line.endswith(": unattainable"):
            assert not met(metric, ceiling)
            continue
        n = int(line.split("required_n ")[1].split()[0])
        assert 1 <= n <= ceiling and met(metric, n) and (n == 1 or not met(metric, n - 1))
        attained.append(n)
    if len(targets) > 1:
        assert lines[-1] == f"binding required_n {max(attained)}"


@pytest.fixture(scope="module")
def plan_model_documents(calibrated_acc_model, calibrated_observations):
    """The model JSON document of each source a `plan --model` run draws."""
    return {
        "gam-ACC": io.model_to_dict(calibrated_acc_model),
        **{
            f"ols-{metric}": io.model_to_dict(
                camcurves.fit_log_curve(calibrated_observations, metric)
            )
            for metric in ("ACC", "FPR")
        },
    }


# the number a model file may hold that json reads but a model cannot: NaN, an
# infinity, a literal beyond the float range, or an integer beyond it
NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400]

# a number of each kind of model document, by its path
NUMBER_PATHS = {
    "gam": [["phi"], ["coef", 0], ["covariance", 1, 0], ["knots", -1], ["fit_stats", "aic"],
            ["lambdas", "s(num_tr_images):dataset[AU]"], ["edf_by_coef", -1]],
    "ols": [["intercept"], ["slope"], ["adj_r_squared"]],
}


def draw_model_file(draw, documents, path) -> tuple:
    """Write one of `documents` to `path`, in a quarter of the draws with a key dropped
    or a number made non-finite; (its source, whether a number was made non-finite).
    A dropped key need not be an input error."""
    source = draw(st.sampled_from(sorted(documents)))
    family = source.split("-")[0]
    document = json.loads(json.dumps(documents[source]))
    edit = draw(st.sampled_from(["none"] * 6 + ["drop", "non-finite"]))
    if edit == "drop":
        del document[draw(st.sampled_from(sorted(document)))]
    text = io.canonical_json(document)
    if edit == "non-finite":
        number = draw(st.sampled_from(NUMBER_PATHS[family]))
        text = with_non_finite(document, number, draw(st.sampled_from(NON_FINITE)))
    path.write_text(text)
    return source, edit == "non-finite"


def draw_cell(draw, family) -> tuple:
    """(--cell, the valid --cell of a model `family`): in about 15% of the draws the
    cell is missing for a GAM, given for a log-size curve, names an unknown level or
    has the wrong arity."""
    levels = [draw(st.sampled_from(axis)) for axis in (DATASETS, TUNINGS, ARCHITECTURES)]
    own = ",".join(levels) if family == "gam" else None
    wrong = [None if family == "gam" else ",".join(levels), "XX,deep,resNet18", "AU,deep",
             "AU,deep,resNet18,x"]
    return draw(mostly(st.just(own), wrong, 0.15)), own


def draw_plan_model_run(draw, documents, path) -> tuple:
    """Write a drawn model file to `path` (see draw_model_file); (its source, whether the
    run is an input error, target, ceiling, cell).

    --target may lie outside (0, 1), --ceiling outside [1, 2**53], and --cell is drawn
    by draw_cell.
    """
    source, non_finite = draw_model_file(draw, documents, path)
    target = draw(
        mostly(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            [0.0, 1.0, -0.5, 1.5, math.nan, math.inf],
            0.1,
        )
    )
    ceiling = draw(mostly(st.integers(1, 1000) | st.integers(1, 2**53), [0, -3, 2**53 + 1], 0.1))
    cell, own = draw_cell(draw, source.split("-")[0])
    invalid = (
        non_finite
        or not 0.0 < target < 1.0
        or not 1 <= ceiling <= 2**53
        or cell != own
    )
    return source, invalid, target, ceiling, cell


@settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(st.data())
def test_plan_model_exits_0_2_or_4_with_the_last_crossing(
    plan_model_documents, tmp_path, capsys, data
):
    path = tmp_path / "model.json"
    source, invalid, target, ceiling, cell = draw_plan_model_run(
        data.draw, plan_model_documents, path
    )
    argv = ["plan", "--model", str(path), f"--target={target!r}", f"--ceiling={ceiling}"]
    code = cli.main(argv + ([f"--cell={cell}"] if cell is not None else []))
    if code != cli.EXIT_OK:
        prefix = {cli.EXIT_INPUT: "input-error: ", cli.EXIT_INFEASIBLE: "infeasible-plan: "}
        assert code in prefix
        assert_one_error_line(code, capsys, code, prefix[code])
        assert code == cli.EXIT_INPUT or not invalid
        return
    assert not invalid
    captured = capsys.readouterr()
    assert captured.err == ""
    # one target, so an exit 0 plans a size: the smallest from which every size up to
    # the ceiling meets the target, so the size below it does not
    metric = source.split("-")[1]
    (line,) = captured.out.splitlines()
    assert line.startswith(f"{metric} {'<=' if metric == 'FPR' else '>='} {target}: required_n ")
    n = int(line.split("required_n ")[1].split()[0])
    model = io.load_model(str(path))
    query = camcurves.planner.PlanQuery(metric, target, ceiling)
    if cell is None:
        predict = lambda size: camcurves.predict_metric(model, size)
    else:
        columns = dict(zip(("dataset", "tuning", "architecture"), cell.split(",")))
        predict = lambda size: model.predict_sizes(columns, [size])[0]
    assert 1 <= n <= ceiling and query.met_by(predict(n))
    assert n == 1 or not query.met_by(predict(n - 1))


def node_paths(node, path=()):
    """The path (keys and indices) of every value below `node` of a JSON document."""
    if isinstance(node, (dict, list)):
        for key, item in node.items() if isinstance(node, dict) else enumerate(node):
            yield (*path, key)
            yield from node_paths(item, (*path, key))


# what a value of a model file is replaced with: a number as text, a bool, null, a
# fraction, an integer beyond the float range, empty containers and a nested list
REPLACEMENTS = ["1", "nan", True, None, 0.5, 10**400, [], {}, [[[1]]]]


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(st.data())
def test_plan_on_a_model_file_with_one_value_replaced_exits_0_2_or_4(
    plan_model_documents, tmp_path, capsys, data
):
    # a key of the document, then the key itself or any value below it, so each key is
    # edited as often as the 441 numbers of the covariance matrix
    source = data.draw(st.sampled_from(["gam-ACC", "ols-ACC"]))
    document = json.loads(json.dumps(plan_model_documents[source]))
    key = data.draw(st.sampled_from(sorted(document)))
    *parents, last = data.draw(st.sampled_from([(key,), *node_paths(document[key], (key,))]))
    parent = document
    for step in parents:
        parent = parent[step]
    held, parent[last] = parent[last], data.draw(st.sampled_from(REPLACEMENTS))
    model = tmp_path / "model.json"
    model.write_text(io.canonical_json(document))
    argv = ["plan", "--model", str(model), "--target", "0.95"]
    code = cli.main(argv + (["--cell", "WI,deep,resNet18"] if source == "gam-ACC" else []))
    err = capsys.readouterr().err
    assert code in (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_INFEASIBLE)
    assert len(err.splitlines()) == (code != cli.EXIT_OK) and "Traceback" not in err
    if type(held) in (int, float) and isinstance(parent[last], (str, bool)):
        assert code == cli.EXIT_INPUT


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(st.data())
def test_curve_plot_exits_0_with_one_200_point_curve_or_2(
    plan_model_documents, tmp_path, capsys, data
):
    # the model file and --cell as in the plan --model test; observations of 1-6 sizes,
    # of the model's metric or, in about a fifth of the draws, of another one
    model, csv, svg = tmp_path / "model.json", tmp_path / "obs.csv", tmp_path / "curve.svg"
    source, non_finite = draw_model_file(data.draw, plan_model_documents, model)
    family, metric = source.split("-")
    cell, own = draw_cell(data.draw, family)
    kind = data.draw(mostly(st.just(metric), sorted(set(METRIC_KINDS) - {metric}), 0.2))
    sizes = data.draw(st.lists(st.sampled_from(SIZES), min_size=1, max_size=6, unique=True))
    values = data.draw(st.lists(st.floats(0.01, 0.99), min_size=len(sizes), max_size=len(sizes)))
    io.write_observations_csv(str(csv), [observation_rows(values, sizes, metric=kind)])
    svg.unlink(missing_ok=True)
    argv = ["curve-plot", "--model", str(model), "--observations", str(csv), "--out", str(svg)]
    code = cli.main(argv + ([f"--cell={cell}"] if cell is not None else []))
    if code != cli.EXIT_OK:
        assert_one_input_error(code, capsys)
        assert not svg.exists()
        return
    assert not (non_finite or cell != own or kind != metric or len(sizes) == 1)
    assert capsys.readouterr().err == ""
    (curve,) = ElementTree.parse(svg).getroot().iter("{http://www.w3.org/2000/svg}polyline")
    points = [point.split(",") for point in curve.get("points").split()]
    assert len(points) == 200 and all(math.isfinite(float(v)) for p in points for v in p)


@settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(st.integers(-(2**64), -1) | st.just(0) | st.integers(1, 2**128))
def test_simulate_exits_0_with_the_whole_grid_or_2(tmp_path, capsys, seed):
    out = tmp_path / "grid.csv"
    out.unlink(missing_ok=True)
    code = cli.main(["simulate", f"--seed={seed}", "--out", str(out)])
    if code != cli.EXIT_OK:
        assert_one_input_error(code, capsys)
        assert seed < 0 and not out.exists()
        return
    assert capsys.readouterr().out == f"wrote 31104 observations (864 cells) to {out}\n"
    with open(out, encoding="utf-8") as handle:
        assert sum(1 for _ in handle) == 1 + 31_104


@st.composite
def design_runs(draw):
    """An image index and `design` flags, mostly valid ones.

    The index has 2-4 classes with pools of 1-40 ids, with or without a location
    column; in half the indexes one id is listed a second time, under any class.
    The flags are --test, --ladder, --seed, --select and --independent.
    """
    ladders = st.lists(st.integers(1, 16), min_size=1, max_size=4, unique=True)
    ladder = draw(mostly(ladders, [[0], [3, 3]], 0.05))
    test = draw(mostly(st.integers(1, 10), [0], 0.05))
    seed = draw(mostly(st.integers(0, 2**32), [-1], 0.05))
    flags = ["--test", str(test), "--ladder", ",".join(map(str, ladder)), "--seed", str(seed)]
    need = test + max(ladder)
    # pools a little above the need, so that most of each pool is test or training
    select = draw(st.none() | mostly(st.integers(need, min(need + 8, 40)), [0, 41], 0.1))
    if select is not None:
        flags += ["--select", str(select)]
    if draw(st.booleans()):
        flags.append("--independent")
    floor = min(select or need, 40)
    sizes = mostly(st.integers(floor, min(floor + 8, 40)), list(range(1, 41)), 0.1)
    classes = [f"c{c}" for c in range(draw(st.integers(2, 4)))]
    rows = [[f"{label}-{i}", label] for label in classes for i in range(draw(sizes))]
    if draw(st.booleans()):
        repeated = draw(st.sampled_from(rows))[0]
        rows.insert(draw(st.integers(0, len(rows))), [repeated, draw(st.sampled_from(classes))])
    header = "image_id,class"
    if draw(st.booleans()):
        header += ",location_id"
        places = mostly(st.sampled_from(["L0", "L1", "L2", "L3"]), [""], 0.02)
        for row in rows:
            row.append(draw(places))
    return [header] + [",".join(row) for row in rows], flags


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(design_runs())
def test_design_exits_0_or_2_with_exclusive_test_splits(tmp_path, capsys, run):
    lines, flags = run
    index, out = tmp_path / "index.csv", tmp_path / "d.json"
    index.write_text("\n".join(lines) + "\n")
    out.unlink(missing_ok=True)
    code = cli.main(["design", "--manifest-in", str(index), *flags, "--out", str(out)])
    if code != cli.EXIT_OK:
        # a pool below --select fails first, naming its class
        select = int(flags[flags.index("--select") + 1]) if "--select" in flags else 0
        pools = Counter(line.split(",")[1] for line in lines[1:])
        short = sorted(label for label, size in pools.items() if size < select)
        fragments = [f"class {short[0]!r}: cannot select {select} items"] if short else []
        assert_one_input_error(code, capsys, *fragments)
        assert not out.exists()
        return
    err = capsys.readouterr().err.splitlines()
    assert len(err) <= 1 and all(line.startswith("location coverage: ") for line in err)
    manifest = json.loads(out.read_text())
    classes = manifest["classes"].values()
    test_ids = {i for cd in classes for i in cd["test_ids"]}
    for cd in classes:
        assert len(cd["test_ids"]) == manifest["test_size"]
        subsets = [cd["train_subsets"][str(size)] for size in manifest["size_ladder"]]
        assert [len(subset) for subset in subsets] == manifest["size_ladder"]
        assert test_ids.isdisjoint(i for subset in subsets for i in subset)
        if manifest["nested"]:
            for small, large in zip(subsets, subsets[1:]):
                assert large[: len(small)] == small
    pools = [i for cd in classes for i in cd["pool"]]
    assert len(pools) == len(set(pools))  # and so no image can test one class and train another


# (column, text) of a bad cell: unconvertible, out of range, or an unknown metric kind
BAD_CELLS = [
    ("value", "high"),
    ("value", "1.5"),
    ("num_tr_images", "ten"),
    ("num_tr_images", "0"),
    ("metric", "MAP"),
]


@st.composite
def fit_gam_runs(draw):
    """Observation CSV lines of 2-3 metric kinds, the metric fitted, and the bad record.

    Each kind has 1-2 records at each of 5-6 sizes, in a random order, with an
    optional blank line; at most one record has a bad cell.  The bad record is
    None or (its line, its metric kind, the column of its bad cell).
    """
    kinds = draw(st.lists(st.sampled_from(METRIC_KINDS), min_size=2, max_size=3, unique=True))
    sizes = draw(st.lists(st.sampled_from(SIZES), min_size=5, max_size=6, unique=True))
    records = [
        [kind, repr(draw(st.floats(0.02, 0.98))), "AU", "c0", str(n), "dnsNet121", "deep", "none"]
        for kind in kinds
        for n in sizes
        for _ in range(draw(st.integers(1, 2)))
    ]
    records = draw(st.permutations(records))
    lines = [",".join(io.OBSERVATION_COLUMNS)] + [",".join(record) for record in records]
    lines.insert(draw(st.integers(1, len(lines))), "")
    bad = None
    if draw(st.booleans()):
        line = draw(st.sampled_from([i for i, text in enumerate(lines) if text][1:]))
        column, text = draw(st.sampled_from(BAD_CELLS))
        cells = lines[line].split(",")
        bad = (line + 1, cells[0], column)
        cells[io.OBSERVATION_COLUMNS.index(column)] = text
        lines[line] = ",".join(cells)
    return lines, kinds[0], bad


@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(fit_gam_runs())
def test_fit_gam_exits_0_2_or_3_reading_only_its_metric(tmp_path, capsys, run):
    lines, metric, bad = run

    def fit_gam(name, text):
        path, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
        path.write_text("\n".join(text) + "\n")
        out.unlink(missing_ok=True)
        code = cli.main(["fit-gam", "--observations", str(path), "--metric", metric,
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code in (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_NUMERICAL)
        assert "Traceback" not in err and len(err.splitlines()) == (code != cli.EXIT_OK)
        assert out.exists() == (code == cli.EXIT_OK)
        return code, err, out.read_bytes() if out.exists() else None, path

    code, err, model, path = fit_gam("all", lines)
    if bad is not None and (bad[1] == metric or bad[2] == "metric"):
        assert code == cli.EXIT_INPUT and err.startswith(f"input-error: {path}:{bad[0]}: ")
        return
    # the records of the other metrics, a bad one among them, change nothing
    own = [lines[0]] + [text for text in lines[1:] if text.split(",")[0] == metric]
    own_code, own_err, own_model, _ = fit_gam("own", own)
    assert (code, err, model) == (own_code, own_err, own_model)
