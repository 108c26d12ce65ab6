import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import camcurves
from camcurves import cli, io

from conftest import as_table, make_obs, observation_rows

SIZES = (10, 20, 50, 150, 500, 1000)


def assert_one_error_line(code, capsys, exit_code, prefix, *fragments):
    err = capsys.readouterr().err
    assert code == exit_code
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix)
    for fragment in fragments:
        assert fragment in lines[0]


def assert_one_input_error(code, capsys, *fragments):
    assert_one_error_line(code, capsys, cli.EXIT_INPUT, "input-error: ", *fragments)


@pytest.fixture
def observations_csv(tmp_path):
    rng = np.random.default_rng(0)
    sizes = np.tile(SIZES, 8)
    values = rng.beta(80 * 0.8, 80 * 0.2, sizes.size)
    path = tmp_path / "obs.csv"
    io.write_observations_csv(str(path), observation_rows(values, sizes))
    return str(path)


def test_bad_lambda_item_is_an_input_error(observations_csv, tmp_path, capsys):
    argv = ["fit-gam", "--observations", observations_csv, "--metric", "ACC"]
    code = cli.main(argv + ["--lambdas", "1,x,3", "--out", str(tmp_path / "m.json")])
    assert_one_input_error(code, capsys, "--lambdas", "'x'")


def test_huge_lambda_is_an_input_error(observations_csv, tmp_path, capsys):
    out = tmp_path / "m.json"
    argv = ["fit-gam", "--observations", observations_csv, "--metric", "ACC"]
    code = cli.main(argv + ["--lambdas", "1e308", "--out", str(out)])
    assert_one_input_error(code, capsys, "non-finite penalty")
    assert not out.exists()


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
    io.write_observations_csv(str(path), observation_rows([0.8, 0.9], [10, 20]))
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
    io.write_observations_csv(str(path), observation_rows([0.8, 0.9], [10, 20]))
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
    io.write_observations_csv(str(path), as_table(rows + [make_obs(0.7, 10, class_label="fox")]))
    argv = ["aggregate", "--observations", str(path), "--by"]
    assert cli.main(argv + ["class"]) == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "metric,class,mean,std,count",
        "ACC,cat,0.60,,1",
        "ACC,fox,0.75,0.071,2",
    ]
    code = cli.main(argv + ["class_label"])
    assert_one_input_error(code, capsys, "cannot group by 'class_label'")


def test_aggregate_orders_groups_by_their_typed_key(observations_csv, capsys):
    argv = ["aggregate", "--observations", observations_csv, "--by", "num_tr_images"]
    assert cli.main(argv) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[1] for line in lines[1:]] == ["10", "20", "50", "150", "500", "1000"]


def test_bad_ladder_item_is_an_input_error(tmp_path, capsys):
    index = tmp_path / "index.csv"
    index.write_text("image_id,class\n" + "".join(f"i{j},c{j % 2}\n" for j in range(40)))
    argv = ["design", "--manifest-in", str(index), "--seed", "1", "--ladder", "5,abc"]
    code = cli.main(argv + ["--out", str(tmp_path / "d.json")])
    assert_one_input_error(code, capsys, "--ladder", "'abc'")


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--seed", "1"],
        ["plan", "--preset", "table1", "--target-acc", "0.9"],
        ["fit-gam", "--metric", "ACC", "--lambdas", "1"],
    ],
    ids=["simulate", "plan", "fit-gam"],
)
def test_out_in_missing_directory_is_an_input_error(argv, observations_csv, tmp_path, capsys):
    out = str(tmp_path / "missing" / "out.file")
    if argv[0] == "fit-gam":
        argv = argv + ["--observations", observations_csv]
    assert_one_input_error(cli.main(argv + ["--out", out]), capsys, out)
    assert not (tmp_path / "missing").exists()


def test_fit_gam_rejects_missing_out_directory_before_fitting(
    observations_csv, tmp_path, capsys, monkeypatch
):
    def no_fit(*args, **kwargs):
        raise AssertionError("fit-gam fitted before checking --out")

    monkeypatch.setattr(cli.betagam, "fit", no_fit)
    monkeypatch.setattr(cli.betagam, "backward_eliminate", no_fit)
    out = str(tmp_path / "missing" / "m.json")
    argv = ["fit-gam", "--observations", observations_csv, "--metric", "ACC", "--out", out]
    for extra in ([], ["--eliminate"]):
        assert_one_input_error(cli.main(argv + extra), capsys, f"cannot write {out}")
    assert not (tmp_path / "missing").exists()


def test_fit_gam_squeezes_only_values_at_the_bounds(tmp_path, monkeypatch):
    path = tmp_path / "obs.csv"
    io.write_observations_csv(str(path), observation_rows([0.0, 5e-5, 1.0, 0.9, 0.85, 0.7], SIZES))
    seen = []

    class Spied(Exception):
        pass

    def spy(spec, observations, **kwargs):
        seen.append(observations.value.tolist())
        raise Spied

    monkeypatch.setattr(cli.betagam, "fit", spy)
    argv = ["fit-gam", "--observations", str(path), "--metric", "ACC"]
    with pytest.raises(Spied):
        cli.main(argv + ["--out", str(tmp_path / "m.json")])
    assert seen == [[1e-4, 5e-5, 1.0 - 1e-4, 0.9, 0.85, 0.7]]


def test_select_zero_is_an_input_error(tmp_path, capsys):
    index = tmp_path / "index.csv"
    index.write_text("image_id,class\n" + "".join(f"i{j},c{j % 2}\n" for j in range(40)))
    argv = ["design", "--manifest-in", str(index), "--seed", "1", "--select", "0"]
    code = cli.main(argv + ["--out", str(tmp_path / "d.json")])
    assert_one_input_error(code, capsys, "selection count must be >= 1")
    assert not (tmp_path / "d.json").exists()


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


def test_linalg_failure_is_a_numerical_error(observations_csv, tmp_path, capsys, monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli.betagam, "fit", singular)
    argv = ["fit-gam", "--observations", observations_csv, "--metric", "ACC"]
    code = cli.main(argv + ["--out", str(tmp_path / "m.json")])
    assert_one_error_line(code, capsys, cli.EXIT_NUMERICAL, "numerical-error: ", "Singular matrix")


# Modules that only a fit needs (scipy) or that nothing needs but slow the
# start of every command (xml.sax pulls in urllib.request, http.client and
# email); `site` may preload urllib.parse, so urllib itself is not listed.
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
    """Importing the CLI and running any command but fit-gam loads no heavy module."""
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
    *before_fit, (_, _, after_fit) = report
    assert [names for _, _, names in before_fit] == [[]] * len(before_fit)
    assert "scipy.special" in after_fit


def test_plan_with_a_huge_ceiling_stays_bounded(calibrated_acc_model, tmp_path, capsys):
    model = str(tmp_path / "acc.json")
    io.save_model(calibrated_acc_model, model)
    argv = ["plan", "--model", model, "--cell", "WI,deep,resNet18", "--ceiling", "1000000000000"]
    for target in ("0.95", "0.9999"):
        code = cli.main(argv + ["--target", target])
        err = capsys.readouterr().err
        assert code in (cli.EXIT_OK, cli.EXIT_INFEASIBLE)
        assert "Traceback" not in err


def _drop_phi(d):
    del d["phi"]


def _drop_wi_constraint(d):
    del d["smooth_constraints"]["s(num_tr_images):dataset[WI]"]


def _drop_last_coef(d):
    d["coef"].pop()


def _drop_last_edf(d):
    d["edf_by_coef"].pop()


def _drop_covariance_row(d):
    d["covariance"].pop()


def _shift_tuning_index(d):
    d["term_index"]["tuning"] = [i + 1 for i in d["term_index"]["tuning"]]


def _drop_tuning_reference(d):
    del d["references"]["tuning"]


def _drop_tuning_levels(d):
    del d["factor_levels"]["tuning"]


@pytest.mark.parametrize(
    "edit, fragment",
    [
        (_drop_phi, "missing key 'phi'"),
        (_drop_wi_constraint, "s(num_tr_images):dataset[WI]"),
        (_drop_last_coef, "coef has shape"),
        (_drop_last_edf, "edf_by_coef has shape"),
        (_drop_covariance_row, "covariance has shape"),
        (_shift_tuning_index, "term_index does not cover"),
        (_drop_tuning_reference, "disagree with its parametric terms"),
        (_drop_tuning_levels, "disagree with its parametric terms"),
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
        (lambda d: d.update(transform="log_inverse_n"), "uses the 'log_n' transform"),
    ],
    ids=["missing-slope", "wrong-transform"],
)
def test_malformed_ols_file_is_an_input_error(tmp_path, capsys, edit, fragment):
    points = [(n, 0.6 + 0.05 * i) for i, n in enumerate(SIZES)]
    payload = io.model_to_dict(camcurves.fit_log_curve(points, "ACC"))
    edit(payload)
    model = tmp_path / "acc.json"
    model.write_text(io.canonical_json(payload))
    code = cli.main(["plan", "--model", str(model), "--target", "0.9"])
    assert_one_input_error(code, capsys, fragment)
