import json
import os
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import camcurves
from camcurves import curves, io

from conftest import observation_rows

SRC = str(Path(camcurves.__file__).resolve().parent.parent)

FRESH_IMPORTS = """
import json, os, sys

import camcurves

report = {"numpy_after_package": "numpy" in sys.modules}
import camcurves.cli

report["threads_after_cli"] = os.environ.get("OPENBLAS_NUM_THREADS")
print(json.dumps(report))
"""


LIBRARY_COLLECTOR = """
import gc, json

import camcurves
from camcurves import betagam, design, io, planner

print(json.dumps({"enabled": gc.isenabled(), "frozen": gc.get_freeze_count()}))
"""


CLI_COLLECTOR = """
import gc, json

import camcurves.cli

print(json.dumps({"enabled": gc.isenabled(), "unfrozen": len(gc.get_objects())}))
"""


ONLY_CURVE_PLOT_IMPORTS_PLOTTING = """
import json, sys

import camcurves.cli

lazy = ("camcurves.plotting", "html")
report = {"after_import": [name for name in lazy if name in sys.modules]}
report["exit_code"] = camcurves.cli.main(sys.argv[1:])
report["after_curve_plot"] = [name for name in lazy if name in sys.modules]
print(json.dumps(report))
"""


def test_every_exported_name_resolves_once():
    names = camcurves.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(camcurves, name)]
    assert missing == []


def run_fresh(script, **env):
    """Run `script` in a new interpreter with `env` as the BLAS setting; returns its JSON."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    environ.update(env, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", script], env=environ, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_package_import_loads_no_numpy_and_cli_defaults_blas_to_one_thread():
    report = run_fresh(FRESH_IMPORTS)
    assert report == {"numpy_after_package": False, "threads_after_cli": "1"}


def test_cli_keeps_a_blas_thread_count_the_user_set():
    assert run_fresh(FRESH_IMPORTS, OPENBLAS_NUM_THREADS="2")["threads_after_cli"] == "2"


def test_unknown_name_is_an_attribute_error_and_dir_lists_every_name():
    assert not hasattr(camcurves, "no_such_name")
    assert set(camcurves.__all__) <= set(dir(camcurves))


def test_cli_import_leaves_plotting_to_curve_plot(tmp_path):
    sizes = (10, 20, 50, 150, 500)
    table = observation_rows([0.6, 0.7, 0.8, 0.85, 0.9], sizes)
    observations, model, svg = (str(tmp_path / name) for name in ("o.csv", "m.json", "p.svg"))
    io.write_observations_csv(observations, [table])
    io.save_model(curves.fit_log_curve(table, "ACC"), model)
    argv = ["curve-plot", "--model", model, "--observations", observations, "--out", svg]
    done = subprocess.run(
        [sys.executable, "-c", ONLY_CURVE_PLOT_IMPORTS_PLOTTING, *argv],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report == {
        "after_import": [],
        "exit_code": 0,
        "after_curve_plot": ["camcurves.plotting", "html"],
    }
    assert ElementTree.parse(svg).getroot().tag == "{http://www.w3.org/2000/svg}svg"


def test_library_import_leaves_the_collector_alone():
    assert run_fresh(LIBRARY_COLLECTOR) == {"enabled": True, "frozen": 0}


def test_cli_import_freezes_its_heap_and_leaves_the_collector_on():
    report = run_fresh(CLI_COLLECTOR)
    assert report["enabled"] is True
    assert report["unfrozen"] < 1000  # ~22,000 tracked objects unfrozen
