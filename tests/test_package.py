import json
import os
import subprocess
import sys
from pathlib import Path

import camcurves

SRC = str(Path(camcurves.__file__).resolve().parent.parent)

FRESH_IMPORTS = """
import json, os, sys

import camcurves

report = {"numpy_after_package": "numpy" in sys.modules}
import camcurves.cli

report["threads_after_cli"] = os.environ.get("OPENBLAS_NUM_THREADS")
print(json.dumps(report))
"""


def test_every_exported_name_resolves_once():
    names = camcurves.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(camcurves, name)]
    assert missing == []


def fresh_imports(**env):
    """Import the package, then the CLI, in a new interpreter with `env` as the BLAS setting."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    environ.update(env, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", FRESH_IMPORTS], env=environ, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_package_import_loads_no_numpy_and_cli_defaults_blas_to_one_thread():
    report = fresh_imports()
    assert report == {"numpy_after_package": False, "threads_after_cli": "1"}


def test_cli_keeps_a_blas_thread_count_the_user_set():
    assert fresh_imports(OPENBLAS_NUM_THREADS="2")["threads_after_cli"] == "2"


def test_unknown_name_is_an_attribute_error_and_dir_lists_every_name():
    assert not hasattr(camcurves, "no_such_name")
    assert set(camcurves.__all__) <= set(dir(camcurves))
