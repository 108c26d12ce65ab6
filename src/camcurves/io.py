"""File formats: prediction/observation CSVs, model JSON, manifest JSON.

All writers are atomic (temp file + rename) so failed runs never leave
partial outputs behind.  JSON is emitted in a canonical form (sorted keys,
two-space indent, trailing newline) so serialize -> parse -> serialize is
byte-identical.

The keys of a model JSON document are the field names of its model
dataclass, `LearningCurveModel` or `AdditiveModel` (with `FitStats` under
fit_stats), with the schema and model_family beside them.  A GAM's layout
keys are the exception: its spec is written as metric, squeeze_eps,
parametric_terms and smooth_terms, its knot vector as knots, and smooth_by
is kept for the layout.  A model file holding NaN, an infinity or a number
beyond the float range is an input error.  This module holds only the file
format: a GAM checks its own parts (arrays, term indices, factors, knots and
smooth constraints) when it is built, here or anywhere else.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import tempfile
from contextlib import contextmanager
from datetime import datetime
from typing import Mapping, Sequence

import numpy as np

from .betagam import AdditiveModel, FactorTerm, FitStats, ModelSpec, SmoothTerm
from .curves import LearningCurveModel
from .errors import InputError
from .metrics import METRIC_KINDS, OBSERVATION_COLUMNS, observation_table
from .splines import KnotVector

MODEL_SCHEMA = "camcurves-model/1"
MANIFEST_SCHEMA = "camcurves-manifest/1"

PREDICTION_COLUMNS = ("image_id", "true_class", "predicted_class")
PREDICTION_OPTIONAL = ("location_id", "timestamp")


def _temp_file(path: str):
    """Create a temp file beside `path`; (fd, temp path), or InputError naming `path`."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        return tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}") from exc


def check_writable(path: str) -> None:
    """Raise now the InputError that atomic_write(path) would raise on opening."""
    fd, tmp = _temp_file(path)
    os.close(fd)
    os.unlink(tmp)


@contextmanager
def atomic_write(path: str):
    """Write to a temp file in the target directory, rename on success."""
    fd, tmp = _temp_file(path)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def _read_csv(path: str, required: Sequence[str], optional: Sequence[str], drop=None):
    """(columns, line) of a CSV file.

    columns maps each name of the header to its column, a tuple of strings
    with one per record kept; line(i) is the line on which kept record i
    starts, found by reading the file again.  Blank lines are skipped; a
    record may span lines inside a quoted field.  `drop`, a pair (name,
    values), skips each record whose field `name` holds one of `values` as
    it is read.
    """
    try:
        handle = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise InputError(f"{path}: empty file")
            missing = [c for c in required if c not in header]
            if missing:
                raise InputError(f"{path}: missing required columns {missing}")
            unknown = [c for c in header if c not in (*required, *optional)]
            if unknown:
                raise InputError(f"{path}: unrecognized columns {unknown}")
            width = len(header)
            name, dropped = drop or (header[0], ())  # without `drop`, no record is skipped
            column = header.index(name)

            def kept(record):
                """Whether `record` is kept; one with the wrong field count is, to be reported."""
                if len(record) == width:
                    return record[column] not in dropped
                return bool(record)

            def line(index):
                with open(path, "r", encoding="utf-8", newline="") as again:
                    reader = csv.reader(again)
                    next(reader)
                    start = reader.line_num + 1
                    for record in reader:
                        if kept(record):
                            if not index:
                                return start
                            index -= 1
                        start = reader.line_num + 1

            records, skipped = [], 0
            for record in reader:
                if kept(record):
                    if len(record) != width:
                        many = "many" if len(record) > width else "few"
                        raise InputError(f"{path}:{line(len(records))}: too {many} fields")
                    records.append(record)
                elif record:
                    skipped += 1
        except (UnicodeDecodeError, csv.Error) as exc:
            raise InputError(f"{path}: unreadable as UTF-8 CSV ({exc})") from None
    if not records and not skipped:
        raise InputError(f"{path}: no records")
    return dict(zip(header, zip(*records) if records else [()] * width)), line


def _is_timestamp(text: str) -> bool:
    """Whether `text` is an ISO-8601 date or time, with Z accepted for UTC."""
    try:
        datetime.fromisoformat(text[:-1] + "+00:00" if text.endswith("Z") else text)
    except ValueError:
        return False
    return True


def parse_predictions(path: str) -> dict:
    """The columns of a predictions CSV: each name of its header -> its values.

    image_id, true_class and predicted_class are required and non-empty;
    location_id and timestamp are optional, and a timestamp that is given
    must be ISO-8601.  An InputError names the line of the first bad record.
    """
    columns, line = _read_csv(path, PREDICTION_COLUMNS, PREDICTION_OPTIONAL)
    # (row, message) of the first failure of each check, in the order a record is checked
    failures = [
        (columns[name].index(""), f"empty {name}")
        for name in PREDICTION_COLUMNS
        if "" in columns[name]
    ]
    stamps = columns.get("timestamp", ())
    bad = next((i for i, text in enumerate(stamps) if text and not _is_timestamp(text)), None)
    if bad is not None:
        failures.append((bad, f"bad ISO-8601 timestamp {stamps[bad]!r}"))
    if failures:
        row, message = min(failures, key=lambda failure: failure[0])
        raise InputError(f"{path}:{line(row)}: {message}")
    return columns


def parse_observations(path: str, metric: str | None = None) -> np.recarray:
    """Read the observation table (see metrics.observation_table) from a CSV file.

    With a `metric`, only the records of that metric and of unknown metric
    kinds are converted and checked; those of the other known kinds are
    skipped as they are read, so the table holds that metric's rows.  An
    InputError names the line of the first bad record checked.
    """
    drop = None if metric is None else ("metric", frozenset(METRIC_KINDS) - {metric})
    columns, line = _read_csv(path, OBSERVATION_COLUMNS, (), drop)
    typed = dict(columns)
    for name, convert in (("value", float), ("num_tr_images", np.int64)):
        typed[name] = []
        try:
            for text in columns[name]:
                typed[name].append(convert(text))
        except (ValueError, OverflowError):
            pass

    def where(i):
        return f"{path}:{line(i)}"

    n = min(len(typed["value"]), len(typed["num_tr_images"]))
    if n < len(columns["value"]):
        # the records before the first unconvertible one are checked first
        observation_table({name: values[:n] for name, values in typed.items()}, where)
        name = "value" if len(typed["value"]) == n else "num_tr_images"
        raise InputError(f"{where(n)}: bad {name} {columns[name][n]!r}")
    return observation_table(typed, where)


def parse_image_index(path: str) -> tuple:
    """Read a per-class time-ordered image index: image_id,class[,location_id,timestamp].

    Returns (pools, locations): pools maps class -> ids in file order,
    locations maps image id -> location id (empty when the column is absent).
    """
    columns, line = _read_csv(path, ("image_id", "class"), ("location_id", "timestamp"))
    ids, labels = columns["image_id"], columns["class"]
    empty = [column.index("") for column in (ids, labels) if "" in column]
    if empty:
        raise InputError(f"{path}:{line(min(empty))}: empty image_id or class")
    pools: dict = {}
    for image_id, label in zip(ids, labels):
        pools.setdefault(label, []).append(image_id)
    locations = {i: place for i, place in zip(ids, columns.get("location_id", ())) if place}
    return pools, locations


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


def write_observations_csv(path: str, table: np.recarray):
    """Write an observation table as CSV; a value is written as its shortest repr."""
    with atomic_write(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(OBSERVATION_COLUMNS)
        writer.writerows(zip(*(table[name].tolist() for name in OBSERVATION_COLUMNS)))


# ---------------------------------------------------------------------------
# model JSON
# ---------------------------------------------------------------------------


def _plain(value):
    """`value` as JSON data: a dataclass as the dict of its fields, an ndarray as a list."""
    if dataclasses.is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, Mapping):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value.tolist() if isinstance(value, np.ndarray) else value


def model_to_dict(model) -> dict:
    """The model JSON document of `model`: its fields by name, but for a GAM's layout keys."""
    if isinstance(model, LearningCurveModel):
        return {"schema": MODEL_SCHEMA, "model_family": "ols_log", **_plain(model)}
    if isinstance(model, AdditiveModel):
        document = _plain(model)
        spec, knot_vector = document.pop("spec"), document.pop("knot_vector")
        return {
            "schema": MODEL_SCHEMA,
            "model_family": "beta_gam",
            "metric": spec.pop("response"),
            **spec,
            **document,
            "knots": knot_vector["knots"] if knot_vector else None,
            # read by no loader; kept so the model JSON layout stays the same
            "smooth_by": next((t["by_factor"] for t in spec["smooth_terms"]), None),
        }
    raise InputError(f"unsupported model type {type(model).__name__}")


def model_from_dict(payload: Mapping):
    """The model a model_to_dict document describes; InputError if it is malformed."""
    if not isinstance(payload, Mapping) or payload.get("schema") != MODEL_SCHEMA:
        raise InputError(f"not a {MODEL_SCHEMA} document")
    try:
        return _model_from_payload(payload)
    except KeyError as exc:
        raise InputError(f"model is missing key {exc.args[0]!r}") from None
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed model: {exc}") from None


def _typed_fields(cls, values: Mapping, prefix: str = "") -> dict:
    """The fields of dataclass `cls` from `values` by name: an int through _integer, a
    float through float and any other as it is; `prefix` goes before a name in an error."""
    return {
        f.name: (
            _integer(values[f.name], prefix + f.name)
            if f.type == "int"
            else float(values[f.name]) if f.type == "float" else values[f.name]
        )
        for f in dataclasses.fields(cls)
    }


def _model_from_payload(payload: Mapping):
    family = payload.get("model_family")
    if family == "ols_log":
        fields = _typed_fields(LearningCurveModel, {**payload, "size_range": None})
        if payload.get("size_range"):
            fields["size_range"] = _positive_ints(payload["size_range"], "size_range", length=2)
        return LearningCurveModel(**fields)  # checks the transform against the metric
    if family == "beta_gam":
        spec = ModelSpec(
            response=payload["metric"],
            parametric_terms=tuple(
                FactorTerm(t["name"], t["reference"]) for t in payload["parametric_terms"]
            ),
            smooth_terms=tuple(
                SmoothTerm(t["covariate"], t["by_factor"], _integer(t["k"], "smooth term k"))
                for t in payload["smooth_terms"]
            ),
            squeeze_eps=float(payload["squeeze_eps"]),
        )
        return AdditiveModel(
            spec=spec,
            **{k: np.array(payload[k], dtype=float) for k in ("coef", "covariance", "edf_by_coef")},
            coef_names=tuple(payload["coef_names"]),
            term_index={k: tuple(v) for k, v in payload["term_index"].items()},
            factor_levels={k: tuple(v) for k, v in payload["factor_levels"].items()},
            references=dict(payload["references"]),
            knot_vector=KnotVector(payload["knots"]) if payload.get("knots") else None,
            smooth_constraints={
                k: np.array(v, dtype=float) for k, v in payload["smooth_constraints"].items()
            },
            lambdas={k: float(v) for k, v in payload["lambdas"].items()},
            phi=float(payload["phi"]),
            fit_stats=FitStats(**_typed_fields(FitStats, payload["fit_stats"], "fit_stats ")),
            observed_sizes=_positive_ints(payload["observed_sizes"], "observed_sizes"),
        )
    raise InputError(f"unknown model family {family!r}")


def _integer(value, name: str) -> int:
    """A model's count; InputError unless it is an int (a bool is not)."""
    if type(value) is not int:
        raise InputError(f"model {name} must be an integer, got {value!r}")
    return value


def _positive_ints(values, name: str, length: int | None = None) -> tuple:
    """A model's list of sizes as a tuple; InputError unless they are positive ints."""
    if (
        not isinstance(values, list)
        or (length is not None and len(values) != length)
        or not all(type(v) is int and v >= 1 for v in values)
    ):
        count = "" if length is None else f"{length} "
        raise InputError(f"model {name} must be a list of {count}positive integers")
    return tuple(values)


def save_model(model, path: str):
    with atomic_write(path) as handle:
        handle.write(canonical_json(model_to_dict(model)))


def _finite(text: str) -> float:
    """A JSON number or constant as a float; ValueError for NaN, Infinity or 1e999."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def load_model(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle, parse_float=_finite, parse_constant=_finite)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: unreadable as UTF-8 ({exc.reason})") from None
    except ValueError as exc:  # a JSONDecodeError, or a non-finite number
        raise InputError(f"{path}: invalid JSON ({exc})") from exc
    return model_from_dict(payload)


# ---------------------------------------------------------------------------
# manifest JSON
# ---------------------------------------------------------------------------


def save_manifest(manifest: Mapping, path: str):
    """Write a `design.split_design` manifest, with its schema, as canonical JSON."""
    with atomic_write(path) as handle:
        handle.write(canonical_json({"schema": MANIFEST_SCHEMA, **manifest}))
