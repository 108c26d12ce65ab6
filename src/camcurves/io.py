"""File formats: prediction/observation CSVs, model JSON, manifest JSON.

All writers are atomic (temp file + rename) so failed runs never leave
partial outputs behind.  JSON is emitted in a canonical form (sorted keys,
two-space indent, trailing newline) so serialize -> parse -> serialize is
byte-identical.

The keys of a model JSON document are the field names of its model
dataclass, `LearningCurveModel` or `AdditiveModel` (with `FitStats` under
fit_stats), with the schema and model_family beside them.  A GAM's spec is
the exception: the fields of its `ModelSpec` are spread beside the model's,
and only one key is named by hand, metric for the spec's response.  `_plain`
writes the fields and `_read`, the one reader, reads each through its
annotation, so a string, a bool or a fraction where the file must hold a
number or an integer is an input error that names its key, as is NaN, an
infinity or a number beyond the float range.
This module holds only the file format: a model checks its own parts (sizes;
a GAM's arrays, factors, coefficient count, knots and smooth constraints) when
it is built, here or anywhere else.  A key that names no field, such as one
that older files hold, is not read.
"""

from __future__ import annotations

import csv
import dataclasses
import errno
import functools
import itertools
import json
import math
import os
import tempfile
import types
import typing
from contextlib import contextmanager
from typing import Iterable, Mapping, Sequence

import numpy as np

from .betagam import AdditiveModel
from .curves import LearningCurveModel
from .errors import InputError
from .metrics import METRIC_KINDS, OBSERVATION_COLUMNS, observation_table

MODEL_SCHEMA = "camcurves-model/1"
MANIFEST_SCHEMA = "camcurves-manifest/1"

PREDICTION_COLUMNS = ("image_id", "true_class", "predicted_class")

# records held as Python objects at a time when a CSV file is read or an observation
# table written, so that what the writer adds stays under a tenth of the simulated
# grid's table and the reader never holds a whole file's records as objects
CSV_CHUNK_ROWS = 512


def _temp_file(path: str):
    """Create a temp file beside `path`; (fd, temp path), or InputError naming `path`.

    An existing directory at `path` is an InputError: the rename onto it would fail.
    """
    if os.path.isdir(path):
        raise InputError(f"cannot write {path}: {os.strerror(errno.EISDIR)}")
    directory = os.path.dirname(path) or "."  # for "x/" the temp file goes in x, like the rename
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
    """Write to a temp file in the target directory, rename on success.

    An OSError of the rename is an InputError naming `path`; the temp file
    is removed whatever fails.
    """
    fd, tmp = _temp_file(path)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            yield handle
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc.strerror}") from exc
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


def _open_csv(path: str):
    """`path` opened for reading as UTF-8 text, with a leading byte-order mark dropped."""
    try:
        return open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _read_csv(path: str, required: Sequence[str], optional: Sequence[str], drop=None):
    """Yield the records of a CSV file, CSV_CHUNK_ROWS at a time, in one reading.

    Each chunk is a pair (columns, lines): columns maps every name of the
    header to its column in the chunk, a tuple of strings with one per
    record kept, and lines[i] is the line on which kept record i of the
    chunk starts.  Blank lines are skipped; a record may span lines inside a
    quoted field.  `drop`, a pair (name, values), skips each record whose
    field `name` holds one of `values` as it is read.  A bad header, a record
    with the wrong field count, a decode or CSV error, or a file with no
    records raises InputError when the reading reaches it, so a caller that
    reads every chunk meets these first.
    """
    with _open_csv(path) as handle:
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
            records, lines, count, skipped = [], [], 0, False
            start = reader.line_num + 1
            for record in reader:
                if len(record) != width:
                    if record:  # not a blank line
                        many = "many" if len(record) > width else "few"
                        raise InputError(f"{path}:{start}: too {many} fields")
                elif record[column] in dropped:
                    skipped = True
                else:
                    records.append(record)
                    lines.append(start)
                    if len(records) == CSV_CHUNK_ROWS:
                        yield dict(zip(header, zip(*records))), lines
                        records, lines, count = [], [], count + CSV_CHUNK_ROWS
                start = reader.line_num + 1
        except (UnicodeDecodeError, csv.Error) as exc:
            raise InputError(f"{path}: unreadable as UTF-8 CSV ({exc})") from None
    if records:
        yield dict(zip(header, zip(*records))), lines
    elif not count and not skipped:
        raise InputError(f"{path}: no records")


def _read_columns(path: str, required: Sequence[str], optional: Sequence[str] = ()) -> dict:
    """Each name of a CSV file's header -> its column, a tuple of strings with one per
    record; InputError `<path>:<line>: empty <name>` for the first empty required field."""
    chunks = list(_read_csv(path, required, optional))
    columns = {name: tuple(itertools.chain(*(c[name] for c, _ in chunks))) for name in chunks[0][0]}
    for row, fields in enumerate(zip(*(columns[name] for name in required))):
        if "" in fields:
            line = [line for _, lines in chunks for line in lines][row]
            raise InputError(f"{path}:{line}: empty {required[fields.index('')]}")
    return columns


def parse_predictions(path: str) -> dict:
    """The columns of a predictions CSV, image_id,true_class,predicted_class: each name
    -> its values.  No other column is read, and no field may be empty."""
    return _read_columns(path, PREDICTION_COLUMNS)


def _converted(texts: Sequence[str], convert) -> np.ndarray:
    """`convert` of each text, as an array of dtype `convert`, up to the first that
    raises ValueError or OverflowError; the array is shorter than `texts` when one does."""
    values = []
    for text in texts:
        try:
            values.append(convert(text))
        except (ValueError, OverflowError):
            break
    return np.array(values, dtype=convert)


def parse_observations(path: str, metric: str | None = None) -> np.recarray:
    """Read the observation table (see metrics.observation_table) from a CSV file.

    With a `metric`, only the records of that metric and of unknown metric
    kinds are converted and checked; those of the other known kinds are
    skipped as they are read, so the table holds that metric's rows.  The
    records are converted CSV_CHUNK_ROWS at a time into typed column arrays,
    which are joined per column and make the table in one observation_table
    call, so the records of the whole file are never held as Python objects.
    The line on which each converted record starts is kept beside them, an
    int64 array per chunk, so the file is read once, errors included.  An
    InputError names the line of the first bad record checked; a record with
    the wrong field count, a decode or CSV error anywhere in the file is
    reported before a bad value.
    """
    drop = None if metric is None else ("metric", frozenset(METRIC_KINDS) - {metric})
    numbers = {"value": float, "num_tr_images": np.int64}
    parts: dict = {name: [] for name in OBSERVATION_COLUMNS}
    starts = []  # the line of each converted record, an int64 array per chunk
    bad = None  # (line, message) of the first text that does not convert
    for chunk, lines in _read_csv(path, OBSERVATION_COLUMNS, (), drop):
        if bad is None:  # after one, the file is read on only for the errors that come first
            typed = {name: _converted(chunk[name], convert) for name, convert in numbers.items()}
            n = min(len(array) for array in typed.values())
            for name in OBSERVATION_COLUMNS:
                column = typed[name][:n] if name in typed else np.array(chunk[name][:n], dtype=str)
                parts[name].append(column)
            starts.append(np.array(lines[:n], dtype=np.int64))
            if n < len(lines):
                name = "value" if len(typed["value"]) == n else "num_tr_images"
                bad = (lines[n], f"bad {name} {chunk[name][n]!r}")
    # a column's chunks are let go as it is joined
    columns = {
        name: np.concatenate(parts.pop(name)) if starts else () for name in OBSERVATION_COLUMNS
    }
    # the records before a bad text are checked first
    table = observation_table(columns, where=lambda i: f"{path}:{np.concatenate(starts)[i]}")
    if bad is not None:
        raise InputError(f"{path}:{bad[0]}: {bad[1]}")
    return table


def parse_image_index(path: str) -> tuple:
    """Read an image index: image_id,class[,location_id], each class's rows in time order.

    Returns (pools, locations): pools maps class -> ids in file order, and
    locations maps image id -> location id for each row that gives one, or is
    None without a location_id column.  No image_id or class may be empty.
    """
    columns = _read_columns(path, ("image_id", "class"), ("location_id",))
    ids = columns["image_id"]
    pools: dict = {}
    for image_id, label in zip(ids, columns["class"]):
        pools.setdefault(label, []).append(image_id)
    if "location_id" not in columns:
        return pools, None
    return pools, {i: place for i, place in zip(ids, columns["location_id"]) if place}


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


def write_observations_csv(path: str, tables: Iterable[np.recarray]) -> int:
    """Write observation tables as one CSV, in order under one header; the rows written.

    A value is written as its shortest repr.  The rows are converted to
    Python objects CSV_CHUNK_ROWS at a time, so the memory the writer adds
    does not grow with a table, and each table is taken from `tables` only
    when the one before it is written and released, so a generator of tables
    is never held whole, nor two of its tables at once.
    """
    rows = 0
    with atomic_write(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(OBSERVATION_COLUMNS)
        for table in tables:
            for start in range(0, len(table), CSV_CHUNK_ROWS):
                chunk = table[start : start + CSV_CHUNK_ROWS]
                writer.writerows(zip(*(chunk[name].tolist() for name in OBSERVATION_COLUMNS)))
            rows += len(table)
            table = chunk = None  # a chunk is a view that keeps its table
    return rows


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
    """The model JSON document of `model`: its fields by name, a GAM's spec spread beside them."""
    if isinstance(model, LearningCurveModel):
        return {"schema": MODEL_SCHEMA, "model_family": "ols_log", **_plain(model)}
    if isinstance(model, AdditiveModel):
        document = _plain(model)
        spec = document.pop("spec")
        return {
            "schema": MODEL_SCHEMA,
            "model_family": "beta_gam",
            "metric": spec.pop("response"),
            **spec,
            **document,
        }
    raise InputError(f"unsupported model type {type(model).__name__}")


def model_from_dict(payload: Mapping):
    """The model a model_to_dict document describes; InputError if it is malformed."""
    if not isinstance(payload, Mapping) or payload.get("schema") != MODEL_SCHEMA:
        raise InputError(f"not a {MODEL_SCHEMA} document")
    family = payload.get("model_family")
    if family not in ("ols_log", "beta_gam"):
        raise InputError(f"unknown model family {family!r}")
    try:
        if family == "ols_log":
            return _read(LearningCurveModel, payload, "model")
        # the writer spreads the spec's fields, which _read takes from the document by name
        spec = {**payload, "response": payload["metric"]}
        return _read(AdditiveModel, {**payload, "spec": spec}, "model")
    except KeyError as exc:  # a key the file must hold
        raise InputError(f"model is missing key {exc.args[0]!r}") from None
    except OverflowError as exc:  # an integer beyond the float range
        raise InputError(f"malformed model: {exc}") from None


_hints = functools.cache(typing.get_type_hints)  # a dataclass's evaluated field annotations
_KINDS = {int: "an integer", float: "a number", str: "a string", np.ndarray: "a vector or matrix"}


def _read(kind, value, name: str):
    """`value`, the part `name` of a model file, as `kind`, the type of a model field.

    A dataclass is read field by field through its annotations: a field with a
    default may be absent, another raises KeyError.  An int is a JSON integer
    and a float any JSON number, but neither is a bool.  An np.ndarray is a
    list of numbers or a list of equally long such lists.  InputError names
    the first value that is not of its type.
    """
    if kind is float and type(value) in (int, float):
        return float(value)  # OverflowError for an int beyond the float range
    if kind in (int, str) and type(value) is kind:
        return value
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if kind is np.ndarray and isinstance(value, list):
        if not (value and all(type(row) is list for row in value)):
            return np.array(_read(tuple[float, ...], value, name))
        rows = [_read(tuple[float, ...], row, f"{name}[{i}]") for i, row in enumerate(value)]
        lengths = sorted({len(row) for row in rows})
        if len(lengths) > 1:
            raise InputError(f"{name} rows must be equally long, got lengths {lengths}")
        return np.array(rows)
    elif origin is types.UnionType:  # X | None
        return None if value is None else _read(args[0], value, name)
    elif dataclasses.is_dataclass(kind) and isinstance(value, Mapping):
        return kind(**{
            f.name: _read(_hints(kind)[f.name], value[f.name], f"{name} {f.name}")
            for f in dataclasses.fields(kind)
            if f.name in value or f.default is dataclasses.MISSING
        })
    elif origin is dict and isinstance(value, Mapping):
        return {key: _read(args[1], item, f"{name}[{key!r}]") for key, item in value.items()}
    elif origin is tuple and isinstance(value, list):
        kinds = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(kinds) == len(value):
            return tuple(_read(k, v, f"{name}[{i}]") for i, (k, v) in enumerate(zip(kinds, value)))
    fixed = f"a list of {len(args)} items" if args and args[-1] is not Ellipsis else "a list"
    what = fixed if origin is tuple else _KINDS.get(kind, "an object")
    raise InputError(f"{name} must be {what}, got {value!r}")


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
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError, a non-finite number,
        # or arrays or objects nested deeper than the decoder can recurse
        raise InputError(f"{path}: invalid JSON ({exc})") from None
    return model_from_dict(payload)


# ---------------------------------------------------------------------------
# manifest JSON
# ---------------------------------------------------------------------------


def save_manifest(manifest: Mapping, path: str):
    """Write a `design.split_design` manifest, with its schema, as canonical JSON."""
    with atomic_write(path) as handle:
        handle.write(canonical_json({"schema": MANIFEST_SCHEMA, **manifest}))
