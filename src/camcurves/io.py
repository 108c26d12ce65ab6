"""File formats: prediction/observation CSVs, model JSON, manifest JSON.

All writers are atomic (temp file + rename) so failed runs never leave
partial outputs behind.  JSON is emitted in a canonical form (sorted keys,
two-space indent, trailing newline) so serialize -> parse -> serialize is
byte-identical.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from contextlib import contextmanager
from datetime import datetime
from typing import Mapping, Sequence

import numpy as np

from .betagam import AdditiveModel, FactorTerm, FitStats, ModelSpec, SmoothTerm
from .curves import LearningCurveModel
from .errors import InputError
from .metrics import OBSERVATION_COLUMNS, PredictionRecord, observation_table
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


def _read_csv(path: str, required: Sequence[str], optional: Sequence[str]):
    """(header, records, the line each record starts on) of a CSV file.

    Blank lines are skipped; a record may span lines inside a quoted field.
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
            records, lines = [], []
            start = reader.line_num + 1
            for record in reader:
                if record:
                    if len(record) != len(header):
                        many = "many" if len(record) > len(header) else "few"
                        raise InputError(f"{path}:{start}: too {many} fields")
                    records.append(record)
                    lines.append(start)
                start = reader.line_num + 1
        except (UnicodeDecodeError, csv.Error) as exc:
            raise InputError(f"{path}: unreadable as UTF-8 CSV ({exc})") from None
    if not records:
        raise InputError(f"{path}: no records")
    return header, records, lines


def _parse_timestamp(raw: str, where: str):
    text = raw.replace("Z", "+00:00") if raw.endswith("Z") else raw
    try:
        return datetime.fromisoformat(text)
    except ValueError as exc:
        raise InputError(f"{where}: bad ISO-8601 timestamp {raw!r}") from exc


def parse_predictions(path: str) -> list:
    """Read PredictionRecord rows from a CSV file."""
    header, rows, lines = _read_csv(path, PREDICTION_COLUMNS, PREDICTION_OPTIONAL)
    records = []
    for lineno, record in zip(lines, rows):
        row = dict(zip(header, record))
        where = f"{path}:{lineno}"
        for col in PREDICTION_COLUMNS:
            if not row[col]:
                raise InputError(f"{where}: empty {col}")
        ts = None
        if row.get("timestamp"):
            ts = _parse_timestamp(row["timestamp"], where)
        records.append(
            PredictionRecord(
                image_id=row["image_id"],
                true_class=row["true_class"],
                predicted_class=row["predicted_class"],
                location_id=row.get("location_id") or None,
                timestamp=ts,
            )
        )
    return records


def parse_observations(path: str) -> np.recarray:
    """Read the observation table (see metrics.observation_table) from a CSV file.

    An InputError names the line of the first bad record.
    """
    header, records, lines = _read_csv(path, OBSERVATION_COLUMNS, ())
    columns = dict(zip(header, zip(*records)))
    del records  # free the row lists before the table is built
    typed = dict(columns)
    for name, convert in (("value", float), ("num_tr_images", np.int64)):
        typed[name] = []
        try:
            for text in columns[name]:
                typed[name].append(convert(text))
        except (ValueError, OverflowError):
            pass

    def where(i):
        return f"{path}:{lines[i]}"

    n = min(len(typed["value"]), len(typed["num_tr_images"]))
    if n < len(lines):
        # the records before the first unconvertible one are checked first
        observation_table({name: values[:n] for name, values in typed.items()}, where)
        name = "value" if len(typed["value"]) == n else "num_tr_images"
        raise InputError(f"{path}:{lines[n]}: bad {name} {columns[name][n]!r}")
    return observation_table(typed, where)


def parse_image_index(path: str) -> tuple:
    """Read a per-class time-ordered image index: image_id,class[,location_id,timestamp].

    Returns (pools, locations): pools maps class -> ids in file order,
    locations maps image id -> location id (empty when the column is absent).
    """
    pools: dict = {}
    locations: dict = {}
    header, rows, lines = _read_csv(path, ("image_id", "class"), ("location_id", "timestamp"))
    for lineno, record in zip(lines, rows):
        row = dict(zip(header, record))
        where = f"{path}:{lineno}"
        if not row["image_id"] or not row["class"]:
            raise InputError(f"{where}: empty image_id or class")
        pools.setdefault(row["class"], []).append(row["image_id"])
        if row.get("location_id"):
            locations[row["image_id"]] = row["location_id"]
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


def model_to_dict(model) -> dict:
    if isinstance(model, LearningCurveModel):
        return {
            "schema": MODEL_SCHEMA,
            "model_family": "ols_log",
            "metric": model.metric,
            "intercept": model.intercept,
            "slope": model.slope,
            "transform": model.transform,
            "adj_r_squared": model.adj_r_squared,
            "n_obs": model.n_obs,
            "size_range": list(model.size_range) if model.size_range else None,
        }
    if isinstance(model, AdditiveModel):
        return {
            "schema": MODEL_SCHEMA,
            "model_family": "beta_gam",
            "metric": model.metric,
            "squeeze_eps": model.spec.squeeze_eps,
            "parametric_terms": [
                {"name": t.name, "reference": t.reference} for t in model.spec.parametric_terms
            ],
            "smooth_terms": [
                {"covariate": t.covariate, "by_factor": t.by_factor, "k": t.k}
                for t in model.spec.smooth_terms
            ],
            "coef_names": list(model.coef_names),
            "coef": model.coef.tolist(),
            "term_index": {k: list(v) for k, v in model.term_index.items()},
            "factor_levels": {k: list(v) for k, v in model.factor_levels.items()},
            "references": dict(model.references),
            "knots": model.knot_vector.knots.tolist() if model.knot_vector else None,
            # read by no loader; kept so the model JSON layout stays the same
            "smooth_by": next((t.by_factor for t in model.spec.smooth_terms), None),
            "smooth_constraints": {
                k: v.tolist() for k, v in model.smooth_constraints.items()
            },
            "lambdas": dict(model.lambdas),
            "phi": model.phi,
            "covariance": model.covariance.tolist(),
            "edf_by_coef": model.edf_by_coef.tolist(),
            "fit_stats": {
                "loglik": model.fit_stats.loglik,
                "aic": model.fit_stats.aic,
                "deviance": model.fit_stats.deviance,
                "null_deviance": model.fit_stats.null_deviance,
                "deviance_explained": model.fit_stats.deviance_explained,
                "adj_r_squared": model.fit_stats.adj_r_squared,
                "n_obs": model.fit_stats.n_obs,
                "iterations": model.fit_stats.iterations,
            },
            "observed_sizes": list(model.observed_sizes),
        }
    raise InputError(f"unsupported model type {type(model).__name__}")


def model_from_dict(payload: Mapping):
    """The model a model_to_dict document describes; InputError if it is malformed."""
    if not isinstance(payload, Mapping) or payload.get("schema") != MODEL_SCHEMA:
        raise InputError(f"not a {MODEL_SCHEMA} document")
    try:
        model = _model_from_payload(payload)
        if isinstance(model, AdditiveModel):
            _check_gam_parts(model)
    except KeyError as exc:
        raise InputError(f"model is missing key {exc.args[0]!r}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise InputError(f"malformed model: {exc}") from None
    return model


def _check_gam_parts(model: AdditiveModel):
    """Raise InputError unless the arrays and indices of a loaded GAM agree."""
    p = len(model.coef_names)
    shapes = {
        "coef": (model.coef.shape, (p,)),
        "edf_by_coef": (model.edf_by_coef.shape, (p,)),
        "covariance": (model.covariance.shape, (p, p)),
    }
    for name, (shape, expected) in shapes.items():
        if shape != expected:
            raise InputError(f"model {name} has shape {shape}, coef_names needs {expected}")
    indices = sorted(i for idx in model.term_index.values() for i in idx)
    if indices != list(range(p)):
        raise InputError(f"model term_index does not cover coefficients 0..{p - 1} once each")
    factors = {t.name: t.reference for t in model.spec.parametric_terms}
    if set(model.factor_levels) != set(factors) or model.references != factors:
        raise InputError("model factor_levels and references disagree with its parametric terms")
    for name, levels in model.factor_levels.items():
        if factors[name] not in levels or len(model.term_index.get(name, ())) != len(levels) - 1:
            raise InputError(f"model levels of factor {name!r} disagree with its coefficients")
    knots = model.knot_vector.count if model.knot_vector else 0
    for label in model.smooth_labels():
        shape = (knots, len(model.term_index[label]))
        constraint = model.smooth_constraints.get(label)
        if constraint is None or constraint.shape != shape:
            rows, cols = shape
            raise InputError(f"model has no {rows} x {cols} smooth constraint for {label!r}")


def _model_from_payload(payload: Mapping):
    family = payload.get("model_family")
    if family == "ols_log":
        return LearningCurveModel(  # checks the transform against the metric
            metric=payload["metric"],
            intercept=float(payload["intercept"]),
            slope=float(payload["slope"]),
            transform=payload["transform"],
            adj_r_squared=float(payload["adj_r_squared"]),
            n_obs=int(payload["n_obs"]),
            size_range=tuple(payload["size_range"]) if payload.get("size_range") else None,
        )
    if family == "beta_gam":
        spec = ModelSpec(
            response=payload["metric"],
            parametric_terms=tuple(
                FactorTerm(t["name"], t["reference"]) for t in payload["parametric_terms"]
            ),
            smooth_terms=tuple(
                SmoothTerm(t["covariate"], t["by_factor"], int(t["k"]))
                for t in payload["smooth_terms"]
            ),
            squeeze_eps=float(payload["squeeze_eps"]),
        )
        stats = payload["fit_stats"]
        return AdditiveModel(
            spec=spec,
            coef=np.array(payload["coef"], dtype=float),
            coef_names=tuple(payload["coef_names"]),
            term_index={k: tuple(v) for k, v in payload["term_index"].items()},
            factor_levels={k: tuple(v) for k, v in payload["factor_levels"].items()},
            references=dict(payload["references"]),
            knot_vector=(
                KnotVector(np.array(payload["knots"], dtype=float))
                if payload.get("knots")
                else None
            ),
            smooth_constraints={
                k: np.array(v, dtype=float)
                for k, v in payload["smooth_constraints"].items()
            },
            lambdas={k: float(v) for k, v in payload["lambdas"].items()},
            phi=float(payload["phi"]),
            covariance=np.array(payload["covariance"], dtype=float),
            edf_by_coef=np.array(payload["edf_by_coef"], dtype=float),
            fit_stats=FitStats(
                loglik=float(stats["loglik"]),
                aic=float(stats["aic"]),
                deviance=float(stats["deviance"]),
                null_deviance=float(stats["null_deviance"]),
                deviance_explained=float(stats["deviance_explained"]),
                adj_r_squared=float(stats["adj_r_squared"]),
                n_obs=int(stats["n_obs"]),
                iterations=int(stats["iterations"]),
            ),
            observed_sizes=tuple(payload["observed_sizes"]),
        )
    raise InputError(f"unknown model family {family!r}")


def save_model(model, path: str):
    with atomic_write(path) as handle:
        handle.write(canonical_json(model_to_dict(model)))


def load_model(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from exc
    return model_from_dict(payload)


# ---------------------------------------------------------------------------
# manifest JSON
# ---------------------------------------------------------------------------


def manifest_to_dict(manifest) -> dict:
    return {
        "schema": MANIFEST_SCHEMA,
        "seed": manifest.seed,
        "test_size": manifest.test_size,
        "size_ladder": list(manifest.size_ladder),
        "nested": manifest.nested,
        "classes": {
            label: {
                "pool": list(cd.pool),
                "test_ids": list(cd.test_ids),
                "train_subsets": {str(k): list(v) for k, v in cd.train_subsets.items()},
            }
            for label, cd in manifest.classes.items()
        },
    }


def save_manifest(manifest, path: str, extra: Mapping | None = None):
    payload = manifest_to_dict(manifest)
    if extra:
        payload.update(extra)
    with atomic_write(path) as handle:
        handle.write(canonical_json(payload))
