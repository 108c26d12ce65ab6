"""Per-class classification performance metrics.

Each class is scored one-vs-rest from a multi-class confusion tally:
accuracy, precision, true positive rate (recall) and false positive rate.
Measured values are kept in one observation table (observation_table), which
the CSV parser, the simulator, aggregate() and the model fits all share.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from datetime import datetime
from typing import Mapping, Sequence

import numpy as np

from .errors import InputError, NoPositivePredictions, UndefinedMetricError

METRIC_KINDS = ("ACC", "PRC", "TPR", "FPR")


@dataclass(frozen=True)
class ConfusionCounts:
    """One-vs-rest tallies for a single class."""

    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if v < 0 or v != int(v):
                raise InputError(f"confusion count {f.name}={v} must be a non-negative integer")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class PredictionRecord:
    """A single test-set outcome: what the image was vs. what the model said."""

    image_id: str
    true_class: str
    predicted_class: str
    location_id: str | None = None
    timestamp: datetime | None = None


# the columns of an observation table, named as in the header of an observation CSV
OBSERVATION_COLUMNS = (
    "metric",
    "value",
    "dataset",
    "class",
    "num_tr_images",
    "architecture",
    "tuning",
    "augmentation",
)


def observation_table(columns: Mapping[str, Sequence], where=None) -> np.recarray:
    """The observation table: a metric value per row with the covariates of its cell.

    `columns` maps each name of OBSERVATION_COLUMNS to its values, one per
    row.  The table is a record array with a field per column: floats for
    `value`, 64-bit integers for `num_tr_images` and strings otherwise.  It
    is read-only, since an assignment into a string field would be silently
    truncated to the field's width; a filtered copy is writeable.
    Raises InputError for the first row with an unknown metric kind, a value
    outside [0, 1] or a num_tr_images that is not a positive integer, named
    by `where(i)` for row i (default "observation i").
    """
    metric = np.asarray(columns["metric"], dtype=str)
    value = np.asarray(columns["value"], dtype=float)
    size = np.asarray(columns["num_tr_images"])
    kinds = f"expected one of {METRIC_KINDS}"
    checks = (  # (column, rows that pass, message about a failing value)
        (metric, np.isin(metric, METRIC_KINDS), "unknown metric kind {!r}; " + kinds),
        (value, (value >= 0.0) & (value <= 1.0), "metric value {} outside [0, 1]"),
        (size, (size >= 1) & (size % 1 == 0), "num_tr_images {} must be a positive integer"),
    )
    # the first bad row is reported, and within it the first failed check
    failures = [(int(np.argmin(ok)), k) for k, (_, ok, _) in enumerate(checks) if not ok.all()]
    if failures:
        i, k = min(failures)
        column, _, message = checks[k]
        name = f"observation {i}" if where is None else where(i)
        raise InputError(f"{name}: " + message.format(column[i].item()))
    typed = {"metric": metric, "value": value, "num_tr_images": size.astype(np.int64)}
    arrays = [
        typed[name] if name in typed else np.asarray(columns[name], dtype=str)
        for name in OBSERVATION_COLUMNS
    ]
    table = np.rec.fromarrays(arrays, names=OBSERVATION_COLUMNS)
    table.flags.writeable = False
    return table


def tally_confusion(
    records: Sequence[PredictionRecord], class_set: Sequence[str]
) -> dict[str, ConfusionCounts]:
    """One-vs-rest confusion tallies per class.

    Every record contributes to every class's tally, so per class
    tp + fp + tn + fn equals the total record count.
    """
    if not records:
        raise InputError("no prediction records to tally")
    classes = list(dict.fromkeys(class_set))
    known = set(classes)
    for rec in records:
        for label in (rec.true_class, rec.predicted_class):
            if label not in known:
                raise InputError(f"unknown class label {label!r} in record {rec.image_id!r}")
    pair_counts = Counter((r.true_class, r.predicted_class) for r in records)
    n = len(records)
    out = {}
    for c in classes:
        tp = pair_counts[(c, c)]
        fn = sum(v for (t, p), v in pair_counts.items() if t == c and p != c)
        fp = sum(v for (t, p), v in pair_counts.items() if t != c and p == c)
        out[c] = ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=n - tp - fp - fn)
    return out


def accuracy(c: ConfusionCounts) -> float:
    if c.total < 1:
        raise UndefinedMetricError("accuracy undefined on an empty tally")
    return (c.tp + c.tn) / c.total


def precision(c: ConfusionCounts) -> float:
    if c.tp + c.fp < 1:
        raise NoPositivePredictions(
            "precision undefined: the class was never predicted (tp + fp = 0)"
        )
    return c.tp / (c.tp + c.fp)


def true_positive_rate(c: ConfusionCounts) -> float:
    if c.tp + c.fn < 1:
        raise UndefinedMetricError("true positive rate undefined: class absent from test set")
    return c.tp / (c.tp + c.fn)


def false_positive_rate(c: ConfusionCounts) -> float:
    if c.fp + c.tn < 1:
        raise UndefinedMetricError("false positive rate undefined: no negative images")
    return c.fp / (c.fp + c.tn)


def metric_value(kind: str, c: ConfusionCounts) -> float:
    fn = {
        "ACC": accuracy,
        "PRC": precision,
        "TPR": true_positive_rate,
        "FPR": false_positive_rate,
    }.get(kind)
    if fn is None:
        raise InputError(f"unknown metric kind {kind!r}")
    return fn(c)


@dataclass(frozen=True)
class AggregateRow:
    key: tuple
    mean: float
    std: float | None  # sample (n-1) standard deviation; None when count < 2
    count: int


def _distinct(table: np.recarray, names: Sequence[str]) -> tuple:
    """The distinct tuples of the fields `names`, sorted, and each row's index among them."""
    columns = [table[name] for name in names]
    # np.lexsort sorts by its last key first
    order = np.lexsort(columns[::-1]) if columns else np.arange(len(table))
    starts = np.zeros(len(table), dtype=bool)  # where a new tuple begins in sorted order
    starts[:1] = True
    for column in columns:
        ordered = column[order]
        starts[1:] |= ordered[1:] != ordered[:-1]
    inverse = np.empty(len(table), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    firsts = order[starts]
    keys = list(zip(*(column[firsts].tolist() for column in columns))) if columns else [()]
    return keys, inverse


def aggregate(table: np.recarray, group_by: Sequence[str]) -> list[AggregateRow]:
    """Mean and unbiased sample standard deviation of `value` per group, in key order."""
    if not len(table):
        raise InputError("no observations to aggregate")
    groupable = tuple(name for name in OBSERVATION_COLUMNS if name != "value")
    for f in group_by:
        if f not in groupable:
            raise InputError(f"cannot group by {f!r}; valid fields: {groupable}")
    keys, inverse = _distinct(table, group_by)
    counts = np.bincount(inverse)
    # each group's values in table order
    values = np.split(table.value[np.argsort(inverse, kind="stable")], np.cumsum(counts)[:-1])
    rows = []
    for key, vals in zip(keys, values):
        std = float(np.std(vals, ddof=1)) if vals.size >= 2 else None
        rows.append(AggregateRow(key=key, mean=float(vals.mean()), std=std, count=vals.size))
    return rows
