"""Per-class classification performance metrics.

Each class is scored one-vs-rest from the multi-class confusion matrix of a
test set (confusion_matrix, one_vs_rest): its tp, fp, tn and fn, accuracy
ACC = (tp + tn) / n, precision PRC = tp / (tp + fp), true positive rate
(recall) TPR = tp / (tp + fn) and false positive rate FPR = fp / (fp + tn).
A ratio whose denominator is 0 is NaN: PRC for a class that is never
predicted, TPR for a class absent from the test set, FPR for a test set of
one class.  Measured values are kept in one observation table
(observation_table), which the CSV parser, the simulator, aggregate() and
the model fits all share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ._numeric import distinct
from .errors import InputError

METRIC_KINDS = ("ACC", "PRC", "TPR", "FPR")


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

    `columns` maps each name of OBSERVATION_COLUMNS to its values.  The rows
    are the entries of `value` read in C order, and every other column is
    either one value per row or an array that broadcasts to `value`'s shape,
    so a label shared by many rows is given once (the simulator passes its
    labels by cell, metric and class).  The table is a record array with a
    field per column: floats for `value`, 64-bit integers for `num_tr_images`
    and strings otherwise.  It is allocated once and filled a field at a
    time, so a broadcast column is never spread into an array of its own.
    It is read-only, since an assignment into a string field would be
    silently truncated to the field's width; a filtered copy is writeable.
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
    passed = [np.broadcast_to(ok, value.shape) for _, ok, _ in checks]
    failures = [(int(np.argmin(ok)), k) for k, ok in enumerate(passed) if not ok.all()]
    if failures:
        i, k = min(failures)
        column, _, message = checks[k]
        name = f"observation {i}" if where is None else where(i)
        bad = np.broadcast_to(column, value.shape).flat[i]
        raise InputError(f"{name}: " + message.format(bad.item()))
    typed = {"metric": metric, "value": value, "num_tr_images": size.astype(np.int64)}
    arrays = {
        name: typed[name] if name in typed else np.asarray(columns[name], dtype=str)
        for name in OBSERVATION_COLUMNS
    }
    table = np.empty(value.shape, [(name, array.dtype) for name, array in arrays.items()])
    for name, array in arrays.items():
        table[name] = array
    table = table.reshape(-1).view(np.recarray)
    table.flags.writeable = False
    return table


def confusion_matrix(
    predictions: Mapping[str, Sequence[str]], classes: Sequence[str]
) -> np.ndarray:
    """The k x k confusion matrix of a test set over `classes`, in their order.

    `predictions` maps image_id, true_class and predicted_class to their
    values, one per record.  Entry [i, j] counts the records of true class
    classes[i] predicted as classes[j], so the matrix sums to the record
    count.  Raises InputError for no records, an image id listed twice, a
    class named twice, or the first record with a label outside `classes`.
    """
    ids, true = predictions["image_id"], predictions["true_class"]
    predicted = predictions["predicted_class"]
    if not len(true):
        raise InputError("no prediction records to tally")
    rows = {image_id: row for row, image_id in enumerate(ids)}
    if len(rows) < len(ids):  # an image scored twice would unbalance the test set
        image_id = next(image_id for row, image_id in enumerate(ids) if rows[image_id] != row)
        raise InputError(f"image id {image_id!r} is listed twice")
    position = {label: i for i, label in enumerate(classes)}
    if len(position) < len(classes):
        label = next(label for i, label in enumerate(classes) if position[label] != i)
        raise InputError(f"class {label!r} is named more than once in the class set")
    index = np.array([position.get(label, -1) for label in (*true, *predicted)], dtype=np.intp)
    true_index, predicted_index = index.reshape(2, -1)
    unknown = (true_index < 0) | (predicted_index < 0)
    if unknown.any():
        row = int(np.argmax(unknown))
        label = true[row] if true_index[row] < 0 else predicted[row]
        raise InputError(f"unknown class label {label!r} in record {ids[row]!r}")
    k = len(position)
    return np.bincount(true_index * k + predicted_index, minlength=k * k).reshape(k, k)


def one_vs_rest(matrix: np.ndarray) -> dict[str, np.ndarray]:
    """Per-class columns tp, fp, tn, fn and METRIC_KINDS of a confusion matrix.

    Row i of each column scores class i against the rest; a ratio whose
    denominator is 0 is NaN.
    """
    tp = np.diagonal(matrix).copy()
    fn = matrix.sum(axis=1) - tp
    fp = matrix.sum(axis=0) - tp
    tn = matrix.sum() - tp - fp - fn
    return {
        "tp": tp,
        "fp": fp,
        "tn": tn,
        "fn": fn,
        "ACC": _ratio(tp + tn, tp + fp + tn + fn),
        "PRC": _ratio(tp, tp + fp),
        "TPR": _ratio(tp, tp + fn),
        "FPR": _ratio(fp, fp + tn),
    }


def _ratio(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    out = np.full(numerator.shape, np.nan)
    return np.divide(numerator, denominator, out=out, where=denominator > 0)


@dataclass(frozen=True)
class AggregateRow:
    key: tuple
    mean: float
    std: float | None  # sample (n-1) standard deviation; None when count < 2
    count: int


def _distinct(table: np.recarray, names: Sequence[str]) -> tuple:
    """(firsts, inverse) of the distinct tuples of the fields `names`, in sorted order.

    firsts holds the row of each tuple's first occurrence and inverse each
    row's index among the tuples, so `table[name][firsts]` is a field's
    column of distinct tuples; no tuple is built as a Python object.  With
    no `names`, every row is the one empty tuple.
    """
    return distinct(*([table[name] for name in names] or [np.zeros(len(table))]))


def aggregate(table: np.recarray, group_by: Sequence[str]) -> list[AggregateRow]:
    """Mean and unbiased sample standard deviation of `value` per group, in key order."""
    if not len(table):
        raise InputError("no observations to aggregate")
    groupable = tuple(name for name in OBSERVATION_COLUMNS if name != "value")
    for i, f in enumerate(group_by):
        if f not in groupable:
            raise InputError(f"cannot group by {f!r}; valid fields: {groupable}")
        if f in group_by[:i]:
            raise InputError(f"field {f!r} is named more than once in the grouping")
    firsts, inverse = _distinct(table, group_by)
    keys = zip(*(table[name][firsts].tolist() for name in group_by)) if group_by else [()]
    counts = np.bincount(inverse)
    # each group's values in table order
    values = np.split(table.value[np.argsort(inverse, kind="stable")], np.cumsum(counts)[:-1])
    rows = []
    for key, vals in zip(keys, values):
        std = float(np.std(vals, ddof=1)) if vals.size >= 2 else None
        rows.append(AggregateRow(key=key, mean=float(vals.mean()), std=std, count=vals.size))
    return rows
