"""Invert learning-curve models into required training-set sizes.

One rule serves the log-law curves and the Beta GAMs alike: the required
size is the smallest n from which every size up to the search ceiling
meets the target (>= for ACC/PRC/TPR, <= for FPR); if there is none, the
target is unattainable.  So a size inside a local dip is never recommended.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .betagam import AdditiveModel
from .curves import LearningCurveModel, predict_metric
from .errors import InfeasiblePlanError, InputError
from .metrics import METRIC_KINDS

DEFAULT_SEARCH_CEILING = 100_000

# sizes are evaluated as float64, which holds every integer up to 2**53 exactly
MAX_SEARCH_CEILING = 2**53

# a GAM plan predicts every size below its last knot and the ceiling: at most
# MAX_SCANNED_SIZES of them, SCAN_CHUNK at a time, which bounds its time and memory
MAX_SCANNED_SIZES = 1_000_000
SCAN_CHUNK = 8192


@dataclass(frozen=True)
class PlanQuery:
    metric: str
    target: float
    search_ceiling: int = DEFAULT_SEARCH_CEILING

    def __post_init__(self):
        if self.metric not in METRIC_KINDS:
            raise InputError(f"unknown metric kind {self.metric!r}")
        if not 0.0 < self.target < 1.0:
            raise InputError(f"target must lie in (0, 1), got {self.target}")
        if not 1 <= self.search_ceiling <= MAX_SEARCH_CEILING:
            raise InputError(f"search ceiling must lie in [1, 2**53 = {MAX_SEARCH_CEILING}]")

    def met_by(self, values):
        """Elementwise: FPR targets are upper bounds, the others lower bounds."""
        return values <= self.target if self.metric == "FPR" else values >= self.target


@dataclass(frozen=True)
class PlanResult:
    metric: str
    target: float
    required_n: int | None  # None when unattainable
    predicted_value: float | None
    extrapolated: bool
    source: str

    @property
    def attainable(self) -> bool:
        return self.required_n is not None


def _scan_prefix(query, predict, scanned) -> tuple:
    """The last size in 1..scanned that fails `query` (0 for none), and the
    prediction at the size after it (None if that is past `scanned`).

    The sizes are predicted SCAN_CHUNK at a time from the top down, so the
    memory does not depend on `scanned`, and the scan stops at the first
    chunk with a failing size.
    """
    after = None  # the prediction at the size above the chunk
    for stop in range(scanned, 0, -SCAN_CHUNK):
        start = max(stop - SCAN_CHUNK, 0)
        values = predict(np.arange(start + 1, stop + 1, dtype=float))
        fail_idx = np.flatnonzero(~query.met_by(values))
        if fail_idx.size:
            last = start + int(fail_idx[-1]) + 1
            return last, float(values[last - start]) if last < stop else after
        after = float(values[0])
    return 0, after


def _last_crossing(family, metric, query, predict, monotone_from, max_observed) -> PlanResult:
    """The rule over the sizes 1..search_ceiling for a `family` model of `metric`.

    `predict` maps a sequence of sizes to metric values, monotone in n
    (either way) from the size `monotone_from` on.  Only the sizes up to
    there are all predicted, in chunks; past it the failing sizes form a
    prefix of the tail: all of it if its last size fails, none if its two
    ends meet, else a prefix whose end is found by bisection.  Time follows
    `monotone_from`, not the ceiling, and memory follows neither.
    `max_observed` (or None) is the largest size the model was built on.
    """
    if metric != query.metric:
        raise InputError(f"model is for {metric}, query is for {query.metric}")
    ceiling = query.search_ceiling
    scanned = min(ceiling, monotone_from)
    last, value = _scan_prefix(query, predict, scanned)  # value at last + 1 if scanned
    if scanned < ceiling:
        if not query.met_by(predict([ceiling])[0]):
            last = ceiling
        elif not query.met_by(predict([scanned + 1])[0]):
            lo, hi = scanned + 1, ceiling  # lo fails, hi meets
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if query.met_by(predict([mid])[0]) else (mid, hi)
            last = lo
    n = last + 1 if last < ceiling else None
    if n is None:
        value = None
    elif n > scanned:
        value = float(predict([n])[0])
    return PlanResult(
        metric=query.metric,
        target=query.target,
        required_n=n,
        predicted_value=value,
        extrapolated=bool(n is not None and max_observed is not None and n > max_observed),
        source=f"{family}[{metric}]",
    )


def required_sample_size(model: LearningCurveModel, query: PlanQuery) -> PlanResult:
    """Required size under a fitted or preset log-law curve, monotone in n."""
    return _last_crossing(
        "log-curve",
        model.metric,
        query,
        lambda sizes: np.array([predict_metric(model, n) for n in sizes]),
        monotone_from=1,
        max_observed=model.size_range[1] if model.size_range else None,
    )


def gam_required_sample_size(
    model: AdditiveModel, cell: Mapping, query: PlanQuery
) -> PlanResult:
    """Required size under a Beta GAM's prediction for one covariate cell.

    Spline fits need not be monotone, but beyond the last knot the natural
    spline is linear in log n, so the prediction is monotone from
    ceil(exp(last knot)) on (a model without a smooth is constant in n).
    InputError when the sizes below both that and the ceiling number more
    than MAX_SCANNED_SIZES.
    """
    monotone_from = 1
    if model.knots is not None:
        last_knot = model.knots[-1]
        # any start past the largest ceiling scans up to the ceiling; exp could overflow
        if last_knot > math.log(MAX_SEARCH_CEILING):
            monotone_from = MAX_SEARCH_CEILING + 1
        else:
            monotone_from = math.ceil(math.exp(last_knot))
        if min(query.search_ceiling, monotone_from) > MAX_SCANNED_SIZES:
            raise InputError(
                f"the model's last knot, log n = {last_knot:.10g}, leaves more than "
                f"{MAX_SCANNED_SIZES} sizes to scan below the search ceiling; "
                f"lower the ceiling to at most {MAX_SCANNED_SIZES}"
            )
    return _last_crossing(
        "beta-gam",
        model.metric,
        query,
        lambda sizes: model.predict_sizes(cell, sizes),
        monotone_from=monotone_from,
        max_observed=max(model.observed_sizes) if model.observed_sizes else None,
    )


@dataclass(frozen=True)
class PlanReport:
    results: tuple  # PlanResult per requested metric, in request order
    binding_n: int


def plan_report(
    targets: Mapping[str, float],
    models: Mapping[str, object],
    cell: Mapping | None = None,
    search_ceiling: int = DEFAULT_SEARCH_CEILING,
) -> PlanReport:
    """Per-metric requirements plus the binding (largest) requirement.

    `models` maps each targeted metric to either a LearningCurveModel or a
    fitted AdditiveModel (the latter needs `cell`).  Raises
    InfeasiblePlanError when no metric target is attainable.
    """
    if not targets:
        raise InputError("no targets given")
    results = []
    for metric, target in targets.items():
        if metric not in models:
            raise InputError(f"no model supplied for metric {metric}")
        query = PlanQuery(metric=metric, target=float(target), search_ceiling=search_ceiling)
        model = models[metric]
        if isinstance(model, LearningCurveModel):
            results.append(required_sample_size(model, query))
        elif isinstance(model, AdditiveModel):
            if cell is None:
                raise InputError("planning against a GAM needs a covariate cell")
            results.append(gam_required_sample_size(model, cell, query))
        else:
            raise InputError(f"unsupported model type {type(model).__name__}")
    attained = [r.required_n for r in results if r.required_n is not None]
    if not attained:
        raise InfeasiblePlanError(
            "no training-set size attains any of the requested targets"
        )
    return PlanReport(results=tuple(results), binding_n=max(attained))
