"""Invert learning-curve models into required training-set sizes.

One rule serves the log-law curves and the Beta GAMs alike: the required
size is the smallest n from which every size up to the search ceiling
meets the target (>= for ACC/PRC/TPR, <= for FPR); if there is none, the
target is unattainable.  So a size inside a local dip is never recommended.
It is found on the runs of sizes between the curve's turning points, where
the prediction is monotone: their ends in one model call, then a bisection of
one run, so a query makes a few model calls whatever the knots and ceiling.
"""

from __future__ import annotations

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


def _last_crossing(family, metric, query, predict, turning_sizes, max_observed) -> PlanResult:
    """The rule over the sizes 1..search_ceiling for a `family` model of `metric`.

    `predict` maps a sequence of sizes to metric values, monotone in n (either
    way) between consecutive `turning_sizes` (in [1, ceiling]) and beyond the
    outermost.  Cut at their floors, 1..ceiling falls into such runs, and every
    run end is predicted in one call.  From the top run down: a failing top end
    is the last failing size; else a failing bottom end has the last one above
    it, found by bisection; else the walk goes on below.  So a query makes at
    most log2(ceiling) + 2 model calls.  `max_observed` (or None) is the largest
    size the model was built on.
    """
    if metric != query.metric:
        raise InputError(f"model is for {metric}, query is for {query.metric}")
    ceiling = query.search_ceiling
    bounds = [0, *sorted({int(size) for size in turning_sizes if size < ceiling}), ceiling]
    runs = [(lo + 1, hi) for lo, hi in zip(bounds, bounds[1:])]
    ends_meet = query.met_by(predict([size for run in runs for size in run])).reshape(-1, 2)
    last = 0  # the last failing size, 0 for none
    for (lo, hi), (lo_meets, hi_meets) in reversed(list(zip(runs, ends_meet))):
        if not hi_meets:
            last = hi
            break
        if not lo_meets:
            while hi - lo > 1:  # lo fails, hi meets
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if query.met_by(predict([mid])[0]) else (mid, hi)
            last = lo
            break
    n = last + 1 if last < ceiling else None
    return PlanResult(
        metric=query.metric,
        target=query.target,
        required_n=n,
        predicted_value=None if n is None else float(predict([n])[0]),
        extrapolated=bool(n is not None and max_observed is not None and n > max_observed),
        source=f"{family}[{metric}]",
    )


def required_sample_size(model: LearningCurveModel, query: PlanQuery) -> PlanResult:
    """Required size under a fitted or preset log-law curve: monotone, so one run."""
    return _last_crossing(
        "log-curve",
        model.metric,
        query,
        lambda sizes: np.array([predict_metric(model, n) for n in sizes]),
        turning_sizes=(),
        max_observed=model.size_range[1] if model.size_range else None,
    )


def gam_required_sample_size(
    model: AdditiveModel, cell: Mapping, query: PlanQuery
) -> PlanResult:
    """Required size under a Beta GAM's prediction for one covariate cell.

    Spline fits need not be monotone, but the natural spline is a cubic in log n
    on each knot interval and linear beyond the end knots, so the prediction
    turns only at the roots of a quadratic on each interval (`turning_sizes`):
    a query costs a few model calls whatever the knots and the ceiling.
    """
    return _last_crossing(
        "beta-gam",
        model.metric,
        query,
        lambda sizes: model.predict_sizes(cell, sizes),
        turning_sizes=model.turning_sizes(cell, query.search_ceiling),
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
