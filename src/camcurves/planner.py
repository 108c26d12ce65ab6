"""Invert learning-curve models into required training-set sizes."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .betagam import AdditiveModel
from .curves import LOG_INVERSE_N, LearningCurveModel, predict_metric
from .errors import InfeasiblePlanError, InputError
from .metrics import METRIC_KINDS

AT_LEAST = "at_least"
AT_MOST = "at_most"

DEFAULT_SEARCH_CEILING = 100_000


def direction_for(metric: str) -> str:
    """FPR targets are upper bounds; the other metrics are lower bounds."""
    return AT_MOST if metric == "FPR" else AT_LEAST


@dataclass(frozen=True)
class PlanQuery:
    metric: str
    target: float
    direction: str | None = None
    search_ceiling: int = DEFAULT_SEARCH_CEILING

    def __post_init__(self):
        if self.metric not in METRIC_KINDS:
            raise InputError(f"unknown metric kind {self.metric!r}")
        if not 0.0 < self.target < 1.0:
            raise InputError(f"target must lie in (0, 1), got {self.target}")
        expected = direction_for(self.metric)
        if self.direction is None:
            object.__setattr__(self, "direction", expected)
        elif self.direction != expected:
            raise InputError(
                f"direction {self.direction!r} inconsistent with metric {self.metric}; "
                f"expected {expected!r}"
            )
        if self.search_ceiling < 1:
            raise InputError("search ceiling must be >= 1")

    def met_by(self, value: float) -> bool:
        return value >= self.target if self.direction == AT_LEAST else value <= self.target


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


def required_sample_size(model: LearningCurveModel, query: PlanQuery) -> PlanResult:
    """Closed-form inversion of a fitted or preset log-law curve."""
    if model.metric != query.metric:
        raise InputError(
            f"model is for {model.metric}, query is for {query.metric}"
        )
    source = f"log-curve[{model.metric}]"

    def result(n):
        upper = model.size_range[1] if model.size_range else None
        return PlanResult(
            metric=query.metric,
            target=query.target,
            required_n=n,
            predicted_value=None if n is None else predict_metric(model, n),
            extrapolated=bool(n is not None and upper is not None and n > upper),
            source=source,
        )

    if query.met_by(predict_metric(model, 1)):
        return result(1)
    # improvement direction: value rises in n unless the curve is on ln(1/n)
    rising = model.slope > 0
    if model.transform == LOG_INVERSE_N:
        rising = not rising
    improves = rising if query.direction == AT_LEAST else not rising
    if not improves or model.slope == 0:
        return result(None)
    if model.transform == LOG_INVERSE_N:
        ln_n = (model.intercept - query.target) / model.slope
    else:
        ln_n = (query.target - model.intercept) / model.slope
    n_star = math.exp(ln_n)
    n = max(1, math.ceil(n_star))
    if not query.met_by(predict_metric(model, n)):  # guard ceil rounding at the knife edge
        n += 1
    if n > query.search_ceiling:
        return result(None)
    return result(n)


def gam_required_sample_size(
    model: AdditiveModel, cell: Mapping, query: PlanQuery
) -> PlanResult:
    """Smallest n whose prediction meets the target for every larger n.

    Spline fits need not be monotone, so the search applies a conservative
    last-crossing rule over the integer grid 1..search_ceiling: sizes inside
    a local dip above the target are never recommended.  Beyond the last knot
    the natural spline is linear in log n, so the prediction is monotone
    there (a model without a smooth is constant in n).  The scan therefore
    predicts every size only up to ceil(exp(last knot)); past it the sizes
    that fail form a prefix of the tail, whose end is found by bisection.
    Time and memory follow the knot range, not the ceiling.
    """
    if model.metric != query.metric:
        raise InputError(f"model is for {model.metric}, query is for {query.metric}")

    def meets(values):
        return values >= query.target if query.direction == AT_LEAST else values <= query.target

    ceiling = query.search_ceiling
    last_knot = model.knot_vector.knots[-1] if model.knot_vector is not None else 0.0
    scanned = min(ceiling, math.ceil(math.exp(last_knot)))
    values = model.predict_sizes(cell, np.arange(1, scanned + 1, dtype=float))
    fail_idx = np.flatnonzero(~meets(values))
    last = int(fail_idx[-1]) + 1 if fail_idx.size else 0  # last failing size; 0 for none
    if scanned < ceiling:
        if not meets(model.predict_sizes(cell, [ceiling])[0]):
            last = ceiling
        else:  # the failing tail sizes are a prefix: lo fails or ends the scan, hi meets
            lo, hi = scanned, ceiling
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if meets(model.predict_sizes(cell, [mid])[0]) else (mid, hi)
            if lo > scanned:
                last = lo
    n = last + 1 if last < ceiling else None
    if n is None:
        value = None
    else:
        value = float(values[n - 1] if n <= scanned else model.predict_sizes(cell, [n])[0])
    max_observed = max(model.observed_sizes) if model.observed_sizes else None
    return PlanResult(
        metric=query.metric,
        target=query.target,
        required_n=n,
        predicted_value=value,
        extrapolated=bool(n is not None and max_observed is not None and n > max_observed),
        source=f"beta-gam[{model.metric}]",
    )


@dataclass(frozen=True)
class PlanReport:
    results: tuple  # PlanResult per requested metric, in request order
    binding_n: int | None

    @property
    def feasible(self) -> bool:
        return self.binding_n is not None


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
