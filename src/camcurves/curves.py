"""Logarithmic learning-curve regressions.

ACC, PRC and TPR follow value ~ a + b*ln(n); FPR falls with size and is
fitted on ln(1/n) instead.  A set of published coefficient presets is
exposed for planning without data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .metrics import METRIC_KINDS

@dataclass(frozen=True)
class LearningCurveModel:
    """value = intercept + slope * ln(n)  (or ln(1/n) for FPR), clamped to [0, 1]."""

    metric: str
    intercept: float
    slope: float
    adj_r_squared: float
    n_obs: int
    size_range: tuple[int, int] | None = None

    def __post_init__(self):
        if self.metric not in METRIC_KINDS:
            raise InputError(f"unknown metric kind {self.metric!r}")
        if self.size_range is not None:
            low, high = self.size_range
            if low < 1:
                raise InputError(f"model size_range must be positive, got {low}")
            if low > high:
                raise InputError(f"model size_range must not be reversed, got [{low}, {high}]")


def fit_log_curve(observations: np.recarray, metric: str) -> LearningCurveModel:
    """Closed-form least squares of one metric's values on log size.

    `observations` is an observation table (see metrics.observation_table)
    of any metric; its rows of `metric` are fitted, which must number at
    least 3 over at least 2 distinct sizes.
    """
    if metric not in METRIC_KINDS:
        raise InputError(f"unknown metric kind {metric!r}")
    data = observations[observations.metric == metric]
    if not len(data):
        raise InputError(f"no observations with metric {metric}")
    if len(data) < 3:
        raise InputError(f"need at least 3 points to fit a curve, got {len(data)}")
    sizes = data.num_tr_images
    if sizes.min() == sizes.max():
        raise InputError("all sizes equal: the log-size regressor is degenerate")
    y = data.value
    x = np.log(sizes)
    if metric == "FPR":
        x = -x
    xc = x - x.mean()
    slope = float(xc @ (y - y.mean()) / (xc @ xc))
    intercept = float(y.mean() - slope * x.mean())
    resid = y - intercept - slope * x
    tss = float(((y - y.mean()) ** 2).sum())
    rss = float((resid**2).sum())
    r2 = 1.0 - rss / tss if tss > 0 else 1.0
    n = len(data)
    adj = 1.0 - (1.0 - r2) * (n - 1) / (n - 2)
    return LearningCurveModel(
        metric=metric,
        intercept=intercept,
        slope=slope,
        adj_r_squared=adj,
        n_obs=n,
        size_range=(int(sizes.min()), int(sizes.max())),
    )


def predict_metric(model: LearningCurveModel, n: float) -> float:
    """Curve value at size n, clamped to [0, 1]."""
    if n < 1:
        raise InputError(f"training-set size must be >= 1, got {n}")
    x = math.log(1.0 / n) if model.metric == "FPR" else math.log(n)
    return min(1.0, max(0.0, model.intercept + model.slope * x))


# published guideline coefficients: metric -> (intercept, slope, adjusted R^2)
_PRESET_TABLE = {
    "ACC": (0.85, 0.02, 0.57),
    "PRC": (0.34, 0.09, 0.54),
    "TPR": (0.32, 0.09, 0.52),
    "FPR": (0.09, 0.01, 0.34),
}

# size ladder the preset coefficients were derived over
PRESET_SIZE_RANGE = (10, 1000)


def table1_presets() -> dict[str, LearningCurveModel]:
    """The four published guideline curves, one per metric kind."""
    out = {}
    for metric, (intercept, slope, adj) in _PRESET_TABLE.items():
        out[metric] = LearningCurveModel(
            metric=metric,
            intercept=intercept,
            slope=slope,
            adj_r_squared=adj,
            n_obs=0,
            size_range=PRESET_SIZE_RANGE,
        )
    return out
