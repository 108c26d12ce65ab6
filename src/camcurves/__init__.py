"""camcurves: classifier metrics, learning-curve models and training-set
size planning for balanced camera-trap studies."""

from .betagam import (
    AdditiveModel,
    FactorTerm,
    ModelSpec,
    SmoothTerm,
    backward_eliminate,
    fit,
    term_edf,
    wald_p,
)
from .curves import LearningCurveModel, fit_log_curve, predict_metric, table1_presets
from .design import (
    equal_space_select,
    simulate_grid,
    split_design,
    validate_location_coverage,
)
from .errors import (
    CamcurvesError,
    ConvergenceError,
    InfeasiblePlanError,
    InputError,
)
from .metrics import (
    aggregate,
    confusion_matrix,
    observation_table,
    one_vs_rest,
)
from .planner import (
    PlanQuery,
    PlanResult,
    gam_required_sample_size,
    plan_report,
    required_sample_size,
)
from .splines import KnotVector, basis_rows, centring, penalty_matrix, place_knots

__version__ = "0.1.0"

__all__ = [
    "AdditiveModel",
    "CamcurvesError",
    "ConvergenceError",
    "FactorTerm",
    "InfeasiblePlanError",
    "InputError",
    "KnotVector",
    "LearningCurveModel",
    "ModelSpec",
    "PlanQuery",
    "PlanResult",
    "SmoothTerm",
    "aggregate",
    "backward_eliminate",
    "basis_rows",
    "centring",
    "confusion_matrix",
    "equal_space_select",
    "fit",
    "fit_log_curve",
    "gam_required_sample_size",
    "observation_table",
    "one_vs_rest",
    "penalty_matrix",
    "place_knots",
    "plan_report",
    "predict_metric",
    "required_sample_size",
    "simulate_grid",
    "split_design",
    "table1_presets",
    "term_edf",
    "validate_location_coverage",
    "wald_p",
]
