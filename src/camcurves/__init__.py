"""camcurves: classifier metrics, learning-curve models and training-set
size planning for balanced camera-trap studies.

The public names load their submodule on first use (PEP 562), so
``import camcurves`` loads no numpy: ``camcurves.cli`` can still choose the
BLAS thread count, which numpy's OpenBLAS reads only as it loads.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "betagam": ("AdditiveModel", "FactorTerm", "ModelSpec", "SmoothTerm",
                "backward_eliminate", "fit", "term_edf", "wald_p"),
    "curves": ("LearningCurveModel", "fit_log_curve", "predict_metric", "table1_presets"),
    "design": ("equal_space_select", "simulate_grid", "split_design",
               "validate_location_coverage"),
    "errors": ("CamcurvesError", "ConvergenceError", "InfeasiblePlanError", "InputError"),
    "metrics": ("aggregate", "confusion_matrix", "observation_table", "one_vs_rest"),
    "planner": ("PlanQuery", "PlanResult", "gam_required_sample_size", "plan_report",
                "required_sample_size"),
    "splines": ("basis_rows", "centring", "penalty_matrix", "place_knots"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted({*globals(), *__all__})
