"""Exception types shared across the package."""


class CamcurvesError(Exception):
    """Base class for all camcurves errors."""


class InputError(CamcurvesError):
    """Invalid input data: bad files, unknown labels, violated preconditions."""


class ConvergenceError(CamcurvesError):
    """An iterative fit failed to converge within its iteration budget."""

    def __init__(self, message, iterations=None, last_change=None):
        super().__init__(message)
        self.iterations = iterations
        self.last_change = last_change


class InfeasiblePlanError(CamcurvesError):
    """No training-set size can satisfy the requested targets."""
