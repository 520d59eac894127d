"""Exception hierarchy shared across the package.

The command line front end maps these onto process exit codes, so new
error types should subclass one of the three roots below.
"""

__all__ = ["DonorSpinError", "ValidationError", "NumericsError",
           "IntegrationFailure"]


class DonorSpinError(Exception):
    """Base class for all package errors."""


class ValidationError(DonorSpinError, ValueError):
    """Bad user input: configuration values, units, shapes, ranges."""

    def __init__(self, message, problems=None):
        super().__init__(message)
        self.problems = list(problems) if problems else [message]


class NumericsError(DonorSpinError, RuntimeError):
    """Numerical failure: integration breakdown, non-convergence."""


class IntegrationFailure(NumericsError):
    """Time integration stopped before reaching the end of the span.

    Carries the last time the integrator reached successfully so a
    caller can report how far the evolution got.
    """

    def __init__(self, message, last_time):
        super().__init__(f"{message} (last good time: {last_time:.6e} s)")
        self.last_time = last_time

