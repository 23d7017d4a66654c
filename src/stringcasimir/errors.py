"""Exception types shared across the package, and the input contract.

Every argument check of the library goes through ``_real``, ``_positive``
and ``_count``: a number must be finite and real (or an integer, for a
count), never a bool, and meet its condition, or a DomainError names it.
"""

import math

import numpy as np


class StringCasimirError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(StringCasimirError, ValueError):
    """An input lies outside the mathematical domain of the operation."""


class QuadratureError(StringCasimirError):
    """Numerical integration failed its accuracy target.

    Carries the best available value and the estimated absolute error so
    callers can decide whether to proceed anyway.
    """

    def __init__(self, message, best_estimate=None, abs_error=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.abs_error = abs_error


class MultiplicityUndecidedError(StringCasimirError):
    """A winding number failed to stabilize under contour refinement."""

    def __init__(self, message, omega=None):
        super().__init__(message)
        self.omega = omega


class ExtrapolationUnstableError(StringCasimirError):
    """The cutoff extrapolation fit residual exceeded its tolerance."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class SpectrumTruncationError(StringCasimirError):
    """A mode sum was requested beyond the available spectrum."""


class ModularLiftRequiredError(DomainError):
    """The q-series is unusable this close to the real axis; apply the
    modular transformation first (see log_abs_dedekind_eta)."""


_REALS = (int, float, np.integer, np.floating)
_INTEGERS = (int, np.integer)


def _real(name, value, ok=lambda v: True, need=""):
    """``value`` if it is a finite real number, not a bool, with ``ok(value)``;
    ``need`` says in words what ``ok`` asks, as in "in [0, 1]"."""
    if type(value) is bool or not (isinstance(value, _REALS) and math.isfinite(value)
                                   and ok(value)):
        what = f"a finite real number {need}" if need else "a finite real number"
        raise DomainError(f"{name} must be {what}, got {value!r}")
    return value


def _positive(name, value):
    """``value`` if it is a finite positive real number, not a bool."""
    return _real(name, value, lambda v: v > 0, "> 0")


def _count(name, value, least=1):
    """``value`` if it is an integer >= ``least``, not a bool."""
    if type(value) is bool or not (isinstance(value, _INTEGERS) and value >= least):
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
    return value
