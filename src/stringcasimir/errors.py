"""Exception types shared across the package, and the input contract.

Every argument check of the library goes through ``_real``, ``_positive``, ``_count`` (a finite
real or an integer, never a bool, that meets its condition), ``_instance`` (the class a function
expects) and ``_nonnegative_array`` (an array kernel's argument), or a DomainError names it, once,
where the input enters a public function; the kernel passes and routes behind it check nothing.
"""

import math

import numpy as np

__all__ = ["StringCasimirError", "DomainError", "QuadratureError", "MultiplicityUndecidedError",
           "ExtrapolationUnstableError", "SpectrumTruncationError", "ModularLiftRequiredError"]


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
_MAX_COUNT = int(np.finfo(float).max)


def _shown(value):
    """repr(value), or the size of an integer past the float range, whose repr may pass
    4300 digits, a ValueError to print."""
    if isinstance(value, _INTEGERS) and abs(value) > _MAX_COUNT:
        return f"a {'negative ' * (value < 0)}{value.bit_length()}-bit integer"
    return repr(value)


def _real(name, value, ok=lambda v: True, need=""):
    """``value`` if it is a finite real number, not a bool, with ``ok(value)``;
    ``need`` says in words what ``ok`` asks, as in "in [0, 1]"."""
    big = isinstance(value, int) and abs(value) > _MAX_COUNT  # math.isfinite raises on it
    if type(value) is bool or big or not (isinstance(value, _REALS) and math.isfinite(value)
                                          and ok(value)):
        what = f"a finite real number {need}" if need else "a finite real number"
        raise DomainError(f"{name} must be {what}, got {_shown(value)}")
    return value


def _positive(name, value):
    """``value`` if it is a finite positive real number, not a bool."""
    return _real(name, value, lambda v: v > 0, "> 0")


def _count(name, value, least=1):
    """``value`` if it is an integer >= ``least``, not a bool, that a float can hold."""
    if type(value) is bool or not (isinstance(value, _INTEGERS) and least <= value <= _MAX_COUNT):
        raise DomainError(f"{name} must be an integer >= {least} that a float holds, "
                          f"got {_shown(value)}")
    return value


def _instance(name, value, cls):
    """``value`` if it is a ``cls``; ``name`` is the function that takes it."""
    if not isinstance(value, cls):
        raise DomainError(f"{name} expects a {cls.__name__}")
    return value


def _nonnegative_array(name, value):
    """``value`` as an at least 1-d float array and whether it was a scalar, if every
    element is finite and >= 0 (one min, one max): the check of an array kernel's door."""
    value = np.asarray(value, dtype=float)
    lo = np.minimum.reduce(value, axis=None, initial=math.inf)
    hi = np.maximum.reduce(value, axis=None, initial=0.0)
    if not (lo >= 0.0 and hi < math.inf):  # a nan fails both
        raise DomainError(f"{name} must hold finite real numbers >= 0, got values in [{lo}, {hi}]")
    return np.atleast_1d(value), value.ndim == 0
