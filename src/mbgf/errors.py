"""Exception types shared across the package, and the finite-real and count
rules that every library input reading a number is checked by."""

import numpy as np


class MBGFError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(MBGFError, ValueError):
    """Malformed or non-finite input: wrong shape, NaN/inf entries,
    weights off the simplex beyond tolerance, bad configuration values
    passed directly to library calls."""


def finite_reals(v):
    """v as a float array, with the bits np.asarray(v, dtype=float) gives,
    if each entry is a finite real: a number, never a string or a complex
    number, with a finite float (not NaN, an infinity or an int beyond the
    float range), in rows of one length.  None otherwise."""
    try:
        a = np.asarray(v)
        if a.dtype.kind not in "biufO":
            return None
        a = a.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):
        return None
    return a if np.isfinite(a).all() else None


def finite_real(v):
    """v as a float if it is one finite real (see finite_reals), else None."""
    a = finite_reals(v)
    return float(a) if a is not None and a.ndim == 0 else None


def is_count(v):
    """Whether v is a count: a Python or numpy int, and not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


class NoConvergenceError(MBGFError):
    """An iterative solver hit its iteration cap without certifying
    optimality.  Carries the best iterate found and its certificate
    violation so callers can decide whether it is usable anyway."""

    def __init__(self, message, best_point=None, best_weights=None, violation=None):
        super().__init__(message)
        self.best_point = best_point
        self.best_weights = best_weights
        self.violation = violation


class DegenerateScalingError(MBGFError):
    """A gradient-norm scaling with eta = 0 was evaluated where some
    objective gradient vanishes, so the scaled hull is undefined.
    Carries the offending objective index and the unscaled gradient norm."""

    def __init__(self, message, index=None, grad_norm=None):
        super().__init__(message)
        self.index = index
        self.grad_norm = grad_norm


class NumericDomainError(MBGFError):
    """An oracle or update produced a non-finite value."""


class DivergenceError(MBGFError):
    """An integrator state left the problem region by more than 10 percent
    of the region diameter."""


class GridBudgetError(MBGFError):
    """A brute-force grid would exceed merit_rates.GRID_BUDGET points.  The
    budget guards every grid in the package and is checked before anything
    is allocated.  Carries the requested and allowed point counts."""

    def __init__(self, message, requested=None, budget=None):
        super().__init__(message)
        self.requested = requested
        self.budget = budget


class ConfigError(MBGFError):
    """Bad experiment configuration: unknown key, missing key, or a value
    out of range.  The message names the first offending key."""
