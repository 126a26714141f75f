"""Exception types shared across the package."""


class MBGFError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(MBGFError, ValueError):
    """Malformed or non-finite input: wrong shape, NaN/inf entries,
    weights off the simplex beyond tolerance, bad configuration values
    passed directly to library calls."""


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
