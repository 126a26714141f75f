"""Scaling rules alpha_i(x, t) defining the balanced hull C_alpha.

Three variants ship: constant positive values, gradient-norm scaling
alpha_i = ||grad f_i(x)|| + eta, and its clamped form.  Each rule declares
bounds [alpha_min, alpha_max] valid on a problem's region and a Lipschitz
constant L_alpha of (x, t) -> alpha_i(x, t), which the Hausdorff continuity
check and the rate constants consume.  The paper's rules may depend on t;
none of the shipped ones do, so they are evaluated at x alone.
"""

import numpy as np

from .errors import (ConfigError, DegenerateScalingError, InvalidInputError,
                     finite_real, finite_reals)

DEGENERATE_GRAD_TOL = 1e-14


class ScalingRule:
    """One of the shipped scaling variants plus its parameters.

    Use the constant/gradnorm_eta/gradnorm_eta_clamped constructors rather
    than instantiating directly.
    """

    __slots__ = ("variant", "values", "eta", "clamp_lo", "clamp_hi")

    def __init__(self, variant, values=None, eta=None, clamp_lo=None, clamp_hi=None):
        self.variant = variant
        self.values = values
        self.eta = eta
        self.clamp_lo = clamp_lo
        self.clamp_hi = clamp_hi

    # -- evaluation ------------------------------------------------------

    def _constant_values(self, m):
        # the one check of a constant rule's length against m objectives
        if len(self.values) != m:
            raise InvalidInputError(
                f"constant scaling has {len(self.values)} values for {m} objectives")
        return self.values

    def _alpha_map(self):
        # g (..., m, n) -> alpha (..., m) under a gradnorm variant; shared by
        # alpha() and generator_map(), whose callers have the gradients.  The
        # variant is branched on here, once per map, not on every call.
        # 0-d arrays, which a ufunc takes without converting a Python float
        eta = np.array(self.eta)
        if self.variant == "gradnorm_eta_clamped":
            lo, hi = np.array(self.clamp_lo), np.array(self.clamp_hi)
            # bit-equal to np.clip(a, lo, hi), NaN included, and cheaper
            return lambda g: np.minimum(np.maximum(_grad_norms(g) + eta, lo), hi)
        if self.eta == 0.0:
            return _alpha_eta0
        return lambda g: _grad_norms(g) + eta

    def alpha(self, p, x):
        if self.variant == "constant":
            shape = p._check_input(x).shape[:-1]
            return np.broadcast_to(self._constant_values(p.m),
                                   shape + (p.m,)).copy()
        return self._alpha_map()(p.grads(x))

    # -- declared metadata -------------------------------------------------

    def declared_bounds(self, p):
        """(alpha_min, alpha_max) valid on the problem region."""
        if self.variant == "constant":
            return float(self.values.min()), float(self.values.max())
        if self.variant == "gradnorm_eta":
            if self.eta == 0.0:
                raise InvalidInputError(
                    "gradnorm scaling with eta = 0 has no positive global lower bound")
            return float(self.eta), float(p.grad_bound + self.eta)
        lo = max(self.clamp_lo, self.eta)
        hi = min(self.clamp_hi, p.grad_bound + self.eta)
        return float(lo), float(hi)

    def declared_l_alpha(self, p):
        """Lipschitz constant of the rule on the region.

        The norm of an L-Lipschitz gradient is L-Lipschitz and clamping is
        nonexpansive, so the problem's largest regional L works for both
        gradnorm variants.
        """
        if self.variant == "constant":
            return 0.0
        return float(p.lipschitz.max())

    # -- config syntax ----------------------------------------------------

    def spec_string(self):
        if self.variant == "constant":
            return "const:" + ",".join(f"{v:.17g}" for v in self.values)
        s = f"gradnorm:eta={self.eta:.17g}"
        if self.variant == "gradnorm_eta_clamped":
            s += f",min={self.clamp_lo:.17g},max={self.clamp_hi:.17g}"
        return s

    def __repr__(self):
        return f"ScalingRule({self.spec_string()!r})"


def _grad_norms(g):
    # np.add.reduce is what ndarray.sum calls, without the wrapper
    return np.sqrt(np.add.reduce(g * g, axis=-1))


def _alpha_eta0(g):
    # gradnorm scaling with eta = 0: alpha_i = ||grad f_i||, which must not
    # vanish
    norms = _grad_norms(g)
    small = norms < DEGENERATE_GRAD_TOL
    if np.any(small):
        idx = int(np.argwhere(small)[0][-1])
        raise DegenerateScalingError(
            f"gradnorm scaling with eta = 0 hit a vanishing gradient "
            f"(objective {idx}, norm {float(norms[..., idx].min()):.3e})",
            index=idx, grad_norm=float(norms[..., idx].min()))
    return norms


def constant(values):
    """alpha_i(x, t) = values[i], each > 0."""
    v = finite_reals(values)
    if v is None or v.ndim > 1 or v.size < 1 or np.any(v <= 0.0):
        raise InvalidInputError("constant scaling needs finite positive values")
    return ScalingRule("constant", values=np.atleast_1d(v))


def gradnorm_eta(eta):
    """alpha_i(x, t) = ||grad f_i(x)|| + eta, eta >= 0."""
    eta = finite_real(eta)
    if eta is None or eta < 0.0:
        raise InvalidInputError("eta must be a finite real >= 0")
    return ScalingRule("gradnorm_eta", eta=eta)


def gradnorm_eta_clamped(eta, alpha_min, alpha_max):
    """Gradient-norm scaling clamped into [alpha_min, alpha_max]."""
    eta = gradnorm_eta(eta).eta  # checked as gradnorm_eta checks it
    lo, hi = finite_real(alpha_min), finite_real(alpha_max)
    if lo is None or hi is None or lo <= 0.0 or hi < lo:
        raise InvalidInputError("clamp bounds need 0 < alpha_min <= alpha_max")
    return ScalingRule("gradnorm_eta_clamped", eta=eta, clamp_lo=lo, clamp_hi=hi)


def generator_map(rule, m):
    """Function mapping raw gradients (..., m, n) to the generators
    g_i / alpha_i of C_alpha.

    The constant rule's length is checked once here; the returned map does
    no input validation, so callers that already hold checked gradients
    (the integrators, the discrete method) pay only the division.
    """
    if rule.variant == "constant":
        a = np.asarray(rule._constant_values(m), dtype=float)[:, None]
        return lambda g: g / a
    alpha_of = rule._alpha_map()
    return lambda g: g / alpha_of(g)[..., None]


def scaled_hull_generators(rule, p, x, t=None):
    """The m generators grad f_i(x) / alpha_i(x) of C_alpha.  No rule reads
    t; it is taken for perfbench/probes.py, which still passes it."""
    g = p.grads(x)
    return generator_map(rule, p.m)(g)


def parse_scaling(text):
    """Parse the config syntax: const:1,1 | gradnorm:eta=0.1 |
    gradnorm:eta=0.1,min=0.5,max=10."""
    text = text.strip()
    head, sep, rest = text.partition(":")
    if not sep:
        raise ConfigError(f"scaling: expected 'const:...' or 'gradnorm:...', got {text!r}")
    if head == "const":
        try:
            values = [float(v) for v in rest.split(",") if v != ""]
        except ValueError:
            raise ConfigError(f"scaling: bad constant values {rest!r}") from None
        if not values:
            raise ConfigError("scaling: const needs at least one value")
        try:
            return constant(values)
        except InvalidInputError as e:
            raise ConfigError(f"scaling: {e}") from None
    if head == "gradnorm":
        kv = {}
        for part in rest.split(","):
            key, s, val = part.partition("=")
            if not s:
                raise ConfigError(f"scaling: expected key=value, got {part!r}")
            if key not in ("eta", "min", "max"):
                raise ConfigError(f"scaling: unknown key {key!r}")
            if key in kv:
                raise ConfigError(f"scaling: duplicate key {key!r}")
            try:
                kv[key] = float(val)
            except ValueError:
                raise ConfigError(f"scaling: bad value for {key!r}: {val!r}") from None
        if "eta" not in kv:
            raise ConfigError("scaling: gradnorm needs eta=...")
        try:
            if "min" in kv or "max" in kv:
                if not ("min" in kv and "max" in kv):
                    raise ConfigError("scaling: clamped gradnorm needs both min= and max=")
                return gradnorm_eta_clamped(kv["eta"], kv["min"], kv["max"])
            return gradnorm_eta(kv["eta"])
        except InvalidInputError as e:
            raise ConfigError(f"scaling: {e}") from None
    raise ConfigError(f"scaling: unknown variant {head!r}")
