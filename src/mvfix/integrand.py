"""Nonnegative integrands and their cumulative transform.

An integrand ``phi`` maps [0, inf) to [0, inf); the quantity the rest of
the package consumes is the cumulative transform ``Phi(u) = integral of
phi from 0 to u``, which is continuous, nondecreasing, and strictly
positive for u > 0.  The built-in kinds carry analytic antiderivatives;
the expression kind falls back on adaptive Simpson quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .errors import DomainError, EvalError, InvariantError, MvfixError, QuadratureError
from .expr import ExprAst, compile_expr, eval_expr_array, parse_expr

__all__ = [
    "INTEGRAND_KINDS",
    "ConstantIntegrand",
    "PowerIntegrand",
    "ExponentialIntegrand",
    "ExpressionIntegrand",
    "Integrand",
    "expression_integrand",
    "integrand_label",
    "phi_eval",
    "capital_phi",
    "capital_phi_array",
    "adaptive_simpson",
]

QUAD_TOL = 1e-10
QUAD_MAX_DEPTH = 40


@dataclass(frozen=True)
class ConstantIntegrand:
    """phi(t) = c with c > 0."""

    c: float = 1.0

    def __post_init__(self):
        if not (self.c > 0.0 and math.isfinite(self.c)):
            raise InvariantError(f"constant integrand needs c > 0, got {self.c}")


@dataclass(frozen=True)
class PowerIntegrand:
    """phi(t) = scale * t**p with p > -1 (keeps Phi finite near 0)."""

    p: float
    scale: float = 1.0

    def __post_init__(self):
        if not (self.p > -1.0 and math.isfinite(self.p)):
            raise InvariantError(f"power integrand needs p > -1, got {self.p}")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise InvariantError(f"power integrand needs scale > 0, got {self.scale}")


@dataclass(frozen=True)
class ExponentialIntegrand:
    """phi(t) = scale * exp(rate * t) with scale > 0."""

    rate: float
    scale: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.rate):
            raise InvariantError(f"exponential integrand needs finite rate, got {self.rate}")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise InvariantError(
                f"exponential integrand needs scale > 0, got {self.scale}"
            )


@dataclass(frozen=True)
class ExpressionIntegrand:
    """phi given by an expression AST in the variable ``t``.

    Build through :func:`expression_integrand`, which validates positivity
    on a dense grid; constructing the dataclass directly skips that check.
    """

    ast: ExprAst
    source: str
    grid_max: float = 100.0
    _compiled: Callable[[float], float] = field(init=False, compare=False, repr=False)
    # phi at a point t >= 0, rejecting NaN and negative values; the
    # quadrature calls it at every node
    _phi: Callable[[float], float] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        compiled = compile_expr(self.ast)
        source = self.source

        def phi(t: float) -> float:
            v = compiled(t)
            if math.isnan(v) or v < 0.0:
                raise EvalError(f"integrand produced an invalid value {v}", source)
            return v

        object.__setattr__(self, "_compiled", compiled)
        object.__setattr__(self, "_phi", phi)


Integrand = Union[
    ConstantIntegrand, PowerIntegrand, ExponentialIntegrand, ExpressionIntegrand
]

_VALIDATION_GRID_POINTS = 10_001


def expression_integrand(source: str, grid_max: float = 100.0) -> ExpressionIntegrand:
    """Parse ``source`` (variable ``t``) and validate it as an integrand.

    The expression must evaluate to a finite value with phi(t) >= 0 at
    t = 0 and phi(t) > 0 at every other point of a 10001-point grid over
    [0, grid_max]; zeros on sets of positive measure would break the
    strict positivity of Phi.  The grid is evaluated as one array
    (:func:`eval_expr_array`); only when some point fails there does the
    scalar loop run, to raise the error of the first bad point.
    """
    if not (grid_max > 0.0 and math.isfinite(grid_max)):
        raise InvariantError(f"grid_max must be positive and finite, got {grid_max}")
    f = ExpressionIntegrand(ast=parse_expr(source, variable="t"), source=source, grid_max=grid_max)
    ts = np.linspace(0.0, grid_max, _VALIDATION_GRID_POINTS)
    values, ok = eval_expr_array(f.ast, ts)
    if not (ok & np.isfinite(values) & np.where(ts == 0.0, values >= 0.0, values > 0.0)).all():
        for t in ts:
            v = f._compiled(float(t))
            if t == 0.0:
                if v < 0.0:
                    raise InvariantError(f"integrand '{source}' is negative at t = 0: {v}")
            elif not v > 0.0:
                raise InvariantError(
                    f"integrand '{source}' is not strictly positive at t = {float(t)}: {v}"
                )
    return f


def integrand_label(f: Integrand) -> str:
    """Short human-readable identifier used in reports."""
    match f:
        case ConstantIntegrand(c):
            return f"constant({c:g})"
        case PowerIntegrand(p, scale):
            return f"power(p={p:g}, scale={scale:g})"
        case ExponentialIntegrand(rate, scale):
            return f"exponential(rate={rate:g}, scale={scale:g})"
        case ExpressionIntegrand(_, source, _):
            return f"expression({source!r})"
    raise TypeError(f"not an integrand: {f!r}")


def phi_eval(f: Integrand, t: float) -> float:
    """Pointwise value phi(t) for t >= 0."""
    if t < 0.0:
        raise DomainError(f"integrand argument must be >= 0, got {t}")
    match f:
        case ConstantIntegrand(c):
            return c
        case PowerIntegrand(p, scale):
            if t == 0.0 and p < 0.0:
                return math.inf
            return scale * t**p
        case ExponentialIntegrand(rate, scale):
            return scale * math.exp(rate * t)
        case ExpressionIntegrand():
            return f._phi(t)
    raise TypeError(f"not an integrand: {f!r}")


def capital_phi(f: Integrand, u: float) -> float:
    """Cumulative transform Phi(u) = integral of phi over [0, u].

    Closed forms serve the constant, power, and exponential kinds; the
    expression kind integrates numerically with :func:`adaptive_simpson`
    at absolute tolerance 1e-10.
    """
    if u < 0.0:
        raise DomainError(f"cumulative transform argument must be >= 0, got {u}")
    try:
        match f:
            case ConstantIntegrand(c):
                return c * u
            case PowerIntegrand(p, scale):
                return scale * u ** (p + 1.0) / (p + 1.0)
            case ExponentialIntegrand(rate, scale):
                if rate == 0.0:
                    return scale * u
                return scale * math.expm1(rate * u) / rate
            case ExpressionIntegrand():
                if u == 0.0:
                    return 0.0
                # the nodes lie in [0, u], so phi_eval's t >= 0 check is not needed
                return adaptive_simpson(f._phi, 0.0, u, tol=QUAD_TOL, max_depth=QUAD_MAX_DEPTH)
    except OverflowError:
        raise DomainError(
            f"cumulative transform of {integrand_label(f)} overflows at u = {u}"
        ) from None
    raise TypeError(f"not an integrand: {f!r}")


def capital_phi_array(f: Integrand, u: np.ndarray) -> np.ndarray:
    """:func:`capital_phi` over an array of u >= 0, bit for bit.

    The constant kind is one IEEE multiply on the whole array.  The other
    kinds need ``expm1``, ``pow`` or quadrature, so they run through
    :func:`capital_phi` one element at a time: numpy's vectorised
    transcendentals are not correctly rounded and differ from ``math`` in
    the last bit on some inputs (numpy 2.4.6 with AVX-512 on an Intel Xeon:
    ``expm1`` on 33,049 of 600,000 uniform inputs in [-30, 30], ``pow`` on
    10,635 of 200,000).  An element where :func:`capital_phi`
    raises comes back as NaN, and overflow as inf; callers rerun such
    elements through :func:`capital_phi` to get its value or error.
    """
    if isinstance(f, ConstantIntegrand):
        return f.c * u
    out = []
    for v in u.tolist():
        try:
            out.append(capital_phi(f, v))
        except MvfixError:
            out.append(math.nan)
    return np.array(out, dtype=float)


def adaptive_simpson(
    func: Callable[[float], float],
    a: float,
    b: float,
    tol: float = QUAD_TOL,
    max_depth: int = QUAD_MAX_DEPTH,
) -> float:
    """Integrate ``func`` over [a, b] by adaptive Simpson refinement.

    Each panel is split until the classic error estimate
    (S_left + S_right - S_whole) / 15 drops below the local tolerance,
    which halves with the panel.  The Richardson correction term is folded
    into the accepted value.  Raises :class:`QuadratureError` when the
    recursion depth is exhausted before the tolerance is met.
    """
    if b < a:
        raise DomainError(f"integration bounds out of order: [{a}, {b}]")
    if a == b:
        return 0.0
    m = 0.5 * (a + b)
    fa, fm, fb = func(a), func(m), func(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _refine(func, a, b, fa, fm, fb, whole, tol, max_depth)


def _refine(func, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = func(lm), func(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = (left + right - whole) / 15.0
    if abs(err) <= tol:
        return left + right + err
    if depth <= 0:
        raise QuadratureError(
            f"refinement depth exhausted on [{a}, {b}] with error estimate {err:.3g}"
        )
    return _refine(func, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1) + _refine(
        func, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1
    )


# The factory of each integrand kind, by config name.  Its parameters are
# the kind's config keys, and their defaults the config defaults.
INTEGRAND_KINDS = {
    "constant": ConstantIntegrand,
    "power": PowerIntegrand,
    "exponential": ExponentialIntegrand,
    "expression": expression_integrand,
}
