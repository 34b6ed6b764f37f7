"""Nonnegative integrands and their cumulative transform.

An integrand ``phi`` maps [0, inf) to [0, inf); the quantity the rest of
the package consumes is the cumulative transform ``Phi(u) = integral of
phi from 0 to u``, which is continuous, nondecreasing, and strictly
positive for u > 0.  Each kind's class holds its forms: ``_label``,
``_phi``, ``_cumulative`` (Phi: an analytic antiderivative, or adaptive
Simpson quadrature for the expression kind) and ``_cumulative_array``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Union

import numpy as np

from .errors import (
    DomainError,
    EvalError,
    InvariantError,
    MvfixError,
    QuadratureError,
    checked_number,
)
from .expr import ExprAst, _pointwise, compile_expr, enclose, eval_expr_array, parse_expr
from .maps import _VALIDATION_GRID_POINTS

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
# The expression kind's batch Simpson (capital_phi_array) refines this many
# u at a time, and hands a u back to the scalar quadrature once its panels
# exceed this budget.  Both bound its memory and time: refined breadth
# first, a panel that never converges doubles at every level, and a u
# where the scalar raises after some 41 panels can refine hundreds.
QUAD_BATCH_SLICE = 1024
QUAD_BATCH_PANELS = 128
# Fewer u than this go to the scalar quadrature one at a time, which is
# faster for them than the batch's level loop.
QUAD_BATCH_MIN = 64


@dataclass(frozen=True)
class ConstantIntegrand:
    """phi(t) = c with c > 0."""

    c: float = 1.0
    _label = "constant({c:g})"

    def __post_init__(self):
        checked_number("c", self.c, error=InvariantError)

    def _phi(self, t: float) -> float:
        return self.c

    def _cumulative(self, u: float) -> float:
        return self.c * u

    def _cumulative_array(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        with np.errstate(over="ignore"):  # overflow is inf, as capital_phi gives
            return np.where(u >= 0.0, self.c * u, math.nan), np.arange(0)  # none handed back


class _ClosedForm:
    """Phi over an array for a kind that needs ``pow`` or ``expm1``: ``_cumulative`` at each
    u through ``math`` (``expr._pointwise``), NaN where it raises and at a negative u."""

    def _cumulative_array(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _pointwise(self._cumulative, np.where(u >= 0.0, u, math.nan)), np.arange(0)


@dataclass(frozen=True)
class PowerIntegrand(_ClosedForm):
    """phi(t) = scale * t**p with p > -1 (keeps Phi finite near 0)."""

    p: float
    scale: float = 1.0
    _label = "power(p={p:g}, scale={scale:g})"

    def __post_init__(self):
        checked_number("p", self.p, error=InvariantError)
        checked_number("scale", self.scale, error=InvariantError)

    def _phi(self, t: float) -> float:
        return math.inf if t == 0.0 and self.p < 0.0 else self.scale * t**self.p

    def _cumulative(self, u: float) -> float:
        return self.scale * u ** (self.p + 1.0) / (self.p + 1.0)


@dataclass(frozen=True)
class ExponentialIntegrand(_ClosedForm):
    """phi(t) = scale * exp(rate * t) with scale > 0."""

    rate: float
    scale: float = 1.0
    _label = "exponential(rate={rate:g}, scale={scale:g})"

    def __post_init__(self):
        checked_number("rate", self.rate, error=InvariantError)
        checked_number("scale", self.scale, error=InvariantError)

    def _phi(self, t: float) -> float:
        return self.scale * math.exp(self.rate * t)

    def _cumulative(self, u: float) -> float:
        if self.rate == 0.0:
            return self.scale * u
        return self.scale * math.expm1(self.rate * u) / self.rate


@dataclass(frozen=True)
class ExpressionIntegrand:
    """phi given by an expression AST in the variable ``t``.

    Build through :func:`expression_integrand`, which proves or checks
    positivity on ``[0, grid_max]``; constructing the dataclass directly
    skips that check.
    """

    ast: ExprAst
    source: str
    grid_max: float = 100.0
    _label = "expression({source!r})"

    @cached_property
    def _compiled(self) -> Callable[[float], float]:
        """The compiled expression, on first scalar use."""
        return compile_expr(self.ast)

    @cached_property
    def _phi(self) -> Callable[[float], float]:
        """phi at a point t >= 0, rejecting NaN and negative values, for the quadrature's nodes."""
        compiled, source = self._compiled, self.source

        def phi(t: float) -> float:
            v = compiled(t)
            if math.isnan(v) or v < 0.0:
                raise EvalError(f"integrand produced an invalid value {v}", source)
            return v

        return phi

    def _cumulative(self, u: float) -> float:
        # the nodes lie in [0, u], so phi_eval's t >= 0 check is not needed
        return adaptive_simpson(self._phi, 0.0, u, tol=QUAD_TOL, max_depth=QUAD_MAX_DEPTH)

    def _cumulative_array(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if len(u) < QUAD_BATCH_MIN:
            return np.empty(len(u)), np.arange(len(u))
        # u == 0 is the scalar's a == b branch; negative, NaN and infinite u
        # raise there (an infinite panel's error estimate is NaN at every level)
        out = np.where(u == 0.0, 0.0, math.nan)
        todo = np.flatnonzero((u > 0.0) & np.isfinite(u))
        back = [todo[:0]]
        with np.errstate(all="ignore"):
            for start in range(0, len(todo), QUAD_BATCH_SLICE):
                part = todo[start : start + QUAD_BATCH_SLICE]
                out[part], over = _simpson_slice(self, u[part])
                back.append(part[over])
        return out, np.concatenate(back)


Integrand = Union[
    ConstantIntegrand, PowerIntegrand, ExponentialIntegrand, ExpressionIntegrand
]

def expression_integrand(source: str, grid_max: float = 100.0) -> ExpressionIntegrand:
    """Parse ``source`` (variable ``t``) and validate it as an integrand.

    The expression must evaluate to a finite value with phi(t) >= 0 at
    t = 0 and phi(t) > 0 at every other point of a 10001-point grid over
    [0, grid_max]; zeros on sets of positive measure would break the
    strict positivity of Phi.  An interval enclosure of the expression
    over all of [0, grid_max] (:func:`expr.enclose`) with a lower end
    above 0 proves that, and then no grid is evaluated.  Otherwise the
    grid is evaluated as one array (:func:`eval_expr_array`, NaN where
    the expression raises); only at the first point that fails there
    does the scalar expression run, to raise its error or to give the
    value the message reports.
    """
    grid_max = checked_number("grid_max", grid_max, error=InvariantError)
    f = ExpressionIntegrand(ast=parse_expr(source, variable="t"), source=source, grid_max=grid_max)
    box = enclose(f.ast, 0.0, grid_max)
    if box is not None and box[0] > 0.0:
        return f
    ts = np.linspace(0.0, grid_max, _VALIDATION_GRID_POINTS)
    values = eval_expr_array(f.ast, ts)
    failed = np.flatnonzero(~np.where(ts == 0.0, values >= 0.0, values > 0.0))
    if len(failed):
        t = ts[failed[0]].item()
        v = f._compiled(t)  # raises where the value is NaN
        at = "negative at t = 0" if t == 0.0 else f"not strictly positive at t = {t}"
        raise InvariantError(f"integrand '{source}' is {at}: {v}")
    return f


def _form(f: Integrand, name: str):
    """The form ``name`` of integrand ``f``; anything without it is no integrand."""
    form = getattr(f, name, None)
    if form is None:
        raise TypeError(f"not an integrand: {f!r}")
    return form


def integrand_label(f: Integrand) -> str:
    """Short human-readable identifier used in reports."""
    return _form(f, "_label").format_map(vars(f))


def phi_eval(f: Integrand, t: float) -> float:
    """Pointwise value phi(t) for t >= 0."""
    if not t >= 0.0:
        raise DomainError(f"integrand argument must be >= 0, got {t}")
    phi = _form(f, "_phi")
    try:
        return phi(t)
    except OverflowError:
        raise DomainError(f"integrand {integrand_label(f)} overflows at t = {t}") from None


def capital_phi(f: Integrand, u: float) -> float:
    """Cumulative transform Phi(u) = integral of phi over [0, u].

    Each integrand class carries its Phi as ``_cumulative``: closed forms
    for the constant, power, and exponential kinds, :func:`adaptive_simpson`
    at absolute tolerance 1e-10 for the expression kind.
    """
    if not u >= 0.0:
        raise DomainError(f"cumulative transform argument must be >= 0, got {u}")
    cumulative = _form(f, "_cumulative")
    try:
        return cumulative(u)
    except OverflowError:
        raise DomainError(
            f"cumulative transform of {integrand_label(f)} overflows at u = {u}"
        ) from None


def capital_phi_array(f: Integrand, u: np.ndarray, phi=None) -> np.ndarray:
    """:func:`capital_phi` over a 1-D array of u, bit for bit: NaN where it raises
    (callers rerun those u through it for its error), and inf on overflow.

    Each kind's ``_cumulative_array`` gives the values: the constant
    kind's one IEEE multiply, NaN at a negative u; the power and
    exponential kinds' the scalar's ``math`` calls on the same floats
    (:class:`_ClosedForm`); the expression kind's :func:`adaptive_simpson`
    for all u at once, one refinement level at a time
    (:func:`_simpson_slice`), each u with the panels and operations of the
    scalar recursion in order.  Only the last hands u back, to
    :func:`capital_phi` or ``phi``, a caller's memo of it: every u when they
    are fewer than ``QUAD_BATCH_MIN``, and a u whose panels exceed
    ``QUAD_BATCH_PANELS``.
    """
    out, back = _form(f, "_cumulative_array")(u)
    out[back] = _capital_phi_loop(f, u[back], phi)
    return out


def _capital_phi_loop(f: Integrand, u: np.ndarray, phi=None) -> np.ndarray:
    phi = phi or partial(capital_phi, f)
    out = []
    for v in u.tolist():
        try:
            out.append(phi(v))
        except MvfixError:
            out.append(math.nan)
    return np.array(out, dtype=float)


def _phi_nodes(f: ExpressionIntegrand, *ts: np.ndarray):
    """phi at each of the equal-length node arrays, and where some node fails.

    A node fails where ``f._phi`` raises: the expression raises (a NaN
    value), or its value is negative.
    """
    values = eval_expr_array(f.ast, np.concatenate(ts)).reshape(len(ts), -1)
    return values, ~(values >= 0.0).all(axis=0)


def _simpson_slice(f: ExpressionIntegrand, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """adaptive_simpson(f._phi, 0, b) for each finite b > 0, and the u handed back.

    Each level holds the panels whose ``_refine`` call runs at that
    recursion depth, as arrays, with the u each belongs to in ``owner``.
    A panel that is not accepted gets its two children at the next
    level, left children first; after the last level a refined panel's
    value is its children's sum, one addition per panel as the scalar
    recursion does it.  A u fails where a node fails or a panel exhausts
    the depth, as the scalar raises there, and is handed back where its
    panels would exceed ``QUAD_BATCH_PANELS``.  Either way its panels are
    dropped and its value is NaN.  Every first panel starts at 0, so
    phi(0) is evaluated once and broadcast, and fails every u if it fails.
    """
    n = len(b)
    owner = np.arange(n)
    a = np.zeros(n)
    m = 0.5 * (a + b)
    (fa,), zero_fails = _phi_nodes(f, a[:1])
    (fm, fb), failed = _phi_nodes(f, m, b)
    fa, failed = np.broadcast_to(fa, n), failed | zero_fails
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    used, over = np.ones(n, dtype=np.int64), np.zeros(n, dtype=bool)
    tol, depth = QUAD_TOL, QUAD_MAX_DEPTH
    levels = []  # (value if accepted, refined) per level
    while len(owner):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        (flm, frm), bad = _phi_nodes(f, lm, rm)
        failed[owner[bad]] = True
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        err = (left + right - whole) / 15.0
        refined = ~(np.abs(err) <= tol)
        if depth <= 0:
            failed[owner[refined]] = True
        used += 2 * np.bincount(owner[refined], minlength=n)
        over |= (used > QUAD_BATCH_PANELS) & ~failed
        refined &= ~(failed | over)[owner]
        levels.append((left + right + err, refined))
        a, b, fa, fm, fb, whole, owner = (
            np.concatenate([lo[refined], hi[refined]])
            for lo, hi in (
                (a, m), (m, b), (fa, fm), (flm, frm), (fm, fb), (left, right), (owner, owner)
            )
        )
        tol, depth = 0.5 * tol, depth - 1
    below = None
    for value, refined in reversed(levels):
        if below is not None:
            half = len(below) // 2
            value[refined] = below[:half] + below[half:]
        below = value
    below[failed | over] = math.nan
    return below, over


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
