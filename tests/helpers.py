"""Shared test utilities: random set generation and sampling-based oracles.

The oracles here deliberately avoid the library's candidate-enumeration
code path: point-to-set distances use the clamp formula directly and
sups are taken over dense grids, so they provide an independent check of
the exact metric implementation.  ``certify_scalar`` is the one-pair-at-
a-time certification loop, kept as the reference for the batched sweep;
``validate_map_scalar`` and ``validate_integrand_scalar`` are the
point-by-point construction checks, kept as the reference for the
array validation.  ``interpret_expr`` is the recursive expression
interpreter, kept as the reference for the compiled functions.
``iterate_scalar``, ``validate_trace_scalar`` and
``write_trace_csv_scalar`` are the one-object-per-step iteration, its
validator and its CSV writer, kept as the reference for the columnar
trace.  ``nested_sources`` and ``TOO_DEEP`` are expression texts at and
far past the parser's nesting limit.
"""

import math
import numbers
from dataclasses import replace
from typing import NamedTuple
from types import SimpleNamespace

import numpy as np
from hypothesis import strategies as st

from mvfix import (
    ERROR_ROWS,
    VIOLATION_ROWS,
    BinOp,
    Call,
    CompactSet,
    DomainError,
    EvalError,
    ExpressionIntegrand,
    FixedPointFound,
    InsufficientTraceError,
    InvariantError,
    IterationError,
    MaxIterReached,
    MvfixError,
    Neg,
    Num,
    TraceParams,
    TraceVerdict,
    Var,
    apply_map,
    capital_phi,
    domain_grid,
    f_eval,
    format_expr,
    integrand_label,
    parse_expr,
    sample_point,
)
from mvfix.analysis import _check_mode, _evaluate
from mvfix.cli import TRACE_COLUMNS
from mvfix.expr import compile_expr
from mvfix.maps import _value_set
from mvfix.sets1d import _nearest
from mvfix.solver import DECAY_SLACK, RATE_SLACK


def random_compact_set(rng, max_intervals=4, lo=-10.0, hi=10.0):
    count = int(rng.integers(1, max_intervals + 1))
    points = np.sort(rng.uniform(lo, hi, size=2 * count))
    intervals = []
    for i in range(count):
        a, b = float(points[2 * i]), float(points[2 * i + 1])
        if rng.random() < 0.25:
            b = a  # collapse to a singleton now and then
        intervals.append((a, b))
    return CompactSet(intervals)


def point_dist_oracle(x, B):
    """Clamp-formula distance from x to B, independent of the library."""
    return min(max(lo - x, x - hi, 0.0) for lo, hi in B.intervals)


def grid_over(A, n):
    """Dense grid over A: every endpoint plus evenly spaced interior points."""
    pts = []
    per = max(2, n // len(A.intervals))
    for lo, hi in A.intervals:
        if hi > lo:
            pts.extend(float(t) for t in np.linspace(lo, hi, per))
        else:
            pts.append(lo)
    return pts


def excess_by_sampling(A, B, n=10_000):
    return max(point_dist_oracle(a, B) for a in grid_over(A, n))


def hausdorff_by_sampling(A, B, n=10_000):
    return max(excess_by_sampling(A, B, n), excess_by_sampling(B, A, n))


def sampling_gap(A, n=10_000):
    """Worst-case discretization error of grid_over: half the grid spacing
    would do, a full spacing is a safe bound (the distance has slope <= 1)."""
    per = max(2, n // len(A.intervals))
    return max(
        (hi - lo) / (per - 1) if hi > lo else 0.0 for lo, hi in A.intervals
    )


def random_points_in(A, rng, n):
    """n points of A drawn uniformly by length (all intervals if length 0)."""
    total = sum(hi - lo for lo, hi in A.intervals)
    if total == 0.0:
        choices = [lo for lo, _ in A.intervals]
        return [choices[int(rng.integers(len(choices)))] for _ in range(n)]
    pts = []
    for _ in range(n):
        u = float(rng.random()) * total
        for lo, hi in A.intervals:
            w = hi - lo
            if u <= w:
                pts.append(min(lo + u, hi))
                break
            u -= w
        else:
            pts.append(A.intervals[-1][1])
    return pts


def certify_scalar(T, F, f, grid_size=101, random_pairs=1000, seed=42, mode="hausdorff"):
    """``certify`` evaluated one pair at a time through the scalar ``_evaluate``.

    Returns the report's fields (``pairs`` as a tuple of PairEvaluation)
    in a namespace, for bit-for-bit comparison with ``certify``; like the
    report, it keeps the first ``VIOLATION_ROWS`` violations and the first
    ``ERROR_ROWS`` errors and counts all.
    """
    _check_mode(mode)
    grid = domain_grid(T.domain, grid_size)
    pair_args = []
    for i in range(len(grid)):
        for j in range(i + 1, len(grid)):
            pair_args.append((grid[i], grid[j]))
    rng = np.random.default_rng(seed)
    for _ in range(random_pairs):
        a = sample_point(T.domain, rng)
        b = sample_point(T.domain, rng)
        pair_args.append((min(a, b), max(a, b)))

    cache = {}

    def image(x):
        S = cache.get(x)
        if S is None:
            S = apply_map(T, x)
            cache[x] = S
        return S

    evaluations = []
    errors = []
    for x, y in pair_args:
        try:
            evaluations.append(_evaluate(F, f, x, y, image(x), image(y), mode))
        except MvfixError as err:
            errors.append((x, y, str(err)))

    evaluations.sort(key=lambda p: (p.x, p.y))
    errors.sort(key=lambda row: (row[0], row[1]))

    tau_star = None
    worst = None
    vacuous = 0
    violations = []
    for ev in evaluations:
        if ev.margin is None:
            vacuous += 1
            continue
        if tau_star is None or ev.margin < tau_star:
            tau_star = ev.margin
            worst = ev
        if ev.margin <= 0.0:
            violations.append(ev)

    return SimpleNamespace(
        tau_star=tau_star,
        worst_pair=worst,
        violations=tuple(violations[:VIOLATION_ROWS]),
        violation_count=len(violations),
        vacuous_pairs=vacuous,
        evaluated_pairs=len(evaluations),
        pairs=tuple(evaluations),
        errors=tuple(errors[:ERROR_ROWS]),
        error_count=len(errors),
    )


def validate_map_scalar(T):
    """The construction check of an expression map, one grid point at a time."""
    for x in domain_grid(T.domain, 10_001):
        _value_set(T, x)
    return T


def validate_integrand_scalar(source, grid_max=100.0):
    """The construction check of an expression integrand, one grid point at a time."""
    ast = parse_expr(source, variable="t")
    phi = compile_expr(ast)
    for t in np.linspace(0.0, grid_max, 10_001):
        v = phi(float(t))
        if t == 0.0:
            if v < 0.0:
                raise InvariantError(f"integrand '{source}' is negative at t = 0: {v}")
        elif not v > 0.0:
            raise InvariantError(
                f"integrand '{source}' is not strictly positive at t = {float(t)}: {v}"
            )
    return ExpressionIntegrand(ast=ast, source=source, grid_max=grid_max)


def spy_on_grid(monkeypatch):
    """A list to which each validation-grid evaluation from now on appends its function's name.

    Spies on ``maps.image_arrays`` and on ``eval_expr_array`` under each
    name the package binds it to.
    """
    from mvfix import expr, integrand, maps

    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def call(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, call)

    spy(maps, "image_arrays")
    for module in (expr, maps, integrand):
        spy(module, "eval_expr_array")
    return calls


def outcome(build, *args):
    """What ``build(*args)`` gives: its result, or the type and message it raised."""
    try:
        return build(*args)
    except MvfixError as err:
        return type(err), str(err)


def _check_finite(value, node):
    if not math.isfinite(value):
        raise EvalError("non-finite result", format_expr(node))
    return value


def interpret_expr(node, x):
    """Evaluate an expression AST by walking it at every call."""
    match node:
        case Num(value):
            return value
        case Var(_):
            return x
        case Neg(arg):
            return -interpret_expr(arg, x)
        case BinOp("+", lhs, rhs):
            return _check_finite(interpret_expr(lhs, x) + interpret_expr(rhs, x), node)
        case BinOp("-", lhs, rhs):
            return _check_finite(interpret_expr(lhs, x) - interpret_expr(rhs, x), node)
        case BinOp("*", lhs, rhs):
            return _check_finite(interpret_expr(lhs, x) * interpret_expr(rhs, x), node)
        case BinOp("/", lhs, rhs):
            denom = interpret_expr(rhs, x)
            if denom == 0.0:
                raise EvalError("division by zero", format_expr(node))
            return _check_finite(interpret_expr(lhs, x) / denom, node)
        case BinOp("^", lhs, rhs):
            base, exponent = interpret_expr(lhs, x), interpret_expr(rhs, x)
            try:
                return _check_finite(math.pow(base, exponent), node)
            except (ValueError, OverflowError) as err:
                raise EvalError(f"invalid power: {err}", format_expr(node)) from None
        case Call("abs", (arg,)):
            return abs(interpret_expr(arg, x))
        case Call("sqrt", (arg,)):
            v = interpret_expr(arg, x)
            if v < 0.0:
                raise EvalError("sqrt of negative value", format_expr(node))
            return math.sqrt(v)
        case Call("ln", (arg,)):
            v = interpret_expr(arg, x)
            if v <= 0.0:
                raise EvalError("ln of non-positive value", format_expr(node))
            return math.log(v)
        case Call("exp", (arg,)):
            try:
                return _check_finite(math.exp(interpret_expr(arg, x)), node)
            except OverflowError:
                raise EvalError("exp overflow", format_expr(node)) from None
        case Call("min", (a, b)):
            return min(interpret_expr(a, x), interpret_expr(b, x))
        case Call("max", (a, b)):
            return max(interpret_expr(a, x), interpret_expr(b, x))
    raise EvalError("malformed AST node", repr(node))


def random_asts(numbers):
    """A hypothesis strategy for ASTs over ``x`` of every node kind, literals from ``numbers``."""
    leaves = st.one_of(st.builds(Num, numbers), st.just(Var("x")))

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(
                BinOp, st.sampled_from(["+", "-", "*", "/", "^"]), children, children
            ),
            st.builds(
                lambda fn, a: Call(fn, (a,)),
                st.sampled_from(["abs", "sqrt", "ln", "exp"]),
                children,
            ),
            st.builds(
                lambda fn, a, b: Call(fn, (a, b)),
                st.sampled_from(["min", "max"]),
                children,
                children,
            ),
        )

    return st.recursive(leaves, extend, max_leaves=12)


def nested_sources(levels):
    """Texts of exactly ``levels`` levels in x, one per way to nest.

    Each is x/2, the unary minus one where ``levels`` is even.
    """
    return {
        "parentheses": "(" * (levels - 1) + "x/2" + ")" * (levels - 1),
        "unary minus": "-" * (levels - 2) + "(x/2)",
        "sum": " + ".join([f"x/{2 * levels}"] * levels),
        "power": "0.5 * x" + " ^ 1" * (levels - 1),
    }


# each way to nest, ten thousand levels deep
TOO_DEEP = {
    "parentheses": "(" * 10_000 + "x" + ")" * 10_000,
    "unary minus": "-" * 10_000 + "x",
    "sum": "+".join(["x"] * 10_000),
    "power": "^".join(["x"] * 10_000),
}


class ScalarStep(NamedTuple):
    """One transition x -> next_point inside T(x), as ``iterate_scalar`` records it."""

    n: int
    x: float
    value_set: CompactSet
    next_point: float
    d_to_set: float
    gamma: float


def iterate_scalar(T, x0, tol, max_iter, f):
    """``iterate`` recording one ``ScalarStep`` per step, each value set via ``apply_map``.

    Returns ``steps``, ``outcome`` and ``params`` in a namespace.
    """
    if not tol >= 0.0:
        raise DomainError(f"tolerance must be >= 0, got {tol}")
    if not (isinstance(max_iter, numbers.Integral) and max_iter >= 1):
        raise DomainError(f"max_iter must be an integer >= 1, got {max_iter}")
    if not T.domain.contains(x0):
        raise DomainError(f"starting point {x0} lies outside the domain")

    params = TraceParams(tol=tol, max_iter=max_iter, integrand=integrand_label(f))
    steps = []

    def trace(outcome):
        return SimpleNamespace(steps=tuple(steps), outcome=outcome, params=params)

    x = x0
    for n in range(max_iter):
        try:
            S = apply_map(T, x)
            nxt, d = _nearest(x, S)
            if d <= tol:
                return trace(FixedPointFound(x, n))
            gamma = capital_phi(f, d)
        except MvfixError as err:
            return trace(IterationError(str(err), x))
        if not math.isfinite(gamma):
            return trace(
                IterationError(f"Phi(d) is not finite at step {n}, d = {d!r}: {gamma}", x)
            )
        steps.append(ScalarStep(n, x, S, nxt, d, gamma))
        if not T.domain.contains(nxt):
            return trace(IterationError(f"iterate left the domain at step {n}: x = {nxt!r}", nxt))
        x = nxt
    return trace(MaxIterReached(x))


def validate_trace_scalar(trace, F, tau):
    """``validate_trace`` over an ``iterate_scalar`` result, one ``f_eval`` per margin."""
    if not 0.0 < tau < math.inf:
        raise DomainError(f"tau must be {'finite' if tau > 0.0 else 'positive'}, got {tau}")
    k = F.k
    recorded = [(s.n, s.gamma) for s in trace.steps if s.gamma > 0.0]
    if len(recorded) < 2:
        raise InsufficientTraceError(
            f"need at least 2 steps with positive gamma, found {len(recorded)}"
        )

    n0, gamma0 = recorded[0]
    base = f_eval(F, gamma0)
    margins = []
    first_failure = None
    for n, gamma in recorded:
        slack = (base - (n - n0) * tau) - f_eval(F, gamma)
        margins.append(slack)
        if first_failure is None and slack < -DECAY_SLACK:
            first_failure = n

    weights = [n * gamma**k for n, gamma in recorded]
    n1 = None
    if weights[-1] <= 1.0 + RATE_SLACK:
        i = len(weights) - 1
        while i > 0 and weights[i - 1] >= weights[i] and weights[i - 1] <= 1.0 + RATE_SLACK:
            i -= 1
        n1 = recorded[i][0]
    rate_ok = n1 is not None
    rate_first_failure = None
    if n1 is not None:
        for n, gamma in recorded:
            if n >= max(n1, 1) and gamma > n ** (-1.0 / k) + RATE_SLACK:
                rate_ok = False
                rate_first_failure = n
                break

    cauchy = None
    if n1 is not None:
        cauchy = sum(i ** (-1.0 / k) for i in range(max(n1, 1), recorded[-1][0] + 1))

    margins = np.array(margins, dtype=float)
    margins.flags.writeable = False
    return TraceVerdict(
        decay_chain_ok=first_failure is None,
        first_failure=first_failure,
        per_step_margins=margins,
        n1=n1,
        rate_bound_ok=rate_ok,
        rate_first_failure=rate_first_failure,
        cauchy_tail_bound=cauchy,
    )


def verdict_bits(verdict):
    """``verdict`` with its margins as bytes, so equal reprs mean equal bits; others as they are."""
    if isinstance(verdict, TraceVerdict):
        return replace(verdict, per_step_margins=verdict.per_step_margins.tobytes())
    return verdict


def write_trace_csv_scalar(path, trace, F):
    """The trace CSV of an ``iterate_scalar`` result, formatting every field of every row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        fh.writelines(
            f"{s.n},{s.x:.17g},{s.next_point:.17g},{s.d_to_set:.17g},{s.gamma:.17g},"
            f"{-math.inf if s.gamma == 0.0 else f_eval(F, s.gamma):.17g},"
            f"{s.n * s.gamma**F.k:.17g}\n"
            for s in trace.steps
        )
