"""Multivalued maps from a compact domain into compact subsets of the line.

A map sends each point x of its domain to a compact value set T(x).
Four kinds cover the use cases: an interval with expression endpoints,
a singleton given by one expression, a finite set of expression points,
and an explicit lookup table.  Their images take three shapes: interval
endpoints, point members (a singleton is one member) and a table.  The
one table ``_SHAPES`` gives each kind its shape, whose class holds every
form that depends on it.  Expression-backed maps are validated at
construction, by an interval enclosure over the domain or else on a
dense grid, so that sweeps fail early rather than deep inside an
analysis run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence, Union, get_args

import numpy as np

from .errors import DomainError, InvariantError, MvfixError, checked_number, real_number
from .expr import ExprAst, _Codegen, compile_expr, enclose, eval_expr_array, format_expr, parse_expr
from .sets1d import CompactSet, _nearest, dist_point_set, domain_grid

__all__ = [
    "MAP_KINDS",
    "MultiMap",
    "interval_map",
    "singleton_map",
    "finite_set_map",
    "table_map",
    "apply_map",
    "image_arrays",
    "is_fixed_point",
]

# lo(x) may exceed hi(x) by at most this much before the map is rejected;
# sub-tolerance inversions collapse to a degenerate interval.
ENDPOINT_SLACK = 1e-12

_VALIDATION_GRID_POINTS = 10_001


@dataclass(frozen=True)
class MultiMap:
    """A multivalued map; use the module factory functions to build one."""

    domain: CompactSet
    kind: str  # "interval_endpoints" | "singleton" | "finite_set" | "table"
    lo: ExprAst | None = None
    hi: ExprAst | None = None
    members: tuple[ExprAst, ...] = ()
    table: tuple[tuple[float, CompactSet], ...] = ()

    @property
    def _shape(self) -> Union[_Interval, _Points, _Table]:
        return _SHAPES[self.kind]

    @cached_property
    def _compiled(self) -> tuple[Callable[[float], float], ...]:
        """Compiled (lo, hi) or members, in that order, on first scalar use; empty for a table."""
        return tuple(compile_expr(e) for e in self._shape.expressions(self))

    @cached_property
    def _proved(self) -> bool:
        """Whether enclosures show every image over the domain finite and not
        inverted (:func:`_validate_on_grid`); never for a table."""
        return all(_proved_valid(self, a, b) for a, b in self.domain.intervals)

    @cached_property
    def _orbit(self) -> Callable[..., tuple]:
        """The generated window loop of :func:`_compile_orbit`, built on first use."""
        return _compile_orbit(self)

    def describe(self) -> str:
        return self._shape.describe(self)


def _as_ast(e: Union[str, ExprAst]) -> ExprAst:
    return parse_expr(e) if isinstance(e, str) else e


def _checked_ends(x: float, lo: float, hi: float) -> tuple[float, float]:
    """The endpoints ``lo = lo(x)``, ``hi = hi(x)`` of an interval image, checked.

    An inversion within ``ENDPOINT_SLACK`` collapses to the midpoint; a
    larger one, or a non-finite endpoint, raises :class:`InvariantError`.
    """
    if lo > hi:
        if lo - hi > ENDPOINT_SLACK:
            raise InvariantError(f"map endpoints inverted at x = {x}: lo = {lo}, hi = {hi}")
        lo = hi = 0.5 * (lo + hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvariantError(f"interval endpoints must be finite, got ({lo}, {hi})")
    return lo, hi


def _value_set(T: MultiMap, x: float) -> CompactSet:
    return T._shape.value_set(T, x)


def _compile_orbit(T: MultiMap) -> Callable[..., tuple]:
    """The nearest-point orbit of ``T`` over one Phi window, generated as one function.

    ``orbit(x, start, end, tol, record_point)`` runs steps ``start .. end
    - 1`` from ``x``.  A step takes p, the point of T(x) nearest x; it
    stops if ``|x - p| <= tol``, else records p and stops if p lies
    outside the domain.  The caller takes each step's distance from the
    recorded points.  It returns ``(x, n, stop, err)``: the last x (p, if
    it left), the step it stopped at (or ``end``), and ``stop``, one of
    None, ``"fixed"``, ``"left"`` and ``"error"`` with ``err`` the
    :class:`MvfixError` T raised at x.  The shape emits the step to p;
    without an inline form it calls ``_nearest(x, _value_set(T, x))``.
    The domain test is chained comparisons with the domain's intervals.

    A proved map (``T._proved``) evaluates only points of its domain,
    where no expression can fail and no interval is inverted, so its loop
    has no ``try`` block, guard, finiteness or endpoint test: each
    operation is one statement.  Should libm break the enclosure's
    assumption, a non-finite endpoint or first member still fails the
    domain test, as the clamp and the member scan pass a NaN on.
    """
    proved = T._proved
    gen = _Codegen(checked=not proved)
    nearest = f"p = {gen.bind(_nearest)}(x, {gen.bind(_value_set)}({gen.bind(T)}, x))[0]"
    gen.emit(2, "for n in range(start, end):")
    if not proved:
        gen.emit(3, "try:")
    T._shape.step(T, gen, 3 if proved else 4, nearest)
    if not proved:
        gen.emit(3, f"except {gen.bind(MvfixError)} as err:")
        gen.emit(4, "return x, n, 'error', err")
    gen.emit(3, "if abs(x - p) <= tol:")
    gen.emit(4, "return x, n, 'fixed', None")
    gen.emit(3, "record_point(p)")
    inside = " or ".join(f"{gen.bind(a)} <= p <= {gen.bind(b)}" for a, b in T.domain.intervals)
    gen.emit(3, f"if not ({inside}):")
    gen.emit(4, "return p, n, 'left', None")
    gen.emit(3, "x = p")
    gen.emit(2, "return x, end, None, None")
    return gen.build("<mvfix.maps.orbit>", "orbit", "x, start, end, tol, record_point")


def image_arrays(T: MultiMap, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Images of the points ``xs`` as ``(lo, hi)``, in the layout ``analysis._h_and_m`` reads.

    The batch counterpart of :func:`apply_map`.  Interval, table and
    one-member maps give 1-D endpoint arrays: T(xs[i]) is the interval
    ``[lo[i], hi[i]]`` (an interval map with the same near-tie collapse;
    one member's row is both, the interval [v, v]).  Finite sets with K >= 2
    members give one ``(K, n)`` array of point members, in expression
    order, as both ``lo`` and ``hi``; a repeated member changes no
    distance.  Image i is NaN throughout where :func:`apply_map` would
    raise, and where a table's value set is a union of intervals, which
    is left to the scalar code; no other image holds a NaN.  Expressions
    are evaluated by :func:`eval_expr_array`, with the same bits as their
    compiled functions, which this never compiles.
    """
    return T._shape.images(T, np.asarray(xs, dtype=float))


def _proved_valid(T: MultiMap, a: float, b: float) -> bool:
    """Whether enclosures over ``[a, b]`` show every image there finite, and not inverted."""
    boxes = [enclose(e, a, b) for e in T._shape.expressions(T)]
    return None not in boxes and T._shape.proves(boxes)


class _Expressions:
    """The forms the interval and point shapes share; no shape holds state."""

    def proves(self, boxes: list) -> bool:  # whether finite enclosures prove each image valid
        return True

    def images(self, T: MultiMap, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # fresh rows, one per expression, so the collapse and NaN images are written in place
        values = np.stack([eval_expr_array(e, xs) for e in self.expressions(T)])
        failed = np.ones(len(xs), dtype=bool)
        for a, b in T.domain.intervals:
            failed &= ~((a <= xs) & (xs <= b))
        ends = self.ends(values)  # before the finite test, which flags what it makes NaN or inf
        failed |= ~np.isfinite(values).all(axis=0)
        values[:, failed] = math.nan
        return ends

    def step(self, T: MultiMap, gen: _Codegen, at: int, nearest: str) -> None:
        """x clamped onto [lo(x), hi(x)], one member being [f(x), f(x)], inline and
        with the bits of ``_nearest``; only a bad endpoint runs ``_checked_ends``."""
        ends = [gen.value(e, at) for e in self.expressions(T)]
        gen.emit(at, f"lo, hi = {ends[0]}, {ends[-1]}")
        if gen.checked:
            gen.emit(at, f"if not {gen.bind(-math.inf)} < lo <= hi < {gen.bind(math.inf)}:")
            gen.emit(at + 1, f"lo, hi = {gen.bind(_checked_ends)}(x, lo, hi)")
        gen.emit(at, "p = hi if x > hi else (x if x >= lo else lo)")


class _Interval(_Expressions):
    """T(x) = [lo(x), hi(x)]."""

    def expressions(self, T: MultiMap) -> tuple[ExprAst, ...]:
        return T.lo, T.hi

    def describe(self, T: MultiMap) -> str:
        return f"T(x) = [{format_expr(T.lo)}, {format_expr(T.hi)}]"

    def value_set(self, T: MultiMap, x: float) -> CompactSet:
        lo_fn, hi_fn = T._compiled
        return CompactSet.interval(*_checked_ends(x, lo_fn(x), hi_fn(x)))

    def proves(self, boxes: list) -> bool:  # no lo(x) above its hi(x)
        return boxes[0][1] <= boxes[1][0]

    def ends(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """lo and hi; an inversion collapses to its midpoint, or to NaN beyond the slack."""
        lo, hi = values
        with np.errstate(all="ignore"):
            mid = np.where(lo - hi > ENDPOINT_SLACK, math.nan, 0.5 * (lo + hi))
        np.copyto(values, mid, where=lo > hi)
        return lo, hi


class _Points(_Expressions):
    """T(x) = {e(x) for each member e}; a singleton is one member."""

    def expressions(self, T: MultiMap) -> tuple[ExprAst, ...]:
        return T.members

    def describe(self, T: MultiMap) -> str:
        return f"T(x) = {{{', '.join(format_expr(e) for e in T.members)}}}"

    def value_set(self, T: MultiMap, x: float) -> CompactSet:
        return CompactSet.from_points(fn(x) for fn in T._compiled)

    def ends(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rows = values[0] if len(values) == 1 else values  # one member's row is lo and hi
        return rows, rows

    def step(self, T: MultiMap, gen: _Codegen, at: int, nearest: str) -> None:
        """The member with the least ``abs(x - v)``; ``nearest`` where two tie or one is not finite."""
        if len(T.members) == 1:
            return super().step(T, gen, at, nearest)
        first, *rest = [gen.value(e, at) for e in T.members]
        gen.emit(at, f"p, dp, tie = {first}, abs(x - {first}), False")
        for v in rest:
            gen.emit(at, f"e = abs(x - {v})")
            gen.emit(at, "if e <= dp:")
            gen.emit(at + 1, f"p, dp, tie = {v}, e, e == dp")
        tests = ["tie"]
        if gen.checked:
            below, above = gen.bind(-math.inf), gen.bind(math.inf)
            tests += [f"not {below} < {v} < {above}" for v in (first, *rest)]
        gen.emit(at, f"if {' or '.join(tests)}:")
        gen.emit(at + 1, nearest)


class _Table:
    """T(x) is the value set tabulated at x; there is no other x."""

    def expressions(self, T: MultiMap) -> tuple[ExprAst, ...]:
        return ()

    def describe(self, T: MultiMap) -> str:
        return f"table with {len(T.table)} entries"

    def value_set(self, T: MultiMap, x: float) -> CompactSet:
        for key, value in T.table:
            if key == x:
                return value
        raise DomainError(f"no table entry for x = {x}")

    def proves(self, boxes: list) -> bool:  # no enclosure proves a table
        return False

    def images(self, T: MultiMap, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ends = np.full((2, len(xs)), math.nan)
        for i, x in enumerate(xs.tolist()):
            try:
                intervals = apply_map(T, x).intervals
            except MvfixError:
                continue
            if len(intervals) == 1:
                ends[:, i] = intervals[0]
        return ends[0], ends[1]

    def step(self, T: MultiMap, gen: _Codegen, at: int, nearest: str) -> None:
        gen.emit(at, nearest)


# The shape of each map kind's images: the one place a kind is read.
_SHAPES = {
    "interval_endpoints": _Interval(),
    "singleton": _Points(),
    "finite_set": _Points(),
    "table": _Table(),
}


def _validate_on_grid(T: MultiMap) -> MultiMap:
    """``T`` if every image over its domain is valid; else raise the first grid point's error.

    First the proof: where the enclosure (:func:`expr.enclose`) of every
    expression over each interval of the domain exists, and the shape's
    rule (``proves``) holds, no point of the domain can fail, so neither
    can the grid, and ``T`` comes back untouched.  Otherwise ``T`` is checked at the points of a
    10,001-point grid over the domain, evaluated as one array
    (:func:`image_arrays`); only when that flags a point does the scalar
    code run, once, at the first flagged point, to raise its error.  So
    every refusal, and its message, comes from the grid.
    """
    if T._proved:
        return T
    grid = domain_grid(T.domain, _VALIDATION_GRID_POINTS)
    lo, _ = image_arrays(T, grid)
    failed = np.flatnonzero(np.isnan(lo))
    if len(failed):
        # a failed image is NaN in every row, so its first NaN lies in the
        # first row; the scalar raises that point's error, as apply_map would
        _value_set(T, grid[failed[0]].item())
    return T


def interval_map(
    domain: CompactSet,
    lo: Union[str, ExprAst],
    hi: Union[str, ExprAst],
) -> MultiMap:
    """Map x to the interval [lo(x), hi(x)].

    The map is rejected if an endpoint expression fails, or lo(x) > hi(x)
    beyond a 1e-12 slack, at a point of a 10,001-point grid over the
    domain.  No grid is evaluated where interval enclosures of both
    endpoints prove that no point of the domain can fail
    (:func:`_validate_on_grid`).
    """
    T = MultiMap(domain, "interval_endpoints", lo=_as_ast(lo), hi=_as_ast(hi))
    return _validate_on_grid(T)


def singleton_map(domain: CompactSet, f: Union[str, ExprAst]) -> MultiMap:
    """Map x to the one-point set {f(x)}.

    The map is rejected if ``f`` fails, or is not finite, at a point of
    a 10,001-point grid over the domain, unless an interval enclosure
    proves it valid first (:func:`_validate_on_grid`).
    """
    T = MultiMap(domain, "singleton", members=(_as_ast(f),))
    return _validate_on_grid(T)


def finite_set_map(
    domain: CompactSet, members: Iterable[Union[str, ExprAst]]
) -> MultiMap:
    """Map x to the finite set {e(x) for each member expression e}.

    The map is rejected if a member fails, or is not finite, at a point
    of a 10,001-point grid over the domain, unless interval enclosures
    prove it valid first (:func:`_validate_on_grid`).
    """
    if isinstance(members, (str, *get_args(ExprAst))):  # one expression, not a collection
        raise InvariantError(f"members must be a collection of expressions, got {members!r}")
    asts = tuple(_as_ast(e) for e in members)
    if not asts:
        raise InvariantError("finite-set map needs at least one member expression")
    T = MultiMap(domain, "finite_set", members=asts)
    return _validate_on_grid(T)


def table_map(
    domain: CompactSet,
    entries: Iterable[tuple[float, Union[CompactSet, Sequence[Sequence[float]]]]],
) -> MultiMap:
    """Map tabulated points to explicit value sets.

    Lookups require exact argument hits; there is no interpolation.
    Every key must be a real number in the domain, and no two keys may be
    equal (``-0.0`` equals ``0.0``), since a lookup reads only the first.
    """
    rows = []
    keys: set[float] = set()
    for key, value in entries:
        key = float(real_number(key, "table key", InvariantError))
        if not domain.contains(key):
            raise InvariantError(f"table key {key} lies outside the domain")
        if key in keys:
            raise InvariantError(f"table key {key} appears more than once")
        keys.add(key)
        if not isinstance(value, CompactSet):
            value = CompactSet(value)
        rows.append((key, value))
    if not rows:
        raise InvariantError("table map needs at least one entry")
    return MultiMap(domain, "table", table=tuple(rows))


def apply_map(T: MultiMap, x: float) -> CompactSet:
    """Value set T(x); ``x`` must be a real number in the domain of the map."""
    if not T.domain.contains(real_number(x, "x", DomainError)):
        raise DomainError(f"argument {x} lies outside the map domain")
    return _value_set(T, x)


def is_fixed_point(T: MultiMap, x: float, tol: float = 0.0) -> bool:
    """True when the distance from x to T(x) is at most ``tol``."""
    tol = checked_number("tol", tol)  # tol = inf would call every point fixed
    return dist_point_set(x, apply_map(T, x)) <= tol


# The factory of each map kind, by config name.  Its parameters after
# ``domain`` are the kind's config keys, their defaults the config defaults.
MAP_KINDS = {
    "interval_endpoints": interval_map,
    "singleton": singleton_map,
    "finite_set": finite_set_map,
    "table": table_map,
}
