"""Pairwise contraction checks and the empirical certification sweep.

For a pair (x, y) the quantities of interest are

* h        the distance between the value sets T(x) and T(y), either the
           two-sided Hausdorff distance or the one-sided excess of T(x)
           over T(y) depending on ``mode``
* m        the generalized displacement
           max(|x - y|, D(x, Tx), D(y, Ty), (D(x, Ty) + D(y, Tx)) / 2)
* margin   F(Phi(m)) - F(Phi(h)), defined when h > 0

A pair with h = 0 is vacuous: the contraction inequality quantifies only
over pairs whose value sets differ.  The empirical contraction modulus
``tau_star`` is the smallest margin seen across a deterministic grid plus
seeded random pairs; any tau below it makes the inequality
``tau + F(Phi(h)) <= F(Phi(m))`` hold on every pair examined.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import DomainError, MvfixError
from .ffunctions import FFunction, f_eval, f_eval_array
from .integrand import Integrand, capital_phi, capital_phi_array
from .maps import MultiMap, apply_map, image_arrays
from .sets1d import CompactSet, dist_point_set, domain_grid, excess, hausdorff, sample_points

__all__ = [
    "MODES",
    "VERDICT_SLACK",
    "PairCheck",
    "PairEvaluation",
    "PairTable",
    "CertificateReport",
    "m_value",
    "evaluate_pair",
    "check_pair_f_integral",
    "check_pair_ojha",
    "check_pair_nadler",
    "certify",
]

MODES = ("hausdorff", "excess")

# single comparison slack used by every verdict in this module
VERDICT_SLACK = 1e-12

# Upper bound on the elements of one broadcast in the certify sweep.  A
# chunk holds as many pairs as fit: each pair costs (candidates x
# intervals) elements, so images with many intervals get smaller chunks
# and peak memory stays flat whatever the image shape.
CHUNK_ELEMENTS = 1 << 16


class PairCheck(Enum):
    HOLDS = "holds"
    VIOLATED = "violated"
    VACUOUS = "vacuous"


@dataclass(frozen=True)
class PairEvaluation:
    """All quantities computed for one ordered pair (x, y)."""

    x: float
    y: float
    h: float
    m: float
    phi_h: float
    phi_m: float
    margin: float | None  # None exactly when the pair is vacuous (h == 0)


TABLE_COLUMNS = ("x", "y", "h", "m", "phi_h", "phi_m", "margin")


@dataclass(frozen=True, eq=False)
class PairTable:
    """Pair evaluations held as parallel float64 columns, one row per pair.

    Row i holds the fields of one :class:`PairEvaluation`.  ``margin`` is
    NaN exactly on the vacuous rows (h == 0), where the evaluation's
    margin is None.  Two tables are equal when every column is.
    """

    x: np.ndarray
    y: np.ndarray
    h: np.ndarray
    m: np.ndarray
    phi_h: np.ndarray
    phi_m: np.ndarray
    margin: np.ndarray

    def __len__(self) -> int:
        return len(self.x)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PairTable):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, c), getattr(other, c), equal_nan=True)
            for c in TABLE_COLUMNS
        )

    def rows(self, index: np.ndarray | slice = slice(None)) -> tuple[PairEvaluation, ...]:
        """The rows selected by ``index`` (all rows by default)."""
        columns = (getattr(self, c)[index].tolist() for c in TABLE_COLUMNS)
        return tuple(
            PairEvaluation(x, y, h, m, phi_h, phi_m, None if math.isnan(margin) else margin)
            for x, y, h, m, phi_h, phi_m, margin in zip(*columns)
        )


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of a certification sweep.

    ``tau_star`` is None when every pair was vacuous.  ``table`` holds all
    successful evaluations as columns in canonical (x, y) order (see
    :class:`PairTable`); ``pairs`` gives the same rows as a tuple of
    :class:`PairEvaluation`, built on first access, so a sweep stores
    columns rather than one object per pair.  ``worst_pair`` and
    ``violations`` are :class:`PairEvaluation` rows.  ``errors`` holds
    (x, y, message) rows for pairs whose evaluation raised, without
    aborting the sweep.  Reports compare equal field by field, the table
    column by column.
    """

    mode: str
    seed: int
    grid_size: int
    random_pairs: int
    tau_star: float | None
    worst_pair: PairEvaluation | None
    violations: tuple[PairEvaluation, ...]
    vacuous_pairs: int
    evaluated_pairs: int
    table: PairTable
    errors: tuple[tuple[float, float, str], ...] = ()

    @cached_property
    def pairs(self) -> tuple[PairEvaluation, ...]:
        return self.table.rows()


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise DomainError(f"mode must be one of {MODES}, got {mode!r}")


def _pair_distance(Sx: CompactSet, Sy: CompactSet, mode: str) -> float:
    return hausdorff(Sx, Sy) if mode == "hausdorff" else excess(Sx, Sy)


def m_value(T: MultiMap, x: float, y: float) -> float:
    """Generalized displacement m(x, y) for the map T."""
    return _displacement(x, y, apply_map(T, x), apply_map(T, y))


def _displacement(x: float, y: float, Sx: CompactSet, Sy: CompactSet) -> float:
    """m(x, y) from the value sets Sx = T(x) and Sy = T(y)."""
    return max(
        abs(x - y),
        dist_point_set(x, Sx),
        dist_point_set(y, Sy),
        0.5 * (dist_point_set(x, Sy) + dist_point_set(y, Sx)),
    )


def _evaluate(
    F: FFunction,
    f: Integrand,
    x: float,
    y: float,
    Sx: CompactSet,
    Sy: CompactSet,
    mode: str,
) -> PairEvaluation:
    h = _pair_distance(Sx, Sy, mode)
    m = _displacement(x, y, Sx, Sy)
    phi_h = capital_phi(f, h)
    phi_m = capital_phi(f, m)
    if not math.isfinite(phi_h):
        raise DomainError(f"Phi(h) is not finite at h = {h}: {phi_h}")
    if h == 0.0:
        return PairEvaluation(x, y, h, m, phi_h, phi_m, None)
    # h > 0 forces x != y, hence m >= |x - y| > 0, so both F values exist.
    # Phi(m) = inf leaves margin = +inf: the true Phi(m) exceeds every
    # float, Phi(h) among them, so the pair is no violation; its margin is
    # only too large to represent.  A NaN margin would read as vacuous in
    # the report's table, so it is an error.
    margin = f_eval(F, phi_m) - f_eval(F, phi_h)
    if math.isnan(margin):
        raise DomainError(f"margin is not a number at h = {h}, m = {m}")
    return PairEvaluation(x, y, h, m, phi_h, phi_m, margin)


def evaluate_pair(
    T: MultiMap,
    F: FFunction,
    f: Integrand,
    x: float,
    y: float,
    mode: str = "hausdorff",
) -> PairEvaluation:
    """Evaluate h, m, their transforms, and the margin for one pair."""
    _check_mode(mode)
    return _evaluate(F, f, x, y, apply_map(T, x), apply_map(T, y), mode)


def check_pair_f_integral(
    T: MultiMap,
    F: FFunction,
    f: Integrand,
    tau: float,
    x: float,
    y: float,
    mode: str = "hausdorff",
) -> PairCheck:
    """Check tau + F(Phi(h)) <= F(Phi(m)) on one pair.

    Vacuous when h = 0; otherwise holds iff tau <= margin + 1e-12.
    """
    if not tau > 0.0:
        raise DomainError(f"tau must be positive, got {tau}")
    ev = evaluate_pair(T, F, f, x, y, mode)
    if ev.margin is None:
        return PairCheck.VACUOUS
    return PairCheck.HOLDS if tau <= ev.margin + VERDICT_SLACK else PairCheck.VIOLATED


def check_pair_ojha(
    T: MultiMap,
    f: Integrand,
    alpha: float,
    x: float,
    y: float,
    mode: str = "hausdorff",
) -> PairCheck:
    """Check the linear integral condition Phi(h) <= alpha * Phi(m)."""
    if not (0.0 <= alpha < 1.0):
        raise DomainError(f"alpha must lie in [0, 1), got {alpha}")
    _check_mode(mode)
    Sx, Sy = apply_map(T, x), apply_map(T, y)
    h = _pair_distance(Sx, Sy, mode)
    m = _displacement(x, y, Sx, Sy)
    lhs = capital_phi(f, h)
    rhs = alpha * capital_phi(f, m)
    return PairCheck.HOLDS if lhs <= rhs + VERDICT_SLACK else PairCheck.VIOLATED


def check_pair_nadler(
    T: MultiMap,
    lam: float,
    x: float,
    y: float,
    mode: str = "hausdorff",
) -> PairCheck:
    """Check the plain Lipschitz condition h <= lam * |x - y|."""
    if not (0.0 <= lam < 1.0):
        raise DomainError(f"lambda must lie in [0, 1), got {lam}")
    _check_mode(mode)
    Sx, Sy = apply_map(T, x), apply_map(T, y)
    h = _pair_distance(Sx, Sy, mode)
    return PairCheck.HOLDS if h <= lam * abs(x - y) + VERDICT_SLACK else PairCheck.VIOLATED


def certify(
    T: MultiMap,
    F: FFunction,
    f: Integrand,
    grid_size: int = 101,
    random_pairs: int = 1000,
    seed: int = 42,
    mode: str = "hausdorff",
) -> CertificateReport:
    """Sweep grid and seeded random pairs, reporting the empirical modulus.

    All unordered pairs from a deterministic ``grid_size``-point grid over
    the domain are evaluated, plus ``random_pairs`` pairs drawn with a
    seeded generator; each pair is ordered x < y before evaluation, and
    results are reported in canonical (x, y) order, so a repeated run
    with the same seed is bit-identical.  Per-pair failures are collected
    instead of aborting the sweep.

    The random points are drawn in one call (:func:`sample_points`, the
    same stream as one draw at a time).  The images of all distinct
    points are evaluated as arrays first (:func:`image_arrays`, the same
    bits as :func:`apply_map`).  The pair arithmetic then runs over numpy
    arrays, in chunks of at most ``CHUNK_ELEMENTS`` broadcast elements,
    and gives the same bits as :func:`evaluate_pair`: only IEEE-exact
    operations (``+ - * /``, ``abs``, ``minimum`` and ``maximum``,
    comparisons, ``where``, ``sqrt``) touch the arrays, while ``log``,
    ``expm1``, ``pow`` and quadrature run through ``math`` one element at
    a time (see :func:`capital_phi_array` and :func:`f_eval_array`).  A
    pair that touches a failed image, or whose batch values are unusable
    (not finite, or ``Phi <= 0`` where ``F`` needs a positive argument),
    is evaluated again by the scalar code on images from
    :func:`apply_map`, which gives its value or its error message.  The
    results are stored as a :class:`PairTable`.
    """
    _check_mode(mode)
    if grid_size < 2:
        raise DomainError(f"grid_size must be at least 2, got {grid_size}")
    if random_pairs < 0:
        raise DomainError(f"random_pairs must be >= 0, got {random_pairs}")

    grid = domain_grid(T.domain, grid_size)
    rng = np.random.default_rng(seed)
    a, b = sample_points(T.domain, rng, 2 * random_pairs).reshape(-1, 2).T
    # (min(a, b), max(a, b)) per pair, with Python's pick between equal floats
    drawn = np.stack([np.where(b < a, b, a), np.where(b > a, b, a)], axis=1).ravel().tolist()

    # Distinct points in the order the pairs first use them; equal floats
    # share a slot and so one image.
    slot: dict[float, int] = {}
    for v in itertools.chain(grid, drawn):
        slot.setdefault(v, len(slot))
    lo, hi, failed = image_arrays(T, np.array(list(slot), dtype=float))

    x, y, x_slot, y_slot = _pair_arrays(grid, drawn, slot)
    values = np.full((5, len(x)), math.nan)  # h, m, phi_h, phi_m, margin
    redo = failed[x_slot] | failed[y_slot]
    with np.errstate(all="ignore"):  # overflow shows as inf, and inf is redone
        sets = _PaddedImages(lo, hi)
        step = max(1, CHUNK_ELEMENTS // sets.elements_per_pair)
        for start in range(0, len(x), step):
            rows = start + np.flatnonzero(~redo[start : start + step])
            values[:, rows], unusable = _evaluate_batch(
                F, f, mode, x[rows], y[rows], sets, x_slot[rows], y_slot[rows]
            )
            redo[rows[unusable]] = True

    images: dict[float, CompactSet] = {}

    def image(v: float) -> CompactSet:
        # a failed image fails again in apply_map, with the message for v
        if v not in images:
            images[v] = apply_map(T, v)
        return images[v]

    errors: list[tuple[float, float, str]] = []
    for k in np.flatnonzero(redo).tolist():
        xk, yk = x[k].item(), y[k].item()
        try:
            ev = _evaluate(F, f, xk, yk, image(xk), image(yk), mode)
        except MvfixError as err:
            errors.append((xk, yk, str(err)))
            continue
        margin = math.nan if ev.margin is None else ev.margin
        values[:, k] = (ev.h, ev.m, ev.phi_h, ev.phi_m, margin)
        redo[k] = False

    columns = (x, y, *values)
    if redo.any():
        columns = (column[~redo] for column in columns)
    table = PairTable(*columns)

    margins = table.margin
    live = np.flatnonzero(~np.isnan(margins))
    tau_star: float | None = None
    worst: PairEvaluation | None = None
    if len(live):
        k = live[np.argmin(margins[live])]
        (worst,) = table.rows(slice(k, k + 1))
        tau_star = worst.margin

    return CertificateReport(
        mode=mode,
        seed=seed,
        grid_size=grid_size,
        random_pairs=random_pairs,
        tau_star=tau_star,
        worst_pair=worst,
        violations=table.rows(np.flatnonzero(margins <= 0.0)),
        vacuous_pairs=len(table) - len(live),
        evaluated_pairs=len(table),
        table=table,
        errors=tuple(errors),
    )


def _pair_arrays(grid: list[float], drawn: list[float], slot: dict[float, int]):
    """x, y and the image slots of every pair, in canonical (x, y) order.

    The pairs are the grid pairs i < j, then the drawn pairs (``drawn``
    holds them flat, x before y).  The sort is stable, so equal pairs
    keep their draw order, as they did when the results were sorted.
    """
    i, j = np.triu_indices(len(grid), 1)
    points = np.array(grid + drawn, dtype=float)
    slots = np.array([slot[v] for v in itertools.chain(grid, drawn)], dtype=np.intp)
    first = np.concatenate([i, np.arange(len(grid), len(points), 2)])
    second = np.concatenate([j, np.arange(len(grid) + 1, len(points), 2)])
    order = np.lexsort((points[second], points[first]))
    first, second = first[order], second[order]
    return points[first], points[second], slots[first], slots[second]


class _PaddedImages:
    """Images as endpoint arrays of K intervals each, for the batch sweep.

    ``lo`` and ``hi`` come from :func:`image_arrays`, whose padding (a
    repeated interval or a coinciding member) changes no distance and
    adds no excess candidate.  ``mid`` holds the midpoints between
    neighbouring columns and ``real_gap`` marks the ones where the next
    interval starts after the previous ends, so repeated columns give no
    candidate.  Failed rows hold anything; no batch pair reads them.
    """

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        self.lo, self.hi = lo, hi
        self.mid = 0.5 * (hi[:, :-1] + lo[:, 1:])
        self.real_gap = lo[:, 1:] > hi[:, :-1]
        # excess enumerates 2K endpoints and K - 1 gap points of A against
        # the K intervals of B, in both directions for the Hausdorff distance
        K = lo.shape[1]
        self.elements_per_pair = 2 * (3 * K - 1) * K


def _dist(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """D(points[r, c], set r) for sets given by padded endpoints lo[r], hi[r].

    The same clamp as ``sets1d``: |p - clamp(p, lo, hi)|, least over the
    intervals.
    """
    p = points[:, :, None]
    return np.abs(p - np.clip(p, lo[:, None, :], hi[:, None, :])).min(axis=2)


def _excess_batch(sets: _PaddedImages, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """excess(T(a[r]), T(b[r])) per row r, with the candidates of ``sets1d.excess``.

    Those are every endpoint of A and, for each real gap of B, the point
    of A nearest the gap's midpoint.  That point is the midpoint itself
    when A contains it and otherwise an endpoint of A, already a
    candidate; so the midpoints A contains are the only extra candidates,
    and the maximum is the same bits.
    """
    alo, ahi = sets.lo[a], sets.hi[a]
    candidates = [alo, ahi]
    if alo.shape[1] > 1:
        mid = sets.mid[b]
        inside = (alo[:, None, :] <= mid[:, :, None]) & (mid[:, :, None] <= ahi[:, None, :])
        held = sets.real_gap[b] & inside.any(axis=2)
        candidates.append(np.where(held, mid, alo[:, :1]))
    return _dist(np.concatenate(candidates, axis=1), sets.lo[b], sets.hi[b]).max(axis=1)


def _evaluate_batch(
    F: FFunction,
    f: Integrand,
    mode: str,
    x: np.ndarray,
    y: np.ndarray,
    sets: _PaddedImages,
    xs: np.ndarray,
    ys: np.ndarray,
):
    """h, m, Phi(h), Phi(m) and margin of each pair, as :func:`_evaluate` has them.

    ``xs`` and ``ys`` index the pairs' images in ``sets``.  Returns the
    five value rows (margin NaN on vacuous pairs) and a mask of the pairs
    whose values are unusable and must be redone by the scalar code.
    """
    h = _excess_batch(sets, xs, ys)
    if mode == "hausdorff":
        h = np.maximum(h, _excess_batch(sets, ys, xs))
    own_x = _dist(x[:, None], sets.lo[xs], sets.hi[xs])[:, 0]
    own_y = _dist(y[:, None], sets.lo[ys], sets.hi[ys])[:, 0]
    cross_x = _dist(x[:, None], sets.lo[ys], sets.hi[ys])[:, 0]
    cross_y = _dist(y[:, None], sets.lo[xs], sets.hi[xs])[:, 0]
    m = np.maximum(
        np.maximum(np.abs(x - y), own_x), np.maximum(own_y, 0.5 * (cross_x + cross_y))
    )
    # Phi and F are functions of u alone, so each distinct u runs once
    n = len(x)
    u, where = np.unique(np.concatenate([h, m]), return_inverse=True)
    phi_u = capital_phi_array(f, u)
    f_u = np.full(len(u), math.nan)
    positive = np.isfinite(phi_u) & (phi_u > 0.0)
    f_u[positive] = f_eval_array(F, phi_u[positive])
    phi_h, phi_m = phi_u[where[:n]], phi_u[where[n:]]
    margin = f_u[where[n:]] - f_u[where[:n]]
    vacuous = h == 0.0
    margin[vacuous] = math.nan
    usable = (
        np.isfinite(h)
        & np.isfinite(m)
        & np.isfinite(phi_h)
        & np.isfinite(phi_m)
        & (vacuous | np.isfinite(margin))
    )
    return (h, m, phi_h, phi_m, margin), ~usable
