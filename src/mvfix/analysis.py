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

import numpy as np

from .errors import DomainError, MvfixError
from .ffunctions import FFunction, f_eval, f_eval_array
from .integrand import Integrand, capital_phi, capital_phi_array
from .maps import MultiMap, apply_map, image_arrays
from .sets1d import CompactSet, dist_point_set, domain_grid, excess, hausdorff, sample_points

__all__ = [
    "MODES",
    "VERDICT_SLACK",
    "VIOLATION_ROWS",
    "PairCheck",
    "PairEvaluation",
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

# A certificate keeps the first this many violating pairs as rows and
# counts the rest, so its size does not grow with the sweep.
VIOLATION_ROWS = 100

# Upper bound on the elements of one broadcast in the certify sweep.  A
# chunk holds as many pairs as fit: each pair costs the elements its
# image shape needs (``_PaddedImages.elements_per_pair``), so point
# images with many members get smaller chunks and peak memory stays
# flat whatever the image shape.
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


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of a certification sweep.

    ``tau_star`` is None when every pair was vacuous.  ``worst_pair`` and
    ``violations`` are :class:`PairEvaluation` rows, in canonical (x, y)
    order; ``violations`` holds the first ``VIOLATION_ROWS`` of the
    ``violation_count`` pairs with margin <= 0.  ``errors`` holds
    (x, y, message) rows, in the same order, for pairs whose evaluation
    raised, without aborting the sweep.
    """

    mode: str
    seed: int
    grid_size: int
    random_pairs: int
    tau_star: float | None
    worst_pair: PairEvaluation | None
    violations: tuple[PairEvaluation, ...]
    violation_count: int
    vacuous_pairs: int
    evaluated_pairs: int
    errors: tuple[tuple[float, float, str], ...] = ()


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
    # the sweep's columns, so it is an error.
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
    seeded generator; each pair is ordered x < y before evaluation.  Only
    the reported rows are kept, in canonical (x, y) order (the worst pair
    is the first of those tied at the least margin; violations past the
    first ``VIOLATION_ROWS`` are only counted), so a repeated run
    with the same seed is bit-identical.  Per-pair failures are collected
    instead of aborting the sweep.

    The random points are drawn in one call (:func:`sample_points`, the
    same stream as one draw at a time).  The images of all distinct
    points are evaluated as arrays first (:func:`image_arrays`, the same
    bits as :func:`apply_map`).  The pair arithmetic then runs over numpy
    arrays, in chunks of at most ``CHUNK_ELEMENTS`` broadcast elements,
    with closed forms for one interval per image and point-to-point gaps
    for finite sets (see :class:`_PaddedImages`).  It gives the same bits
    as :func:`evaluate_pair`: only IEEE-exact operations (``+ - * /``,
    ``abs``, ``minimum`` and ``maximum``, comparisons, ``where``,
    ``sqrt``) touch the arrays, while ``log``, ``expm1``, ``pow`` and
    quadrature run through ``math`` one element at a time (see
    :func:`capital_phi_array` and :func:`f_eval_array`).  A pair that
    touches a failed image (union table images count as failed), or
    whose batch values are unusable (not finite, or ``Phi <= 0`` where
    ``F`` needs a positive argument), is evaluated again by the scalar
    code on images from :func:`apply_map`, which gives its value or its
    error message.
    """
    columns, errors = _sweep(T, F, f, grid_size, random_pairs, seed, mode)
    margins = columns[-1]
    violating = np.flatnonzero(margins <= 0.0)
    live = ~np.isnan(margins)
    worst: PairEvaluation | None = None
    if live.any():
        tied = np.flatnonzero(margins == margins[live].min())
        (worst,) = _rows(columns, _canonical(columns, tied)[:1])

    return CertificateReport(
        mode=mode,
        seed=seed,
        grid_size=grid_size,
        random_pairs=random_pairs,
        tau_star=None if worst is None else worst.margin,
        worst_pair=worst,
        violations=_rows(columns, _canonical(columns, violating)[:VIOLATION_ROWS]),
        violation_count=len(violating),
        vacuous_pairs=len(margins) - int(live.sum()),
        evaluated_pairs=len(margins),
        errors=tuple(sorted(errors, key=lambda row: row[:2])),
    )


def _canonical(columns: tuple[np.ndarray, ...], index: np.ndarray) -> np.ndarray:
    """``index`` stably sorted by the (x, y) of its rows."""
    return index[np.lexsort((columns[1][index], columns[0][index]))]


def _rows(columns: tuple[np.ndarray, ...], index: np.ndarray) -> tuple[PairEvaluation, ...]:
    """The rows at ``index`` as :class:`PairEvaluation`, margin None where NaN."""
    return tuple(
        PairEvaluation(x, y, h, m, phi_h, phi_m, None if math.isnan(margin) else margin)
        for x, y, h, m, phi_h, phi_m, margin in zip(*(c[index].tolist() for c in columns))
    )


def _sweep(
    T: MultiMap, F: FFunction, f: Integrand, grid_size: int, random_pairs: int, seed: int, mode: str
):
    """Evaluate every pair of the sweep that :func:`certify` describes.

    Returns the float64 columns ``(x, y, h, m, phi_h, phi_m, margin)`` of
    the evaluated pairs (margin NaN exactly on the vacuous ones, h == 0)
    and the (x, y, message) rows of the pairs that failed, both in sweep
    order: the grid pairs row by row, then the drawn pairs.
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
        columns = tuple(column[~redo] for column in columns)
    return columns, errors


def _pair_arrays(grid: list[float], drawn: list[float], slot: dict[float, int]):
    """x, y and the image slots of every pair, in sweep order.

    The pairs are the grid pairs i < j, row by row, then the drawn pairs
    (``drawn`` holds them flat, x before y).  The index arrays stay in
    here, so they are freed before the batch sweep runs.
    """
    i, j = np.triu_indices(len(grid), 1)
    points = np.array(grid + drawn, dtype=float)
    slots = np.array([slot[v] for v in itertools.chain(grid, drawn)], dtype=np.intp)
    first = np.concatenate([i, np.arange(len(grid), len(points), 2)])
    second = np.concatenate([j, np.arange(len(grid) + 1, len(points), 2)])
    return points[first], points[second], slots[first], slots[second]


class _PaddedImages:
    """Images as endpoint arrays of K intervals each, for the batch sweep.

    ``lo`` and ``hi`` come from :func:`image_arrays`, where K > 1 means
    point images (union table rows are failed and take the scalar code).
    The arithmetic follows the image shape:

    * one interval per image (K = 1: interval, singleton and one-interval
      table images): ``lo`` and ``hi`` are kept as 1-D endpoint columns
      and every distance has a closed form;
    * point images with K > 1 (finite-set maps): ``lo`` is kept
      transposed, one row per member, and a distance is the least
      point-to-point gap, with no clamp; a repeated member changes none.

    ``elements_per_pair`` is the size of a pair's broadcasts, which sets
    how many pairs a chunk of ``CHUNK_ELEMENTS`` holds.  Failed rows hold
    anything; no batch pair reads them.
    """

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        K = lo.shape[1]
        self.points = K > 1
        if self.points:
            self.lo = self.hi = np.ascontiguousarray(lo.T)
            self.elements_per_pair = 2 * K * K  # K members against K, both ways
        else:
            self.lo, self.hi = lo[:, 0], hi[:, 0]
            self.elements_per_pair = 4


def _h_and_m(sets: _PaddedImages, mode: str, x, y, xs, ys):
    """h and m of each pair, with the arithmetic the image shape allows.

    Each form gives the same bits as ``sets1d``.  On one interval per
    image, every clamp candidate of the two excesses is one rounded
    subtraction of two endpoints, never larger than |lx - ly| or
    |hx - hy| as rounding is monotone, so the Hausdorff distance is the
    larger of those two.  On point images, the clamp onto a member is the
    member, and the point nearest a gap midpoint is a member already.
    Only h and m leave, so the gathered endpoints are freed before the
    Phi and F stage, where the sweep's memory peaks.
    """
    if sets.points:
        # np.take keeps the gathered rows C-contiguous, as the reductions need
        lx = hx = np.take(sets.lo, xs, axis=1)
        ly = hy = np.take(sets.lo, ys, axis=1)

        def dist(p, lo, hi):  # hi is lo
            return np.abs(p - lo).min(axis=0)

        gaps = np.abs(lx[:, None, :] - ly[None, :, :])
        h = gaps.min(axis=1).max(axis=0)
        if mode == "hausdorff":
            h = np.maximum(h, gaps.min(axis=0).max(axis=0))
    else:
        lx, hx, ly, hy = sets.lo[xs], sets.hi[xs], sets.lo[ys], sets.hi[ys]

        def dist(p, lo, hi):
            return np.abs(p - np.clip(p, lo, hi))

        if mode == "hausdorff":
            h = np.maximum(np.abs(lx - ly), np.abs(hx - hy))
        else:
            h = np.maximum(dist(lx, ly, hy), dist(hx, ly, hy))
    own_x, own_y = dist(x, lx, hx), dist(y, ly, hy)
    cross = 0.5 * (dist(x, ly, hy) + dist(y, lx, hx))
    m = np.maximum(np.maximum(np.abs(x - y), own_x), np.maximum(own_y, cross))
    return h, m


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
    h, m = _h_and_m(sets, mode, x, y, xs, ys)
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
