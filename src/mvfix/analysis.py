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

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import SWEEP_LIMIT, DomainError, MvfixError, checked_number, real_number
from .ffunctions import FFunction, f_eval, f_eval_array
from .integrand import Integrand, capital_phi, capital_phi_array
from .maps import MultiMap, apply_map, image_arrays
from .sets1d import CompactSet, dist_point_set, domain_grid, excess, hausdorff, sample_points

__all__ = [
    "MODES",
    "SWEEP_LIMIT",
    "VIOLATION_ROWS",
    "ERROR_ROWS",
    "PairEvaluation",
    "CertificateReport",
    "m_value",
    "evaluate_pair",
    "evaluate_pairs",
    "certify",
]

MODES = ("hausdorff", "excess")

# A certificate keeps the first this many violating pairs, and the first
# ERROR_ROWS failed pairs, as rows and counts the rest, so its size does
# not grow with the sweep.
VIOLATION_ROWS = 100
ERROR_ROWS = 100

# The budget of one chunk of pairs, in values of their set arithmetic
# only: each pair costs the values its image shape counts (see
# ``_Evaluator``), and a chunk holds as many pairs as fit.  The Phi and
# F stage adds the sort keys and inverse of the chunk's 2n h and m values,
# so a chunk's tracemalloc peak follows its pairs: about 1.52 MB for
# interval images (16,384 pairs), 0.52 MB for 4-point images (3,276).
# Each chunk is evaluated, redone where needed and counted as one block.
CHUNK_ELEMENTS = 1 << 16


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
    (x, y, message) rows, in the same order, for the first ``ERROR_ROWS``
    of the ``error_count`` pairs whose evaluation raised, without
    aborting the sweep.
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
    error_count: int = 0


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise DomainError(f"mode must be one of {MODES}, got {mode!r}")


def m_value(T: MultiMap, x: float, y: float) -> float:
    """Generalized displacement m(x, y) for the map T."""
    x, y = real_number(x, "x", DomainError), real_number(y, "y", DomainError)
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
    phi=None,
) -> PairEvaluation:
    # phi(u) is capital_phi(f, u), or a caller's memo of it
    phi = phi or (lambda u: capital_phi(f, u))
    h = hausdorff(Sx, Sy) if mode == "hausdorff" else excess(Sx, Sy)
    m = _displacement(x, y, Sx, Sy)
    phi_h = phi(h)
    phi_m = phi(m)
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
    """Evaluate h, m, their transforms, and the margin for one pair.

    In excess mode ``h`` is the excess of T(x) over T(y), so the order of
    the pair matters: on the map [x/4, (x+1)/2] the pair (0, 1) has the
    margin ln 4 and the pair (1, 0) the margin ln 2.
    """
    _check_mode(mode)
    x, y = real_number(x, "x", DomainError), real_number(y, "y", DomainError)
    return _evaluate(F, f, x, y, apply_map(T, x), apply_map(T, y), mode)


def evaluate_pairs(
    T: MultiMap, F: FFunction, f: Integrand, x, y, mode: str = "hausdorff"
) -> tuple[np.ndarray, tuple[np.ndarray, ...], list[tuple[float, float, int, str]]]:
    """Evaluate the pairs (x[i], y[i]) in the given order, with the bits of :func:`evaluate_pair`.

    Returns the positions i of the evaluated pairs, their float64 columns
    (x, y, h, m, phi_h, phi_m, margin), margin NaN exactly on the vacuous
    ones, and an ``(x, y, i, message)`` row for each pair where
    :func:`evaluate_pair` would raise.  In excess mode h is the excess of
    T(x[i]) over T(y[i]).  ``x`` and ``y`` hold real numbers only.
    """
    _check_mode(mode)
    x, y = _points(x, "x"), _points(y, "y")
    if x.ndim != 1 or x.shape != y.shape:
        raise DomainError(f"x and y must be 1-D of one length, got shapes {x.shape} and {y.shape}")
    n, evaluator = len(x), _Evaluator(T, F, f, mode, np.concatenate([x, y]))
    k = np.arange(n)  # pair i is points i and n + i
    parts, errors = [(k[:0], (np.empty(0),) * 7)], []  # the first is the result when n = 0
    for block in evaluator.blocks(lambda start, stop: (k[start:stop], k[start:stop] + n), n):
        parts.append(block.columns())
        errors += block.errors
    index = np.concatenate([index for index, _ in parts])
    columns = tuple(map(np.concatenate, zip(*(columns for _, columns in parts))))
    return index, columns, errors


def _points(v, name: str) -> np.ndarray:
    """``v`` as a float64 array, refusing its first element that is no real number;
    a list is read as objects, so that a bool among floats is not taken as 0 or 1."""
    v = np.asarray(v, dtype=None if isinstance(v, np.ndarray) else object)
    if v.dtype.kind not in "iuf":  # bools, strings and objects, among others
        for element in (e for e in v.ravel().tolist() if type(e) is not float):
            real_number(element, name, DomainError)
    return np.asarray(v, dtype=float)


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
    seeded generator; each pair is ordered x < y before evaluation, so
    excess mode measures the excess of T(x) over T(y) with x < y.  Only
    the reported rows are kept, in canonical (x, y) order, ties in sweep
    order (the worst pair is the first of those tied at the least margin;
    violations past the first ``VIOLATION_ROWS`` and errors past the
    first ``ERROR_ROWS`` are only counted), so a repeated run with the
    same seed is bit-identical.  Per-pair failures are collected instead
    of aborting the sweep.

    The random points are drawn in one call (:func:`sample_points`, the
    same stream as one draw at a time).  The pairs are made, evaluated
    (:class:`_Evaluator`, with the bits of :func:`evaluate_pair`) and
    counted a chunk at a time.  ``grid_size``, ``random_pairs`` and
    ``seed`` take whole numbers, kept as ints, by their number rules
    (``grid_size >= 2``, ``seed >= 0``; both sizes at most ``SWEEP_LIMIT``).
    """
    _check_mode(mode)
    grid_size = checked_number("grid_size", grid_size)
    random_pairs = checked_number("random_pairs", random_pairs)
    seed = checked_number("seed", seed)
    tally = _Tally()
    for block in _sweep(T, F, f, grid_size, random_pairs, seed, mode):
        tally.add(block)
        del block  # so the next chunk is made with this one freed
    worst = None if tally.worst is None else tally.worst[-1]
    return CertificateReport(
        mode=mode,
        seed=seed,
        grid_size=grid_size,
        random_pairs=random_pairs,
        tau_star=None if worst is None else worst.margin,
        worst_pair=worst,
        violations=tuple(row for *_, row in tally.violations),
        violation_count=tally.violation_count,
        vacuous_pairs=tally.vacuous,
        evaluated_pairs=tally.evaluated,
        errors=tuple((x, y, message) for x, y, _, message in tally.errors),
        error_count=tally.error_count,
    )


class _Tally:
    """The counts and the kept rows of a certificate, added up block by block.

    Rows are ordered by the key ``(x, y, sweep index)``: canonical order,
    ties in sweep order.  ``worst`` is ``(margin, *key, row)`` of the
    least margin seen, ``violations`` the ``(*key, row)`` of the first
    ``VIOLATION_ROWS`` violating pairs and ``errors`` the
    ``(*key, message)`` of the first ``ERROR_ROWS`` failed pairs, so the
    result does not depend on the order the blocks come in.  A block is
    counted from its margins; rows are built only where they may be kept.
    """

    def __init__(self):
        self.evaluated = self.vacuous = self.violation_count = self.error_count = 0
        self.worst: tuple | None = None
        self.violations: list[tuple] = []
        self.errors: list[tuple] = []

    def add(self, block: _Block) -> None:
        """Count one :class:`_Block` and keep the rows it adds."""
        margin, failed = block.margin, len(block.errors)
        self.evaluated += len(margin) - failed
        self.vacuous += int(np.count_nonzero(np.isnan(margin))) - failed
        self.error_count += failed
        least = np.fmin.reduce(margin)  # NaN when no pair has a margin
        if least <= (math.inf if self.worst is None else self.worst[0]):
            (key_row,) = block.rows(np.flatnonzero(margin == least), 1)
            first = (key_row[-1].margin, *key_row)
            self.worst = first if self.worst is None else min(self.worst, first)
        if least <= 0.0:
            violating = np.flatnonzero(margin <= 0.0)
            self.violation_count += len(violating)
            new = block.rows(violating, VIOLATION_ROWS)
            self.violations = heapq.nsmallest(VIOLATION_ROWS, self.violations + new)
        if block.errors:
            self.errors = heapq.nsmallest(ERROR_ROWS, self.errors + block.errors)


@dataclass(frozen=True)
class _Block:
    """The n pairs of one chunk, from sweep index ``start``: ``margin`` is NaN on
    the vacuous and the failed pairs, the latter with ``(x, y, index, message)``
    rows in ``errors``; pair k's row is built from x, y, h and m (``hm[:, k]``)
    and Phi(h) and Phi(m) (``phi[inverse[:, k]]``)."""

    start: int
    x: np.ndarray
    y: np.ndarray
    hm: np.ndarray
    phi: np.ndarray
    inverse: np.ndarray
    margin: np.ndarray
    errors: list[tuple[float, float, int, str]]

    def columns(self, which: np.ndarray | None = None) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """The sweep indices and the float64 columns (x, y, h, m, phi_h, phi_m,
        margin) of the pairs ``which``, by default of every pair that did not fail."""
        if which is None:
            which = np.delete(np.arange(len(self.x)), [k - self.start for *_, k, _ in self.errors])
        (h, m), (phi_h, phi_m) = self.hm[:, which], self.phi[self.inverse[:, which]]
        columns = (self.x[which], self.y[which], h, m, phi_h, phi_m, self.margin[which])
        return self.start + which, columns

    def rows(self, which: np.ndarray, count: int) -> list[tuple]:
        """``(x, y, index, row)`` of the first ``count`` of the pairs ``which``, by
        key, each row a :class:`PairEvaluation` with margin None where NaN; the
        pairs are in sweep order, and the stable sort keeps it on ties."""
        index, columns = self.columns(which[np.lexsort((self.y[which], self.x[which]))[:count]])
        rows = zip(index.tolist(), *(c.tolist() for c in columns))
        return [
            (x, y, k, PairEvaluation(x, y, *values, None if math.isnan(margin) else margin))
            for k, x, y, *values, margin in rows
        ]


def _sweep(
    T: MultiMap, F: FFunction, f: Integrand, grid_size: int, random_pairs: int, seed: int, mode: str
):
    """The blocks of :func:`certify`'s pairs (:class:`_GridPairs`), from one
    :class:`_Evaluator`; the arguments are :func:`certify`'s, checked."""
    pairs = _GridPairs(T.domain, grid_size, random_pairs, seed)
    yield from _Evaluator(T, F, f, mode, pairs.points).blocks(pairs, pairs.count)


class _GridPairs:
    """The pairs of a :func:`certify` sweep: the grid pairs i < j, row by
    row, then the drawn pairs; a pair's place in that order is its sweep
    index.  ``points`` holds the grid, then the drawn pairs flat (x before
    y), and ``count`` is the number of pairs."""

    def __init__(self, domain: CompactSet, grid_size: int, random_pairs: int, seed: int):
        grid = domain_grid(domain, grid_size)
        rng = np.random.default_rng(seed)
        a, b = sample_points(domain, rng, 2 * random_pairs).reshape(-1, 2).T
        # (min(a, b), max(a, b)) per pair, with Python's pick between equal floats
        drawn = np.stack([np.where(b < a, b, a), np.where(b > a, b, a)], axis=1).ravel()
        self.points = np.concatenate([grid, drawn])
        self.grid_points = n = len(grid)
        rows = np.arange(n)
        # sweep index of pair (i, i + 1); the last is the count of grid pairs
        self.row_start = rows * (2 * n - 1 - rows) // 2
        self.grid_pairs = n * (n - 1) // 2
        self.count = self.grid_pairs + random_pairs

    def __call__(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """The point indices of x and of y of the pairs at sweep index ``start .. stop - 1``.

        Grid pair p of row i is (i, p - (row_start[i] - i - 1)).  Only the
        first and last grid pair's rows are looked up; each row's i and
        offset are then repeated over its pairs in the range.
        """
        end = min(stop, self.grid_pairs)
        p = np.arange(start, end)
        # a range past the grid pairs gets no rows: top is the last entry of row_start
        top, bottom = np.searchsorted(self.row_start, (start, end - 1), side="right") - 1
        rows, edges = np.arange(top, bottom + 1), self.row_start[top : bottom + 2]
        counts = np.diff(np.clip(edges, start, end))
        i, j = np.repeat(rows, counts), p - np.repeat(edges[:-1] - rows - 1, counts)
        q = np.arange(max(start, self.grid_pairs), stop) - self.grid_pairs
        k = self.grid_points + 2 * q  # drawn pair q is points k and k + 1
        return np.concatenate([i, k]), np.concatenate([j, k + 1])


class _Evaluator:
    """Pairs of ``points`` evaluated a chunk at a time, with the bits of :func:`evaluate_pair`.

    Each point is imaged once, as arrays (:func:`image_arrays`, the bits
    of :func:`apply_map`), at its own sign: the images of 0.0 and -0.0
    differ at most in the sign of a zero, which no bit of h or m shows.
    ``lo`` and ``hi`` are 1-D endpoint arrays when each image is one
    interval, else one ``(K, n)`` array of point members as both, NaN
    where an image fails; ``own`` holds D(p, T(p)) of each point, whatever
    the image shape.  A chunk holds ``chunk_size`` pairs, as many as
    ``CHUNK_ELEMENTS`` values of their set arithmetic allow.

    The pair arithmetic runs over numpy arrays (:func:`_h_and_m`): only
    IEEE-exact operations (``+ - * /``, ``abs``, ``minimum`` and
    ``maximum``, comparisons, ``where``, ``sqrt``) touch the arrays, while
    ``log``, ``expm1`` and ``pow`` run through ``math`` one element at a
    time, and the expression kind's quadrature runs level by level over
    all of a chunk's u at once (:func:`capital_phi_array`,
    :func:`f_eval_array`), once per bit pattern of a chunk's h and m
    (:func:`_dedupe`).  Each batch stage gives NaN exactly where its
    scalar counterpart raises, and a union table image is NaN as well;
    NaN carries through to the pair's h and m.  A pair that meets an
    unusable u (:func:`_evaluate_batch`) is evaluated again in place by the
    scalar code, which gives its values or its error message; it images
    each point and integrates each u at most once (:func:`_once`), in one
    memo, ``phi``, with the u the batch quadrature hands back.
    """

    def __init__(self, T: MultiMap, F: FFunction, f: Integrand, mode: str, points: np.ndarray):
        self.F, self.f, self.mode, self.points = F, f, mode, points
        self.lo, self.hi = image_arrays(T, points)
        with np.errstate(all="ignore"):  # as in a chunk: an inf is redone
            self.own = _distance(points, self.lo, self.hi)
        # four endpoints; or the K members of both images, and twelve columns:
        # x, y, their indices, h, m, two own distances, the cross sum and the
        # running minimum, maximum and gap
        elements_per_pair = 4 if self.lo.ndim == 1 else 2 * len(self.lo) + 12
        self.chunk_size = max(1, CHUNK_ELEMENTS // elements_per_pair)
        self.image = _once(lambda v: apply_map(T, v))
        self.phi = _once(lambda u: capital_phi(f, u))

    def blocks(self, pairs, count: int):
        """Yield the :class:`_Block` of each chunk of pairs 0 .. ``count`` - 1, whose
        point indices of x and of y ``pairs(start, stop)`` gives."""
        for start in range(0, count, self.chunk_size):
            yield self.chunk(pairs, start, min(start + self.chunk_size, count))

    def chunk(self, pairs, start: int, stop: int) -> _Block:
        """The block of pairs ``start`` .. ``stop`` - 1.

        Every pair goes through the batch arithmetic.  A pair that meets an
        unusable u is evaluated again by the scalar code on images from
        :func:`apply_map`: its values overwrite the batch row (its Phi
        values appended to ``phi``), or its error makes an error row.
        """
        xs, ys = pairs(start, stop)
        x, y = self.points.take(xs), self.points.take(ys)
        with np.errstate(all="ignore"):  # overflow shows as inf, and inf is redone
            hm = _h_and_m(self.lo, self.hi, self.own, self.mode, x, y, xs, ys)
            del xs, ys  # the indices go before the Phi and F stage
            phi, inverse, margin, redo = _evaluate_batch(self.F, self.f, hm, self.phi)
        redone, errors = [], []
        for k in redo:
            xk, yk = x[k].item(), y[k].item()
            try:
                Sx, Sy = self.image(xk), self.image(yk)
                ev = _evaluate(self.F, self.f, xk, yk, Sx, Sy, self.mode, self.phi)
            except MvfixError as err:
                errors.append((xk, yk, start + k, str(err)))
                margin[k] = math.nan
                continue
            hm[:, k] = ev.h, ev.m
            margin[k] = math.nan if ev.margin is None else ev.margin
            inverse[:, k] = len(phi) + len(redone), len(phi) + len(redone) + 1
            redone += (ev.phi_h, ev.phi_m)
        phi = np.concatenate([phi, redone]) if redone else phi
        return _Block(start, x, y, hm, phi, inverse, margin, errors)


def _once(call):
    """``call`` at most once per argument; a failure is kept as its message alone (an error
    would hold its frames) and raised as an :class:`MvfixError` each time.  Equal floats share
    a result: a u is never -0.0, and images of ±0 differ at most in a zero's sign.  A NaN u (a
    failed image's, in a chunk of few u) equals no key, so it is computed and not kept."""
    kept: dict[float, object] = {}

    def once(v: float):
        if v != v:
            return call(v)
        if v not in kept:
            try:
                kept[v] = call(v)
            except MvfixError as err:
                kept[v] = str(err)
        if isinstance(kept[v], str):
            raise MvfixError(kept[v])
        return kept[v]

    return once


def _h_and_m(lo: np.ndarray, hi: np.ndarray, own, mode: str, x, y, xs, ys):
    """h and m of each pair, with the arithmetic the image shape allows.

    ``xs`` and ``ys`` index the pairs' images in ``lo`` and ``hi``, in the
    layout :func:`image_arrays` gives, and their own distances in ``own``;
    only h and the cross sum D(x, Ty) + D(y, Tx) follow the image shape.
    Each form gives the same bits as ``sets1d``:

    * one interval per image (1-D ``lo``: interval and one-interval
      table images): every distance has a closed form.  Every clamp
      candidate of the two excesses is one rounded subtraction of two
      endpoints, never larger than |lx - ly| or |hx - hy| as rounding is
      monotone, so the Hausdorff distance is the larger of those two;
    * one point per image (1-D ``lo`` that is ``hi``: one-member images):
      h is |lx - ly| in either mode, and a distance to an image is
      |p - v| with no clamp, as the clamp onto a point is the point;
    * point images (2-D ``lo``, one row per member, K >= 2): a distance
      is the least point-to-point gap, with no clamp, as the clamp onto a
      member is the member and the point nearest a gap midpoint is a
      member already.  Only the least and the largest gap count, so
      neither the order of the members nor a repeated member changes one.
      The excess, the Hausdorff distance and the cross terms
      D(x, Ty) and D(y, Tx) are running ``minimum`` and ``maximum`` over
      loops of one member each (:func:`_nearest`, :func:`_excess`), so no
      array grows with K^2 per pair; only ``-``, ``abs``, ``minimum`` and
      ``maximum`` touch the members, so the loop order changes no bit.

    A NaN image gives its pairs a NaN m (and h), so the caller redoes them.
    h and m are taken in place into the one ``(2, n)`` array that leaves.
    """
    # np.take keeps gathered members C-contiguous, one member a row
    lx, ly = np.take(lo, xs, axis=-1), np.take(lo, ys, axis=-1)
    hx, hy = (lx, ly) if hi is lo else (hi.take(xs), hi.take(ys))
    hm = np.empty((2, len(x)))
    h, m = hm  # m is free until the cross sum: a scratch row for h
    if lo.ndim == 2:
        _excess(lx, ly, h, m)
        if mode == "hausdorff":
            np.maximum(h, _excess(ly, lx, np.empty_like(h), m), out=h)
    elif mode == "hausdorff" or hi is lo:  # one point per image: |lx - ly| in either mode
        np.abs(np.subtract(lx, ly, out=h), out=h)
        if hi is not lo:
            np.maximum(h, np.abs(np.subtract(hx, hy, out=m), out=m), out=h)
    else:
        np.maximum(_distance(lx, ly, hy, h), _distance(hx, ly, hy, m), out=h)
    _distance(y, lx, hx, m)  # the cross sum D(y, Tx) + D(x, Ty), halved below
    del lx, hx  # each image's members go once they are used
    term = _distance(x, ly, hy, np.empty_like(m))
    m += term
    m *= 0.5
    np.maximum(m, np.abs(np.subtract(x, y, out=term), out=term), out=m)
    np.maximum(m, own.take(xs, out=term), out=m)
    np.maximum(m, own.take(ys, out=term), out=m)
    return hm


def _distance(p: np.ndarray, lo: np.ndarray, hi: np.ndarray, out=None) -> np.ndarray:
    """The distance from each element of ``p`` to its image in the :func:`image_arrays`
    layout, into ``out`` if given: :func:`_nearest` of point members, |p - v|
    of one member ``v`` (``lo`` is ``hi``), else |p - min(max(p, lo), hi)|."""
    if lo.ndim == 2:
        return _nearest(p, lo, out)
    clamped = lo if hi is lo else np.minimum(np.maximum(p, lo, out=out), hi, out=out)
    return np.abs(np.subtract(p, clamped, out=out), out=out)


def _nearest(p: np.ndarray, members: np.ndarray, out=None) -> np.ndarray:
    """The least |p - b| over the rows b of ``members``, into ``out`` if given:
    the distance from each element of ``p`` to its point image, one pass per member."""
    best = np.abs(np.subtract(p, members[0], out=out), out=out)
    gap = np.empty_like(best)
    for b in members[1:]:
        np.abs(np.subtract(p, b, out=gap), out=gap)
        np.minimum(best, gap, out=best)
    return best


def _excess(A: np.ndarray, B: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The largest :func:`_nearest` of a row of ``A`` to ``B``, into ``out``, via ``scratch``."""
    worst = _nearest(A[0], B, out)
    for a in A[1:]:
        np.maximum(worst, _nearest(a, B, scratch), out=worst)
    return worst


def _evaluate_batch(F: FFunction, f: Integrand, hm: np.ndarray, scalar):
    """``Phi`` and ``F`` of the pairs' h and m (the rows of ``hm``), as :func:`_evaluate` has them.

    Returns ``(phi, inverse, margin, redo)``: Phi of each group of equal
    bits of ``hm`` (:func:`_dedupe`), with Phi(h) and Phi(m) of pair k at
    ``inverse[:, k]``; the margin column; and the pairs, in order, that
    meet an unusable u, for the scalar code to redo.  ``scalar``, the
    sweep's memo of :func:`capital_phi`, takes the u the batch hands back.
    A u is usable when Phi(u) and F(Phi(u)) are finite (a NaN u has a NaN
    Phi), or when it is 0: F(Phi(0)) is NaN, the margin of a vacuous pair.
    This is decided per distinct u, and gathered to pairs only when some u
    is unusable.  A hash collision changes no bit: each value is u's alone.
    """
    u, inverse = _dedupe(hm.reshape(-1))
    at_h, at_m = inverse = inverse.reshape(hm.shape)
    phi = capital_phi_array(f, u, scalar)
    f_u = f_eval_array(F, phi)
    margin = f_u.take(at_m)
    margin -= f_u.take(at_h)
    unusable = ~(np.isfinite(phi) & (np.isfinite(f_u) | (u == 0.0)))
    redo = unusable.take(at_h) | unusable.take(at_m) if unusable.any() else ()
    return phi, inverse, margin, np.flatnonzero(redo).tolist()


# Odd multiplier of _dedupe's hash (2^64 over the golden ratio)
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def _dedupe(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(values, inverse)``: the float64 ``u`` in groups of equal bits, with
    ``values[inverse]`` equal to ``u`` bit for bit; ``u`` is only read.

    A uint64 key packs a hash of an element's bits above its index, so one
    in-place sort puts equal bits together in index order.  Equal bits hash
    alike, so a group never holds two patterns (±0 and NaN payloads stay
    apart); a hash collision interleaves two patterns, which only splits
    one into more groups.  Each group's number is repeated over its run.
    """
    n = len(u)
    bits = u.view(np.uint64)
    low = (np.uint64(1) << np.uint64(max(16, n.bit_length()))) - np.uint64(1)  # index bits
    key = bits * _HASH_MULTIPLIER  # wraps modulo 2^64
    key >>= np.uint64(2)  # below 2^62 a key's bits are a positive float's, which sort faster
    key &= ~low
    key |= np.arange(n, dtype=np.uint64)
    key.view(np.float64).sort()
    order = np.bitwise_and(key, low, out=key).view(np.intp)
    ordered = bits.take(order)
    first = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    values = ordered.take(first).view(np.float64)
    del ordered
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.repeat(np.arange(len(first)), np.diff(first, append=n))
    return values, inverse
