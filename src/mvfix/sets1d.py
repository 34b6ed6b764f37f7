"""Compact subsets of the real line and the Hausdorff metric.

A set is a finite union of closed intervals, kept sorted and disjoint.
Every sup/inf in the metric computations reduces to a finite candidate
enumeration (interval endpoints plus gap midpoints), so distances are
exact up to binary64 rounding; nothing here relies on sampling.

Glossary used throughout the package:

* ``dist_point_set(x, B)``  is  D(x, B) = inf over b in B of |x - b|
* ``excess(A, B)``          is  sup over a in A of D(a, B)
* ``hausdorff(A, B)``       is  max(excess(A, B), excess(B, A))
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, InvariantError, real_number

__all__ = [
    "CompactSet",
    "dist_point_set",
    "nearest_point",
    "excess",
    "hausdorff",
    "domain_grid",
    "sample_points",
]


def _normalize(raw: Iterable[Sequence[float]]) -> tuple[tuple[float, float], ...]:
    pairs = []
    for item in raw:
        lo = float(real_number(item[0], "interval endpoint lo", InvariantError))
        hi = float(real_number(item[1], "interval endpoint hi", InvariantError))
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise InvariantError(f"interval endpoints must be finite, got ({lo}, {hi})")
        if lo > hi:
            raise InvariantError(f"interval has lo > hi: ({lo}, {hi})")
        pairs.append((lo, hi))
    if not pairs:
        raise InvariantError("a compact set needs at least one interval")
    pairs.sort()
    merged = [pairs[0]]
    for lo, hi in pairs[1:]:
        plo, phi = merged[-1]
        # touching intervals merge, so the remaining gaps are strictly positive
        if lo <= phi:
            merged[-1] = (plo, max(phi, hi))
        else:
            merged.append((lo, hi))
    return tuple(merged)


@dataclass(frozen=True)
class CompactSet:
    """Finite union of closed intervals ``[lo, hi]``, sorted and disjoint.

    Construction normalizes its input: intervals are sorted, overlapping or
    touching intervals are merged, and non-finite or reversed endpoint pairs
    are rejected.  Singletons are intervals with ``lo == hi``.
    """

    intervals: tuple[tuple[float, float], ...]

    def __init__(self, intervals: Iterable[Sequence[float]]):
        object.__setattr__(self, "intervals", _normalize(intervals))

    @classmethod
    def interval(cls, lo: float, hi: float) -> "CompactSet":
        return cls([(lo, hi)])

    @classmethod
    def from_points(cls, xs: Iterable[float]) -> "CompactSet":
        return cls([(x, x) for x in xs])

    @property
    def min(self) -> float:
        return self.intervals[0][0]

    @property
    def max(self) -> float:
        return self.intervals[-1][1]

    @property
    def total_length(self) -> float:
        return sum(hi - lo for lo, hi in self.intervals)

    def contains(self, x: float) -> bool:
        for lo, hi in self.intervals:
            if lo <= x <= hi:
                return True
        return False

    __contains__ = contains

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{{{lo}}}" if lo == hi else f"[{lo}, {hi}]" for lo, hi in self.intervals
        )
        return f"CompactSet({parts})"


def _nearest(x: float, B: CompactSet) -> tuple[float, float]:
    # Candidate per interval is the clamp of x onto it; candidates are
    # nondecreasing along a sorted set, so strict improvement keeps the
    # smaller point on ties.
    best_p = B.intervals[0][0]
    best_d = math.inf
    for lo, hi in B.intervals:
        p = lo if x < lo else (hi if x > hi else x)
        d = abs(x - p)
        if d < best_d:
            best_p, best_d = p, d
    return best_p, best_d


def dist_point_set(x: float, B: CompactSet) -> float:
    """Distance from the point ``x`` to the set ``B`` (0 iff ``x`` is in ``B``)."""
    return _nearest(x, B)[1]


def nearest_point(x: float, B: CompactSet) -> float:
    """Point of ``B`` closest to ``x``; ties resolve to the smaller point."""
    return _nearest(x, B)[0]


def excess(A: CompactSet, B: CompactSet) -> float:
    """One-sided excess of ``A`` over ``B``: sup over a in A of D(a, B).

    D(., B) is piecewise linear with local maxima only at the midpoints of
    B's gaps, so the sup over A is attained either at an interval endpoint
    of A or at a gap midpoint of B that lies inside A.  Enumerating those
    candidates makes the result exact.
    """
    candidates = []
    for lo, hi in A.intervals:
        candidates.append(lo)
        candidates.append(hi)
    for (_, prev_hi), (next_lo, _) in zip(B.intervals, B.intervals[1:]):
        mid = 0.5 * (prev_hi + next_lo)
        candidates.append(nearest_point(mid, A))
    return max(dist_point_set(c, B) for c in candidates)


def hausdorff(A: CompactSet, B: CompactSet) -> float:
    """Hausdorff distance: the larger of the two one-sided excesses."""
    return max(excess(A, B), excess(B, A))


def domain_grid(A: CompactSet, size: int) -> np.ndarray:
    """Deterministic evenly spaced float64 grid over ``A`` with roughly ``size`` points.

    Every interval endpoint is included.  For a single interval this is
    exactly ``numpy.linspace(lo, hi, size)``; for unions the points are
    split across intervals in proportion to length, with at least two per
    interval of positive length and one per singleton.  A set too long for
    ``size`` times its length to be a float raises :class:`DomainError`.
    """
    if size < 1:
        raise DomainError("grid size must be at least 1")
    total = A.total_length
    if total == 0.0:
        return np.array([lo for lo, _ in A.intervals][:size] or [A.min])
    if not math.isfinite(size * total):
        raise DomainError(f"a {size}-point grid over {A!r} overflows a float")
    pieces = []
    for lo, hi in A.intervals:
        if hi == lo:
            pieces.append([lo])
            continue
        n = max(2, round(size * (hi - lo) / total))
        pieces.append(np.linspace(lo, hi, n))
    return np.concatenate(pieces)


def sample_points(A: CompactSet, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` points uniformly from ``A``, in one generator call.

    Points are drawn by length, or uniformly over the points when the set
    is finite.  The result equals ``n`` successive one-point draws from the
    same generator state: ``rng.random(n)`` and ``rng.integers(k, size=n)``
    give the same numbers as ``n`` scalar calls.  A set whose total length
    overflows a float raises :class:`DomainError`.
    """
    total = A.total_length
    if total == 0.0:
        pts = np.array([lo for lo, _ in A.intervals])
        return pts[rng.integers(len(pts), size=n)]
    if not math.isfinite(total):
        raise DomainError(f"the total length of {A!r} overflows a float")
    u = rng.random(n) * total
    out = np.full(n, A.intervals[-1][1])
    todo = np.ones(n, dtype=bool)
    for lo, hi in A.intervals:
        w = hi - lo
        take = todo & (u <= w)
        v = lo + u[take]
        out[take] = np.where(hi < v, hi, v)  # min(lo + u, hi), as Python picks
        todo &= ~take
        u -= w
    return out
