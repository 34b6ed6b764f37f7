"""Gauge functions F : (0, inf) -> R and grid checks of their axioms.

The contraction machinery needs F to be strictly increasing (F1), to
diverge to -inf exactly when its argument goes to 0 (F2), to satisfy
alpha**k * F(alpha) -> 0 for some k in (0, 1) (F3), and to commute with
infima over compact argument sets (F4).  An :class:`FFunction` carries
its kind and that exponent k, which every (F3) check reads from it.  The
checks here are finite grid probes: they certify behaviour on the
documented grids, not proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import DomainError, InvariantError
from .sets1d import CompactSet, domain_grid

__all__ = [
    "FFunction",
    "f_eval",
    "f_eval_array",
    "default_f1_grid",
    "check_f1",
    "check_f2_f3",
    "check_f4",
    "MonotoneVerdict",
    "LimitVerdict",
    "InfimumVerdict",
]

# The value of each F kind at one alpha > 0, by kind name.
_VALUES: dict[str, Callable[[float], float]] = {
    "log": math.log,
    "log_plus_linear": lambda alpha: math.log(alpha) + alpha,
    "neg_inv_sqrt": lambda alpha: -1.0 / math.sqrt(alpha),
}
F_KINDS = tuple(_VALUES)


@dataclass(frozen=True)
class FFunction:
    """A named gauge function with its (F3) exponent ``k`` in (0, 1).

    Kinds: ``log`` is ln(alpha); ``log_plus_linear`` is ln(alpha) + alpha;
    ``neg_inv_sqrt`` is -1/sqrt(alpha).  ``k`` is the exponent with
    alpha**k * F(alpha) -> 0 that :func:`check_f2_f3`, the trace
    validator and the trace CSV use.
    """

    kind: str
    k: float = 0.5

    def __post_init__(self):
        if self.kind not in F_KINDS:
            raise InvariantError(f"unknown F kind {self.kind!r}, expected one of {F_KINDS}")
        if not (0.0 < self.k < 1.0):
            raise InvariantError(f"k witness must lie in (0, 1), got {self.k}")


def f_eval(F: FFunction, alpha: float) -> float:
    """Value F(alpha); the domain is strictly positive reals."""
    if not alpha > 0.0:
        raise DomainError(f"F is defined only for alpha > 0, got {alpha}")
    return _VALUES[F.kind](alpha)


def f_eval_array(F: FFunction, alpha: np.ndarray) -> np.ndarray:
    """:func:`f_eval` over an array of alpha > 0, bit for bit.

    Each element goes through the kind's scalar function, because numpy's
    vectorised ``log`` differs from ``math.log`` in the last bit on some
    inputs (numpy 2.4.6 with AVX-512 on an Intel Xeon: 59 of 600,000
    inputs spread over exp(-40) .. exp(40)).
    """
    if not np.all(alpha > 0.0):
        raise DomainError("F is defined only for alpha > 0")
    value = _VALUES[F.kind]
    return np.array([value(a) for a in alpha.tolist()], dtype=float)


def _as_callable(F: Union[FFunction, Callable[[float], float]]) -> Callable[[float], float]:
    if isinstance(F, FFunction):
        return lambda a: f_eval(F, a)
    return F


def default_f1_grid() -> tuple[float, ...]:
    """Logarithmic probe grid 1e-8 .. 1e8 used by the monotonicity check."""
    return tuple(10.0**e for e in range(-8, 9))


@dataclass(frozen=True)
class MonotoneVerdict:
    passed: bool
    first_violation: tuple[float, float] | None = None


@dataclass(frozen=True)
class LimitVerdict:
    f2_passed: bool
    f3_passed: bool
    f2_detail: str
    f3_detail: str

    @property
    def passed(self) -> bool:
        return self.f2_passed and self.f3_passed


@dataclass(frozen=True)
class InfimumVerdict:
    passed: bool
    lhs: float  # F at the minimum of the set
    rhs: float  # minimum of F over the sample grid


def check_f1(
    F: Union[FFunction, Callable[[float], float]],
    grid: Sequence[float] | None = None,
) -> MonotoneVerdict:
    """Strict monotonicity probe over an ascending positive grid.

    The grid must be strictly ascending, so shuffling and re-sorting a
    grid cannot change the verdict.  The first violating adjacent pair,
    if any, is reported.
    """
    pts = tuple(default_f1_grid() if grid is None else grid)
    if len(pts) < 2:
        raise ValueError("monotonicity grid needs at least 2 points")
    if any(b <= a for a, b in zip(pts, pts[1:])):
        raise ValueError("monotonicity grid must be strictly ascending")
    if pts[0] <= 0.0:
        raise ValueError("monotonicity grid must be strictly positive")
    fn = _as_callable(F)
    for a, b in zip(pts, pts[1:]):
        if not fn(a) < fn(b):
            return MonotoneVerdict(False, (a, b))
    return MonotoneVerdict(True, None)


def eventually_strictly_decreasing(values: Sequence[float]) -> bool:
    """True when some final segment of length >= 2 strictly decreases."""
    if len(values) < 2:
        return False
    start = len(values) - 1
    while start > 0 and values[start - 1] > values[start]:
        start -= 1
    return start < len(values) - 1


def check_f2_f3(F: FFunction) -> LimitVerdict:
    """Limit-behaviour probes at alpha_i = 10**(-2 i), i = 1 .. 8.

    (F2) passes when F(alpha_i) strictly decreases along the probe and the
    final value is below -20.  (F3) passes when |alpha_i**k * F(alpha_i)|,
    with F's own exponent k = ``F.k``, is eventually strictly decreasing
    and the final value is below 1e-6.  The verdict contract is exactly
    these grid conditions; they witness, but do not prove, the limits.
    """
    k = F.k
    alphas = [10.0 ** (-2 * i) for i in range(1, 9)]
    f_values = [f_eval(F, a) for a in alphas]
    weights = [abs(a**k * v) for a, v in zip(alphas, f_values)]

    f2_decreasing = all(b < a for a, b in zip(f_values, f_values[1:]))
    f2_deep = f_values[-1] < -20.0
    f2_passed = f2_decreasing and f2_deep
    f2_detail = (
        f"F(alpha) {'strictly decreasing' if f2_decreasing else 'not strictly decreasing'}"
        f" along the probe; final value {f_values[-1]:.6g}"
        f" ({'<' if f2_deep else '>='} -20)"
    )

    f3_trend = eventually_strictly_decreasing(weights)
    f3_small = weights[-1] < 1e-6
    f3_passed = f3_trend and f3_small
    f3_detail = (
        f"|alpha**k * F(alpha)| {'eventually strictly decreasing' if f3_trend else 'not decreasing'}"
        f"; final value {weights[-1]:.6g} ({'<' if f3_small else '>='} 1e-6)"
    )
    return LimitVerdict(f2_passed, f3_passed, f2_detail, f3_detail)


def check_f4(
    F: Union[FFunction, Callable[[float], float]],
    A: CompactSet,
    samples_per_interval: int = 64,
) -> InfimumVerdict:
    """Check F(min A) against the minimum of F over a sample grid of A.

    Requires min(A) > 0 so every sample is in the domain of F.  For a
    continuous increasing F the two quantities agree; the verdict allows
    1e-9 of slack.
    """
    if not A.min > 0.0:
        raise DomainError(f"set minimum must be positive, got {A.min}")
    fn = _as_callable(F)
    pts = domain_grid(A, samples_per_interval * len(A.intervals))
    for lo, hi in A.intervals:
        pts.extend((lo, hi))
    lhs = fn(A.min)
    rhs = min(fn(p) for p in pts)
    return InfimumVerdict(abs(lhs - rhs) <= 1e-9, lhs, rhs)
