"""Constructive fixed-point iteration and decay-law validation.

The iteration follows the nearest-point selection: from x_n, pick
x_{n+1} as the point of T(x_n) closest to x_n, and stop once the
distance from x_n to its value set drops to the tolerance.  Each
transition records gamma_n = Phi(d(x_n, x_{n+1})).

For a map certified with modulus tau the theory predicts the decay chain
F(gamma_n) <= F(gamma_0) - n * tau, the rate bound
gamma_n <= n**(-1/k) on a tail, and a summable Cauchy envelope; the
validator checks those claims against a concrete trace.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, fields
from typing import Sequence, Union

import numpy as np

from .errors import DomainError, InsufficientTraceError, MvfixError, checked_number
from .errors import _whole, real_number
from .expr import _pointwise
from .ffunctions import FFunction, decay_witnesses, f_eval, f_eval_array
from .integrand import ConstantIntegrand, Integrand, capital_phi, capital_phi_array, integrand_label
from .maps import MultiMap

__all__ = [
    "TraceParams",
    "FixedPointFound",
    "MaxIterReached",
    "IterationError",
    "Outcome",
    "IterationTrace",
    "TraceVerdict",
    "ProbeRow",
    "ProbeReport",
    "iterate",
    "validate_trace",
    "gamma_sequence_probe",
]

DECAY_SLACK = 1e-9
RATE_SLACK = 1e-12
# iterate takes Phi over windows of 1, 2, 4, ... steps, up to this many
PHI_WINDOW = 1024


@dataclass(frozen=True)
class TraceParams:
    tol: float
    max_iter: int
    integrand: str


@dataclass(frozen=True)
class FixedPointFound:
    x: float
    step: int


@dataclass(frozen=True)
class MaxIterReached:
    last_x: float


@dataclass(frozen=True)
class IterationError:
    detail: str
    last_x: float


Outcome = Union[FixedPointFound, MaxIterReached, IterationError]


class _BytewiseEq:
    """Equality and hash over a dataclass's fields, each array field by its bytes."""

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _key(self) -> tuple:
        values = (getattr(self, f.name) for f in fields(self))
        return tuple(v.tobytes() if isinstance(v, np.ndarray) else v for v in values)


@dataclass(frozen=True, eq=False)
class IterationTrace(_BytewiseEq):
    """Recorded steps of one iteration, held as parallel columns.

    Entry n of ``x``, ``next_point``, ``d_to_set`` and ``gamma`` belongs
    to step n.  Each column is a read-only float64 array, 8 bytes per
    value; ``x`` and ``next_point`` are views of one buffer holding x0
    and then the next points, so ``x[n + 1]`` is ``next_point[n]``.
    ``map`` is the iterated map; ``apply_map(trace.map, trace.x[n])``
    gives step n's value set, with the same bits as during the run.  Two
    traces are equal when their columns hold the same bytes and their
    map, outcome and params are equal.
    """

    x: np.ndarray
    next_point: np.ndarray
    d_to_set: np.ndarray
    gamma: np.ndarray
    map: MultiMap
    outcome: Outcome
    params: TraceParams

    def decay_columns(self, F: FFunction) -> tuple[np.ndarray, np.ndarray]:
        """``(F(gamma_n), n * gamma_n**k)`` for every step, k = ``F.k``, computed once per F.

        Both are read-only float64 arrays, from one :func:`f_eval_array`
        call and one ``math.pow`` pass (``expr._pointwise``, k a scalar),
        so the bits are those of ``f_eval`` and of Python's ``**``.  A
        gamma that underflowed to 0 gets ``F(gamma) = -inf``: F is defined
        only for alpha > 0, and (F2) makes -inf its limit at 0 for every
        kind.  :func:`validate_trace` and the CLI's trace CSV both read
        these columns.
        """
        memo = self.__dict__.setdefault("_decay_memo", {})
        if F not in memo:
            f_gamma = f_eval_array(F, self.gamma)
            f_gamma[self.gamma == 0.0] = -math.inf
            power = _pointwise(math.pow, self.gamma, F.k)
            memo[F] = tuple(map(_read_only, (f_gamma, np.arange(len(power)) * power)))
        return memo[F]


def _read_only(column) -> np.ndarray:
    # a read-only float64 view of an array("d") or of a float64 array
    column = np.frombuffer(column, float)
    column.flags.writeable = False
    return column


@dataclass(frozen=True, eq=False)
class TraceVerdict(_BytewiseEq):
    """Validation outcome for one trace against F, tau and F's exponent k = ``F.k``.

    ``per_step_margins`` holds the telescoped slack
    (F(gamma_0) - n * tau) - F(gamma_n) per recorded step, as a read-only
    float64 array; the decay chain is intact when every slack is
    >= -1e-9.  ``n1`` is the start of the longest trace suffix on which
    n * gamma_n**k stays <= 1 and is nonincreasing (None when even the
    last step exceeds 1); the rate bound gamma_n <= n**(-1/k) is then
    checked on that tail.  Two verdicts are equal when their margins hold
    the same bytes and their other fields are equal.
    """

    decay_chain_ok: bool
    first_failure: int | None
    per_step_margins: np.ndarray
    n1: int | None
    rate_bound_ok: bool
    rate_first_failure: int | None
    cauchy_tail_bound: float | None


def iterate(
    T: MultiMap,
    x0: float,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    f: Integrand = ConstantIntegrand(1.0),
) -> IterationTrace:
    """Run the nearest-point iteration from ``x0``.

    Halts with :class:`FixedPointFound` once D(x_n, T(x_n)) <= tol, with
    :class:`MaxIterReached` after ``max_iter`` recorded steps, or with an
    :class:`IterationError` outcome if the selected point leaves the
    domain, a map evaluation fails or Phi(d) is not finite; partial steps
    are kept in every case.  Phi is taken in windows of 1, 2, 4, ... and
    at most ``PHI_WINDOW`` steps: one call of the map's generated orbit
    loop (``maps._compile_orbit``, compiled on the map's first
    ``iterate`` and kept by the map) runs a window's steps and records
    their points, one numpy pass takes their distances
    ``d_n = |x_n - x_{n+1}|`` (IEEE ``-`` and ``abs``: the bits of the
    loop's own test against ``tol``), and one :func:`capital_phi_array`
    call gives their gammas.  Only table maps, and finite sets whose
    nearest members tie, build a value set there; a map proved valid
    over its domain runs no failure check at all.
    At the first gamma that is not finite (where :func:`capital_phi`
    raises or is not finite) the trace is cut before that step, and
    :func:`capital_phi` on that one d gives the outcome, so the steps and
    the outcome are those of a loop that takes Phi step by step.
    """
    tol = checked_number("tol", tol)  # tol = inf would stop at x0 as a fixed point
    max_iter = checked_number("max_iter", max_iter)
    x0 = checked_number("x0", x0)
    if not T.domain.contains(x0):
        raise DomainError(f"starting point {x0} lies outside the domain")

    params = TraceParams(tol=tol, max_iter=max_iter, integrand=integrand_label(f))
    points, gammas = array("d", [x0]), array("d")  # x0, then each next point

    def finish(outcome: Outcome) -> IterationTrace:
        p, g = _read_only(points), _read_only(gammas)
        d = _read_only(np.abs(p[:-1] - p[1:]))  # each d_n = |x_n - x_{n+1}|, as its window took it
        return IterationTrace(p[:-1], p[1:], d, g, T, outcome, params)

    x, done, window, stop = x0, 0, 1, None
    while stop is None and done < max_iter:
        end = min(done + window, max_iter)
        window = min(2 * window, PHI_WINDOW)
        x, n, kind, err = T._orbit(x, done, end, tol, points.append)
        xs = np.frombuffer(points[done:])  # x_done, then the window's next points
        d = np.abs(xs[:-1] - xs[1:])
        if kind == "fixed":
            stop = FixedPointFound(x, n)
        elif kind == "left":
            stop = IterationError(f"iterate left the domain at step {n}: x = {x!r}", x)
        elif kind == "error":
            stop = IterationError(str(err), x)
        gamma = capital_phi_array(f, d)
        bad = np.flatnonzero(~np.isfinite(gamma))
        if len(bad):
            n = done + int(bad[0])
            failure = _phi_failure(f, n, d[bad[0]].item(), points[n])
            gammas.frombytes(gamma[: bad[0]].tobytes())
            del points[n + 1 :]
            return finish(failure)
        gammas.frombytes(gamma.tobytes())
        done = len(points) - 1
    return finish(MaxIterReached(x) if stop is None else stop)


def _phi_failure(f: Integrand, n: int, d: float, x: float) -> IterationError:
    """The outcome of step n, whose Phi(d) is not finite: :func:`capital_phi`'s
    error there, or the value it gives."""
    try:
        gamma = capital_phi(f, d)
    except MvfixError as err:
        return IterationError(str(err), x)
    return IterationError(f"Phi(d) is not finite at step {n}, d = {d!r}: {gamma}", x)


def validate_trace(trace: IterationTrace, F: FFunction, tau: float) -> TraceVerdict:
    """Check the decay chain, tail rate bound, and Cauchy envelope.

    Needs at least two recorded steps with gamma > 0 and a finite
    ``tau > 0``.  The rate bound and the envelope use F's exponent
    k = ``F.k``.  All comparisons use the step's own index n, with the
    first positive-gamma step as the baseline of the chain.  Each check
    is array code over :meth:`IterationTrace.decay_columns`, with the
    bits of a step-by-step loop: the margins use only IEEE ``-`` and
    ``*``, ``n**(-1/k)`` comes from ``math.pow`` once per n and serves
    both the rate bound and the envelope, and the envelope is one
    builtin ``sum`` over those terms in order.
    """
    tau = checked_number("tau", tau)
    recorded = np.flatnonzero(trace.gamma > 0.0)
    if len(recorded) < 2:
        raise InsufficientTraceError(
            f"need at least 2 steps with positive gamma, found {len(recorded)}"
        )
    f_gamma, n_gamma_k = trace.decay_columns(F)

    n0 = recorded[0]
    with np.errstate(over="ignore"):  # a large tau overflows to -inf, as in a loop
        margins = (f_gamma[n0] - (recorded - n0) * tau) - f_gamma[recorded]
    failures = recorded[margins < -DECAY_SLACK]
    first_failure = int(failures[0]) if len(failures) else None

    # n1 starts the longest suffix whose weights stay <= 1 and never increase
    weights, limit = n_gamma_k[recorded], 1.0 + RATE_SLACK
    n1 = rate_first_failure = cauchy = None
    if weights[-1] <= limit:
        breaks = np.flatnonzero(~((weights[:-1] >= weights[1:]) & (weights[:-1] <= limit)))
        n1 = int(recorded[breaks[-1] + 1 if len(breaks) else 0])
        lo, hi = max(n1, 1), int(recorded[-1]) + 1
        n = np.arange(lo, hi, dtype=float)  # exact below 2**53, as Python's int-to-float is
        bound = _pointwise(math.pow, n, -1.0 / F.k)
        over = np.flatnonzero(trace.gamma[lo:hi] > bound + RATE_SLACK)
        rate_first_failure = lo + int(over[0]) if len(over) else None
        cauchy = sum(bound.tolist())  # one builtin sum, over the terms in order

    return TraceVerdict(
        decay_chain_ok=first_failure is None,
        first_failure=first_failure,
        per_step_margins=_read_only(margins),
        n1=n1,
        rate_bound_ok=n1 is not None and rate_first_failure is None,
        rate_first_failure=rate_first_failure,
        cauchy_tail_bound=cauchy,
    )


@dataclass(frozen=True)
class ProbeRow:
    n: int
    h: float
    gamma: float
    f_gamma: float
    n_gamma_k: float
    gamma_k_f_gamma: float


@dataclass(frozen=True)
class ProbeReport:
    """Limit-behaviour witness table for a sequence of step sizes.

    ``f_gamma_decreasing`` reports whether F(gamma_n) strictly decreases
    across the probes (the divergence witness); ``weight_decreasing``
    reports whether |gamma_n**k * F(gamma_n)| is eventually strictly
    decreasing (the vanishing-weight witness).
    """

    rows: tuple[ProbeRow, ...]
    f_gamma_decreasing: bool
    weight_decreasing: bool


def gamma_sequence_probe(
    h_values: Sequence[float],
    f: Integrand,
    F: FFunction,
    indices: Sequence[int] | None = None,
) -> ProbeReport:
    """Tabulate gamma_n = Phi(h_n) with its decay witnesses, k = ``F.k``.

    ``indices`` supplies the sequence positions n (default 1, 2, ...),
    which matter for the n * gamma_n**k column when the probe samples a
    sparse subset of a longer sequence.  All h values must be positive.
    """
    k = F.k
    hs = [float(h) for h in h_values]
    if not hs:
        raise DomainError("probe needs at least one h value")
    if any(not h > 0.0 for h in hs):
        raise DomainError("all probe h values must be positive")
    ns = list(indices) if indices is not None else list(range(1, len(hs) + 1))
    whole, words = _whole()
    for n in ns:  # a bool, a string or None is no number
        if not whole(real_number(n, "index", DomainError)):
            raise DomainError(f"index {words}, got {n}")
    if len(ns) != len(hs):
        raise DomainError("indices and h_values must have equal length")

    rows = []
    for n, h in zip(ns, hs):
        gamma = capital_phi(f, h)
        fg = f_eval(F, gamma)
        rows.append(ProbeRow(n, h, gamma, fg, n * gamma**k, gamma**k * fg))
    gammas, f_gammas = [r.gamma for r in rows], [r.f_gamma for r in rows]
    _, f_gamma_decreasing, weight_decreasing = decay_witnesses(gammas, f_gammas, k)
    return ProbeReport(tuple(rows), f_gamma_decreasing, weight_decreasing)
