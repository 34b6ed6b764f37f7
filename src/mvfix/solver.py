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
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

from .errors import DomainError, InsufficientTraceError, MvfixError
from .ffunctions import FFunction, eventually_strictly_decreasing, f_eval
from .integrand import ConstantIntegrand, Integrand, capital_phi, integrand_label
from .maps import MultiMap, _nearest_step, _value_set
from .sets1d import CompactSet

__all__ = [
    "TraceStep",
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


@dataclass(frozen=True)
class TraceStep:
    """One completed transition x -> next_point inside T(x)."""

    n: int
    x: float
    value_set: CompactSet
    next_point: float
    d_to_set: float
    gamma: float


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


@dataclass(frozen=True)
class IterationTrace:
    """Recorded steps of one iteration, held as parallel columns.

    Entry n of ``x``, ``next_point``, ``d_to_set`` and ``gamma`` belongs
    to step n, so a run stores four tuples rather than one object per
    step; ``x[n + 1]`` is ``next_point[n]``.  ``map`` is the iterated map.
    ``steps`` gives the same rows as a tuple of :class:`TraceStep`, built
    on first access; each value set is evaluated again from ``x[n]``,
    with the same bits as during the run.
    """

    x: tuple[float, ...]
    next_point: tuple[float, ...]
    d_to_set: tuple[float, ...]
    gamma: tuple[float, ...]
    map: MultiMap
    outcome: Outcome
    params: TraceParams

    @cached_property
    def steps(self) -> tuple[TraceStep, ...]:
        columns = zip(self.x, self.next_point, self.d_to_set, self.gamma)
        return tuple(
            TraceStep(n, x, _value_set(self.map, x), nxt, d, gamma)
            for n, (x, nxt, d, gamma) in enumerate(columns)
        )

    def decay_columns(self, F: FFunction) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """``(F(gamma_n), n * gamma_n**k)`` for every step, k = ``F.k``, computed once per F.

        A gamma that underflowed to 0 gets ``F(gamma) = -inf``: F is
        defined only for alpha > 0, and (F2) makes -inf its limit at 0
        for every kind.  :func:`validate_trace` and the CLI's trace CSV
        both read these columns.
        """
        memo = self.__dict__.setdefault("_decay_memo", {})
        if F not in memo:
            k = F.k
            memo[F] = (
                tuple(-math.inf if g == 0.0 else f_eval(F, g) for g in self.gamma),
                tuple(n * g**k for n, g in enumerate(self.gamma)),
            )
        return memo[F]


@dataclass(frozen=True)
class TraceVerdict:
    """Validation outcome for one trace against F, tau and F's exponent k = ``F.k``.

    ``per_step_margins`` holds the telescoped slack
    (F(gamma_0) - n * tau) - F(gamma_n) per recorded step; the decay chain
    is intact when every slack is >= -1e-9.  ``n1`` is the start of the
    longest trace suffix on which n * gamma_n**k stays <= 1 and is
    nonincreasing (None when even the last step exceeds 1); the rate
    bound gamma_n <= n**(-1/k) is then checked on that tail.
    """

    decay_chain_ok: bool
    first_failure: int | None
    per_step_margins: tuple[float, ...]
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
    are kept in every case.  A step is one call of a nearest-point closure
    built once for the map (no value set for interval and singleton maps)
    and one call of :func:`capital_phi`.
    """
    if not tol >= 0.0:
        raise DomainError(f"tolerance must be >= 0, got {tol}")
    if not (isinstance(max_iter, numbers.Integral) and max_iter >= 1):
        raise DomainError(f"max_iter must be an integer >= 1, got {max_iter}")
    if not T.domain.contains(x0):
        raise DomainError(f"starting point {x0} lies outside the domain")

    params = TraceParams(tol=tol, max_iter=max_iter, integrand=integrand_label(f))
    xs: list[float] = []
    nexts: list[float] = []
    ds: list[float] = []
    gammas: list[float] = []

    def finish(outcome: Outcome) -> IterationTrace:
        return IterationTrace(tuple(xs), tuple(nexts), tuple(ds), tuple(gammas), T, outcome, params)

    # x0 is checked above and every later x by the domain check below, so
    # the step skips apply_map's own check
    in_domain = T.domain.contains
    nearest = _nearest_step(T)
    x = x0
    for n in range(max_iter):
        try:
            nxt, d = nearest(x)
            if d <= tol:
                return finish(FixedPointFound(x, n))
            gamma = capital_phi(f, d)
        except MvfixError as err:
            return finish(IterationError(str(err), x))
        if not math.isfinite(gamma):
            return finish(
                IterationError(f"Phi(d) is not finite at step {n}, d = {d!r}: {gamma}", x)
            )
        xs.append(x)
        nexts.append(nxt)
        ds.append(d)
        gammas.append(gamma)
        if not in_domain(nxt):
            return finish(
                IterationError(f"iterate left the domain at step {n}: x = {nxt!r}", nxt)
            )
        x = nxt
    return finish(MaxIterReached(x))


def validate_trace(trace: IterationTrace, F: FFunction, tau: float) -> TraceVerdict:
    """Check the decay chain, tail rate bound, and Cauchy envelope.

    Needs at least two recorded steps with gamma > 0 and a finite
    ``tau > 0``.  The rate bound and the envelope use F's exponent
    k = ``F.k``.  All comparisons use the step's own index n, with the
    first positive-gamma step as the baseline of the chain.
    """
    if not 0.0 < tau < math.inf:
        raise DomainError(f"tau must be {'finite' if tau > 0.0 else 'positive'}, got {tau}")
    k = F.k
    recorded = [n for n, gamma in enumerate(trace.gamma) if gamma > 0.0]
    if len(recorded) < 2:
        raise InsufficientTraceError(
            f"need at least 2 steps with positive gamma, found {len(recorded)}"
        )
    f_gamma, n_gamma_k = trace.decay_columns(F)

    n0 = recorded[0]
    base = f_gamma[n0]
    margins = []
    first_failure = None
    for n in recorded:
        slack = (base - (n - n0) * tau) - f_gamma[n]
        margins.append(slack)
        if first_failure is None and slack < -DECAY_SLACK:
            first_failure = n
    decay_ok = first_failure is None

    n1 = _tail_start(recorded, [n_gamma_k[n] for n in recorded])
    rate_ok = True
    rate_first_failure = None
    if n1 is None:
        rate_ok = False
    else:
        for n in recorded:
            if n < max(n1, 1):
                continue
            if trace.gamma[n] > n ** (-1.0 / k) + RATE_SLACK:
                rate_ok = False
                rate_first_failure = n
                break

    cauchy = None
    if n1 is not None:
        last_n = recorded[-1]
        cauchy = sum(i ** (-1.0 / k) for i in range(max(n1, 1), last_n + 1))

    return TraceVerdict(
        decay_chain_ok=decay_ok,
        first_failure=first_failure,
        per_step_margins=tuple(margins),
        n1=n1,
        rate_bound_ok=rate_ok,
        rate_first_failure=rate_first_failure,
        cauchy_tail_bound=cauchy,
    )


def _tail_start(recorded: list[int], weights: list[float]) -> int | None:
    # longest suffix on which the weight stays <= 1 (with slack) and never
    # increases; returns the step index n at its start
    if weights[-1] > 1.0 + RATE_SLACK:
        return None
    i = len(weights) - 1
    while (
        i > 0
        and weights[i - 1] >= weights[i]
        and weights[i - 1] <= 1.0 + RATE_SLACK
    ):
        i -= 1
    return recorded[i]


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
    if len(ns) != len(hs):
        raise DomainError("indices and h_values must have equal length")

    rows = []
    for n, h in zip(ns, hs):
        gamma = capital_phi(f, h)
        fg = f_eval(F, gamma)
        rows.append(ProbeRow(n, h, gamma, fg, n * gamma**k, gamma**k * fg))
    f_gammas = [r.f_gamma for r in rows]
    weights = [abs(r.gamma_k_f_gamma) for r in rows]
    return ProbeReport(
        rows=tuple(rows),
        f_gamma_decreasing=all(b < a for a, b in zip(f_gammas, f_gammas[1:])),
        weight_decreasing=eventually_strictly_decreasing(weights),
    )
