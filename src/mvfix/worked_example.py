"""Built-in worked example: T(x) = [x/4, (x+1)/2] on [0, 1].

This map comes with a set of published reference values; the audit below
recomputes each one and labels it MATCH or DISCREPANCY.  The published
distance between T(0) = [0, 1/2] and T(1) = [1/4, 1] is 1/4, which is
the one-sided excess of T(0) over T(1); the two-sided Hausdorff distance
is 1/2.  Every figure that depends on this choice is therefore reported
under both conventions, with the one-sided value flagged as the match
and the two-sided value flagged as the discrepancy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .analysis import evaluate_pair
from .ffunctions import FFunction, f_eval
from .integrand import ConstantIntegrand, capital_phi
from .maps import MultiMap, apply_map, interval_map, is_fixed_point
from .sets1d import CompactSet, excess, hausdorff
from .solver import ProbeReport, gamma_sequence_probe

__all__ = ["AuditLine", "WorkedExampleReport", "build_example_map", "run_worked_example"]

LN2 = math.log(2.0)
LN4 = math.log(4.0)

EXCESS_MATCH = "MATCH under excess mode"


@dataclass(frozen=True)
class AuditLine:
    """One audited quantity with its published counterpart, if any."""

    key: str  # machine-block key
    label: str  # human-readable left-hand side
    value: float
    published: str | None  # published figure as printed in the source, or None
    matches: bool
    note: str


@dataclass(frozen=True)
class WorkedExampleReport:
    lines: tuple[AuditLine, ...]
    probe: ProbeReport
    set_limit_rows: tuple[tuple[int, float], ...]
    passed: bool


def build_example_map() -> MultiMap:
    return interval_map(CompactSet.interval(0.0, 1.0), "x/4", "(x+1)/2")


def run_worked_example() -> WorkedExampleReport:
    """Recompute every reference value of the worked example.

    Returns an audit whose ``passed`` flag is True exactly when each
    derived quantity equals its expected value at the documented
    tolerance and each published figure is reproduced under the
    convention stated in its note.
    """
    T = build_example_map()
    F = FFunction("log")
    f = ConstantIntegrand(1.0)
    T0, T1, T2 = (apply_map(T, x) for x in (0.0, 1.0, 0.5))  # T2 = T(x_2), x_n = 1/n
    pair = {mode: evaluate_pair(T, F, f, 0.0, 1.0, mode) for mode in ("excess", "hausdorff")}
    # published step sizes h_n = 1/(4 n (n+1)) with phi = 1, the excess of
    # T(x_{n+1}) over T(x_n); the two-sided distance is twice that
    probe = gamma_sequence_probe([1.0 / (4.0 * n * (n + 1.0)) for n in range(1, 9)], f, F)
    # the iterate value sets T(1/n) approach T(0) = [0, 1/2]
    set_limit_rows = tuple(
        (n, hausdorff(apply_map(T, 1.0 / n), T0)) for n in (10, 10**3, 10**5, 10**7)
    )

    # far-tail witnesses of the two decay limits, via the closed form h_n
    def gamma_at(n: float) -> float:
        return capital_phi(f, 1.0 / (4.0 * n * (n + 1.0)))

    g6 = gamma_at(1e6)
    rows = [
        # key, label, value, published figure, test of the value, note
        ("excess_t0_t1", "excess(T0, T1)", excess(T0, T1), "1/4",
         lambda v: v == 0.25, EXCESS_MATCH),
        ("hausdorff_t0_t1", "hausdorff(T0, T1)", hausdorff(T0, T1), "1/4",
         lambda v: v == 0.5, "DISCREPANCY: the published figure equals the one-sided excess;"
         " the two-sided distance is 0.5"),
        ("alpha_min_excess", "smallest admissible linear ratio alpha on (0, 1)",
         pair["excess"].phi_h / pair["excess"].phi_m, "1/4",
         lambda v: abs(v - 0.25) <= 1e-12, EXCESS_MATCH),
        ("tau_bound_excess", "tau upper bound from the pair (0, 1)", pair["excess"].margin,
         "(0, 1.39)", lambda v: abs(v - LN4) <= 1e-9 and v < 1.39,
         "MATCH under excess mode: the bound is ln 4 ~ 1.3863"),
        ("tau_bound_hausdorff", "tau upper bound from the pair (0, 1), two-sided",
         pair["hausdorff"].margin, None, lambda v: abs(v - LN2) <= 1e-9,
         "two-sided counterpart: ln 2 ~ 0.6931"),
        ("step_excess_n1", "excess(T(x_2), T(x_1)) with x_n = 1/n", excess(T2, T1), "1/8",
         lambda v: v == 0.125, EXCESS_MATCH),
        ("step_hausdorff_n1", "hausdorff(T(x_2), T(x_1)) with x_n = 1/n", hausdorff(T2, T1),
         "1/8", lambda v: v == 0.25,
         "DISCREPANCY: the two-sided distance is 1/(2 n (n+1)), not 1/(4 n (n+1))"),
        ("gamma_1", "gamma_1 = Phi(h_1)", probe.rows[0].gamma, "1/8",
         lambda v: v == 0.125, "MATCH"),
        ("f_gamma_at_n1e5", "F(gamma_n) at n = 1e5", f_eval(F, gamma_at(1e5)), None,
         lambda v: v < -20.0, "diverges toward -inf (threshold -20)"),
        ("weight_at_n1e6", "|gamma_n**0.5 * F(gamma_n)| at n = 1e6",
         abs(g6**0.5 * f_eval(F, g6)), None,
         lambda v: v < 1e-2, "vanishing weight (threshold 1e-2)"),
        ("set_limit_n1e7", "hausdorff(T(1/n), [0, 1/2]) at n = 1e7", set_limit_rows[-1][1],
         "limit 0", lambda v: v < 1e-6,
         "MATCH: consistent with the published convergence claim"),
        ("fixed_point_zero", "0 belongs to T(0)", float(is_fixed_point(T, 0.0, 0.0)),
         "0 is a fixed point", lambda v: v == 1.0, "MATCH"),
    ]
    lines = tuple(
        AuditLine(key, label, value, published, test(value), note)
        for key, label, value, published, test, note in rows
    )
    return WorkedExampleReport(
        lines=lines,
        probe=probe,
        set_limit_rows=set_limit_rows,
        passed=all(line.matches for line in lines)
        and probe.f_gamma_decreasing
        and probe.weight_decreasing,
    )
