"""The benchmark's workloads and the checks on their outputs.

Each workload is one mvfix CLI call on a config made from the seed.  The
checks compare the call's exit code, report and trace file with the
independent values in ``reference.py``.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference

INTERVAL_MAP = {"kind": "interval_endpoints", "lo": "x/4", "hi": "(x+1)/2"}
FINITE_MAP = {"kind": "finite_set", "members": ["x/4", "x/3", "(x+1)/2", "0.9*x"]}
CONSTANT_PHI = {"kind": "constant", "c": 1.0}
EXPRESSION_PHI = {"kind": "expression", "source": "1 + t^2", "grid_max": 2.0}
TRACE_HEADER = ["n", "x", "next", "d_to_set", "gamma", "F_gamma", "n_gamma_k"]


@dataclass(frozen=True)
class Outcome:
    """What one CLI call left behind."""

    exit_code: int
    stdout: str
    stderr: str
    trace_csv: str | None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # the mvfix subcommand
    config: Callable[[int], dict]  # seed -> config JSON object
    check: Callable[[dict, Outcome], list[str]]  # -> problems found

    def operations(self, cfg: dict) -> int:
        """Pairs (certify) or steps (solve) one call attempts."""
        return cfg["max_iter"] if self.command == "solve" else pair_count(cfg)

    def failed_operations(self, rows: dict[str, str]) -> int:
        """Pairs or steps that the report records as an MvfixError."""
        if self.command == "solve":
            return int(rows["outcome"] == "error")
        return int(rows["error_count"])


def pair_count(cfg: dict) -> int:
    """Grid pairs i < j plus the random pairs of a certify config."""
    g = cfg["grid_size"]
    return g * (g - 1) // 2 + cfg["random_pairs"]


def machine_rows(report: str) -> dict[str, str]:
    """The key=value rows between the report's ---machine--- fences."""
    lines = report.splitlines()
    start, end = lines.index("---machine---"), lines.index("---end---")
    return dict(line.split("=", 1) for line in lines[start + 1 : end])


def _close(problems: list[str], what: str, got: float, want: float, tol: float) -> None:
    if not abs(got - want) <= tol:
        problems.append(f"{what} = {got!r}, reference {want!r} (tolerance {tol:g})")


def _certify_check(hm, phi, tau_exact: float | None = None):
    def check(cfg: dict, out: Outcome) -> list[str]:
        problems = []
        if out.exit_code != 0:
            problems.append(f"exit code {out.exit_code}, expected 0")
        if out.stderr:
            problems.append(f"stderr: {out.stderr.strip()}")
        rows = machine_rows(out.stdout)
        evaluated, errors = int(rows["evaluated_pairs"]), int(rows["error_count"])
        attempted = pair_count(cfg)
        if evaluated + errors != attempted:
            problems.append(f"{evaluated} evaluated + {errors} errors != {attempted} pairs")

        x, y = reference.sweep_pairs(cfg["grid_size"], cfg["random_pairs"], cfg["seed"])
        _, _, margin = reference.margins(hm, phi, x, y)
        tau = float(rows["tau_star"])
        _close(problems, "tau_star", tau, float(np.nanmin(margin)), 1e-9)
        vacuous = int(np.isnan(margin).sum())
        if int(rows["vacuous_pairs"]) != vacuous:
            problems.append(f"vacuous_pairs = {rows['vacuous_pairs']}, reference {vacuous}")
        if tau_exact is not None:
            _close(problems, "tau_star vs exact", tau, tau_exact, 1e-9)

        wx, wy = float(rows["worst_x"]), float(rows["worst_y"])
        (h,), (m,), (wmargin,) = reference.margins(hm, phi, [wx], [wy])
        _close(problems, "worst_h", float(rows["worst_h"]), float(h), 1e-12)
        _close(problems, "worst_m", float(rows["worst_m"]), float(m), 1e-12)
        _close(problems, "worst_margin", float(rows["worst_margin"]), float(wmargin), 1e-9)
        return problems

    return check


def _solve_check(cfg: dict, out: Outcome) -> list[str]:
    problems = []
    if out.exit_code != 2:
        problems.append(f"exit code {out.exit_code}, expected 2 (budget exhausted)")
    if out.stderr:
        problems.append(f"stderr: {out.stderr.strip()}")
    rows = machine_rows(out.stdout)
    steps = cfg["max_iter"]
    want = {"outcome": "max_iter_reached", "steps": str(steps),
            "decay_chain_ok": "true", "rate_bound_ok": "true"}
    for key, value in want.items():
        if rows.get(key) != value:
            problems.append(f"{key} = {rows.get(key)}, expected {value}")
    x_end = reference.solve_recurrence(cfg["x0"], steps)
    if float(rows["final_x"]) != x_end:
        problems.append(f"final_x = {rows['final_x']}, recurrence gives {x_end!r}")

    table = list(csv.reader(io.StringIO(out.trace_csv or "")))
    if not table or table[0] != TRACE_HEADER:
        problems.append("trace.csv missing or has the wrong header")
    elif len(table) - 1 != steps:
        problems.append(f"trace.csv has {len(table) - 1} rows, expected {steps}")
    elif int(table[-1][0]) != steps - 1 or float(table[-1][2]) != x_end:
        problems.append(f"trace.csv last row {table[-1][:3]}, recurrence gives {x_end!r}")
    return problems


def _certify_config(map_spec, integrand, grid_size, random_pairs, mode="hausdorff"):
    def config(seed: int) -> dict:
        return {"domain": [[0.0, 1.0]], "map": map_spec, "f": {"kind": "log"},
                "integrand": integrand, "grid_size": grid_size,
                "random_pairs": random_pairs, "seed": seed, "mode": mode}

    return config


def _solve_config(seed: int) -> dict:
    return {"domain": [[0.0, 1.0]], "map": {"kind": "singleton", "f": "x - x^2"},
            "f": {"kind": "log"}, "tau": 1e-9, "tol": 0.0, "max_iter": 10_000,
            "x0": 0.4 + 0.2 * random.Random(seed).random()}


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "certify_interval",
            "interval images, closed-form Phi: the O(grid^2) pair sweep in sets1d "
            "and the analysis loop dominates; most PairEvaluations held",
            "certify",
            _certify_config(INTERVAL_MAP, CONSTANT_PHI, 301, 1000),
            _certify_check(reference.interval_hm, reference.phi_identity, math.log(2.0)),
        ),
        Workload(
            "certify_expr_phi",
            "expression integrand 1 + t^2: about 80% quadrature and expr, so Phi work "
            "shows and sweep work barely does",
            "certify",
            _certify_config(INTERVAL_MAP, EXPRESSION_PHI, 101, 200),
            _certify_check(reference.interval_hm, reference.phi_one_plus_t2),
        ),
        Workload(
            "certify_finite_excess",
            "4-point images in excess mode: gap midpoints, one-sided excess and four "
            "map expressions per image, unlike interval images",
            "certify",
            _certify_config(FINITE_MAP, CONSTANT_PHI, 201, 1000, mode="excess"),
            _certify_check(reference.finite_excess_hm, reference.phi_identity),
        ),
        Workload(
            "solve_singleton",
            "10,000 nearest-point steps on {x - x^2} plus trace validation and CSV: "
            "solver and uncached map calls, no pair sweep",
            "solve",
            _solve_config,
            _solve_check,
        ),
    ]
}
