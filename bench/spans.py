"""Spans around calls into mvfix, installed from outside the package.

A span is installed by rebinding a function's name in the module that
calls it (``mvfix.analysis.hausdorff`` and so on), so the package itself
is unchanged.  Two recorders share that mechanism:

* ``PhaseClock`` times the few top-level calls of one CLI run (config
  building, ``certify``, ``iterate``) in call order.  It adds a handful of
  clock reads per run, so the end-to-end timings use it.
* ``Tracer`` wraps every layer boundary listed in ``SPANS`` and keeps,
  per span, the call count and the self time: the span's duration minus
  the time its child spans cover.  It adds a clock read pair to every
  layer call, so it runs separately from the end-to-end timings.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict

# Calls that build the problem before the first pair or step.
SETUP_CALLS = ("load_config", "build_map", "build_ffunction", "build_integrand")
# Calls that do the sweep or the iteration.
CORE_CALLS = ("certify", "iterate", "validate_trace")

# eval_expr is named after the span that called it: maps and integrand each
# call it both while building and while computing.
EVAL_IN_MAPS = {
    "config.build_map": "expr.eval_expr.in_build_map",
    "maps.apply_map": "expr.eval_expr.in_apply_map",
}
EVAL_IN_INTEGRAND = {
    "config.build_integrand": "expr.eval_expr.in_build_integrand",
    "integrand.capital_phi": "expr.eval_expr.in_capital_phi",
}
EVAL_ELSEWHERE = "expr.eval_expr.elsewhere"

# (calling module, name it calls, span name) for every layer boundary.
SPANS = [
    ("mvfix.cli", "load_config", "config.load_config"),
    ("mvfix.cli", "build_map", "config.build_map"),
    ("mvfix.cli", "build_integrand", "config.build_integrand"),
    ("mvfix.cli", "certify", "analysis.certify"),
    ("mvfix.cli", "iterate", "solver.iterate"),
    ("mvfix.cli", "validate_trace", "solver.validate_trace"),
    ("mvfix.cli", "write_trace_csv", "cli.write_trace_csv"),
    ("mvfix.cli", "f_eval", "ffunctions.f_eval"),
    ("mvfix.analysis", "apply_map", "maps.apply_map"),
    ("mvfix.analysis", "hausdorff", "sets1d.hausdorff"),
    ("mvfix.analysis", "excess", "sets1d.excess"),
    ("mvfix.analysis", "dist_point_set", "sets1d.dist_point_set"),
    ("mvfix.analysis", "capital_phi", "integrand.capital_phi"),
    ("mvfix.analysis", "f_eval", "ffunctions.f_eval"),
    ("mvfix.solver", "apply_map", "maps.apply_map"),
    ("mvfix.solver", "dist_point_set", "sets1d.dist_point_set"),
    ("mvfix.solver", "nearest_point", "sets1d.nearest_point"),
    ("mvfix.solver", "capital_phi", "integrand.capital_phi"),
    ("mvfix.solver", "f_eval", "ffunctions.f_eval"),
    ("mvfix.sets1d", "excess", "sets1d.excess"),
    ("mvfix.sets1d", "dist_point_set", "sets1d.dist_point_set"),
    ("mvfix.sets1d", "nearest_point", "sets1d.nearest_point"),
    ("mvfix.maps", "eval_expr", EVAL_IN_MAPS),
    ("mvfix.integrand", "eval_expr", EVAL_IN_INTEGRAND),
]
# The phase clock wraps the top-level calls where cli calls them.
PHASE_TARGETS = [("mvfix.cli", name, name) for name in SETUP_CALLS + CORE_CALLS]
# The benchmark calls cli.main itself and wraps that call in this span.
MAIN_SPAN = "cli.main"

SPAN_NAMES = sorted(
    {MAIN_SPAN}
    | {name for _, _, name in SPANS if isinstance(name, str)}
    | set(EVAL_IN_MAPS.values())
    | set(EVAL_IN_INTEGRAND.values())
)


@contextlib.contextmanager
def rebound(targets, wrap, skip_missing=False):
    """Rebind each (module, attribute, name) to ``wrap(function, name)``.

    The original functions are restored on exit.  With ``skip_missing``
    a name the module no longer has is left out instead of raising; the
    skipped targets are yielded so the caller can report them.
    """
    saved, skipped = [], []
    try:
        for module_name, attr, name in targets:
            module = importlib.import_module(module_name)
            if skip_missing and not hasattr(module, attr):
                skipped.append(f"{module_name}.{attr}")
                continue
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, wrap(fn, name))
        yield skipped
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


class PhaseClock:
    """Start and duration of each top-level call of one CLI run, in order."""

    def __init__(self):
        self.events: list[tuple[str, float, float]] = []

    def wrap(self, fn, name):
        events = self.events

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                events.append((name, start, time.perf_counter() - start))

        return timed

    def setup_seconds(self) -> float:
        """Time in the set-up calls that began before the first core call."""
        first_core = min((s for n, s, _ in self.events if n in CORE_CALLS), default=float("inf"))
        return sum(d for n, s, d in self.events if n in SETUP_CALLS and s < first_core)

    def core_seconds(self) -> float:
        return sum(d for n, _, d in self.events if n in CORE_CALLS)


class Tracer:
    """Per-span call counts and self times, aggregated in memory."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span name, time covered by child spans]

    def wrap(self, fn, name):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = time.perf_counter
        by_parent = name if isinstance(name, dict) else None

        def span(*args, **kwargs):
            if by_parent is None:
                span_name = name
            else:
                span_name = by_parent.get(stack[-1][0] if stack else None, EVAL_ELSEWHERE)
            frame = [span_name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[span_name] += 1
                self_s[span_name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return span
