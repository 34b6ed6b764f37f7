"""mvfix benchmark: one workload, timed end to end or traced per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload certify_interval --seed 1 --seconds 20 --trace 0

The workload's config is made from ``--seed``.  The run calls
``mvfix.cli.main`` in this process, with stdout captured, over and over
for ``--seconds`` seconds, checks every call's output, and prints the
median of each metric.  ``--workload all`` measures the four workloads
one after another and prefixes each metric with its workload's name.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
plain and traced calls and reports per-layer call counts and self
times.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every output check passed.

See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import calibration
from spans import MAIN_SPAN, PHASE_TARGETS, SPAN_NAMES, SPANS, PhaseClock, Tracer, rebound
from workloads import WORKLOADS, Outcome, Workload, machine_rows

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_ROUNDS = 5

# Spans every workload enters; the others have no self time on some
# workloads, so only their counts are per-layer metrics.
SELF_TIME_SPANS = (
    "config.load_config",
    "config.build_map",
    "config.build_integrand",
    "maps.apply_map",
    "expr.eval_expr.in_build_map",
    "expr.eval_expr.in_apply_map",
    "sets1d.dist_point_set",
    "integrand.capital_phi",
    "ffunctions.f_eval",
    "cli.main",
)
# Layers whose summed self time every workload has.
SELF_TIME_LAYERS = ("sets1d", "expr")


def import_cli():
    if not (SRC / "mvfix" / "__init__.py").is_file():
        sys.exit(f"bench: no mvfix package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import mvfix.cli

    return mvfix.cli


def environment(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = done.stdout.strip() or commit
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "commit": commit, "seed": seed}


class Checker:
    """Checks each call's output and counts attempted and failed operations.

    An output equal to one already checked passes without being checked
    again.  Every operation of a call whose check fails counts as failed.
    """

    def __init__(self, workload: Workload, cfg: dict):
        self.workload, self.cfg = workload, cfg
        self.verified: Outcome | None = None
        self.problems: list[str] = []
        self.attempted = self.failed = 0

    def __call__(self, outcome: Outcome) -> None:
        operations = self.workload.operations(self.cfg)
        self.attempted += operations
        if outcome != self.verified:
            try:
                problems = self.workload.check(self.cfg, outcome)
            except (KeyError, ValueError, IndexError) as err:
                problems = [f"unreadable output: {err!r}"]
            if problems:
                self.problems.extend(p for p in problems if p not in self.problems)
                self.failed += operations
                return
            self.verified = outcome
        self.failed += self.workload.failed_operations(machine_rows(outcome.stdout))


class Runner:
    """Calls the CLI on one workload's config, inside a scratch directory."""

    def __init__(self, cli, workload: Workload, cfg: dict, work: Path):
        self.cli, self.workload, self.cfg = cli, workload, cfg
        cfg_path = work / "config.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        self.trace_csv = work / "out" / "trace.csv"
        self.argv = [workload.command, str(cfg_path)]
        if workload.command == "solve":
            self.argv += ["--out", str(work / "out")]
        self.check = Checker(workload, cfg)

    def call(self, main=None) -> float:
        """One checked CLI call; returns its wall time in seconds."""
        main = main or self.cli.main
        self.trace_csv.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = main(self.argv)
            wall = time.perf_counter() - start
        csv_text = self.trace_csv.read_text() if self.trace_csv.exists() else None
        self.check(Outcome(code, out.getvalue(), err.getvalue(), csv_text))
        return wall


def rounds(seconds: float):
    """Round numbers until ``seconds`` have passed and MIN_ROUNDS are done."""
    deadline = time.perf_counter() + seconds
    n = 0
    while n < MIN_ROUNDS or time.perf_counter() < deadline:
        yield n
        n += 1


def end_to_end(runner: Runner, seconds: float) -> dict:
    runner.call()  # warm-up
    tracemalloc.start()
    runner.call()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    # Each call's times are scaled by the CPU speed measured around it.
    loops = [calibration.loop_seconds()]
    walls, setups, cores, raw_walls = [], [], [], []
    for _ in rounds(seconds):
        clock = PhaseClock()
        with rebound(PHASE_TARGETS, clock.wrap):
            raw_walls.append(runner.call())
        loops.append(calibration.loop_seconds())
        scale = 2 * calibration.REFERENCE_S / (loops[-2] + loops[-1])
        walls.append(raw_walls[-1] * scale)
        setups.append(clock.setup_seconds() * scale)
        cores.append(clock.core_seconds() * scale)
    print(f"{len(walls)} timed calls; medians of {len(walls)} samples each; unscaled "
          f"wall_s {statistics.median(raw_walls)!r}, calibration loop "
          f"{statistics.median(loops)!r} s (reference {calibration.REFERENCE_S} s)")
    check = runner.check
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (runner.workload.operations(runner.cfg) / statistics.median(cores), "1/s"),
        "peak_mem_mb": (peak / 1e6, "MB"),
        "ok_share": (1.0 - check.failed / check.attempted, "share"),
    }


def per_layer(runner: Runner, seconds: float) -> dict:
    runner.call()  # warm-up
    plain, traced, tracers = [], [], []
    for _ in rounds(seconds):
        plain.append(runner.call())
        tracer = Tracer()
        with rebound(SPANS, tracer.wrap, skip_missing=True) as skipped:
            traced.append(runner.call(tracer.wrap(runner.cli.main, MAIN_SPAN)))
        tracers.append(tracer)
    if skipped:
        print(f"spans not installed (names gone from mvfix): {', '.join(skipped)}")

    calls = dict(tracers[0].calls)
    if any(dict(t.calls) != calls for t in tracers):
        runner.check.problems.append("span call counts differ between traced calls")
    names = sorted(set(SPAN_NAMES) | set(calls))
    self_s = {n: statistics.median(t.self_s.get(n, 0.0) for t in tracers) for n in names}
    wall_plain, wall_traced = statistics.median(plain), statistics.median(traced)

    print(f"{len(traced)} traced and {len(plain)} plain calls; self times are medians")
    print(f"{'span':<36} {'calls':>10} {'self_s':>12} {'share':>7}")
    for n in names:
        print(f"{n:<36} {calls.get(n, 0):>10} {self_s[n]:>12.6f} {self_s[n] / wall_traced:>7.1%}")

    workload = runner.workload
    lookups = workload.operations(runner.cfg) * (2 if workload.command == "certify" else 1)
    metrics = {f"{n}.calls": (calls.get(n, 0), "count") for n in SPAN_NAMES}
    metrics.update({f"{n}.self_s": (self_s[n], "s") for n in SELF_TIME_SPANS})
    for layer in SELF_TIME_LAYERS:
        layer_s = sum(s for n, s in self_s.items() if n.startswith(layer + "."))
        metrics[f"{layer}.self_s"] = (layer_s, "s")
    metrics["maps.image_cache_hit_ratio"] = (
        1.0 - calls.get("maps.apply_map", 0) / lookups, "ratio")
    phi_calls = max(calls.get("integrand.capital_phi", 0), 1)
    metrics["integrand.evals_per_phi"] = (
        calls.get("expr.eval_expr.in_capital_phi", 0) / phi_calls, "ratio")
    metrics["trace_overhead_share"] = ((wall_traced - wall_plain) / wall_plain, "share")
    return metrics


def run_workload(cli, workload: Workload, seed: int, seconds: int, trace: int):
    """Measure one workload; returns its metrics and its output checker."""
    print(f"workload {workload.name}: {workload.why}")
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as work:
        runner = Runner(cli, workload, workload.config(seed), Path(work))
        metrics = (per_layer if trace else end_to_end)(runner, seconds)
    for problem in runner.check.problems:
        print(f"CHECK FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    return metrics, runner.check


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be at least 0")

    cli = import_cli()
    print("env " + json.dumps(environment(args.seed)))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, checks = {}, []
    for name in names:
        found, check = run_workload(cli, WORKLOADS[name], args.seed, args.seconds, args.trace)
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + key: value for key, value in found.items()})
        checks.append(check)
    correct = not any(check.problems for check in checks)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(check.attempted for check in checks),
        "failed": sum(check.failed for check in checks),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
