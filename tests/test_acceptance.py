"""Acceptance suite: one test per release criterion.

Each test prints a single ``[criterion NN] name: PASS|FAIL`` line and
fails with the collected reasons, so the suite output doubles as the
acceptance checklist.  Tolerances are pinned in the assertions and are
not configurable.
"""

import json
import math
import time

import numpy as np

from mvfix import (
    CompactSet,
    ConstantIntegrand,
    FFunction,
    FixedPointFound,
    apply_map,
    build_example_map,
    certify,
    dist_point_set,
    f_eval,
    gamma_sequence_probe,
    hausdorff,
    interval_map,
    is_fixed_point,
    iterate,
    run_worked_example,
    singleton_map,
    validate_trace,
)
from mvfix.cli import main, read_trace_csv

from helpers import random_compact_set, random_points_in

LN2 = math.log(2.0)
LN4 = math.log(4.0)
UNIT = CompactSet.interval(0.0, 1.0)


def _verdict(num, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num:02d}] {name}: {status}")
    assert not failures, "; ".join(failures)


def _check(failures, cond, msg):
    if not cond:
        failures.append(msg)


def test_criterion_01_worked_example_arithmetic(capsys):
    failures = []
    start = time.perf_counter()
    report = run_worked_example()
    elapsed = time.perf_counter() - start
    lines = {line.key: line for line in report.lines}

    _check(failures, lines["excess_t0_t1"].value == 0.25, "one-sided distance not exactly 0.25")
    _check(
        failures,
        abs(lines["alpha_min_excess"].value - 0.25) <= 1e-12,
        "linear threshold not 0.25 within 1e-12",
    )
    tau_ex = lines["tau_bound_excess"].value
    _check(failures, abs(tau_ex - LN4) <= 1e-9, "one-sided tau bound not ln 4 within 1e-9")
    _check(failures, tau_ex < 1.39, "tau bound not inside the published (0, 1.39) window")
    _check(failures, lines["hausdorff_t0_t1"].value == 0.5, "two-sided distance not 0.5")
    _check(
        failures,
        abs(lines["tau_bound_hausdorff"].value - LN2) <= 1e-9,
        "two-sided tau bound not ln 2 within 1e-9",
    )
    _check(
        failures,
        "DISCREPANCY" in lines["hausdorff_t0_t1"].note,
        "two-sided value not labeled as a discrepancy",
    )
    _check(failures, report.passed, "audit reports overall failure")
    _check(failures, elapsed < 1.0, f"audit took {elapsed:.3f}s, budget is 1s")

    exit_code = main(["paper-demo"])
    out = capsys.readouterr().out
    _check(failures, exit_code == 0, f"paper-demo exited {exit_code}")
    _check(failures, "MATCH" in out, "report lacks MATCH labels")
    _check(failures, "DISCREPANCY" in out, "report lacks DISCREPANCY labels")
    _verdict(1, "worked example arithmetic with labeled conventions", failures)


def test_criterion_02_hausdorff_against_sampling_oracle():
    failures = []
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        a, b = sorted(rng.uniform(-10.0, 10.0, 2))
        c, d = sorted(rng.uniform(-10.0, 10.0, 2))
        A, B = CompactSet.interval(a, b), CompactSet.interval(c, d)
        endpoint = max(abs(a - c), abs(b - d))
        # independent oracle: clamp distances over dense grids, both ways
        ga = np.linspace(a, b, 100_000)
        gb = np.linspace(c, d, 100_000)
        oracle = max(
            np.max(np.maximum.reduce([c - ga, ga - d, np.zeros_like(ga)])),
            np.max(np.maximum.reduce([a - gb, gb - b, np.zeros_like(gb)])),
        )
        worst = max(worst, abs(hausdorff(A, B) - oracle), abs(endpoint - oracle))
    _check(failures, worst <= 1e-9, f"worst oracle deviation {worst:g} exceeds 1e-9")

    axiom_rng = np.random.default_rng(77)
    for _ in range(1000):
        A = random_compact_set(axiom_rng)
        B = random_compact_set(axiom_rng)
        C = random_compact_set(axiom_rng)
        if abs(hausdorff(A, B) - hausdorff(B, A)) > 1e-12:
            failures.append("symmetry violated")
            break
        if hausdorff(A, A) != 0.0:
            failures.append("identity violated")
            break
        if hausdorff(A, C) > hausdorff(A, B) + hausdorff(B, C) + 1e-12:
            failures.append("triangle inequality violated")
            break
    _verdict(2, "hausdorff endpoint formula and metric axioms", failures)


def test_criterion_03_member_distance_bounded_by_hausdorff():
    failures = []
    rng = np.random.default_rng(3)
    violations = 0
    for _ in range(1000):
        A = random_compact_set(rng)
        B = random_compact_set(rng)
        bound = hausdorff(A, B) + 1e-12
        for a in random_points_in(A, rng, 100):
            if dist_point_set(a, B) > bound:
                violations += 1
    _check(failures, violations == 0, f"{violations} member-distance violations")
    _verdict(3, "member distance bounded by hausdorff distance", failures)


def test_criterion_04_certifier_closed_forms(tmp_path, capsys):
    failures = []
    report = certify(
        singleton_map(UNIT, "x/2"),
        FFunction("log"),
        ConstantIntegrand(1.0),
        grid_size=101,
        random_pairs=1000,
        seed=42,
    )
    _check(
        failures,
        report.tau_star is not None and abs(report.tau_star - LN2) <= 1e-9,
        f"tau_star {report.tau_star} not ln 2 within 1e-9",
    )

    identity = certify(singleton_map(UNIT, "x"), FFunction("log"), ConstantIntegrand(1.0))
    _check(failures, identity.tau_star == 0.0, f"identity tau_star {identity.tau_star} != 0")

    cfg = tmp_path / "identity.json"
    cfg.write_text(json.dumps({"domain": [[0.0, 1.0]], "map": {"kind": "singleton", "f": "x"}}))
    code = main(["certify", str(cfg)])
    capsys.readouterr()
    _check(failures, code == 3, f"identity certify exited {code}, expected 3")
    _verdict(4, "certifier closed-form oracle and violation exit", failures)


def _halving_trace():
    return iterate(singleton_map(UNIT, "x/2"), 1.0, tol=0.0, max_iter=60)


def test_criterion_05_decay_chain_exactness():
    failures = []
    trace = _halving_trace()
    F = FFunction("log")
    ns = np.flatnonzero(trace.gamma > 0.0).tolist()
    gammas = trace.gamma[ns].tolist()
    _check(failures, len(ns) >= 40, f"only {len(ns)} positive steps, need 40")
    base = f_eval(F, gammas[0])
    worst = max(abs(f_eval(F, g) - (base - n * LN2)) for n, g in zip(ns, gammas))
    _check(failures, worst <= 1e-9, f"decay chain deviates by {worst:g} > 1e-9")

    good = validate_trace(trace, F, LN2)
    _check(failures, good.decay_chain_ok, "validator rejects the exact modulus ln 2")
    bad = validate_trace(trace, F, 0.8)
    _check(failures, not bad.decay_chain_ok, "validator accepts the overclaimed tau 0.8")
    _check(
        failures,
        bad.first_failure == 1,
        f"first failure at n = {bad.first_failure}, expected 1",
    )
    _verdict(5, "per-step decay chain at the exact modulus", failures)


def test_criterion_06_tail_rate_bound():
    failures = []
    trace = _halving_trace()
    verdict = validate_trace(trace, FFunction("log", k=0.5), LN2)
    _check(failures, verdict.n1 is not None, "validator found no tail start n1")
    _check(failures, verdict.rate_bound_ok, "validator reports the rate bound broken")
    if verdict.n1 is not None:
        n1 = max(verdict.n1, 1)
        tail = [(n, g) for n, g in enumerate(trace.gamma.tolist()) if n >= n1 and g > 0.0]
        _check(
            failures,
            all(g <= n**-2.0 + 1e-12 for n, g in tail),
            "gamma_n exceeds n**-2 + 1e-12 on the tail",
        )
        weights = [n * math.sqrt(g) for n, g in tail]
        _check(
            failures,
            all(b < a for a, b in zip(weights, weights[1:])),
            "n * sqrt(gamma_n) not strictly decreasing beyond n1",
        )
    _verdict(6, "tail rate bound and decreasing weight", failures)


def test_criterion_07_limit_probes_on_closed_form_steps():
    failures = []
    start = time.perf_counter()
    gamma = lambda n: 1.0 / (4.0 * n * (n + 1.0))  # phi = 1, so Phi(h) = h
    F = FFunction("log", k=0.5)
    deep = f_eval(F, gamma(1e5))
    _check(failures, deep < -20.0, f"F(gamma) at n = 1e5 is {deep:g}, not below -20")
    g6 = gamma(1e6)
    weight = abs(math.sqrt(g6) * f_eval(F, g6))
    _check(failures, weight < 1e-2, f"weight at n = 1e6 is {weight:g}, not below 1e-2")

    ns = [10**e for e in range(0, 7)]
    probe = gamma_sequence_probe(
        [gamma(n) for n in ns], ConstantIntegrand(1.0), F, indices=ns
    )
    _check(failures, probe.f_gamma_decreasing, "F(gamma_n) not decreasing across the probe")
    _check(failures, probe.weight_decreasing, "weight not decreasing across the probe")
    elapsed = time.perf_counter() - start
    _check(failures, elapsed < 1.0, f"probes took {elapsed:.3f}s, budget is 1s")
    _verdict(7, "divergence and vanishing-weight probes", failures)


def test_criterion_08_value_set_limit_and_fixed_point():
    failures = []
    T = build_example_map()
    n = 10**7
    direct = CompactSet.interval(1.0 / (4.0 * n), (n + 1.0) / (2.0 * n))
    via_map = apply_map(T, 1.0 / n)
    _check(
        failures,
        hausdorff(direct, via_map) <= 1e-12,
        "closed-form iterate set disagrees with the map evaluation",
    )
    dist = hausdorff(direct, CompactSet.interval(0.0, 0.5))
    _check(failures, dist < 1e-6, f"set distance at n = 1e7 is {dist:g}, not below 1e-6")
    _check(failures, is_fixed_point(T, 0.0, 0.0), "0 not recognized as a fixed point")
    _verdict(8, "value-set limit toward [0, 1/2] and fixed point 0", failures)


def test_criterion_09_solver_convergence():
    failures = []
    trace = iterate(interval_map(UNIT, "x/3", "x/2"), 1.0, tol=1e-12)
    ok = isinstance(trace.outcome, FixedPointFound)
    _check(failures, ok, f"outcome {type(trace.outcome).__name__}, expected a fixed point")
    if ok:
        _check(failures, trace.outcome.step <= 50, f"took {trace.outcome.step} steps > 50")
        _check(failures, abs(trace.outcome.x) < 1e-11, f"final x {trace.outcome.x:g} too far")
    _check(
        failures,
        all(
            abs(x - nxt) == d and d == dist_point_set(x, apply_map(trace.map, x))
            for x, nxt, d in zip(
                trace.x.tolist(), trace.next_point.tolist(), trace.d_to_set.tolist()
            )
        ),
        "a step's selection is not exactly the nearest point",
    )

    shifted = iterate(singleton_map(CompactSet.interval(0.0, 3.0), "x/2 + 1"), 0.0, tol=1e-12)
    ok = isinstance(shifted.outcome, FixedPointFound)
    _check(failures, ok, "shifted map did not reach a fixed point")
    if ok:
        _check(
            failures,
            abs(shifted.outcome.x - 2.0) < 1e-11,
            f"shifted map converged to {shifted.outcome.x}, not 2",
        )
    _verdict(9, "nearest-point iteration convergence", failures)


def test_criterion_10_determinism_and_round_trip(tmp_path, capsys):
    failures = []
    cfg = tmp_path / "problem.json"
    cfg.write_text(
        json.dumps(
            {
                "domain": [[0.0, 1.0]],
                "map": {"kind": "singleton", "f": "x/2"},
                "seed": 42,
                "x0": 1.0,
                "tol": 0.0,
                "max_iter": 60,
                "tau": LN2,
            }
        )
    )

    def machine_text(raw):
        start = raw.index("---machine---")
        end = raw.index("---end---") + len("---end---")
        return raw[start:end]

    main(["certify", str(cfg)])
    first = capsys.readouterr().out
    main(["certify", str(cfg)])
    second = capsys.readouterr().out
    _check(
        failures,
        machine_text(first) == machine_text(second) and "tau_star=" in machine_text(first),
        "repeated certify runs differ",
    )

    out = tmp_path / "reports"
    main(["solve", str(cfg), "--out", str(out)])
    capsys.readouterr()
    rows = read_trace_csv(out / "trace.csv")
    trace = _halving_trace()
    F = FFunction("log")
    columns = (trace.x, trace.next_point, trace.d_to_set, trace.gamma)
    same = len(rows) == len(trace.x) and all(
        row == (n, x, nxt, d, gamma, f_eval(F, gamma), n * math.sqrt(gamma))
        for n, (row, x, nxt, d, gamma) in enumerate(zip(rows, *(c.tolist() for c in columns)))
    )
    _check(failures, same, "trace CSV does not round-trip losslessly")
    _verdict(10, "deterministic reports and lossless trace round-trip", failures)
