import functools
import math
import re
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    iterate_scalar,
    random_asts,
    outcome,
    validate_trace_scalar,
    verdict_bits,
    write_trace_csv_scalar,
)
from mvfix import (
    BinOp,
    Call,
    CompactSet,
    ConstantIntegrand,
    DomainError,
    ExponentialIntegrand,
    InvariantError,
    FFunction,
    FixedPointFound,
    InsufficientTraceError,
    IterationError,
    MaxIterReached,
    MultiMap,
    Num,
    PowerIntegrand,
    Var,
    apply_map,
    check_f2_f3,
    dist_point_set,
    domain_grid,
    expression_integrand,
    finite_set_map,
    gamma_sequence_probe,
    hausdorff,
    interval_map,
    is_fixed_point,
    iterate,
    nearest_point,
    parse_expr,
    singleton_map,
    table_map,
    validate_trace,
)
from mvfix import cli
from mvfix.cli import read_trace_csv, write_trace_csv

UNIT = CompactSet.interval(0.0, 1.0)
LOG = FFunction("log")


def halving_trace():
    T = singleton_map(UNIT, "x/2")
    return iterate(T, 1.0, tol=0.0, max_iter=60)


class TestIterate:
    def test_immediate_fixed_point(self):
        T = interval_map(UNIT, "x/4", "(x+1)/2")
        trace = iterate(T, 0.3, tol=0.0)
        assert trace.outcome == FixedPointFound(0.3, 0)
        assert len(trace.x) == len(trace.gamma) == 0

    def test_halving_orbit_is_exact(self):
        trace = halving_trace()
        assert isinstance(trace.outcome, MaxIterReached)
        assert len(trace.x) == 60
        assert trace.x.tolist() == [2.0 ** (-n) for n in range(60)]
        assert trace.next_point.tolist() == [2.0 ** (-n - 1) for n in range(60)]
        assert trace.d_to_set.tolist() == trace.next_point.tolist()
        assert trace.gamma.tolist() == trace.d_to_set.tolist()  # unit constant integrand

    def test_steps_chain_together(self):
        trace = halving_trace()
        assert trace.x[1:].tobytes() == trace.next_point[:-1].tobytes()
        assert np.shares_memory(trace.x, trace.next_point)  # one buffer: x0, then the next points

    def test_selection_is_nearest(self):
        T = interval_map(UNIT, "x/3", "x/2")
        trace = iterate(T, 1.0, tol=1e-12)
        for x, nxt, d in zip(trace.x.tolist(), trace.next_point.tolist(), trace.d_to_set.tolist()):
            S = apply_map(T, x)
            assert nxt == nearest_point(x, S)
            assert abs(x - nxt) == d
            assert d == dist_point_set(x, S)

    def test_interval_contraction_converges(self):
        T = interval_map(UNIT, "x/3", "x/2")
        trace = iterate(T, 1.0, tol=1e-12)
        assert isinstance(trace.outcome, FixedPointFound)
        assert trace.outcome.step <= 50
        assert abs(trace.outcome.x) < 1e-11

    def test_found_point_verifies_as_fixed(self):
        T = interval_map(UNIT, "x/3", "x/2")
        trace = iterate(T, 1.0, tol=1e-12)
        assert isinstance(trace.outcome, FixedPointFound)
        assert is_fixed_point(T, trace.outcome.x, trace.params.tol)

    def test_shifted_target(self):
        # T(x) = {x/2 + 1} on [0, 3] has fixed point 2
        T = singleton_map(CompactSet.interval(0.0, 3.0), "x/2 + 1")
        trace = iterate(T, 0.0, tol=1e-12)
        assert isinstance(trace.outcome, FixedPointFound)
        assert abs(trace.outcome.x - 2.0) < 1e-11

    def test_gamma_monotone_for_contraction(self):
        trace = halving_trace()
        gammas = trace.gamma.tolist()
        assert all(b < a for a, b in zip(gammas, gammas[1:]))

    def test_step_distance_bounded_by_image_hausdorff(self):
        # D(x_{n+1}, T(x_{n+1})) <= H(T(x_n), T(x_{n+1})) since
        # x_{n+1} is a member of T(x_n)
        T = interval_map(UNIT, "x/3", "x/2")
        trace = iterate(T, 1.0, tol=1e-12)
        sets = [apply_map(T, x) for x in trace.x.tolist()]
        for a, b, d in zip(sets, sets[1:], trace.d_to_set[1:].tolist()):
            assert d <= hausdorff(a, b) + 1e-12

    def test_domain_escape_is_reported(self):
        T = singleton_map(CompactSet.interval(0.0, 1.5), "x + 1")
        trace = iterate(T, 0.5, tol=0.0, max_iter=10)
        assert isinstance(trace.outcome, IterationError)
        assert trace.outcome.last_x == 2.5
        assert len(trace.x) == 2

    @pytest.mark.parametrize(
        "f, x0, steps, detail",
        [
            ("x/2", 10.0, 0, "Phi(d) is not finite at step 0, d = 5.0: inf"),
            ("2*x", 1.0, 1, "Phi(d) is not finite at step 1, d = 2.0: inf"),
        ],
    )
    def test_overflowing_gamma_is_reported(self, f, x0, steps, detail):
        T = singleton_map(CompactSet.interval(0.0, 100.0), f)
        trace = iterate(T, x0, tol=0.0, max_iter=40, f=ConstantIntegrand(1e308))
        assert len(trace.x) == steps
        assert np.isfinite(trace.gamma).all()
        assert trace.outcome == IterationError(detail, 2.0 * x0 if steps else x0)

    def test_start_outside_domain_rejected(self):
        with pytest.raises(DomainError):
            iterate(singleton_map(UNIT, "x/2"), 2.0)

    def test_parameter_validation(self):
        T = singleton_map(UNIT, "x/2")
        with pytest.raises(DomainError):
            iterate(T, 1.0, tol=-1.0)
        with pytest.raises(DomainError):
            iterate(T, 1.0, max_iter=0)

    # a bool is no number here, as in the config
    @pytest.mark.parametrize(
        "value, words",
        [
            (2.5, "must be an integer >= 1, got 2.5"),
            (math.nan, "must be an integer >= 1, got nan"),
            (math.inf, "must be an integer >= 1, got inf"),
            (True, "must be a number, got True"),
            (False, "must be a number, got False"),
        ],
    )
    def test_max_iter_must_be_an_integer(self, value, words):
        with pytest.raises(DomainError) as err:
            iterate(singleton_map(UNIT, "x/2"), 1.0, max_iter=value)
        assert str(err.value) == f"max_iter {words}"

    def test_nan_tolerance_rejected(self):
        # a NaN tolerance would compare false at every step and run to max_iter
        with pytest.raises(DomainError, match=r"^tol must be >= 0, got nan$"):
            iterate(singleton_map(UNIT, "x/2"), 1.0, tol=math.nan)

    def test_infinite_tolerance_rejected(self):
        # d <= inf would stop at step 0 with a non-fixed point called fixed
        with pytest.raises(DomainError, match=r"^tol must be finite, got inf$"):
            iterate(singleton_map(UNIT, "x/2"), 0.5, tol=math.inf)

    def test_determinism(self):
        assert halving_trace() == halving_trace()

    def test_params_recorded(self):
        trace = halving_trace()
        assert trace.params.tol == 0.0
        assert trace.params.max_iter == 60
        assert "1" in trace.params.integrand


class TestValidateTrace:
    def test_halving_decay_chain_at_exact_modulus(self):
        # F(gamma_n) = -(n + 1) ln 2, so tau = ln 2 telescopes exactly
        verdict = validate_trace(halving_trace(), LOG, math.log(2.0))
        assert verdict.decay_chain_ok
        assert verdict.first_failure is None
        assert np.abs(verdict.per_step_margins).max() <= 1e-13

    def test_halving_rate_tail(self):
        verdict = validate_trace(halving_trace(), FFunction("log", k=0.5), math.log(2.0))
        assert verdict.n1 == 3
        assert verdict.rate_bound_ok
        assert verdict.rate_first_failure is None
        assert verdict.cauchy_tail_bound == pytest.approx(
            sum(i**-2.0 for i in range(3, 60)), rel=1e-12
        )

    def test_overclaimed_modulus_fails_immediately(self):
        # requesting tau = 0.8 > ln 2 breaks the chain at the first step
        verdict = validate_trace(halving_trace(), LOG, 0.8)
        assert not verdict.decay_chain_ok
        assert verdict.first_failure == 1

    def test_margins_grow_with_slack(self):
        # a smaller tau leaves more room at every step
        verdict = validate_trace(halving_trace(), LOG, 0.5)
        assert verdict.decay_chain_ok
        assert (np.diff(verdict.per_step_margins) > 0.0).all()

    def test_margins_are_a_read_only_float64_array(self):
        verdict = validate_trace(halving_trace(), LOG, 0.5)
        margins = verdict.per_step_margins
        assert margins.dtype == np.float64 and margins.shape == (60,)
        assert not margins.flags.writeable
        with pytest.raises(ValueError):
            margins[0] = 1.0

    def test_verdicts_compare_margins_byte_wise(self):
        verdict = validate_trace(halving_trace(), LOG, 0.5)
        again = validate_trace(halving_trace(), LOG, 0.5)
        assert verdict == again and hash(verdict) == hash(again)
        assert verdict != validate_trace(halving_trace(), LOG, 0.4)
        # margins equal as floats but not as bytes: 0.0 against -0.0
        zero, negative_zero = np.zeros(2), np.array([0.0, -0.0])
        assert replace(verdict, per_step_margins=zero) != replace(
            verdict, per_step_margins=negative_zero
        )
        assert replace(verdict, n1=None) != verdict

    def test_infinite_tau_rejected(self):
        # 0 * inf would put NaN in the first margin
        with pytest.raises(DomainError, match=r"^tau must be finite, got inf$"):
            validate_trace(halving_trace(), LOG, math.inf)

    def test_short_trace_rejected(self):
        T = singleton_map(UNIT, "x/2")
        trace = iterate(T, 1.0, tol=0.0, max_iter=1)
        with pytest.raises(InsufficientTraceError):
            validate_trace(trace, LOG, math.log(2.0))

    def test_parameter_validation(self):
        trace = halving_trace()
        with pytest.raises(DomainError):
            validate_trace(trace, LOG, 0.0)
        with pytest.raises(DomainError, match=r"^tau must be positive, got nan$"):
            validate_trace(trace, LOG, math.nan)
        # k is F's own, so its range is checked where F is made
        with pytest.raises(InvariantError, match=r"^k must lie in \(0, 1\), got 1.0$"):
            FFunction("log", k=1.0)


class TestGammaProbe:
    def test_reciprocal_product_sequence(self):
        hs = [1.0 / (4 * n * (n + 1)) for n in range(1, 9)]
        report = gamma_sequence_probe(hs, ConstantIntegrand(1.0), LOG)
        assert report.rows[0].gamma == 0.125
        assert report.rows[0].f_gamma == pytest.approx(-math.log(8.0), abs=1e-15)
        assert report.f_gamma_decreasing
        assert report.weight_decreasing

    @pytest.mark.parametrize(
        "kind,k", [("log", 0.5), ("neg_inv_sqrt", 0.5), ("neg_inv_sqrt", 0.25)]
    )
    def test_witnesses_match_the_f2_f3_probe(self, kind, k):
        # Phi(h) = h for the unit constant integrand, so the probe sees check_f2_f3's alphas
        F = FFunction(kind, k)
        alphas = [10.0 ** (-2 * i) for i in range(1, 9)]
        report = gamma_sequence_probe(alphas, ConstantIntegrand(1.0), F)
        verdict = check_f2_f3(F)
        assert [r.gamma for r in report.rows] == alphas
        assert verdict.f2_detail.startswith("F(alpha) strictly") == report.f_gamma_decreasing
        assert ("eventually strictly" in verdict.f3_detail) == report.weight_decreasing

    def test_constant_sequence_fails_both(self):
        report = gamma_sequence_probe([0.5] * 6, ConstantIntegrand(1.0), LOG)
        assert not report.f_gamma_decreasing
        assert not report.weight_decreasing

    def test_sparse_indices(self):
        ns = [10, 1000, 100000]
        hs = [1.0 / (4 * n * (n + 1)) for n in ns]
        report = gamma_sequence_probe(hs, ConstantIntegrand(1.0), LOG, indices=ns)
        for row, n in zip(report.rows, ns):
            assert row.n == n
            # n * sqrt(gamma) = n / (2 sqrt(n (n + 1))) -> 1/2 from below
            assert row.n_gamma_k == pytest.approx(
                n / (2.0 * math.sqrt(n * (n + 1.0))), rel=1e-12
            )
        assert report.rows[-1].n_gamma_k < 0.5

    def test_input_validation(self):
        with pytest.raises(DomainError):
            gamma_sequence_probe([], ConstantIntegrand(1.0), LOG)
        with pytest.raises(DomainError):
            gamma_sequence_probe([0.0], ConstantIntegrand(1.0), LOG)
        with pytest.raises(DomainError):
            gamma_sequence_probe([0.5], ConstantIntegrand(1.0), LOG, indices=[1, 2])
        with pytest.raises(InvariantError, match=r"^k must lie in \(0, 1\), got 0.0$"):
            gamma_sequence_probe([0.5], ConstantIntegrand(1.0), FFunction("log", k=0.0))

    # "a" and None once ended in a raw TypeError, and True ran as n = 1
    @pytest.mark.parametrize(
        "index,words",
        [
            ("a", "must be a number, got 'a'"),
            (None, "must be a number, got None"),
            (True, "must be a number, got True"),
            (1.5, "must be an integer, got 1.5"),
            (math.nan, "must be an integer, got nan"),
            (math.inf, "must be an integer, got inf"),
            (10**400, "must be a number, got an integer too large for a float"),
        ],
        ids=repr,
    )
    def test_a_non_whole_index_is_refused(self, index, words):
        with pytest.raises(DomainError, match=f"^index {re.escape(words)}$"):
            gamma_sequence_probe([0.5, 0.25], ConstantIntegrand(1.0), LOG, indices=[1, index])

    def test_whole_float_indices_are_taken(self):
        report = gamma_sequence_probe([0.5, 0.25], ConstantIntegrand(1.0), LOG, indices=[1, 2.0])
        assert [r.n for r in report.rows] == [1, 2]


TRACE_MAPS = {
    "singleton": lambda: singleton_map(UNIT, "x - x^2"),
    "interval": lambda: interval_map(UNIT, "x/3", "x/2"),
    "finite_set": lambda: finite_set_map(UNIT, ["x/4", "x/3", "(x+1)/2", "0.9*x"]),
    "one_member": lambda: finite_set_map(UNIT, ["x - x^2"]),
    # 0.1 maps to [0.7, 0.8], whose keys are missing: the run ends in a DomainError
    "table": lambda: table_map(
        UNIT,
        [
            (0.6, [(0.3, 0.3)]),
            (0.3, [(0.15, 0.2)]),
            (0.2, [(0.1, 0.1)]),
            (0.1, [(0.7, 0.8)]),
            (0.15, [(0.05, 0.06), (0.5, 0.6)]),
            (0.0, [(0.0, 0.0)]),
        ],
    ),
    # from 0.5 .. 1 the orbit halves into the gap and leaves the domain
    "gapped": lambda: singleton_map(CompactSet([(0.0, 0.2), (0.5, 1.0)]), "x/2"),
    "leaves": lambda: singleton_map(UNIT, "min(2*x, 1.5)"),
    # divides by zero once the orbit reaches 0.123456789
    "eval_error": lambda: singleton_map(UNIT, "x/2 + 0*(1/(x - 0.123456789))"),
    "wide": lambda: singleton_map(CompactSet.interval(0.0, 10.0), "x/2"),
    # lo exceeds hi by 1e-13, within ENDPOINT_SLACK: every image collapses to its midpoint
    "near_tie": lambda: interval_map(UNIT, "x/2 + 1e-13", "x/2"),
    # unvalidated: the endpoints invert beyond ENDPOINT_SLACK once x < 0.2
    "inverted": lambda: MultiMap(
        UNIT, "interval_endpoints", lo=parse_expr("x/2"), hi=parse_expr("x - 0.1")
    ),
}
TRACE_INTEGRANDS = {
    "constant": lambda: ConstantIntegrand(1.0),
    # Phi(d) = 1e308 * d is inf once d > 1.8
    "constant_inf": lambda: ConstantIntegrand(1e308),
    # Phi(d) = d^51 / 51 underflows to 0 for small d
    "power_underflow": lambda: PowerIntegrand(p=50.0),
    "power": lambda: PowerIntegrand(p=-0.5, scale=2.0),
    "expression": lambda: expression_integrand("1 + t^2", grid_max=2.0),
}
START_POINTS = [0.0, 0.1, 0.246913578, 0.5, 0.6, 0.9, 1.0, 10.0]


@functools.cache
def trace_map(name):
    return TRACE_MAPS[name]()


@functools.cache
def trace_integrand(name):
    return TRACE_INTEGRANDS[name]()


def spy_value_sets(monkeypatch) -> list:
    """Record every ``maps._value_set`` call and every ``CompactSet`` built."""
    from mvfix import maps

    calls = []
    value_set, init = maps._value_set, CompactSet.__init__
    monkeypatch.setattr(maps, "_value_set", lambda T, x: calls.append(x) or value_set(T, x))
    monkeypatch.setattr(CompactSet, "__init__", lambda S, raw: calls.append(S) or init(S, raw))
    return calls


def assert_trace_matches_oracles(T, x0, tol, max_iter, f, F, tau):
    """Columnar trace, verdict and CSV equal the one-step-at-a-time oracles, bit for bit."""
    trace = outcome(iterate, T, x0, tol, max_iter, f)
    oracle = outcome(iterate_scalar, T, x0, tol, max_iter, f)
    if isinstance(oracle, tuple):  # the start was rejected
        assert trace == oracle
        return None
    # bytes tell -0.0 from 0.0
    assert [s.n for s in oracle.steps] == list(range(len(trace.x)))
    for name in ("x", "next_point", "d_to_set", "gamma"):
        column = np.array([getattr(s, name) for s in oracle.steps], dtype=float)
        assert getattr(trace, name).tobytes() == column.tobytes(), name
    value_sets = [apply_map(trace.map, x) for x in trace.x.tolist()]
    assert repr(value_sets) == repr([s.value_set for s in oracle.steps])
    assert repr(trace.outcome) == repr(oracle.outcome)
    assert trace.params == oracle.params
    verdict = outcome(validate_trace, trace, F, tau)
    expected = outcome(validate_trace_scalar, oracle, F, tau)
    assert verdict == expected
    assert repr(verdict_bits(verdict)) == repr(verdict_bits(expected))
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        write_trace_csv(got, trace, F)
        write_trace_csv_scalar(want, oracle, F)
        assert got.read_bytes() == want.read_bytes()
    return trace


class TestColumnarTraceAgainstScalarLoop:
    @pytest.mark.parametrize(
        "map_name, integrand, x0, tol, expected",
        [
            ("interval", "constant", 1.0, 1e-6, FixedPointFound),
            ("interval", "power_underflow", 0.5, 0.0, MaxIterReached),
            ("wide", "constant_inf", 10.0, 0.0, IterationError),
            ("leaves", "constant", 0.6, 0.0, IterationError),
            ("gapped", "expression", 0.9, 0.0, IterationError),
            ("gapped", "power", 0.1, 1e-9, FixedPointFound),
            ("eval_error", "expression", 0.246913578, 0.0, IterationError),
            ("table", "constant", 0.6, 0.0, IterationError),
            ("finite_set", "power", 0.3, 0.0, MaxIterReached),
            ("one_member", "expression", 0.5, 0.0, MaxIterReached),
            ("near_tie", "constant", 1.0, 0.0, MaxIterReached),
            ("inverted", "expression", 0.6, 0.0, IterationError),
        ],
    )
    @pytest.mark.parametrize("f_kind", ["log", "log_plus_linear", "neg_inv_sqrt"])
    def test_probe(self, map_name, integrand, x0, tol, expected, f_kind):
        trace = assert_trace_matches_oracles(
            trace_map(map_name), x0, tol, 60, trace_integrand(integrand),
            FFunction(f_kind, 0.5), 0.5,
        )
        assert isinstance(trace.outcome, expected)

    def test_probes_reach_their_edge_cases(self):
        underflow = iterate(trace_map("interval"), 0.5, 0.0, 60, trace_integrand("power_underflow"))
        assert 0.0 in underflow.gamma and underflow.gamma[0] > 0.0
        overflow = iterate(trace_map("wide"), 10.0, 0.0, 60, trace_integrand("constant_inf"))
        assert overflow.outcome.detail.startswith("Phi(d) is not finite at step 0")
        for name, detail in [
            ("leaves", "iterate left the domain"),
            ("gapped", "iterate left the domain"),
            ("eval_error", "division by zero"),
            ("table", "no table entry"),
            (
                "inverted",
                "map endpoints inverted at x = 0.10000000000000003: "
                "lo = 0.05000000000000002, hi = 2.7755575615628914e-17",
            ),
        ]:
            x0 = 0.246913578 if name == "eval_error" else 0.6
            trace = iterate(trace_map(name), x0, 0.0, 60, trace_integrand("constant"))
            assert detail in trace.outcome.detail and len(trace.x) >= 1, name
        near_tie = iterate(trace_map("near_tie"), 1.0, 0.0, 60, trace_integrand("constant"))
        sets = [apply_map(near_tie.map, x) for x in near_tie.x.tolist()]
        assert all(len(S.intervals) == 1 for S in sets)
        assert all(lo == hi for S in sets for lo, hi in S.intervals)

    @pytest.mark.parametrize(
        "map_name", ["singleton", "interval", "near_tie", "one_member", "finite_set"]
    )
    def test_steps_build_no_value_set(self, map_name, monkeypatch):
        calls = spy_value_sets(monkeypatch)
        T = TRACE_MAPS[map_name]()  # a fresh map: its orbit loop is built under the spies
        trace = iterate(T, 0.5, 0.0, 60, trace_integrand("constant"))
        assert len(trace.x) >= 10
        assert calls == []

    @pytest.mark.parametrize(
        "members, x0, expected",
        [
            # x - 1/4 and x + 1/4 tie at every step: the smaller point wins
            (["x + 0.25", "x - 0.25", "x/10 + 1"], 0.75, [0.5, 0.25, 0.0]),
            # equal members merge into one point
            (["0.9*x", "x/2 + 1", "0.9*x"], 0.5, [0.45, 0.9 * 0.45, 0.9 * (0.9 * 0.45)]),
        ],
    )
    def test_tied_members_take_the_value_set(self, members, x0, expected, monkeypatch):
        calls = spy_value_sets(monkeypatch)
        T = finite_set_map(CompactSet.interval(-1.0, 2.0), members)
        trace = assert_trace_matches_oracles(T, x0, 0.0, 3, ConstantIntegrand(1.0), LOG, 0.5)
        assert trace.next_point.tolist() == expected
        assert len(calls) >= 2 * len(trace.x)  # oracle and orbit alike

    @given(
        map_name=st.sampled_from(sorted(TRACE_MAPS)),
        integrand=st.sampled_from(sorted(TRACE_INTEGRANDS)),
        f_kind=st.sampled_from(["log", "log_plus_linear", "neg_inv_sqrt"]),
        x0=st.one_of(st.sampled_from(START_POINTS), st.floats(0.0, 1.0)),
        tol=st.sampled_from([0.0, 1e-9, 1e-6, 1e-3]),
        max_iter=st.integers(1, 80),
        tau=st.sampled_from([1e-9, 0.1, math.log(2.0), 2.0]),
        k=st.sampled_from([0.25, 0.5, 0.9]),
    )
    @settings(max_examples=200, deadline=None)
    def test_bit_for_bit(self, map_name, integrand, f_kind, x0, tol, max_iter, tau, k):
        assert_trace_matches_oracles(
            trace_map(map_name), x0, tol, max_iter, trace_integrand(integrand),
            FFunction(f_kind, k), tau,
        )

    def test_decay_columns_are_computed_once(self, monkeypatch):
        from mvfix import solver

        calls = []
        real_f_eval_array = solver.f_eval_array
        monkeypatch.setattr(
            solver, "f_eval_array", lambda F, g: calls.append(F) or real_f_eval_array(F, g)
        )
        trace = halving_trace()
        f_gamma, n_gamma_k = trace.decay_columns(LOG)
        assert all(a is b for a, b in zip(trace.decay_columns(LOG), (f_gamma, n_gamma_k)))
        validate_trace(trace, LOG, math.log(2.0))
        assert calls == [LOG]
        gammas = trace.gamma.tolist()
        assert f_gamma.tolist() == [math.log(g) for g in gammas]
        assert n_gamma_k.tolist() == [n * math.sqrt(g) for n, g in enumerate(gammas)]
        # an F of another kind or k gets its own columns
        assert trace.decay_columns(FFunction("log", 0.25))[1].tolist() == [
            n * g**0.25 for n, g in enumerate(gammas)
        ]
        assert trace.decay_columns(FFunction("neg_inv_sqrt"))[0].tolist() == [
            -1.0 / math.sqrt(g) for g in gammas
        ]
        assert calls == [LOG, FFunction("log", 0.25), FFunction("neg_inv_sqrt")]

    def test_columns_are_read_only(self):
        trace = iterate(trace_map("interval"), 0.5, 0.0, 200, trace_integrand("power_underflow"))
        columns = [trace.x, trace.next_point, trace.d_to_set, trace.gamma]
        for column in columns + list(trace.decay_columns(LOG)):
            assert column.dtype == np.float64
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1.0

    def test_equal_traces_compare_their_column_bytes(self):
        assert halving_trace() == halving_trace()
        assert halving_trace() != iterate(singleton_map(UNIT, "x/2"), 1.0, tol=0.0, max_iter=59)
        assert halving_trace() != iterate(singleton_map(UNIT, "x/2"), 0.5, tol=0.0, max_iter=60)
        assert hash(halving_trace()) == hash(halving_trace())

    def test_a_trace_is_not_equal_to_another_type(self):
        trace = halving_trace()
        assert trace.__eq__(trace.x) is NotImplemented
        assert trace != trace.x.tobytes() and trace != None  # noqa: E711


# a table orbit: step 0 moves by 2**-40, whose Phi(d) = d^51 / 51 is 0, then
# it halves, so gamma is positive from step 1 until it underflows again
LATE_ORBIT = [0.5, 0.5 - 2.0**-40] + [2.0**-k for k in range(2, 40)]
# from 0, gamma is 1 and then 1 + 2e-12: with k = 0.25 the weight 1 * gamma**k
# stays <= 1 + 1e-12, so n1 = 1, but gamma > 1**-4 + 1e-12 there
RATE_ORBIT = [0.0, 1.0, 2.0 + 2e-12]


def _orbit_map(domain, orbit):
    pairs = list(zip(orbit, orbit[1:])) + [(orbit[-1], orbit[-1])]
    return table_map(domain, [(a, [(b, b)]) for a, b in pairs])


def _deep(ast):
    """``ast`` inside 30 nested ``ln(exp(.))``, more than the 20 blocks CPython nests:
    each ``exp``'s try block holds only its own call, inside the orbit's loop too."""
    for _ in range(30):
        ast = Call("ln", (Call("exp", (ast,)),))
    return ast


GAPPED = CompactSet([(0.0, 0.3), (0.5, 1.0)])
# fixed probes of the generated orbit loop: (map, x0, tol, outcome type, detail)
ORBIT_PROBES = {
    "deep_exp": (
        lambda: MultiMap(UNIT, "singleton", members=(_deep(parse_expr("x/2 + 0.25")),)),
        1.0, 0.0, FixedPointFound, None,
    ),
    # sqrt(x - 0.3) = x has no real root: the orbit falls below 0.3, where the
    # innermost sqrt raises, 31 exp blocks down
    "deep_exp_error": (
        lambda: MultiMap(UNIT, "singleton", members=(_deep(parse_expr("sqrt(x - 0.3)")),)),
        1.0, 0.0, IterationError, "sqrt of negative value in 'sqrt(x - 0.3)'",
    ),
    "deep_interval": (
        lambda: MultiMap(
            GAPPED, "interval_endpoints",
            lo=_deep(parse_expr("x/3")), hi=_deep(parse_expr("x/2 - 0.1")),
        ),
        1.0, 0.0, IterationError, "iterate left the domain at step 0: x = 0.4",
    ),
    "leaves_the_gap": (
        lambda: singleton_map(GAPPED, "x - 0.15"), 1.0, 0.0, IterationError,
        "iterate left the domain at step 3",
    ),
    "near_tie": (lambda: interval_map(UNIT, "x/2 + 1e-13", "x/2"), 1.0, 0.0, MaxIterReached, None),
    "inverted": (
        lambda: MultiMap(
            UNIT, "interval_endpoints", lo=parse_expr("x/2"), hi=parse_expr("x - 0.1")
        ),
        0.6, 0.0, IterationError, "map endpoints inverted at x = 0.10000000000000003",
    ),
    "nan_member": (
        lambda: MultiMap(UNIT, "singleton", members=(Num(math.nan),)), 0.5, 0.0, IterationError,
        "interval endpoints must be finite, got (nan, nan)",
    ),
    "nan_in_a_finite_set": (
        lambda: MultiMap(UNIT, "finite_set", members=(parse_expr("x/2"), Num(math.nan))),
        0.5, 0.0, IterationError, "interval endpoints must be finite, got (nan, nan)",
    ),
    "fixed_point_within_tol": (
        lambda: singleton_map(UNIT, "x/2 + 0.25"), 1.0, 1e-6, FixedPointFound, None,
    ),
}


def _mix(c, a):
    """``c x + (1 - c) min(max(a, 0), 1)``, which maps [0, 1] into itself: longer orbits."""
    clamped = Call("min", (Call("max", (a, Num(0.0))), Num(1.0)))
    return BinOp("+", BinOp("*", Num(c), Var("x")), BinOp("*", Num(1.0 - c), clamped))


@st.composite
def orbit_maps(draw):
    """Unvalidated maps of every expression kind over one or two intervals, from random ASTs."""
    domain = draw(st.sampled_from([UNIT, GAPPED]))
    asts = random_asts(st.floats(0.0, 2.0))
    mixed = st.builds(_mix, st.floats(0.05, 0.95), asts)
    members = st.one_of(asts, mixed, mixed.map(_deep), st.just(Num(math.nan)))
    kind = draw(st.sampled_from(["singleton", "interval", "near_tie", "inverted", "finite_set"]))
    a = draw(members)
    if kind == "singleton":
        return MultiMap(domain, "singleton", members=(a,))
    if kind == "finite_set":
        more = draw(st.lists(members, min_size=1, max_size=3))
        return MultiMap(domain, "finite_set", members=(a, *more))
    if kind == "interval":
        return MultiMap(domain, "interval_endpoints", lo=a, hi=draw(members))
    # lo above hi by a gap within ENDPOINT_SLACK, or beyond it
    gap = 1e-13 if kind == "near_tie" else draw(st.sampled_from([2e-12, 1e-3, 0.5]))
    return MultiMap(domain, "interval_endpoints", lo=BinOp("+", a, Num(gap)), hi=a)


class TestGeneratedOrbitAgainstScalarLoop:
    """``iterate``, which runs each map's generated window loop, against ``iterate_scalar``."""

    @pytest.mark.parametrize("name", sorted(ORBIT_PROBES))
    def test_probe(self, name):
        make_map, x0, tol, expected, detail = ORBIT_PROBES[name]
        trace = assert_trace_matches_oracles(
            make_map(), x0, tol, 60, ConstantIntegrand(1.0), LOG, 0.5
        )
        assert isinstance(trace.outcome, expected)
        if detail is not None:
            assert trace.outcome.detail.startswith(detail)
        if tol > 0.0:
            assert trace.outcome.step > 0 and 0.0 < trace.d_to_set[-1] <= 1e-5

    @given(
        T=orbit_maps(),
        data=st.data(),
        tol=st.sampled_from([0.0, 1e-9, 1e-3, 0.1]),
        max_iter=st.integers(1, 40),
        integrand=st.sampled_from(["constant", "power", "expression"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_maps_bit_for_bit(self, T, data, tol, max_iter, integrand):
        x0 = data.draw(
            st.one_of(
                st.sampled_from(domain_grid(T.domain, 11).tolist()),
                st.floats(0.0, 1.0).filter(T.domain.contains),
            )
        )
        assert_trace_matches_oracles(
            T, x0, tol, max_iter, trace_integrand(integrand), LOG, 0.5
        )


class TestValidateTraceColumns:
    """The array validator against ``validate_trace_scalar`` where its edges lie."""

    @pytest.mark.parametrize(
        "case, T, x0, max_iter, f, F, tau, edge",
        [
            # weights rise to the end: n1 is the last recorded step
            ("n1_last", lambda: singleton_map(UNIT, "x/2"), 1.0, 4, "constant", LOG, 0.5,
             lambda v, rec: v.n1 == rec[-1] == 3),
            ("n1_first", lambda: _orbit_map(UNIT, LATE_ORBIT), 0.5, 100, "power_underflow", LOG,
             0.5, lambda v, rec: v.n1 == rec[0] == 1 and rec[-1] == 19),
            ("rate_failure", lambda: _orbit_map(CompactSet.interval(-10.0, 10.0), RATE_ORBIT),
             0.0, 10, "constant", FFunction("log", 0.25), 1e-12,
             lambda v, rec: v.decay_chain_ok and v.n1 == 1 and v.rate_first_failure == 1),
            ("underflow", lambda: singleton_map(UNIT, "0.9*x"), 0.5, 200, "power_underflow",
             LOG, 0.5, lambda v, rec: rec[0] == 0 and rec[-1] == 109),
            # F(gamma) falls by ln 2 per step, less than tau
            ("decay_failure", lambda: singleton_map(UNIT, "x/2"), 1.0, 60, "constant", LOG, 1.0,
             lambda v, rec: v.first_failure == 1 and v.rate_bound_ok),
            # past one and two _pointwise blocks and Cauchy chunks of 4,096
            ("long_4097", lambda: singleton_map(UNIT, "x - x^2"), 0.5, 4097, "constant",
             FFunction("log", 0.9), 1e-9, lambda v, rec: v.n1 == 3 and rec[-1] == 4096),
            ("long_8193", lambda: singleton_map(UNIT, "x - x^2"), 0.5, 8193, "constant",
             FFunction("log", 0.9), 1e-9, lambda v, rec: v.n1 == 3 and rec[-1] == 8192),
            # 2 * tau overflows: the margin is -inf, with no RuntimeWarning
            ("tau_overflow", lambda: singleton_map(UNIT, "x/2"), 0.5, 3, "constant", LOG, 1e308,
             lambda v, rec: v.first_failure == 1 and v.per_step_margins[-1] == -math.inf),
        ],
    )
    def test_edge(self, case, T, x0, max_iter, f, F, tau, edge):
        trace = assert_trace_matches_oracles(T(), x0, 0.0, max_iter, trace_integrand(f), F, tau)
        assert edge(validate_trace(trace, F, tau), np.flatnonzero(trace.gamma > 0.0)), case

    def test_one_step_is_too_short(self):
        T = singleton_map(UNIT, "x - x^2")
        trace = assert_trace_matches_oracles(T, 0.5, 0.0, 1, ConstantIntegrand(1.0), LOG, 0.5)
        assert len(trace.x) == 1
        with pytest.raises(InsufficientTraceError, match="found 1"):
            validate_trace(trace, LOG, 0.5)

    def test_an_error_at_step_0_leaves_empty_columns(self):
        trace = assert_trace_matches_oracles(
            trace_map("wide"), 10.0, 0.0, 60, trace_integrand("constant_inf"), LOG, 0.5
        )
        assert trace.outcome.detail.startswith("Phi(d) is not finite at step 0")
        for column in [trace.x, trace.next_point, trace.d_to_set, trace.gamma]:
            assert column.dtype == np.float64 and column.shape == (0,)
        assert all(c.shape == (0,) for c in trace.decay_columns(LOG))


def _jump_map(steps, leave=False):
    """x + 0.001 until step ``steps``, which moves by about 50.

    With ``leave`` the domain ends just past the small steps, so the long
    step also leaves it.
    """
    edge = (steps - 0.5) * 1e-3
    domain = CompactSet.interval(0.0, edge + 0.01 if leave else 1e3)
    return singleton_map(domain, f"x + 0.001 + 1e5 * max(x - {edge!r}, 0)")


# Phi is finite at d = 0.001 and fails at d = 50, one integrand per kind
FAILING_PHI = {
    "constant_inf": lambda: ConstantIntegrand(1e308),  # Phi = inf
    "power_overflow": lambda: PowerIntegrand(p=300.0),  # d^301 overflows: DomainError
    "exponential_overflow": lambda: ExponentialIntegrand(rate=800.0),  # expm1 overflows
    # phi is negative past t = 2, where the quadrature's nodes reach
    "expression_pole": lambda: expression_integrand("1/(2-t)", grid_max=1.0),
}
# steps around the edges of the Phi windows 1, 2, 4, ..., 1024
WINDOW_EDGES = [1, 2, 3, 4, 7, 8, 1023, 1024, 1025, 2047]


class TestPhiWindows:
    """Phi taken per window against ``iterate_scalar``, which takes it per step."""

    @pytest.mark.parametrize("steps", [0] + WINDOW_EDGES)
    @pytest.mark.parametrize("kind", sorted(FAILING_PHI))
    def test_failing_phi(self, kind, steps):
        f = FAILING_PHI[kind]()
        trace = assert_trace_matches_oracles(_jump_map(steps), 0.0, 0.0, 4000, f, LOG, 0.5)
        assert isinstance(trace.outcome, IterationError) and len(trace.x) == steps
        assert trace.outcome.last_x == (trace.next_point[-1] if steps else 0.0)

    @pytest.mark.parametrize("steps", [0, 8, 1024])
    @pytest.mark.parametrize("kind", sorted(FAILING_PHI))
    def test_failing_phi_on_the_step_that_leaves_the_domain(self, kind, steps):
        f = FAILING_PHI[kind]()
        trace = assert_trace_matches_oracles(_jump_map(steps, True), 0.0, 0.0, 4000, f, LOG, 0.5)
        assert len(trace.x) == steps and "left the domain" not in trace.outcome.detail
        # with a finite Phi the same step is recorded and leaves the domain
        left = iterate(_jump_map(steps, True), 0.0, 0.0, 4000, ConstantIntegrand(1.0))
        assert len(left.x) == steps + 1 and "left the domain" in left.outcome.detail

    def test_phi_failing_at_every_u(self):
        f = expression_integrand("1 + t^0.3", grid_max=1.0)
        trace = assert_trace_matches_oracles(trace_map("wide"), 1.0, 0.0, 4000, f, LOG, 0.5)
        assert len(trace.x) == 0 and "refinement depth exhausted" in trace.outcome.detail

    @pytest.mark.parametrize("max_iter", WINDOW_EDGES)
    def test_window_edges_without_failure(self, max_iter):
        trace = assert_trace_matches_oracles(
            _jump_map(4000), 0.0, 0.0, max_iter, trace_integrand("expression"), LOG, 0.5
        )
        assert isinstance(trace.outcome, MaxIterReached) and len(trace.x) == max_iter

    @staticmethod
    def phi_calls(monkeypatch):
        """The u of each scalar Phi call and the length of each batch call iterate makes."""
        from mvfix import solver

        scalar, batch = [], []
        real_scalar, real_batch = solver.capital_phi, solver.capital_phi_array

        def spy_scalar(f, u):
            scalar.append(u)
            return real_scalar(f, u)

        def spy_batch(f, u):
            batch.append(len(u))
            return real_batch(f, u)

        monkeypatch.setattr(solver, "capital_phi", spy_scalar)
        monkeypatch.setattr(solver, "capital_phi_array", spy_batch)
        return scalar, batch

    @pytest.mark.parametrize("kind", sorted(FAILING_PHI))
    def test_a_step_0_failure_takes_one_batch_call(self, kind, monkeypatch):
        # the one-step window is a batch of one; capital_phi then names the failure
        scalar, batch = self.phi_calls(monkeypatch)
        f = FAILING_PHI[kind]()
        trace = assert_trace_matches_oracles(_jump_map(0), 0.0, 0.0, 4000, f, LOG, 0.5)
        assert isinstance(trace.outcome, IterationError) and len(trace.x) == 0
        assert (len(scalar), batch) == (1, [1])

    def test_windows_double_up_to_the_cap(self, monkeypatch):
        scalar, batch = self.phi_calls(monkeypatch)
        trace = assert_trace_matches_oracles(
            trace_map("singleton"), 0.5, 0.0, 10_000, ConstantIntegrand(1.0), LOG, 1e-9
        )
        assert len(trace.x) == 10_000
        # every window is one batch call, and a run that does not fail makes no scalar call
        assert scalar == []
        assert batch == [2**k for k in range(10)] + [1024] * 8 + [785]


BLOCK = cli._BLOCK
# map, integrand and start; a 0-step trace starts at 0, a fixed point of each map
CSV_CASES = {
    # phi = 1 gives gamma = d, so the writer reuses the d slot
    "phi_one": (lambda: singleton_map(UNIT, "x - x^2"), "constant", 0.5),
    "expression": (lambda: singleton_map(UNIT, "x - x^2"), "expression", 0.5),
    "power": (lambda: singleton_map(UNIT, "x - x^2"), "power", 0.5),
    # Phi(d) = d^51 / 51 is 0 from step 110 on: F_gamma = -inf, n_gamma_k = 0
    "underflow": (lambda: singleton_map(UNIT, "0.9*x"), "power_underflow", 0.5),
    # negative points; d and gamma of 1e16 and more, and n * gamma**k of
    # 1e10 and more through row 2,220, past any block the writer uses
    "negative_large": (
        lambda: singleton_map(CompactSet.interval(-1e26, 0.0), "0.99*x"), "constant", -1e25
    ),
}


class TestTraceCsvBlocks:
    """The blocked writer against ``write_trace_csv_scalar`` across block edges."""

    @pytest.mark.parametrize("steps", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    @pytest.mark.parametrize("case", sorted(CSV_CASES))
    def test_block_boundaries(self, case, steps):
        make_map, integrand, x0 = CSV_CASES[case]
        trace = assert_trace_matches_oracles(
            make_map(), x0 if steps else 0.0, 0.0, max(steps, 1), trace_integrand(integrand),
            LOG, 0.5,
        )
        assert len(trace.x) == steps

    def test_cases_reach_their_edge_values(self):
        underflow = iterate(singleton_map(UNIT, "0.9*x"), 0.5, 0.0, BLOCK, PowerIntegrand(p=50.0))
        assert underflow.gamma[0] > 0.0 and underflow.gamma[-1] == 0.0
        make_map, _, x0 = CSV_CASES["negative_large"]
        large = iterate(make_map(), x0, 0.0, BLOCK, ConstantIntegrand(1.0))
        assert max(large.x) < 0.0 and large.d_to_set[0] >= 1e16
        assert large.decay_columns(LOG)[1][-1] >= 1e10  # n * gamma**k

    def test_without_x87_the_writer_formats_every_value_by_python(self, monkeypatch):
        monkeypatch.setattr(cli, "_X87", False)
        for case in sorted(CSV_CASES):
            make_map, integrand, x0 = CSV_CASES[case]
            assert_trace_matches_oracles(
                make_map(), x0, 0.0, BLOCK + 1, trace_integrand(integrand), LOG, 0.5
            )

    def test_memory_is_bounded_by_the_block(self, tmp_path):
        T = singleton_map(UNIT, "x - x^2")
        trace = iterate(T, 0.5, 0.0, 20 * BLOCK, ConstantIntegrand(1.0))
        trace.decay_columns(LOG)  # computed and kept once, before the writer runs
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            write_trace_csv(tmp_path / "trace.csv", trace, LOG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start <= 1_000_000
        assert len(read_trace_csv(tmp_path / "trace.csv")) == 20 * BLOCK
