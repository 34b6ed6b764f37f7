import functools
import math
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import iterate_scalar, outcome, validate_trace_scalar, write_trace_csv_scalar
from mvfix import (
    CompactSet,
    ConstantIntegrand,
    DomainError,
    InvariantError,
    FFunction,
    FixedPointFound,
    InsufficientTraceError,
    IterationError,
    MaxIterReached,
    MultiMap,
    PowerIntegrand,
    dist_point_set,
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
        assert trace.steps == ()

    def test_halving_orbit_is_exact(self):
        trace = halving_trace()
        assert isinstance(trace.outcome, MaxIterReached)
        assert len(trace.steps) == 60
        for step in trace.steps:
            assert step.x == 2.0 ** (-step.n)
            assert step.next_point == 2.0 ** (-step.n - 1)
            assert step.d_to_set == 2.0 ** (-step.n - 1)
            assert step.gamma == step.d_to_set  # unit constant integrand

    def test_steps_chain_together(self):
        trace = halving_trace()
        for a, b in zip(trace.steps, trace.steps[1:]):
            assert b.x == a.next_point
            assert b.n == a.n + 1

    def test_selection_is_nearest(self):
        T = interval_map(UNIT, "x/3", "x/2")
        trace = iterate(T, 1.0, tol=1e-12)
        for step in trace.steps:
            assert step.next_point == nearest_point(step.x, step.value_set)
            assert abs(step.x - step.next_point) == step.d_to_set
            assert step.d_to_set == dist_point_set(step.x, step.value_set)

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
        gammas = [s.gamma for s in trace.steps]
        assert all(b < a for a, b in zip(gammas, gammas[1:]))

    def test_step_distance_bounded_by_image_hausdorff(self):
        # D(x_{n+1}, T(x_{n+1})) <= H(T(x_n), T(x_{n+1})) since
        # x_{n+1} is a member of T(x_n)
        T = interval_map(UNIT, "x/3", "x/2")
        trace = iterate(T, 1.0, tol=1e-12)
        for a, b in zip(trace.steps, trace.steps[1:]):
            assert b.d_to_set <= hausdorff(a.value_set, b.value_set) + 1e-12

    def test_domain_escape_is_reported(self):
        T = singleton_map(CompactSet.interval(0.0, 1.5), "x + 1")
        trace = iterate(T, 0.5, tol=0.0, max_iter=10)
        assert isinstance(trace.outcome, IterationError)
        assert trace.outcome.last_x == 2.5
        assert len(trace.steps) == 2

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
        assert len(trace.steps) == steps
        assert all(math.isfinite(s.gamma) for s in trace.steps)
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

    @pytest.mark.parametrize("value", [2.5, math.nan, math.inf])
    def test_max_iter_must_be_an_integer(self, value):
        with pytest.raises(DomainError, match=f"max_iter must be an integer >= 1, got {value}"):
            iterate(singleton_map(UNIT, "x/2"), 1.0, max_iter=value)

    def test_nan_tolerance_rejected(self):
        # a NaN tolerance would compare false at every step and run to max_iter
        with pytest.raises(DomainError, match="tolerance must be >= 0, got nan"):
            iterate(singleton_map(UNIT, "x/2"), 1.0, tol=math.nan)

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
        assert max(abs(m) for m in verdict.per_step_margins) <= 1e-13

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
        margins = verdict.per_step_margins
        assert all(b > a for a, b in zip(margins, margins[1:]))

    def test_infinite_tau_rejected(self):
        # 0 * inf would put NaN in the first margin
        with pytest.raises(DomainError, match="tau must be finite, got inf"):
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
        with pytest.raises(DomainError, match="tau must be positive, got nan"):
            validate_trace(trace, LOG, math.nan)
        # k is F's own, so its range is checked where F is made
        with pytest.raises(InvariantError, match=r"k witness must lie in \(0, 1\), got 1.0"):
            FFunction("log", k=1.0)


class TestGammaProbe:
    def test_reciprocal_product_sequence(self):
        hs = [1.0 / (4 * n * (n + 1)) for n in range(1, 9)]
        report = gamma_sequence_probe(hs, ConstantIntegrand(1.0), LOG)
        assert report.rows[0].gamma == 0.125
        assert report.rows[0].f_gamma == pytest.approx(-math.log(8.0), abs=1e-15)
        assert report.f_gamma_decreasing
        assert report.weight_decreasing

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
        with pytest.raises(InvariantError, match=r"k witness must lie in \(0, 1\), got 0.0"):
            gamma_sequence_probe([0.5], ConstantIntegrand(1.0), FFunction("log", k=0.0))


TRACE_MAPS = {
    "singleton": lambda: singleton_map(UNIT, "x - x^2"),
    "interval": lambda: interval_map(UNIT, "x/3", "x/2"),
    "finite_set": lambda: finite_set_map(UNIT, ["x/4", "x/3", "(x+1)/2", "0.9*x"]),
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


def assert_trace_matches_oracles(T, x0, tol, max_iter, f, F, tau):
    """Columnar trace, verdict and CSV equal the one-step-at-a-time oracles, bit for bit."""
    trace = outcome(iterate, T, x0, tol, max_iter, f)
    oracle = outcome(iterate_scalar, T, x0, tol, max_iter, f)
    if isinstance(oracle, tuple):  # the start was rejected
        assert trace == oracle
        return None
    # repr of a float round-trips exactly and tells -0.0 from 0.0
    assert repr(trace.steps) == repr(oracle.steps)
    assert trace.steps == oracle.steps
    assert repr(trace.outcome) == repr(oracle.outcome)
    assert trace.params == oracle.params
    assert repr(outcome(validate_trace, trace, F, tau)) == repr(
        outcome(validate_trace_scalar, oracle, F, tau)
    )
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
        assert all(len(s.value_set.intervals) == 1 for s in near_tie.steps)
        assert all(lo == hi for s in near_tie.steps for lo, hi in s.value_set.intervals)

    @pytest.mark.parametrize("map_name", ["singleton", "interval", "near_tie", "finite_set"])
    def test_interval_and_singleton_steps_build_no_value_set(self, map_name, monkeypatch):
        from mvfix import maps

        T = trace_map(map_name)
        calls = []
        value_set, init, point = maps._value_set, CompactSet.__init__, CompactSet.point
        monkeypatch.setattr(maps, "_value_set", lambda T, x: calls.append(x) or value_set(T, x))
        monkeypatch.setattr(CompactSet, "__init__", lambda S, raw: calls.append(S) or init(S, raw))
        spy_point = classmethod(lambda _, x: calls.append(x) or point(x))
        monkeypatch.setattr(CompactSet, "point", spy_point)
        trace = iterate(T, 0.5, 0.0, 60, trace_integrand("constant"))
        assert len(trace.x) >= 10
        if map_name == "finite_set":  # the spies see the value-set path
            assert len(calls) >= 2 * len(trace.x)
        else:
            assert calls == []

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

    def test_steps_are_built_from_the_columns_once(self):
        trace = halving_trace()
        assert trace.steps is trace.steps
        assert [s.x for s in trace.steps] == list(trace.x)
        assert trace.x[1:] == trace.next_point[:-1]

    def test_decay_columns_are_computed_once(self, monkeypatch):
        from mvfix import solver

        calls = []
        real_f_eval = solver.f_eval
        monkeypatch.setattr(solver, "f_eval", lambda F, g: calls.append(g) or real_f_eval(F, g))
        trace = halving_trace()
        f_gamma, n_gamma_k = trace.decay_columns(LOG)
        assert trace.decay_columns(LOG) == (f_gamma, n_gamma_k)
        validate_trace(trace, LOG, math.log(2.0))
        assert len(calls) == 60
        assert f_gamma == tuple(math.log(g) for g in trace.gamma)
        assert n_gamma_k == tuple(n * math.sqrt(g) for n, g in enumerate(trace.gamma))
        # an F of another kind or k gets its own columns
        assert trace.decay_columns(FFunction("log", 0.25))[1] == tuple(
            n * g**0.25 for n, g in enumerate(trace.gamma)
        )
        assert trace.decay_columns(FFunction("neg_inv_sqrt"))[0] == tuple(
            -1.0 / math.sqrt(g) for g in trace.gamma
        )


BLOCK = cli._BLOCK
# map, integrand and start; a 0-step trace starts at 0, a fixed point of each map
CSV_CASES = {
    # phi = 1 gives gamma = d, so the writer reuses the d slot
    "phi_one": (lambda: singleton_map(UNIT, "x - x^2"), "constant", 0.5),
    "expression": (lambda: singleton_map(UNIT, "x - x^2"), "expression", 0.5),
    "power": (lambda: singleton_map(UNIT, "x - x^2"), "power", 0.5),
    # Phi(d) = d^51 / 51 is 0 from step 110 on: F_gamma = -inf, n_gamma_k = 0
    "underflow": (lambda: singleton_map(UNIT, "0.9*x"), "power_underflow", 0.5),
    # negative points; d, gamma and n * gamma**k of 1e16 and more
    "negative_large": (
        lambda: singleton_map(CompactSet.interval(-1e20, 0.0), "0.99*x"), "constant", -1e19
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
