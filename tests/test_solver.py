import math

import pytest

from mvfix import (
    CompactSet,
    ConstantIntegrand,
    DomainError,
    FFunction,
    FixedPointFound,
    InsufficientTraceError,
    IterationError,
    MaxIterReached,
    dist_point_set,
    gamma_sequence_probe,
    hausdorff,
    interval_map,
    is_fixed_point,
    iterate,
    nearest_point,
    singleton_map,
    validate_trace,
)

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
        verdict = validate_trace(halving_trace(), LOG, math.log(2.0), k=0.5)
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

    def test_short_trace_rejected(self):
        T = singleton_map(UNIT, "x/2")
        trace = iterate(T, 1.0, tol=0.0, max_iter=1)
        with pytest.raises(InsufficientTraceError):
            validate_trace(trace, LOG, math.log(2.0))

    def test_parameter_validation(self):
        trace = halving_trace()
        with pytest.raises(DomainError):
            validate_trace(trace, LOG, 0.0)
        with pytest.raises(DomainError):
            validate_trace(trace, LOG, 0.5, k=1.0)


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
        with pytest.raises(DomainError):
            gamma_sequence_probe([0.5], ConstantIntegrand(1.0), LOG, k=0.0)
