import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from helpers import outcome, spy_on_grid, validate_integrand_scalar

from mvfix import (
    ConstantIntegrand,
    DomainError,
    EvalError,
    ExponentialIntegrand,
    ExpressionIntegrand,
    InvariantError,
    MvfixError,
    ParseError,
    PowerIntegrand,
    QuadratureError,
    adaptive_simpson,
    capital_phi,
    expression_integrand,
    integrand_label,
    parse_expr,
    phi_eval,
)
from mvfix import integrand
from mvfix.expr import enclose
from mvfix.integrand import capital_phi_array


class TestPointwiseValues:
    def test_constant(self):
        assert phi_eval(ConstantIntegrand(1.0), 7.0) == 1.0

    def test_power(self):
        # phi(t) = 2 t at t = 3
        assert phi_eval(PowerIntegrand(p=1.0, scale=2.0), 3.0) == 6.0

    def test_power_zero_exponent(self):
        assert phi_eval(PowerIntegrand(p=0.0, scale=3.0), 0.0) == 3.0

    def test_power_singular_at_zero(self):
        assert phi_eval(PowerIntegrand(p=-0.5), 0.0) == math.inf

    def test_exponential(self):
        f = ExponentialIntegrand(rate=2.0, scale=0.5)
        assert phi_eval(f, 1.0) == pytest.approx(0.5 * math.e**2, rel=1e-15)

    def test_expression(self):
        f = expression_integrand("t*t + 1")
        assert phi_eval(f, 2.0) == 5.0

    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            phi_eval(ConstantIntegrand(1.0), -0.1)

    @pytest.mark.parametrize(
        "f, t", [(ExponentialIntegrand(rate=1000.0), 1.0), (PowerIntegrand(p=2.0), 1e200)]
    )
    def test_overflow_is_a_domain_error(self, f, t):
        with pytest.raises(DomainError) as err:
            phi_eval(f, t)
        assert str(err.value) == f"integrand {integrand_label(f)} overflows at t = {t}"


class TestCumulativeTransform:
    def test_constant_quarter(self):
        assert capital_phi(ConstantIntegrand(1.0), 0.25) == 0.25

    def test_zero_is_zero(self):
        for f in (
            ConstantIntegrand(2.0),
            PowerIntegrand(1.0, 2.0),
            ExponentialIntegrand(0.3),
            expression_integrand("1 + t"),
        ):
            assert capital_phi(f, 0.0) == 0.0

    def test_power_closed_form(self):
        # integral of 2t over [0, 3] = 9
        assert capital_phi(PowerIntegrand(p=1.0, scale=2.0), 3.0) == 9.0

    def test_exponential_closed_form(self):
        f = ExponentialIntegrand(rate=1.0)
        assert capital_phi(f, 1.0) == pytest.approx(math.e - 1.0, rel=1e-15)

    def test_exponential_zero_rate(self):
        assert capital_phi(ExponentialIntegrand(rate=0.0, scale=2.0), 3.0) == 6.0

    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            capital_phi(ConstantIntegrand(1.0), -1e-9)

    def test_non_integrand_is_a_type_error(self):
        with pytest.raises(TypeError, match="not an integrand"):
            capital_phi(object(), 1.0)

    @pytest.mark.parametrize(
        "f, u", [(ExponentialIntegrand(rate=5.0), 1000.0), (PowerIntegrand(p=200.0), 50.0)]
    )
    def test_overflow_is_a_domain_error(self, f, u):
        with pytest.raises(DomainError) as err:
            capital_phi(f, u)
        assert integrand_label(f) in str(err.value)
        assert f"u = {u}" in str(err.value)

    # 0, -0.0, the least subnormal, far-out and negative values, u in
    # [0, 200], where most deep integrands raise, and u in [0, 2], where
    # they refine deeply and some are handed back to the scalar quadrature
    EDGE_U = [0.0, -0.0, 5e-324, 1e-300, 1e3, math.nan, math.inf, -1.0, -math.inf]
    NEAR_U = np.random.default_rng(3).uniform(0.0, 2.0, 60)
    ARRAY_U = np.concatenate([EDGE_U, np.random.default_rng(2).uniform(0.0, 200.0, 60), NEAR_U])
    # the scalar takes 20-50 ms to raise at most u far past 2 on the deep
    # integrands, so they get only the first 8 of the u in [0, 200]
    DEEP_U = np.concatenate([EDGE_U, ARRAY_U[len(EDGE_U) :][:8], NEAR_U])

    @staticmethod
    def scalar_or_nan(f, u):
        # NaN marks the elements where the scalar transform raises
        out = []
        for v in u.tolist():
            try:
                out.append(capital_phi(f, v))
            except MvfixError:
                out.append(math.nan)
        return out

    @pytest.mark.parametrize(
        "f",
        [
            ConstantIntegrand(3.0),
            PowerIntegrand(p=-0.5, scale=2.0),
            PowerIntegrand(p=200.0),
            ExponentialIntegrand(rate=5.0),
            ExponentialIntegrand(rate=0.0, scale=2.0),
            expression_integrand("1 + t^2", grid_max=2.0),
            expression_integrand("1 + abs(t - 0.3)", grid_max=2.0),
            # raise: depth exhausted near 0, a pole at 2, an infinite panel
            expression_integrand("1 + t^0.3", grid_max=2.0),
            expression_integrand("1/(2-t)", grid_max=1.0),
            expression_integrand("min(1, t)", grid_max=2.0),
        ],
    )
    def test_array_matches_scalar_bit_for_bit(self, f):
        expected = self.scalar_or_nan(f, self.ARRAY_U)
        assert repr(capital_phi_array(f, self.ARRAY_U).tolist()) == repr(expected)

    @pytest.mark.filterwarnings("error")
    def test_constant_array_overflows_to_inf_without_a_warning(self):
        f, u = ConstantIntegrand(1e308), np.array([0.0, 1.0, 5.0, math.inf, -1.0])
        expected = self.scalar_or_nan(f, u)
        assert expected[2:4] == [math.inf, math.inf]
        assert repr(capital_phi_array(f, u).tolist()) == repr(expected)

    @pytest.mark.parametrize("source", ["exp(t)", "ln(1+t)", "exp(t) + abs(t - 0.3)"])
    def test_deep_array_matches_scalar_bit_for_bit(self, source):
        f = expression_integrand(source, grid_max=2.0)
        expected = self.scalar_or_nan(f, self.DEEP_U)
        assert repr(capital_phi_array(f, self.DEEP_U).tolist()) == repr(expected)

    @staticmethod
    def batch_and_handed_back(f, u):
        # capital_phi_array's values, and how many u it handed to the scalar
        loop = mock.patch.object(integrand, "_capital_phi_loop", wraps=integrand._capital_phi_loop)
        with loop as scalar:
            got = capital_phi_array(f, u)
        return got, sum(len(call.args[1]) for call in scalar.call_args_list)

    @pytest.mark.parametrize(
        "source", ["exp(t) + abs(t - 0.3)", "1 + t^0.3", "1/(2-t)", "ln(1+t)"]
    )
    def test_small_slices_and_budget_keep_the_scalar_bits(self, source, monkeypatch):
        # slices of 7 u, and a budget that hands most u back to the scalar
        monkeypatch.setattr(integrand, "QUAD_BATCH_SLICE", 7)
        monkeypatch.setattr(integrand, "QUAD_BATCH_PANELS", 9)
        f = expression_integrand(source, grid_max=1.0)
        got, handed = self.batch_and_handed_back(f, self.DEEP_U)
        assert 0 < handed < np.count_nonzero(np.isfinite(self.DEEP_U) & (self.DEEP_U > 0.0))
        assert repr(got.tolist()) == repr(self.scalar_or_nan(f, self.DEEP_U))

    def test_few_u_take_the_scalar_quadrature(self):
        f = expression_integrand("1 + t^0.3", grid_max=1.0)
        u = self.DEEP_U[: integrand.QUAD_BATCH_MIN - 1]
        got, handed = self.batch_and_handed_back(f, u)
        assert handed == len(u)
        assert repr(got.tolist()) == repr(self.scalar_or_nan(f, u))

    def test_deep_trees_are_summed_in_the_batch(self):
        # each u in [0, 1] needs dozens of panels, and none is handed back,
        # so every value comes from the level-by-level sums
        f = expression_integrand("exp(t) + abs(t - 0.3)", grid_max=2.0)
        u = np.random.default_rng(4).uniform(0.0, 1.0, 300)
        got, handed = self.batch_and_handed_back(f, u)
        assert handed == 0
        assert repr(got.tolist()) == repr(self.scalar_or_nan(f, u))

    def test_strictly_monotone(self):
        rng = np.random.default_rng(5)
        kinds = [
            ConstantIntegrand(0.7),
            PowerIntegrand(p=2.0, scale=1.5),
            ExponentialIntegrand(rate=-0.5),
            expression_integrand("1 + t*t"),
        ]
        for f in kinds:
            for _ in range(50):
                u, v = sorted(rng.uniform(0.0, 50.0, 2))
                if u == v:
                    continue
                assert capital_phi(f, u) < capital_phi(f, v)

    def test_positive_for_positive_argument(self):
        for f in (
            ConstantIntegrand(1.0),
            PowerIntegrand(p=0.5),
            PowerIntegrand(p=-0.5),
            ExponentialIntegrand(rate=-1.0),
            expression_integrand("t*t + 1e-6"),
        ):
            for eps in np.logspace(-12, 1, 14):
                assert capital_phi(f, float(eps)) > 0.0


class TestQuadratureAgainstClosedForms:
    # the numeric route must reproduce the analytic antiderivatives
    @pytest.mark.parametrize(
        "f",
        [
            ConstantIntegrand(1.3),
            PowerIntegrand(p=1.0, scale=2.0),
            PowerIntegrand(p=2.5, scale=0.4),
            ExponentialIntegrand(rate=0.05, scale=1.0),
            ExponentialIntegrand(rate=-0.8, scale=3.0),
        ],
    )
    def test_dual_route_agreement(self, f):
        rng = np.random.default_rng(13)
        for _ in range(20):
            u = float(rng.uniform(0.01, 100.0))
            numeric = adaptive_simpson(lambda t: phi_eval(f, t), 0.0, u)
            assert numeric == pytest.approx(capital_phi(f, u), abs=1e-9)

    def test_additivity_via_quadrature(self):
        f = expression_integrand("1 + t*t")
        rng = np.random.default_rng(17)
        for _ in range(20):
            u, v = rng.uniform(0.0, 20.0, 2)
            whole = capital_phi(f, float(u + v))
            first = capital_phi(f, float(u))
            rest = adaptive_simpson(lambda t: phi_eval(f, t), float(u), float(u + v))
            assert whole == pytest.approx(first + rest, abs=1e-9)

    def test_cubic_is_exact(self):
        got = adaptive_simpson(lambda t: t**3, 0.0, 2.0)
        assert got == pytest.approx(4.0, abs=1e-12)

    def test_empty_range(self):
        assert adaptive_simpson(lambda t: t, 3.0, 3.0) == 0.0

    def test_reversed_range_rejected(self):
        with pytest.raises(DomainError):
            adaptive_simpson(lambda t: t, 1.0, 0.0)

    def test_depth_exhaustion_raises(self):
        with pytest.raises(QuadratureError):
            adaptive_simpson(lambda t: math.sin(t) + 2.0, 0.0, 10.0, tol=1e-30, max_depth=3)


# expression integrands accepted and refused on the grid, or proved
INTEGRAND_PARITY_CASES = [
    ("1 + t^2", 100.0),
    ("t*t", 100.0),  # zero at the origin only
    ("t - 50", 100.0),
    ("-t", 100.0),
    ("max(0, t - 1)", 100.0),
    # zero at one interior grid point
    (f"abs(t - {np.linspace(0.0, 1.0, 10_001)[1234].item()!r})", 1.0),
    ("ln(t)", 100.0),
    ("1/t", 100.0),
    ("sqrt(t - 1)", 100.0),
    ("exp(t)", 1000.0),
    ("(-1)^t + 2", 1.0),
    ("1 + t^0.3", 2.0),
    ("exp(t) + abs(t - 0.3)", 2.0),
]


class TestValidation:
    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan])
    def test_constant_needs_positive_c(self, c):
        with pytest.raises(InvariantError):
            ConstantIntegrand(c)

    def test_power_needs_p_above_minus_one(self):
        with pytest.raises(InvariantError):
            PowerIntegrand(p=-1.0)

    def test_power_needs_positive_scale(self):
        with pytest.raises(InvariantError):
            PowerIntegrand(p=1.0, scale=0.0)

    def test_exponential_needs_positive_scale(self):
        with pytest.raises(InvariantError):
            ExponentialIntegrand(rate=1.0, scale=-2.0)

    def test_expression_rejects_negative_region(self):
        with pytest.raises(InvariantError):
            expression_integrand("t - 50")

    def test_expression_rejects_zero_region(self):
        # zero on (0, 1) would make the transform vanish on an interval
        with pytest.raises(InvariantError):
            expression_integrand("max(0, t - 1)")

    def test_expression_allows_zero_at_origin(self):
        f = expression_integrand("t*t")
        assert phi_eval(f, 2.0) == 4.0
        assert capital_phi(f, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_expression_rejects_bad_grid_max(self):
        with pytest.raises(InvariantError):
            expression_integrand("1 + t", grid_max=0.0)

    def test_expression_rejects_overflowing_literal(self):
        # 1e999 used to parse as inf, pass the grid check and fail later in
        # the quadrature with an unrelated error estimate of nan
        with pytest.raises(ParseError, match="number literal is not finite"):
            expression_integrand("1e999", grid_max=1.0)

    @pytest.mark.parametrize("source, grid_max", INTEGRAND_PARITY_CASES)
    def test_expression_same_verdict_as_scalar_loop(self, source, grid_max):
        expected = outcome(validate_integrand_scalar, source, grid_max)
        assert outcome(expression_integrand, source, grid_max) == expected

    def test_benchmark_expression_evaluates_no_grid(self, monkeypatch):
        calls = spy_on_grid(monkeypatch)
        f = expression_integrand("1 + t^2", grid_max=2.0)
        assert f == ExpressionIntegrand(parse_expr("1 + t^2", variable="t"), "1 + t^2", 2.0)
        assert calls == []

    @pytest.mark.parametrize("source, grid_max", INTEGRAND_PARITY_CASES)
    def test_grid_runs_where_the_proof_fails(self, source, grid_max, monkeypatch):
        box = enclose(parse_expr(source, variable="t"), 0.0, grid_max)
        proved = box is not None and box[0] > 0.0
        calls = spy_on_grid(monkeypatch)
        result = outcome(expression_integrand, source, grid_max)
        assert bool(calls) == (not proved)
        if not isinstance(result, ExpressionIntegrand):  # every refusal comes from the grid
            assert calls

    @pytest.mark.parametrize(
        "source, error",
        [
            # the first failures lie mid-grid, at t = 1 exactly
            ("abs(t - 1)", "integrand 'abs(t - 1)' is not strictly positive at t = 1.0: 0.0"),
            ("1/(t - 1)^2", "division by zero in '1.0 / (t - 1.0) ^ 2.0'"),
            ("t - 1", "integrand 't - 1' is negative at t = 0: -1.0"),
        ],
    )
    def test_expression_error_names_the_first_bad_point(self, source, error):
        kind = EvalError if "division" in error else InvariantError
        assert outcome(expression_integrand, source, 2.0) == (kind, error)

    def test_unvalidated_expression_flags_negative_values(self):
        # constructing the dataclass directly skips the grid check, but the
        # pointwise guard still fires
        raw = ExpressionIntegrand(ast=parse_expr("t - 50", variable="t"), source="t - 50")
        assert phi_eval(raw, 60.0) == 10.0
        with pytest.raises(EvalError):
            phi_eval(raw, 0.0)

    def test_expression_compiles_on_first_scalar_use(self, monkeypatch):
        compiled = []
        real = integrand.compile_expr
        monkeypatch.setattr(integrand, "compile_expr", lambda e: compiled.append(e) or real(e))
        f = expression_integrand("1 + t^2", grid_max=2.0)
        capital_phi_array(f, np.linspace(0.1, 1.0, integrand.QUAD_BATCH_MIN))
        assert compiled == []
        assert phi_eval(f, 1.0) == 2.0
        capital_phi(f, 0.5)
        capital_phi(f, 0.7)
        assert compiled == [f.ast]

    def test_compiled_expression_is_not_a_field_that_shows(self):
        f = expression_integrand("1 + t^2", grid_max=2.0)
        again = ExpressionIntegrand(ast=f.ast, source=f.source, grid_max=f.grid_max)
        assert again == f and hash(again) == hash(f)
        assert repr(again) == repr(f) and "_compiled" not in repr(f)
        g = replace(f, ast=parse_expr("2 + t", variable="t"))
        assert phi_eval(g, 1.0) == 3.0 and phi_eval(f, 1.0) == 2.0
