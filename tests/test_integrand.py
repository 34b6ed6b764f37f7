import inspect
import math
from dataclasses import replace
from typing import get_args, get_type_hints
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
        for t in (-0.1, math.nan):
            with pytest.raises(DomainError, match=f"^integrand argument must be >= 0, got {t}$"):
                phi_eval(ConstantIntegrand(1.0), t)

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
        for u in (-1e-9, math.nan):
            message = f"^cumulative transform argument must be >= 0, got {u}$"
            with pytest.raises(DomainError, match=message):
                capital_phi(ConstantIntegrand(1.0), u)

    def test_non_integrand_is_a_type_error(self):
        for call, args in ((capital_phi, (1.0,)), (phi_eval, (1.0,)), (integrand_label, ())):
            with pytest.raises(TypeError, match="^not an integrand: <object object at "):
                call(object(), *args)

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

    def test_a_failing_phi_at_0_fails_every_u_in_the_batch(self):
        # unvalidated 1/t: phi(0) raises, so the scalar raises at every u > 0
        f = ExpressionIntegrand(parse_expr("1/t", variable="t"), "1/t")
        got, handed = self.batch_and_handed_back(f, self.ARRAY_U)
        assert handed == 0
        assert repr(got.tolist()) == repr(self.scalar_or_nan(f, self.ARRAY_U))
        assert np.isnan(got[self.ARRAY_U != 0.0]).all()

    def test_a_constant_expression_in_the_batch(self):
        f = expression_integrand("2", grid_max=2.0)
        got, handed = self.batch_and_handed_back(f, self.ARRAY_U)
        assert handed == 0
        assert repr(got.tolist()) == repr(self.scalar_or_nan(f, self.ARRAY_U))

    def test_a_slice_evaluates_phi_at_0_once(self, monkeypatch):
        # two slices of 50 u: each evaluates the node 0 once, in a call of its own
        f = expression_integrand("1 + t^2", grid_max=2.0)
        u = np.random.default_rng(6).uniform(0.0, 2.0, 100)
        nodes, real = [], integrand.eval_expr_array
        monkeypatch.setattr(integrand, "QUAD_BATCH_SLICE", 50)
        monkeypatch.setattr(
            integrand, "eval_expr_array", lambda ast, ts: nodes.append(ts) or real(ast, ts)
        )
        got = capital_phi_array(f, u)
        zeros = [ts for ts in nodes if len(ts) == 1]
        assert len(zeros) == 2 and all(ts[0] == 0.0 for ts in zeros)
        assert sum(np.count_nonzero(ts == 0.0) for ts in nodes) == 2
        assert repr(got.tolist()) == repr(self.scalar_or_nan(f, u))

    def test_the_scalar_u_go_to_the_callers_phi(self, monkeypatch):
        # a caller's memo of capital_phi computes each u the batch hands back
        monkeypatch.setattr(integrand, "QUAD_BATCH_PANELS", 9)
        f = expression_integrand("exp(t) + abs(t - 0.3)", grid_max=1.0)
        asked = []
        got = capital_phi_array(f, self.DEEP_U, lambda v: asked.append(v) or capital_phi(f, v))
        _, handed = self.batch_and_handed_back(f, self.DEEP_U)
        assert len(asked) == handed > 0
        assert repr(got.tolist()) == repr(self.scalar_or_nan(f, self.DEEP_U))

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


# the expression integrands of TestCumulativeTransform, with their grid_max
PHI_CORPUS = [
    ("1 + t^2", 2.0),
    ("1 + abs(t - 0.3)", 2.0),
    ("1 + t^0.3", 2.0),
    ("1/(2-t)", 1.0),
    ("min(1, t)", 2.0),
    ("exp(t)", 2.0),
    ("ln(1+t)", 2.0),
    ("exp(t) + abs(t - 0.3)", 2.0),
]
EDGE_U = [0.0, -0.0, 5e-324, 1e-300, 2.0, math.nan, math.inf, -1.0, -math.inf]


@st.composite
def u_arrays(draw):
    """u arrays with repeats: drawn from a few values, zeros and edge values among them."""
    pool = draw(
        st.lists(
            st.one_of(st.sampled_from(EDGE_U), st.floats(0.0, 2.5)), min_size=1, max_size=12
        )
    )
    return np.array(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=90)))


class TestCapitalPhiArrayAgainstScalar:
    """capital_phi_array gives capital_phi's bits, NaN where it raises, on every
    expression of the corpus; ``batch`` sends even a few u through the batch."""

    @pytest.mark.parametrize("source, grid_max", PHI_CORPUS)
    @given(u=u_arrays(), batch=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_matches_scalar(self, source, grid_max, u, batch):
        f = expression_integrand(source, grid_max=grid_max)
        with mock.patch.object(integrand, "QUAD_BATCH_MIN", 1 if batch else integrand.QUAD_BATCH_MIN):
            got = capital_phi_array(f, u)
        assert repr(got.tolist()) == repr(TestCumulativeTransform.scalar_or_nan(f, u))

    # the closed forms, overflowing ones among them: 2.5^1001, exp(800 u) past
    # u = 0.89, and an exp(-800 u) that underflows
    CLOSED_FORMS = [
        PowerIntegrand(p=2.0),
        PowerIntegrand(p=-0.5, scale=2.0),
        PowerIntegrand(p=1000.0),
        PowerIntegrand(p=0.0, scale=1e308),
        ExponentialIntegrand(rate=5.0),
        ExponentialIntegrand(rate=0.0, scale=2.0),
        ExponentialIntegrand(rate=800.0),
        ExponentialIntegrand(rate=-800.0, scale=1e308),
    ]

    @pytest.mark.parametrize("f", CLOSED_FORMS, ids=repr)
    @given(u=u_arrays())
    @settings(max_examples=25, deadline=None)
    def test_closed_forms_match_scalar(self, f, u):
        got = capital_phi_array(f, u)
        assert repr(got.tolist()) == repr(TestCumulativeTransform.scalar_or_nan(f, u))

    @pytest.mark.parametrize("f", CLOSED_FORMS, ids=repr)
    def test_closed_forms_at_the_edges_hand_nothing_back(self, f):
        u = np.array(EDGE_U + [-5e-324, 0.5, 1.0, 3.0, 1e300, 1.7976931348623157e308])
        got, handed = TestCumulativeTransform.batch_and_handed_back(f, u)
        assert handed == 0
        assert repr(got.tolist()) == repr(TestCumulativeTransform.scalar_or_nan(f, u))


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
            adaptive_simpson(math.sqrt, 0.0, 1.0)  # sqrt's slope at 0 outlasts the depth


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
    @pytest.mark.parametrize(
        "c, words",
        [
            (0.0, "must be positive, got 0.0"),
            (-1.0, "must be positive, got -1.0"),
            (math.nan, "must be positive, got nan"),
            (math.inf, "must be finite, got inf"),
            (True, "must be a number, got True"),
            (False, "must be a number, got False"),
        ],
    )
    def test_constant_needs_positive_c(self, c, words):
        with pytest.raises(InvariantError) as err:
            ConstantIntegrand(c)
        assert str(err.value) == f"c {words}"

    def test_power_needs_p_above_minus_one(self):
        with pytest.raises(InvariantError):
            PowerIntegrand(p=-1.0)

    def test_power_needs_positive_scale(self):
        with pytest.raises(InvariantError):
            PowerIntegrand(p=1.0, scale=0.0)

    @pytest.mark.parametrize(
        "rate, words",
        [
            (math.inf, "must be finite, got inf"),
            (-math.inf, "must be finite, got -inf"),
            (math.nan, "must be finite, got nan"),
            (True, "must be a number, got True"),
            (False, "must be a number, got False"),
        ],
    )
    def test_exponential_needs_finite_rate(self, rate, words):
        with pytest.raises(InvariantError) as err:
            ExponentialIntegrand(rate=rate)
        assert str(err.value) == f"rate {words}"

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


class TestKindRegistry:
    """Every class that ``INTEGRAND_KINDS`` builds carries each form of a kind:
    its label, phi at a point and Phi.  A kind that missed one would end in
    ``TypeError: not an integrand`` at run time."""

    # the required keys of the kinds, by name; a new key fails here until it has a value
    REQUIRED = {"p": 0.5, "rate": 0.5, "source": "1 + t"}

    @pytest.mark.parametrize("kind", sorted(integrand.INTEGRAND_KINDS))
    def test_every_kind_carries_every_form(self, kind):
        factory = integrand.INTEGRAND_KINDS[kind]
        params = inspect.signature(factory).parameters.values()
        f = factory(**{p.name: self.REQUIRED[p.name] for p in params if p.default is p.empty})
        assert type(f) in get_args(integrand.Integrand)
        assert integrand_label(f).startswith(f"{kind}(")
        assert phi_eval(f, 0.5) > 0.0
        u = np.array([0.0, 0.5, 2.0])
        assert capital_phi_array(f, u).tolist() == [capital_phi(f, v) for v in u.tolist()]
        assert capital_phi(f, 0.5) > 0.0

    def test_every_integrand_class_has_a_kind(self):
        built = set()
        for factory in integrand.INTEGRAND_KINDS.values():
            built.add(factory if isinstance(factory, type) else get_type_hints(factory)["return"])
        assert built == set(get_args(integrand.Integrand))
