import math
import random

import numpy as np
import pytest
from hypothesis import given, assume, strategies as st

from mvfix import (
    CompactSet,
    DomainError,
    FFunction,
    InvariantError,
    check_f1,
    check_f2_f3,
    check_f4,
    f_eval,
)
from mvfix.ffunctions import (
    F1_GRID,
    F_KINDS,
    decay_witnesses,
    eventually_strictly_decreasing,
    f_eval_array,
)

from helpers import random_compact_set


class TestEvaluation:
    @pytest.mark.parametrize("kind", F_KINDS)
    def test_array_matches_scalar_bit_for_bit(self, kind):
        F = FFunction(kind)
        alpha = np.exp(np.random.default_rng(1).uniform(-700.0, 700.0, 2000))
        expected = [f_eval(F, a) for a in alpha.tolist()]
        assert repr(f_eval_array(F, alpha).tolist()) == repr(expected)

    @pytest.mark.parametrize("kind", F_KINDS)
    def test_array_is_nan_where_scalar_raises(self, kind):
        F = FFunction(kind)
        alpha = [1.0, 0.0, -0.0, -1.0, math.nan, math.inf]
        expected = []
        for a in alpha:
            try:
                expected.append(f_eval(F, a))
            except DomainError:
                expected.append(math.nan)
        assert repr(f_eval_array(F, np.array(alpha)).tolist()) == repr(expected)

    def test_array_rejects_nonpositive(self):
        values = f_eval_array(FFunction("neg_inv_sqrt"), np.array([1.0, 0.0]))
        assert np.isnan(values).tolist() == [False, True]

    def test_log(self):
        assert f_eval(FFunction("log"), 0.25) == -1.3862943611198906

    def test_log_plus_linear(self):
        assert f_eval(FFunction("log_plus_linear"), 1.0) == 1.0

    def test_neg_inv_sqrt(self):
        assert f_eval(FFunction("neg_inv_sqrt"), 4.0) == -0.5

    @pytest.mark.parametrize("alpha", [0.0, -1.0])
    def test_nonpositive_rejected(self, alpha):
        with pytest.raises(DomainError):
            f_eval(FFunction("log"), alpha)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvariantError):
            FFunction("tanh")

    @pytest.mark.parametrize(
        "k, words",
        [
            (0.0, "must lie in (0, 1), got 0.0"),
            (1.0, "must lie in (0, 1), got 1.0"),
            (-0.5, "must lie in (0, 1), got -0.5"),
            (True, "must be a number, got True"),
            (False, "must be a number, got False"),
        ],
    )
    def test_witness_exponent_range(self, k, words):
        with pytest.raises(InvariantError) as err:
            FFunction("log", k=k)
        assert str(err.value) == f"k {words}"


class TestStrictMonotonicity:
    @pytest.mark.parametrize("kind", ["log", "log_plus_linear", "neg_inv_sqrt"])
    def test_builtin_kinds_pass(self, kind):
        verdict = check_f1(FFunction(kind))
        assert verdict.passed
        assert verdict.first_violation is None

    def test_default_grid_shape(self):
        grid = F1_GRID
        assert grid[0] == pytest.approx(1e-8)
        assert grid[-1] == pytest.approx(1e8)
        assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_sine_fails_with_witness(self):
        verdict = check_f1(math.sin, grid=[1.0, 2.0, 3.0, 4.0])
        assert not verdict.passed
        assert verdict.first_violation == (2.0, 3.0)

    def test_shuffled_then_sorted_grid_same_verdict(self):
        grid = list(F1_GRID)
        shuffled = grid[:]
        random.Random(3).shuffle(shuffled)
        a = check_f1(FFunction("log"), grid=grid)
        b = check_f1(FFunction("log"), grid=sorted(shuffled))
        assert a.passed == b.passed
        assert a.first_violation == b.first_violation

    def test_unsorted_grid_rejected(self):
        with pytest.raises(DomainError, match="^monotonicity grid must be strictly ascending$"):
            check_f1(FFunction("log"), grid=[2.0, 1.0, 3.0])

    def test_bad_grids_rejected(self):
        with pytest.raises(DomainError, match="^monotonicity grid needs at least 2 points$"):
            check_f1(FFunction("log"), grid=[1.0])
        with pytest.raises(DomainError, match="^monotonicity grid must be strictly positive$"):
            check_f1(FFunction("log"), grid=[0.0, 1.0])
        with pytest.raises(DomainError, match="^monotonicity grid must be strictly ascending$"):
            check_f1(FFunction("log"), grid=[1.0, 1.0, 2.0])


class TestLimitProbes:
    @pytest.mark.parametrize("kind,k", [("log", 0.5), ("log", 0.99), ("log_plus_linear", 0.5)])
    def test_passing_combinations(self, kind, k):
        verdict = check_f2_f3(FFunction(kind, k))
        assert verdict.f2_passed
        assert verdict.f3_passed
        assert verdict.passed

    def test_neg_inv_sqrt_half(self):
        # alpha^(1/2) * (-alpha^(-1/2)) = -1, so the weight never shrinks
        verdict = check_f2_f3(FFunction("neg_inv_sqrt", 0.5))
        assert verdict.f2_passed
        assert not verdict.f3_passed

    def test_neg_inv_sqrt_quarter(self):
        # alpha^(1/4 - 1/2) diverges as alpha drops to zero
        verdict = check_f2_f3(FFunction("neg_inv_sqrt", 0.25))
        assert not verdict.f3_passed

    def test_neg_inv_sqrt_large_witness(self):
        verdict = check_f2_f3(FFunction("neg_inv_sqrt", 0.9))
        assert verdict.f2_passed
        assert verdict.f3_passed

    def test_details_describe_outcome(self):
        verdict = check_f2_f3(FFunction("log"))
        assert "strictly decreasing" in verdict.f2_detail
        assert "final value" in verdict.f3_detail

    @pytest.mark.parametrize("values", [[], [1.0]])
    def test_fewer_than_two_values_are_not_decreasing(self, values):
        assert not eventually_strictly_decreasing(values)

    def test_decay_witnesses(self):
        # F = -1/sqrt at 1/4 and 1/16 with k = 1/2: F falls, each weight is 1
        witnesses = decay_witnesses([0.25, 0.0625], [-2.0, -4.0], 0.5)
        assert witnesses == ([1.0, 1.0], True, False)
        alphas = [10.0 ** (-2 * i) for i in range(1, 9)]
        f_values = [math.log(a) for a in alphas]
        weights, f_decreasing, weight_decreasing = decay_witnesses(alphas, f_values, 0.5)
        expected = [abs(a**0.5 * v) for a, v in zip(alphas, f_values)]
        assert [w.hex() for w in weights] == [w.hex() for w in expected]
        assert f_decreasing and weight_decreasing

    def test_bad_witness_exponent(self):
        # k is F's own: an F with k outside (0, 1) cannot be made to probe
        with pytest.raises(InvariantError, match=r"^k must lie in \(0, 1\), got 1.5$"):
            FFunction("log", 1.5)


class TestInfimumAttainment:
    def test_interval_plus_point(self):
        A = CompactSet([(1.0, 2.0), (5.0, 5.0)])
        verdict = check_f4(FFunction("log"), A)
        assert verdict.passed
        assert verdict.lhs == pytest.approx(math.log(1.0), abs=1e-12)

    def test_random_positive_sets(self):
        import numpy as np

        rng = np.random.default_rng(11)
        for _ in range(100):
            A = random_compact_set(rng, lo=0.5, hi=20.0)
            verdict = check_f4(FFunction("log"), A)
            assert verdict.passed
            assert verdict.lhs <= verdict.rhs + 1e-9

    def test_nonpositive_set_rejected(self):
        with pytest.raises(DomainError):
            check_f4(FFunction("log"), CompactSet(((0.0, 1.0),)))
        with pytest.raises(DomainError):
            check_f4(FFunction("log"), CompactSet(((-2.0, -1.0),)))


class TestLogShiftIdentity:
    # for F = ln, the shifted inequality tau + F(u) <= F(v) is exactly
    # u <= exp(-tau) * v, which gives an independent route to the verdict
    @given(
        u=st.floats(min_value=1e-6, max_value=1e6),
        v=st.floats(min_value=1e-6, max_value=1e6),
        tau=st.floats(min_value=1e-3, max_value=5.0),
    )
    def test_equivalence(self, u, v, tau):
        F = FFunction("log")
        lhs_holds = tau + f_eval(F, u) <= f_eval(F, v)
        scaled = math.exp(-tau) * v
        # skip razor-thin ties where the two float routes can disagree
        assume(abs(u - scaled) > 1e-9 * max(u, scaled))
        assert lhs_holds == (u <= scaled)
