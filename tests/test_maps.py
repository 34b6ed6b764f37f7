import math
from dataclasses import replace

import numpy as np
import pytest
from helpers import outcome, validate_map_scalar

from mvfix import (
    CompactSet,
    DomainError,
    EvalError,
    InvariantError,
    MvfixError,
    Num,
    apply_map,
    dist_point_set,
    domain_grid,
    finite_set_map,
    interval_map,
    is_fixed_point,
    singleton_map,
    table_map,
)
from mvfix.maps import ENDPOINT_SLACK, MultiMap, _as_ast, _nearest_step, _value_set, image_arrays
from mvfix.sets1d import _nearest

UNIT = CompactSet.interval(0.0, 1.0)


def halving_map():
    return interval_map(UNIT, "x/4", "(x+1)/2")


class TestIntervalMap:
    def test_value_at_zero(self):
        assert apply_map(halving_map(), 0.0) == CompactSet.interval(0.0, 0.5)

    def test_value_at_one(self):
        assert apply_map(halving_map(), 1.0) == CompactSet.interval(0.25, 1.0)

    def test_value_inside(self):
        got = apply_map(halving_map(), 0.2)
        assert got.intervals == ((pytest.approx(0.05), pytest.approx(0.6)),)

    def test_values_stay_sets(self):
        T = halving_map()
        rng = np.random.default_rng(2)
        for x in rng.uniform(0.0, 1.0, 200):
            A = apply_map(T, float(x))
            assert A.min <= A.max

    def test_inverted_endpoints_rejected(self):
        with pytest.raises(InvariantError):
            interval_map(UNIT, "x", "x/2")

    def test_near_tie_collapses_to_point(self):
        # lo exceeds hi by well under the slack, so the value is a singleton
        T = interval_map(UNIT, "x + 1e-15", "x")
        A = apply_map(T, 0.5)
        assert A.total_length == 0.0
        assert len(A.intervals) == 1

    def test_bad_expression_rejected_at_construction(self):
        with pytest.raises(EvalError):
            interval_map(UNIT, "1/x", "2/x")

    def test_every_fixed_point_on_grid(self):
        # x in [x/4, (x+1)/2] for all x in [0, 1], so D(x, Tx) = 0 everywhere
        T = halving_map()
        for x in domain_grid(UNIT, 101):
            assert is_fixed_point(T, x, tol=0.0)


class TestSingletonMap:
    def test_value(self):
        T = singleton_map(UNIT, "x/2")
        assert apply_map(T, 0.8) == CompactSet.point(0.4)

    def test_only_origin_is_fixed(self):
        T = singleton_map(UNIT, "x/2")
        assert is_fixed_point(T, 0.0)
        assert not is_fixed_point(T, 0.5)
        assert is_fixed_point(T, 0.5, tol=0.25)


class TestFiniteSetMap:
    def test_two_branches(self):
        T = finite_set_map(UNIT, ["x/4", "x/2"])
        assert apply_map(T, 0.8) == CompactSet([(0.2, 0.2), (0.4, 0.4)])

    def test_needs_members(self):
        with pytest.raises(InvariantError):
            finite_set_map(UNIT, [])


class TestTableMap:
    def build(self):
        return table_map(
            CompactSet.interval(0.0, 2.0),
            [(0.0, CompactSet.interval(0.0, 0.5)), (1.0, [(0.2, 0.3)])],
        )

    def test_exact_hit(self):
        T = self.build()
        assert apply_map(T, 0.0) == CompactSet.interval(0.0, 0.5)
        assert apply_map(T, 1.0) == CompactSet.interval(0.2, 0.3)

    def test_near_miss_is_an_error(self):
        with pytest.raises(DomainError):
            apply_map(self.build(), 1.0 + 1e-9)

    def test_key_outside_domain_rejected(self):
        with pytest.raises(InvariantError):
            table_map(UNIT, [(2.0, CompactSet.point(0.0))])

    def test_empty_table_rejected(self):
        with pytest.raises(InvariantError):
            table_map(UNIT, [])


class TestApplication:
    def test_outside_domain_rejected(self):
        with pytest.raises(DomainError):
            apply_map(halving_map(), 1.5)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(DomainError):
            is_fixed_point(halving_map(), 0.5, tol=-1.0)

    def test_nan_tolerance_rejected(self):
        # d <= nan is False, which would read as "not a fixed point"
        with pytest.raises(DomainError, match="tolerance must be >= 0, got nan"):
            is_fixed_point(halving_map(), 0.0, tol=math.nan)

    def test_describe_shows_endpoints(self):
        text = halving_map().describe()
        assert text.startswith("T(x) = [")
        assert "x / 4" in text

    def test_distance_route_consistency(self):
        # is_fixed_point must agree with the raw distance computation
        T = singleton_map(UNIT, "x/2")
        rng = np.random.default_rng(9)
        for x in rng.uniform(0.0, 1.0, 100):
            x = float(x)
            d = dist_point_set(x, apply_map(T, x))
            assert is_fixed_point(T, x, tol=d)
            if d > 0:
                assert not is_fixed_point(T, x, tol=d * 0.5)

    def test_compiled_expressions_are_not_fields_that_show(self):
        T = halving_map()
        again = MultiMap(UNIT, "interval_endpoints", lo=T.lo, hi=T.hi)
        assert again == T and hash(again) == hash(T)
        assert repr(again) == repr(T) and "_compiled" not in repr(T)
        with pytest.raises(TypeError):
            MultiMap(UNIT, "singleton", members=T.members, _compiled=())

    def test_replace_recompiles(self):
        T = replace(halving_map(), hi=_as_ast("(x+1)/4"))
        assert apply_map(T, 1.0) == CompactSet.interval(0.25, 0.5)


GAPPED = CompactSet([(0.0, 0.25), (0.75, 1.0)])
POINTS = CompactSet.from_points([0.0, 0.5, 1.0])

# (kind, domain, expressions) covering acceptance and every rejection route
VALIDATION_CASES = [
    ("interval_endpoints", UNIT, ("x/4", "(x+1)/2")),
    ("interval_endpoints", UNIT, ("x", "x/2")),  # inverted beyond the slack
    ("interval_endpoints", UNIT, ("x + 1e-15", "x")),  # inverted within the slack
    ("interval_endpoints", UNIT, ("1/x", "2/x")),
    ("interval_endpoints", UNIT, ("sqrt(x - 0.5)", "2")),
    ("interval_endpoints", UNIT, ("exp(1000*x)", "exp(1000*x) + 1")),
    ("interval_endpoints", UNIT, ("(-1)^x", "2")),
    ("interval_endpoints", UNIT, (Num(-math.inf), "x")),  # non-finite endpoint
    ("interval_endpoints", GAPPED, ("1/(x - 0.5)", "1/(x - 0.5) + 1")),
    ("singleton", UNIT, ("x - x^2",)),
    ("singleton", UNIT, ("ln(x)",)),
    ("singleton", POINTS, ("1/(x - 0.5)",)),
    ("singleton", GAPPED, ("1/(x - 0.5)",)),
    ("finite_set", UNIT, ("x/2", "x/2", "1 - x/2")),  # coinciding members
    ("finite_set", UNIT, ("x/2", "1/(x - 1)")),
    ("finite_set", UNIT, ("x", Num(math.inf))),
    ("singleton", UNIT, (Num(math.nan),)),  # non-finite member
    ("interval_endpoints", UNIT, ("x", "0.5")),  # inverted from mid-grid on
    ("interval_endpoints", UNIT, ("x/4", "sqrt(0.3 - x) + 1")),  # fails from mid-grid on
]


def _unvalidated(kind, domain, exprs):
    asts = tuple(_as_ast(e) for e in exprs)
    if kind == "interval_endpoints":
        return MultiMap(domain, kind, lo=asts[0], hi=asts[1])
    return MultiMap(domain, kind, members=asts)


def _factory(kind, domain, exprs):
    if kind == "interval_endpoints":
        return interval_map(domain, *exprs)
    if kind == "singleton":
        return singleton_map(domain, *exprs)
    return finite_set_map(domain, exprs)


class TestArrayValidation:
    @pytest.mark.parametrize("kind, domain, exprs", VALIDATION_CASES)
    def test_same_verdict_as_scalar_loop(self, kind, domain, exprs):
        expected = outcome(validate_map_scalar, _unvalidated(kind, domain, exprs))
        assert outcome(_factory, kind, domain, exprs) == expected

    @pytest.mark.parametrize(
        "lo, hi, error",
        [
            (
                "x",
                "0.5",
                (InvariantError, "map endpoints inverted at x = 0.5001: lo = 0.5001, hi = 0.5"),
            ),
            ("x/4", "sqrt(0.3 - x) + 1", (EvalError, "sqrt of negative value in 'sqrt(0.3 - x)'")),
        ],
    )
    def test_error_names_the_first_bad_point(self, lo, hi, error):
        # both fail from mid-grid on
        assert outcome(interval_map, UNIT, lo, hi) == error

    @pytest.mark.parametrize("kind, domain, exprs", VALIDATION_CASES)
    def test_image_arrays_match_apply_map(self, kind, domain, exprs):
        T = _unvalidated(kind, domain, exprs)
        xs = domain_grid(domain, 41) + [-0.5, 0.5, 2.0]
        # one interval per image, or one row per point member
        lo, hi = (np.atleast_2d(a) for a in image_arrays(T, np.array(xs)))
        for i, x in enumerate(xs):
            try:
                S = apply_map(T, x)
            except MvfixError:
                assert np.isnan(lo[:, i]).all() and np.isnan(hi[:, i]).all(), x
                continue
            assert not (np.isnan(lo[:, i]).any() or np.isnan(hi[:, i]).any()), x
            # members in expression order; a repeated member is one point
            assert tuple(sorted(set(zip(lo[:, i].tolist(), hi[:, i].tolist())))) == S.intervals

    def test_table_images_are_one_interval_or_failed(self):
        T = table_map(UNIT, [(0.0, [(0.0, 0.1), (0.5, 0.6)]), (1.0, [(0.2, 0.3)])])
        lo, hi = image_arrays(T, np.array([0.0, 0.5, 1.0]))
        # a one-interval image keeps its endpoints, in 1-D arrays
        assert lo.shape == hi.shape == (3,)
        assert (lo[2], hi[2]) == (0.2, 0.3)
        # the union at 0.0 and the missing key 0.5 are left to the scalar code
        assert np.isnan(lo).tolist() == np.isnan(hi).tolist() == [True, True, False]


def _one_interval_image(T, x):
    """T(x) of an interval or singleton map, built the way CompactSet checks it."""
    if T.kind == "singleton":
        return CompactSet.point(T._compiled[0](x))
    lo, hi = (fn(x) for fn in T._compiled)
    if lo > hi:
        if lo - hi > ENDPOINT_SLACK:
            raise InvariantError(f"map endpoints inverted at x = {x}: lo = {lo}, hi = {hi}")
        return CompactSet.point(0.5 * (lo + hi))
    return CompactSet.interval(lo, hi)


class TestNearestStep:
    @pytest.mark.parametrize(
        "kind, domain, exprs", [case for case in VALIDATION_CASES if case[0] != "finite_set"]
    )
    def test_same_bits_and_errors_as_the_value_set(self, kind, domain, exprs):
        T = _unvalidated(kind, domain, exprs)
        step = _nearest_step(T)
        for x in domain_grid(domain, 41):
            expected = outcome(lambda: _nearest(x, _one_interval_image(T, x)))
            assert repr(outcome(step, x)) == repr(expected), x
            assert repr(outcome(_value_set, T, x)) == repr(outcome(_one_interval_image, T, x)), x
