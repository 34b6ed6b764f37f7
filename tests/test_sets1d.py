import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    excess_by_sampling,
    hausdorff_by_sampling,
    point_dist_oracle,
    random_compact_set,
    random_points_in,
    sampling_gap,
)
from mvfix import (
    CompactSet,
    DomainError,
    InvariantError,
    dist_point_set,
    domain_grid,
    excess,
    hausdorff,
    interval_map,
    nearest_point,
    sample_points,
    table_map,
)
from mvfix.errors import SWEEP_LIMIT


class TestConstruction:
    def test_sorts_and_merges_overlap(self):
        s = CompactSet([(0.5, 2.0), (0.0, 1.0)])
        assert s.intervals == ((0.0, 2.0),)

    def test_merges_touching(self):
        s = CompactSet([(0.0, 1.0), (1.0, 2.0)])
        assert s.intervals == ((0.0, 2.0),)

    def test_keeps_disjoint_sorted(self):
        s = CompactSet([(4.0, 5.0), (1.0, 1.0)])
        assert s.intervals == ((1.0, 1.0), (4.0, 5.0))

    def test_singleton_helpers(self):
        assert CompactSet.interval(2.0, 2.0).intervals == ((2.0, 2.0),)
        assert CompactSet.from_points([3.0, 1.0]).intervals == ((1.0, 1.0), (3.0, 3.0))

    def test_rejects_empty(self):
        with pytest.raises(InvariantError):
            CompactSet([])

    @pytest.mark.parametrize("bad", [(math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0)])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(InvariantError):
            CompactSet([bad])

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_singleton_rejects_non_finite_with_the_endpoints(self, x):
        with pytest.raises(InvariantError) as err:
            CompactSet.interval(x, x)
        assert str(err.value) == f"interval endpoints must be finite, got ({x}, {x})"

    # a singleton is the interval [x, x]; its endpoints are stored as float
    @pytest.mark.parametrize("x", [0.0, -0.0, 3, np.float64(2.5), -1e-300])
    def test_singleton_is_one_float_interval(self, x):
        S = CompactSet.interval(x, x)
        assert repr(S) == repr(CompactSet.from_points([x])) == repr(CompactSet([(float(x), float(x))]))
        assert S.intervals == ((x, x),)
        assert type(S.intervals[0][0]) is float and type(S.intervals[0][1]) is float
        assert math.copysign(1.0, S.min) == math.copysign(1.0, x)  # -0.0 keeps its sign

    def test_rejects_reversed(self):
        with pytest.raises(InvariantError):
            CompactSet([(1.0, 0.0)])

    # a bool, a string or None is no endpoint, in real_number's words, as
    # the config refuses it; float() would read each of these as a number
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: CompactSet([("0", True)]), "interval endpoint lo must be a number, got '0'"),
            (lambda: CompactSet([(0.0, True)]), "interval endpoint hi must be a number, got True"),
            (lambda: CompactSet([(None, 1.0)]), "interval endpoint lo must be a number, got None"),
            (
                lambda: table_map(CompactSet.interval(0.0, 1.0), [(0.5, [("0.1", "0.2")])]),
                "interval endpoint lo must be a number, got '0.1'",
            ),
            (
                lambda: interval_map(CompactSet([(False, "1")]), "x/2", "x"),
                "interval endpoint lo must be a number, got False",
            ),
            (
                lambda: CompactSet([(0, 10**400)]),
                "interval endpoint hi must be a number, got an integer too large for a float",
            ),
        ],
    )
    def test_rejects_an_endpoint_that_is_no_number(self, build, message):
        with pytest.raises(InvariantError) as err:
            build()
        assert str(err.value) == message

    def test_numpy_and_int_endpoints_load_as_floats(self):
        S = CompactSet([(np.float64(0.25), 1), (np.int64(2), np.float32(2.5))])
        assert S.intervals == ((0.25, 1.0), (2.0, 2.5))
        assert all(type(end) is float for interval in S.intervals for end in interval)

    def test_equality_after_normalization(self):
        assert CompactSet([(0, 1), (1, 2)]) == CompactSet([(0, 2)])

    def test_membership(self):
        s = CompactSet([(0.0, 1.0), (2.0, 2.0)])
        assert 0.5 in s and 2.0 in s and 1.5 not in s


class TestPointDistance:
    def test_zero_inside(self):
        assert dist_point_set(0.5, CompactSet.interval(0.0, 1.0)) == 0.0

    def test_left_of_interval(self):
        assert dist_point_set(0.0, CompactSet.interval(0.25, 1.0)) == 0.25

    def test_between_components(self):
        # nearest piece of {1} U [4, 5] to x = 3 is the endpoint 4
        B = CompactSet([(1.0, 1.0), (4.0, 5.0)])
        assert dist_point_set(3.0, B) == 1.0
        assert point_dist_oracle(3.0, B) == 1.0

    def test_matches_oracle_randomly(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            B = random_compact_set(rng)
            x = float(rng.uniform(-12, 12))
            assert dist_point_set(x, B) == point_dist_oracle(x, B)

    def test_refuses_nan(self):
        # once inf, as no distance to NaN is below inf
        with pytest.raises(DomainError, match=r"^x must not be NaN, got nan$"):
            dist_point_set(math.nan, CompactSet.interval(0.0, 1.0))


class TestNearestPoint:
    def test_identity_inside(self):
        assert nearest_point(0.5, CompactSet.interval(0.0, 1.0)) == 0.5

    def test_clamps_to_endpoint(self):
        assert nearest_point(1.0, CompactSet.interval(1 / 3, 0.5)) == 0.5

    def test_tie_prefers_smaller(self):
        B = CompactSet([(1.0, 1.5), (2.5, 3.0)])
        assert nearest_point(2.0, B) == 1.5

    def test_membership_and_consistency(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            B = random_compact_set(rng)
            x = float(rng.uniform(-12, 12))
            p = nearest_point(x, B)
            assert p in B
            assert abs(x - p) == dist_point_set(x, B)

    def test_refuses_nan(self):
        # once 0.0, the set's minimum
        with pytest.raises(DomainError, match=r"^x must not be NaN, got nan$"):
            nearest_point(math.nan, CompactSet.interval(0.0, 1.0))


class TestExcess:
    def test_reflexive_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            A = random_compact_set(rng)
            assert excess(A, A) == 0.0

    def test_worked_values(self):
        A = CompactSet.interval(0.0, 0.5)
        B = CompactSet.interval(0.25, 1.0)
        assert excess(A, B) == 0.25
        assert excess(B, A) == 0.5

    def test_gap_midpoint_matters(self):
        # sup over A = [0, 4] against B = {0} U {4} sits at the gap midpoint 2
        A = CompactSet.interval(0.0, 4.0)
        B = CompactSet.from_points([0.0, 4.0])
        assert excess(A, B) == 2.0

    def test_against_sampling_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(150):
            A = random_compact_set(rng)
            B = random_compact_set(rng)
            approx = excess_by_sampling(A, B, n=20_000)
            exact = excess(A, B)
            assert exact >= approx - 1e-12
            assert exact <= approx + sampling_gap(A, 20_000) + 1e-12


class TestHausdorff:
    def test_worked_values(self):
        assert hausdorff(CompactSet.interval(0.0, 0.5), CompactSet.interval(0.25, 1.0)) == 0.5
        assert hausdorff(CompactSet.interval(0.0, 1.0), CompactSet.interval(2.0, 5.0)) == 4.0

    def test_single_interval_endpoint_formula(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            a, b = sorted(rng.uniform(-10, 10, 2))
            c, d = sorted(rng.uniform(-10, 10, 2))
            A, B = CompactSet.interval(a, b), CompactSet.interval(c, d)
            assert hausdorff(A, B) == max(abs(a - c), abs(b - d))

    def test_against_sampling_oracle_single_intervals(self):
        # endpoints are always sampled, and the sup sits at an endpoint for
        # single intervals, so the oracle is exact here
        rng = np.random.default_rng(29)
        for _ in range(200):
            a, b = sorted(rng.uniform(-10, 10, 2))
            c, d = sorted(rng.uniform(-10, 10, 2))
            A, B = CompactSet.interval(a, b), CompactSet.interval(c, d)
            assert hausdorff(A, B) == pytest.approx(hausdorff_by_sampling(A, B, 5000), abs=1e-9)

    @given(
        st.tuples(
            st.floats(-100, 100),
            st.floats(-100, 100),
            st.floats(-100, 100),
            st.floats(-100, 100),
        )
    )
    @settings(max_examples=300)
    def test_endpoint_formula_property(self, quad):
        a, b = sorted(quad[:2])
        c, d = sorted(quad[2:])
        A, B = CompactSet.interval(a, b), CompactSet.interval(c, d)
        assert hausdorff(A, B) == max(abs(a - c), abs(b - d))


class TestMetricAxioms:
    def test_symmetry_identity_triangle(self):
        rng = np.random.default_rng(37)
        for _ in range(300):
            A = random_compact_set(rng)
            B = random_compact_set(rng)
            C = random_compact_set(rng)
            assert hausdorff(A, B) == hausdorff(B, A)
            assert hausdorff(A, A) == 0.0
            if A != B:
                assert hausdorff(A, B) > 0.0
            assert hausdorff(A, C) <= hausdorff(A, B) + hausdorff(B, C) + 1e-12


class TestMemberDistanceBound:
    def test_point_distance_below_hausdorff(self):
        # D(a, B) <= H(A, B) for every a in A
        rng = np.random.default_rng(41)
        for _ in range(200):
            A = random_compact_set(rng)
            B = random_compact_set(rng)
            bound = hausdorff(A, B)
            for a in random_points_in(A, rng, 50):
                assert dist_point_set(a, B) <= bound + 1e-12


def _unions():
    ends = st.floats(-1e6, 1e6)
    return st.lists(st.tuples(ends, ends).map(sorted), min_size=1, max_size=5).map(CompactSet)


class TestGridAndSampling:
    # a proof over each interval of the domain covers the validation grid
    # only if every grid point lies in one of them
    @pytest.mark.parametrize(
        "A",
        [
            CompactSet.interval(0.0, 1.0),
            CompactSet([(0.0, 0.25), (0.75, 1.0)]),
            CompactSet.from_points([0.0, 0.5, 1.0]),
        ],
    )
    def test_validation_grid_lies_in_the_intervals(self, A):
        self.assert_grid_in_intervals(A)

    @given(_unions())
    @settings(max_examples=200, deadline=None)
    def test_validation_grid_of_a_union_lies_in_the_intervals(self, A):
        self.assert_grid_in_intervals(A)

    @staticmethod
    def assert_grid_in_intervals(A):
        grid = domain_grid(A, 10_001)
        inside = np.zeros(len(grid), dtype=bool)
        for lo, hi in A.intervals:
            inside |= (lo <= grid) & (grid <= hi)
        assert inside.all(), grid[~inside]

    def test_single_interval_grid_is_linspace(self):
        got = domain_grid(CompactSet.interval(0.0, 1.0), 101)
        assert got.dtype == np.float64
        assert got.tobytes() == np.linspace(0.0, 1.0, 101).tobytes()

    def test_grid_covers_all_components(self):
        A = CompactSet([(0.0, 1.0), (2.0, 2.0), (3.0, 5.0)])
        grid = domain_grid(A, 50).tolist()
        assert 2.0 in grid
        for lo, hi in A.intervals:
            assert lo in grid and hi in grid
        assert all(x in A for x in grid)

    @pytest.mark.parametrize("size", [0, -1])
    def test_grid_of_no_points_raises(self, size):
        with pytest.raises(DomainError, match=f"^size must be an integer >= 1, got {size}$"):
            domain_grid(CompactSet.interval(0.0, 1.0), size)

    # 2.5 once ended in a raw TypeError on a point set, 10**30 in a raw
    # ValueError on an interval; tests/test_number_rules.py holds the rest
    @pytest.mark.parametrize(
        "size, words",
        [
            (2.5, "must be an integer >= 1, got 2.5"),
            (10**30, f"must be at most {SWEEP_LIMIT}, got {10**30}"),
        ],
        ids=repr,
    )
    @pytest.mark.parametrize(
        "A", [CompactSet.interval(0.0, 1.0), CompactSet.from_points([0.0, 1.0])], ids=repr
    )
    def test_grid_size_follows_its_number_rule(self, A, size, words):
        with pytest.raises(DomainError) as err:
            domain_grid(A, size)
        assert str(err.value) == f"size {words}"

    def test_grid_size_is_kept_whole(self):
        assert domain_grid(CompactSet.interval(0.0, 1.0), 3.0).tolist() == [0.0, 0.5, 1.0]
        assert domain_grid(CompactSet.from_points([0.0, 1.0, 2.0]), 2.0).tolist() == [0.0, 1.0]

    @pytest.mark.parametrize(
        "A", [CompactSet.interval(-1e308, 1e308), CompactSet([(-1e308, 0.0), (1.0, 1e308)])]
    )
    def test_overflowing_total_length_raises(self, A):
        assert A.total_length == math.inf
        with pytest.raises(DomainError, match="a 101-point grid over .* overflows a float"):
            domain_grid(A, 101)
        with pytest.raises(DomainError, match="the total length of .* overflows a float"):
            sample_points(A, np.random.default_rng(0), 10)

    def test_grid_whose_size_times_length_overflows_raises(self):
        # the length is a float, but 101 times it is not
        A = CompactSet.interval(0.0, 1e308)
        with pytest.raises(DomainError, match="a 101-point grid over"):
            domain_grid(A, 101)
        assert domain_grid(A, 1).tolist() == [0.0, 1e308]
        assert all(x in A for x in sample_points(A, np.random.default_rng(0), 100).tolist())

    def test_finite_set_grid(self):
        A = CompactSet.from_points([0.0, 1.0])
        assert domain_grid(A, 5).tolist() == [0.0, 1.0]

    def test_drawn_points_stay_inside(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            A = random_compact_set(rng)
            for _ in range(20):
                assert sample_points(A, rng, 1)[0].item() in A

    def test_vector_draws_repeat_scalar_draws(self):
        # sample_points relies on this property of the installed numpy
        for k in (1, 2, 3, 7, 64, 1000):
            scalar = np.random.default_rng(k)
            expected = [int(scalar.integers(k)) for _ in range(5000)]
            assert np.random.default_rng(k).integers(k, size=5000).tolist() == expected
        scalar = np.random.default_rng(5)
        expected = [float(scalar.random()) for _ in range(5000)]
        assert np.random.default_rng(5).random(5000).tolist() == expected

    def test_sample_points_repeat_the_scalar_walk(self):
        rng = np.random.default_rng(53)
        sets = [random_compact_set(rng) for _ in range(40)]
        sets += [CompactSet.from_points([1.0, 2.0, 3.0]), CompactSet([(-0.0, 0.0), (1.0, 2.0)])]
        for seed, A in enumerate(sets):
            drawn = sample_points(A, np.random.default_rng(seed), 200)
            expected = random_points_in(A, np.random.default_rng(seed), 200)
            assert [v.hex() for v in drawn.tolist()] == [float(v).hex() for v in expected]

    def test_draws_from_finite_sets(self):
        rng = np.random.default_rng(47)
        A = CompactSet.from_points([1.0, 2.0, 3.0])
        seen = {sample_points(A, rng, 1)[0].item() for _ in range(100)}
        assert seen <= {1.0, 2.0, 3.0}
        assert len(seen) == 3
