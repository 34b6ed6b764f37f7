import contextlib
import functools
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import certify_scalar
from mvfix import (
    CompactSet,
    ConstantIntegrand,
    DomainError,
    ExponentialIntegrand,
    FFunction,
    MvfixError,
    PairEvaluation,
    PowerIntegrand,
    analysis,
    certify,
    domain_grid,
    evaluate_pair,
    evaluate_pairs,
    expression_integrand,
    finite_set_map,
    interval_map,
    iterate,
    m_value,
    parse_expr,
    singleton_map,
    table_map,
)
from mvfix import integrand, sets1d
from mvfix.analysis import SWEEP_LIMIT
from mvfix.maps import MultiMap, image_arrays

UNIT = CompactSet.interval(0.0, 1.0)
LOG = FFunction("log")
ONE = ConstantIntegrand(1.0)


def halving_interval_map():
    return interval_map(UNIT, "x/4", "(x+1)/2")


def halving_point_map():
    return singleton_map(UNIT, "x/2")


FOUR_POINTS = finite_set_map(UNIT, ["x/4", "x/3", "(x+1)/2", "0.9*x"])
NONPOSITIVE = CompactSet.interval(-1.0, -0.0)


def swept_columns(T, F, f, grid_size=101, random_pairs=1000, seed=42, mode="hausdorff"):
    """The chunks of certify's sweep concatenated: sweep index, columns and error rows."""
    blocks = list(analysis._sweep(T, F, f, grid_size, random_pairs, seed, mode))
    parts = [block.columns() for block in blocks]
    for index, columns in parts:
        assert {len(c) for c in columns} == {len(index)}
    index = np.concatenate([index for index, _ in parts])
    columns = tuple(np.concatenate(c) for c in zip(*(columns for _, columns in parts)))
    return index, columns, [row for block in blocks for row in block.errors]


def sweep_pairs(T, F, f, grid_size=101, random_pairs=1000, seed=42, mode="hausdorff"):
    """Every evaluated pair of certify's sweep as a PairEvaluation, sorted by (x, y)."""
    index, columns, _ = swept_columns(T, F, f, grid_size, random_pairs, seed, mode)
    values = list(zip(*(c.tolist() for c in columns)))
    # (x, y) order, ties in sweep order
    order = sorted(range(len(values)), key=lambda k: (*values[k][:2], index[k]))
    return [
        PairEvaluation(x, y, h, m, phi_h, phi_m, None if math.isnan(margin) else margin)
        for x, y, h, m, phi_h, phi_m, margin in (values[k] for k in order)
    ]


class TestDisplacement:
    def test_interval_map_endpoints(self):
        # both 0 and 1 lie inside their value sets, so only |x - y| and the
        # cross terms matter; the cross average is (0 + 0.5) / 2 = 0.25
        T = halving_interval_map()
        assert m_value(T, 0.0, 1.0) == 1.0

    def test_point_map(self):
        # for T(x) = {x/2}: d = 1, D(0, T0) = 0, D(1, T1) = 0.5,
        # cross = (|0 - 0.5| + |1 - 0|) / 2 = 0.75
        T = halving_point_map()
        assert m_value(T, 0.0, 1.0) == 1.0
        assert m_value(T, 0.5, 1.0) == 0.5

    def test_symmetry(self):
        T = halving_interval_map()
        rng = np.random.default_rng(4)
        for _ in range(50):
            x, y = rng.uniform(0.0, 1.0, 2)
            assert m_value(T, float(x), float(y)) == m_value(T, float(y), float(x))

    def test_dominates_plain_distance(self):
        T = halving_point_map()
        rng = np.random.default_rng(8)
        for _ in range(50):
            x, y = rng.uniform(0.0, 1.0, 2)
            assert m_value(T, float(x), float(y)) >= abs(x - y)


class TestPairEvaluation:
    def test_worked_pair_hausdorff(self):
        ev = evaluate_pair(halving_interval_map(), LOG, ONE, 0.0, 1.0)
        assert ev.h == 0.5
        assert ev.m == 1.0
        assert ev.phi_h == 0.5
        assert ev.phi_m == 1.0
        assert ev.margin == pytest.approx(math.log(2.0), abs=1e-15)

    def test_worked_pair_excess(self):
        ev = evaluate_pair(halving_interval_map(), LOG, ONE, 0.0, 1.0, mode="excess")
        assert ev.h == 0.25
        assert ev.margin == pytest.approx(math.log(4.0), abs=1e-15)

    def test_excess_mode_pair_order(self):
        # the excess of T(x) over T(y): certify's x < y order gives ln 4,
        # the reverse order ln 2, as hausdorff mode does
        T = halving_interval_map()
        assert abs(evaluate_pair(T, LOG, ONE, 0.0, 1.0, "excess").margin - math.log(4.0)) <= 1e-12
        assert abs(evaluate_pair(T, LOG, ONE, 1.0, 0.0, "excess").margin - math.log(2.0)) <= 1e-12
        # evaluate_pairs keeps the given order too
        _, columns, _ = evaluate_pairs(T, LOG, ONE, [0.0, 1.0], [1.0, 0.0], "excess")
        assert np.abs(columns[-1] - [math.log(4.0), math.log(2.0)]).max() <= 1e-12

    def test_equal_points_are_vacuous(self):
        ev = evaluate_pair(halving_interval_map(), LOG, ONE, 0.3, 0.3)
        assert ev.h == 0.0
        assert ev.margin is None

    def test_bad_mode(self):
        with pytest.raises(DomainError):
            evaluate_pair(halving_interval_map(), LOG, ONE, 0.0, 1.0, mode="sup")


class TestPairChecks:
    """The single-pair conditions, read off evaluate_pair's fields."""

    def test_f_integral_holds_and_fails(self):
        T = halving_point_map()
        # margin is exactly ln 2 on every non-vacuous pair of this map
        ev = evaluate_pair(T, LOG, ONE, 0.0, 1.0)
        assert math.log(2.0) <= ev.margin + 1e-12
        assert not 0.8 <= ev.margin + 1e-12
        assert evaluate_pair(T, LOG, ONE, 0.25, 0.25).margin is None

    def test_ojha_boundary(self):
        # excess(T(0), T(1)) = 1/4 and m = 1, so alpha = 1/4 sits on the edge
        T = halving_interval_map()
        ev = evaluate_pair(T, LOG, ONE, 0.0, 1.0, mode="excess")
        assert ev.phi_h <= 0.25 * ev.phi_m + 1e-12
        assert not ev.phi_h <= 0.2 * ev.phi_m + 1e-12
        ev = evaluate_pair(T, LOG, ONE, 0.0, 1.0, mode="hausdorff")
        assert ev.phi_h <= 0.5 * ev.phi_m + 1e-12

    def test_nadler_boundary(self):
        ev = evaluate_pair(halving_point_map(), LOG, ONE, 0.0, 1.0)
        assert ev.h <= 0.5 * abs(ev.x - ev.y) + 1e-12
        assert not ev.h <= 0.4 * abs(ev.x - ev.y) + 1e-12


class TestCertify:
    def test_halving_point_map_modulus(self):
        # F(Phi(h)) = ln(|x-y|/2) and F(Phi(m)) = ln|x-y|, margin = ln 2
        report = certify(halving_point_map(), LOG, ONE)
        assert report.tau_star is not None
        assert abs(report.tau_star - math.log(2.0)) <= 1e-9
        assert not report.violations
        assert report.evaluated_pairs == 101 * 100 // 2 + 1000

    def test_identity_map_has_no_margin(self):
        # T(x) = {x}: h = m = |x - y|, so every margin is exactly zero
        report = certify(singleton_map(UNIT, "x"), LOG, ONE)
        assert report.tau_star == 0.0
        assert report.violation_count == report.evaluated_pairs - report.vacuous_pairs
        assert len(report.violations) == analysis.VIOLATION_ROWS

    def test_constant_map_is_all_vacuous(self):
        report = certify(interval_map(UNIT, "0", "0"), LOG, ONE)
        assert report.tau_star is None
        assert report.worst_pair is None
        assert report.vacuous_pairs == report.evaluated_pairs

    def test_worked_interval_map_excess_mode(self):
        # h = excess = |x-y|/4 and m = |x-y| on this map, margin = ln 4
        report = certify(halving_interval_map(), LOG, ONE, mode="excess")
        assert abs(report.tau_star - math.log(4.0)) <= 1e-9

    def test_worked_interval_map_hausdorff_mode(self):
        # h = H = |x-y|/2 and m = |x-y|, margin = ln 2
        report = certify(halving_interval_map(), LOG, ONE)
        assert abs(report.tau_star - math.log(2.0)) <= 1e-9

    # the moduli with the displacement M of six maps at grid 201 + 2000,
    # seed 1: (map, mode, tau_star, violation_count, vacuous_pairs)
    @pytest.mark.parametrize(
        "make, mode, tau_star, violations, vacuous",
        [
            (halving_interval_map, "hausdorff", 0.6931471805560339, 0, 0),
            (halving_interval_map, "excess", 1.38629436111989, 0, 0),
            (lambda: singleton_map(UNIT, "(1-x)/2 + x^2/2"), "hausdorff", 1.3862943611198904, 0, 75),
            (lambda: singleton_map(UNIT, "1 - x^2"), "hausdorff", -0.09808575034389122, 1343, 0),
            (lambda: singleton_map(UNIT, "0.9 - 0.9*x^2"), "hausdorff", -0.02581243806692557, 94, 0),
            (lambda: singleton_map(UNIT, "x^2"), "hausdorff", -0.2868469993343581, 8147, 0),
        ],
        ids=["interval", "interval-excess", "half-square", "one-minus-square",
             "scaled-one-minus-square", "square"],
    )
    def test_modulus_regressions(self, make, mode, tau_star, violations, vacuous):
        report = certify(make(), LOG, ONE, grid_size=201, random_pairs=2000, seed=1, mode=mode)
        assert abs(report.tau_star - tau_star) <= 1e-12
        assert report.violation_count == violations
        assert report.vacuous_pairs == vacuous
        assert report.error_count == 0

    def test_excess_margin_dominates_hausdorff_margin(self):
        # excess <= hausdorff pointwise and F is increasing, so per-pair
        # margins in excess mode can only be larger
        T = halving_interval_map()
        hs = sweep_pairs(T, LOG, ONE, grid_size=21, random_pairs=50)
        ex = sweep_pairs(T, LOG, ONE, grid_size=21, random_pairs=50, mode="excess")
        by_key = {(p.x, p.y): p for p in hs}
        compared = 0
        for p in ex:
            q = by_key[(p.x, p.y)]
            if p.margin is None or q.margin is None:
                continue
            assert p.margin >= q.margin - 1e-12
            compared += 1
        assert compared > 200

    def test_margin_sign_tracks_distance_comparison(self):
        # F monotone means margin >= 0 exactly when h <= m (up to rounding)
        for p in sweep_pairs(halving_interval_map(), LOG, ONE, grid_size=31, random_pairs=100):
            if p.margin is None:
                continue
            if p.margin > 1e-12:
                assert p.h < p.m + 1e-12
            if p.h > p.m + 1e-12:
                assert p.margin < 1e-12

    def test_per_pair_errors_are_collected(self):
        # a table with one entry: lookups at the other grid point fail but
        # the sweep still completes
        domain = CompactSet([(0.0, 0.0), (1.0, 1.0)])
        T = table_map(domain, [(0.0, CompactSet.interval(0.0, 0.0))])
        report = certify(T, LOG, ONE, grid_size=2, random_pairs=0)
        assert report.evaluated_pairs == 0
        assert report.tau_star is None
        assert len(report.errors) == 1
        assert report.errors[0][:2] == (0.0, 1.0)

    def test_determinism(self):
        a = certify(halving_interval_map(), LOG, ONE, grid_size=11, random_pairs=200, seed=7)
        b = certify(halving_interval_map(), LOG, ONE, grid_size=11, random_pairs=200, seed=7)
        assert a == b

    def test_seed_changes_random_pairs(self):
        a = sweep_pairs(halving_point_map(), LOG, ONE, grid_size=5, random_pairs=20, seed=1)
        b = sweep_pairs(halving_point_map(), LOG, ONE, grid_size=5, random_pairs=20, seed=2)
        assert a != b

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            certify(halving_point_map(), LOG, ONE, grid_size=1)
        with pytest.raises(DomainError):
            certify(halving_point_map(), LOG, ONE, random_pairs=-1)

    # a bool is no number here, as in the config
    @pytest.mark.parametrize(
        "value, words",
        [
            (math.nan, "must be an integer >= 2, got nan"),
            (math.inf, "must be an integer >= 2, got inf"),
            (2.5, "must be an integer >= 2, got 2.5"),
            (True, "must be a number, got True"),
            (False, "must be a number, got False"),
        ],
    )
    def test_grid_size_must_be_an_integer(self, value, words):
        with pytest.raises(DomainError) as err:
            certify(halving_point_map(), LOG, ONE, grid_size=value)
        assert str(err.value) == f"grid_size {words}"

    @pytest.mark.parametrize(
        "value, words",
        [
            (math.nan, "must be an integer >= 0, got nan"),
            (math.inf, "must be an integer >= 0, got inf"),
            (0.5, "must be an integer >= 0, got 0.5"),
            (True, "must be a number, got True"),
            (False, "must be a number, got False"),
        ],
    )
    def test_random_pairs_must_be_an_integer(self, value, words):
        with pytest.raises(DomainError) as err:
            certify(halving_point_map(), LOG, ONE, random_pairs=value)
        assert str(err.value) == f"random_pairs {words}"

    def test_whole_float_sizes_and_seed_run_as_integers(self):
        # as in the config, a whole float counts as the integer it equals
        report = certify(halving_point_map(), LOG, ONE, grid_size=21, random_pairs=3, seed=7)
        whole = certify(halving_point_map(), LOG, ONE, grid_size=21.0, random_pairs=3.0, seed=7.0)
        assert whole == report
        assert [type(v) for v in (whole.grid_size, whole.random_pairs, whole.seed)] == [int] * 3

    # refused before the grid or the drawn points are allocated
    @pytest.mark.parametrize("name", ["grid_size", "random_pairs"])
    def test_sweep_size_is_at_most_the_limit(self, name):
        with pytest.raises(DomainError) as err:
            certify(halving_point_map(), LOG, ONE, **{name: 10**20})
        assert str(err.value) == f"{name} must be at most {SWEEP_LIMIT}, got {10**20}"

    @pytest.mark.parametrize(
        "value, words",
        [
            (-1, "must be >= 0, got -1"),
            (1.5, "must be an integer, got 1.5"),
            (math.nan, "must be an integer, got nan"),
            (True, "must be a number, got True"),
            (False, "must be a number, got False"),
        ],
    )
    def test_seed_must_be_a_nonnegative_integer(self, value, words):
        with pytest.raises(DomainError) as err:
            certify(halving_point_map(), LOG, ONE, seed=value)
        assert str(err.value) == f"seed {words}"


class TestReportOrder:
    """The reported rows come in (x, y) order whatever order the sweep made them in."""

    # (x, y, h, margin) in sweep order; counting from 0, rows 1, 3 and 4
    # tie at the least margin, rows 3 and 4 are the same pair, and rows 0
    # and 5 violate with margins 0.0 and -0.0
    ROWS = [
        (0.5, 0.75, 0.1, 0.0),
        (0.25, 0.75, 0.2, -1.0),
        (0.0, 1.0, 0.3, math.nan),
        (0.25, 0.5, 0.4, -1.0),
        (0.25, 0.5, 0.5, -1.0),
        (0.1, 0.2, 0.6, -0.0),
        (0.0, 0.5, 0.7, 2.0),
    ]
    ERRORS = [(0.75, 1.0, "c"), (0.0, 0.5, "b"), (0.5, 0.6, "d"), (0.0, 0.25, "a")]

    def report(self):
        # three blocks, each its rows, then its failed pairs with NaN
        # margins: rows 0-2 at sweep indices 0-4, rows 4-6 at 7-10, then
        # row 3 at 5-6, so the tie and the duplicate pair span blocks and
        # the later duplicate comes first
        blocks = []
        for start, rows, errors in [(0, [0, 1, 2], [0, 1]), (7, [4, 5, 6], [2]), (5, [3], [3])]:
            failed = [(*self.ERRORS[k][:2], 0.0, math.nan) for k in errors]
            x, y, h, margin = (np.array(c) for c in zip(*(self.ROWS[k] for k in rows), *failed))
            hm = np.stack([h, 2.0 * h])  # with Phi(u) = u
            errors = [
                (*self.ERRORS[k][:2], start + len(rows) + i, self.ERRORS[k][2])
                for i, k in enumerate(errors)
            ]
            inverse = np.arange(hm.size).reshape(hm.shape)
            blocks.append(analysis._Block(start, x, y, hm, hm.ravel(), inverse, margin, errors))
        with mock.patch.object(analysis, "_sweep", return_value=iter(blocks)):
            return certify(halving_point_map(), LOG, ONE)

    def test_worst_pair_is_the_first_tied_pair(self):
        report = self.report()
        assert report.worst_pair == PairEvaluation(0.25, 0.5, 0.4, 0.8, 0.4, 0.8, -1.0)
        assert report.tau_star == -1.0
        assert report.vacuous_pairs == 1 and report.evaluated_pairs == 7

    def test_violations_in_pair_order(self):
        rows = [(p.x, p.y, p.h) for p in self.report().violations]
        assert rows == [
            (0.1, 0.2, 0.6),
            (0.25, 0.5, 0.4),
            (0.25, 0.5, 0.5),
            (0.25, 0.75, 0.2),
            (0.5, 0.75, 0.1),
        ]

    def test_errors_in_pair_order(self):
        assert [msg for _, _, msg in self.report().errors] == ["a", "b", "d", "c"]

    def test_swept_violations_and_errors_in_pair_order(self):
        # identity map: every margin is 0, so every drawn pair is a violation
        report = certify(singleton_map(UNIT, "x"), LOG, ONE, grid_size=3, random_pairs=30)
        pairs = [(p.x, p.y) for p in report.violations]
        assert len(pairs) == 33 and pairs == sorted(pairs)
        # a table keyed at 0 alone: every pair fails, as its y is never 0
        T = table_map(UNIT, [(0.0, CompactSet.interval(0.0, 0.0))])
        report = certify(T, LOG, ONE, grid_size=3, random_pairs=30)
        pairs = [(x, y) for x, y, _ in report.errors]
        assert len(pairs) == 33 and pairs == sorted(pairs)


class TestBoundedRows:
    def test_error_rows_are_capped_and_counted(self):
        # a table keyed at 0 alone: every pair fails, as its y is never 0
        T = table_map(UNIT, [(0.0, CompactSet.interval(0.0, 0.0))])
        args = dict(grid_size=21, random_pairs=100, seed=42, mode="hausdorff")
        report = certify(T, LOG, ONE, **args)
        oracle = certify_scalar(T, LOG, ONE, **args)
        assert report.error_count == oracle.error_count == 21 * 20 // 2 + 100
        assert len(report.errors) == analysis.ERROR_ROWS < report.error_count
        assert report.errors == oracle.errors
        assert report.evaluated_pairs == 0

    def test_sweep_memory_is_set_by_the_chunk(self):
        self.assert_peak_at_most(halving_interval_map(), "hausdorff", 10e6)

    @pytest.mark.parametrize("mode, bound", [("excess", 825_100), ("hausdorff", 817_400)])
    def test_point_sweep_memory_is_set_by_the_chunk(self, mode, bound):
        # the bounds are the measured peaks (825,089 and 817,386 B) of the
        # point form that broadcast a K x K gap block, so it cannot come back
        self.assert_peak_at_most(FOUR_POINTS, mode, bound)

    @staticmethod
    def assert_peak_at_most(T, mode, bound):
        # 501,500 pairs; every per-pair array is freed with its chunk
        certify(T, LOG, ONE, grid_size=2, random_pairs=1, mode=mode)  # imports done
        tracemalloc.start()
        try:
            report = certify(T, LOG, ONE, grid_size=1001, random_pairs=1000, mode=mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.evaluated_pairs == 1001 * 1000 // 2 + 1000
        assert peak <= bound


class TestNumericFailures:
    def test_overflowing_phi_h_is_an_error_not_a_nan(self):
        # Phi(h) = 1e308 * |x - y| / 2 overflows once |x - y| >= 4, which
        # used to leave inf - inf = NaN margins out of tau_star unrecorded
        T = singleton_map(CompactSet.interval(0.0, 10.0), "x/2")
        report = certify(T, LOG, ConstantIntegrand(1e308), grid_size=11, random_pairs=0)
        assert len(report.errors) == 28
        assert report.evaluated_pairs == 27
        assert report.vacuous_pairs == 0
        assert all(abs(x - y) >= 4.0 for x, y, _ in report.errors)
        assert all("Phi(h) is not finite" in msg for _, _, msg in report.errors)
        assert abs(report.tau_star - math.log(2.0)) <= 1e-9

    @pytest.mark.parametrize("mode", analysis.MODES)
    def test_phi_h_overflow_is_an_error_where_F_is_finite_at_inf(self, mode):
        # F(t) = -1/sqrt(t) is -0.0 at t = inf, so only the inf Phi(h)
        # itself sends these pairs to the scalar code, which refuses them
        T, f = singleton_map(CompactSet.interval(0.0, 10.0), "x/2"), ConstantIntegrand(1e308)
        F, args = FFunction("neg_inv_sqrt"), dict(grid_size=11, random_pairs=0, mode=mode)
        report = certify(T, F, f, **args)
        assert (report.error_count, report.evaluated_pairs) == (28, 27)
        assert all("Phi(h) is not finite" in msg for _, _, msg in report.errors)
        assert_bitwise_equal(report, sweep_pairs(T, F, f, **args), certify_scalar(T, F, f, **args))

    @pytest.mark.parametrize("mode", analysis.MODES)
    def test_own_distance_overflow_is_redone(self, mode):
        # x + 1.8e308 overflows in the point-image own distances; the inf
        # is redone by the scalar code, and no RuntimeWarning escapes.  The
        # image is the same set at every x, so every pair is vacuous
        T = finite_set_map(
            CompactSet.interval(0.0, 1e305), ["1.7976931348623157e308", "-1.7976931348623157e308"]
        )
        args = dict(grid_size=5, random_pairs=2, seed=42, mode=mode)
        report = certify(T, LOG, ONE, **args)
        assert report.vacuous_pairs == report.evaluated_pairs == 12
        assert_bitwise_equal(
            report, sweep_pairs(T, LOG, ONE, **args), certify_scalar(T, LOG, ONE, **args)
        )

    @pytest.mark.parametrize("mode", analysis.MODES)
    @example(seed=3)
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_vacuous_redone_and_ordinary_pairs_in_one_chunk(self, mode, seed):
        # min(x, 0.5) is the identity below 0.5 and constant above it, and
        # Phi(u) = u^201 / 201 underflows to 0, where F is undefined, for u
        # below about 0.025.  So the grid alone puts in one chunk ordinary
        # pairs, vacuous pairs, close pairs below 0.5 that are redone and
        # fail, and a vacuous pair near 0.5 whose small m is redone and
        # stays vacuous; the drawn pairs vary with the seed
        T, f = singleton_map(UNIT, "min(x, 0.5)"), PowerIntegrand(p=200.0)
        args = dict(grid_size=41, random_pairs=40, seed=seed, mode=mode)
        spy = mock.patch.object(analysis, "_evaluate", wraps=analysis._evaluate)
        with spy as scalar:
            blocks = list(analysis._sweep(T, LOG, f, **args))
        report, oracle = certify(T, LOG, f, **args), certify_scalar(T, LOG, f, **args)
        assert len(blocks) == 1
        redone = {call.args[2:4] for call in scalar.call_args_list}
        vacuous = {(p.x, p.y) for p in oracle.pairs if p.margin is None}
        # a vacuous pair is redone only where F(Phi(m)) is undefined, m > 0
        undefined = {(p.x, p.y) for p in oracle.pairs if p.margin is None and p.phi_m == 0 < p.m}
        assert redone & vacuous == undefined and undefined
        assert len(redone - vacuous) == report.error_count > 0
        assert report.evaluated_pairs > report.vacuous_pairs > 0
        assert_bitwise_equal(report, sweep_pairs(T, LOG, f, **args), oracle)

    @pytest.mark.parametrize("f", [ExponentialIntegrand(rate=5.0), PowerIntegrand(p=200.0)])
    def test_phi_overflow_is_recorded_per_pair(self, f):
        T = singleton_map(CompactSet.interval(0.0, 1000.0), "x/2")
        report = certify(T, LOG, f, grid_size=21, random_pairs=10)
        assert report.errors
        assert all("overflows at u = " in msg for _, _, msg in report.errors)
        assert report.evaluated_pairs + report.error_count == 21 * 20 // 2 + 10


ORACLE_DOMAINS = {
    "interval": CompactSet.interval(0.0, 1.0),
    "union": CompactSet([(0.0, 0.4), (0.6, 1.0)]),
    "points": CompactSet.from_points([0.0, 0.25, 0.5, 1.0]),
}
ORACLE_MAPS = ("interval", "near_tie", "singleton", "finite_set", "table")
ORACLE_INTEGRANDS = {
    "constant": lambda: ConstantIntegrand(1.0),
    "power": lambda: PowerIntegrand(p=-0.5, scale=2.0),
    # Phi underflows to 0 on small h, so F raises on those pairs
    "power_underflow": lambda: PowerIntegrand(p=200.0),
    "exponential": lambda: ExponentialIntegrand(rate=3.0),
    # Phi(m) overflows to inf near m = 1, leaving a margin of +inf
    "exponential_inf": lambda: ExponentialIntegrand(rate=700.0, scale=1e10),
    "expression": lambda: expression_integrand("1 + t^2", grid_max=2.0),
    # Simpson trees dozens of panels deep, summed child by child
    "expression_deep": lambda: expression_integrand("exp(t) + abs(t - 0.3)", grid_max=2.0),
}


@functools.cache
def oracle_map(kind, domain):
    D = ORACLE_DOMAINS[domain]
    if kind == "interval":
        return interval_map(D, "x/4", "(x+1)/2")
    if kind == "near_tie":
        # lo exceeds hi by less than the slack near 0: the image collapses
        return interval_map(D, "x*x", "x*x + x/10 - 1e-13")
    if kind == "singleton":
        return singleton_map(D, "x - x^2")
    if kind == "finite_set":
        # members coincide at some x, so the number of intervals varies
        return finite_set_map(D, ["x/2", "x/2", "x*x", "min(x, 0.5)"])
    # keys 0.5 and most of the continuum are missing: those pairs error
    return table_map(
        D,
        [
            (0.0, [(0.0, 0.1)]),
            (0.25, [(0.0, 0.05), (0.2, 0.3)]),
            (1.0, [(0.4, 0.5), (0.7, 0.7), (0.9, 0.95)]),
        ],
    )


@functools.cache
def oracle_integrand(name):
    return ORACLE_INTEGRANDS[name]()


def assert_bitwise_equal(report, pairs, oracle):
    # repr of a float round-trips exactly and tells -0.0 from 0.0
    for name in (
        "tau_star",
        "worst_pair",
        "violations",
        "violation_count",
        "vacuous_pairs",
        "evaluated_pairs",
        "errors",
        "error_count",
    ):
        assert repr(getattr(report, name)) == repr(getattr(oracle, name)), name
    assert repr(tuple(pairs)) == repr(oracle.pairs), "pairs"


def test_sweep_memo_keeps_no_nan():
    # a NaN u (a failed image's, in a chunk of few u) equals no key: it is
    # computed each time, raising, and adds nothing the memo would hold
    calls = []
    once = analysis._once(lambda u: calls.append(u) or analysis.capital_phi(ONE, u))
    for u in (math.nan, math.nan, 0.5, 0.5):
        with contextlib.suppress(MvfixError):
            once(u)
    (kept,) = (c.cell_contents for c in once.__closure__ if type(c.cell_contents) is dict)
    assert list(kept) == [0.5] and len(calls) == 3


class TestBatchedSweepAgainstScalarLoop:
    @given(
        kind=st.sampled_from(ORACLE_MAPS),
        domain=st.sampled_from(sorted(ORACLE_DOMAINS)),
        integrand=st.sampled_from(sorted(ORACLE_INTEGRANDS)),
        f_kind=st.sampled_from(["log", "log_plus_linear", "neg_inv_sqrt"]),
        mode=st.sampled_from(analysis.MODES),
        grid_size=st.integers(2, 12),
        random_pairs=st.integers(0, 30),
        seed=st.integers(0, 2**32 - 1),
        chunk_elements=st.sampled_from([analysis.CHUNK_ELEMENTS, 64, 1]),
    )
    @settings(max_examples=150, deadline=None)
    def test_bit_for_bit(
        self, kind, domain, integrand, f_kind, mode, grid_size, random_pairs, seed,
        chunk_elements,
    ):
        T, f, F = oracle_map(kind, domain), oracle_integrand(integrand), FFunction(f_kind)
        args = dict(grid_size=grid_size, random_pairs=random_pairs, seed=seed, mode=mode)
        with mock.patch.object(analysis, "CHUNK_ELEMENTS", chunk_elements):
            report, pairs = certify(T, F, f, **args), sweep_pairs(T, F, f, **args)
        assert_bitwise_equal(report, pairs, certify_scalar(T, F, f, **args))

    def test_grid_max_probe_errors_match_the_scalar_loop(self):
        # 1/(2-t) is validated on [0, 1] only, so Phi fails past the pole
        # at 2 on most pairs: each error row and message is the scalar's
        T = singleton_map(CompactSet.interval(0.0, 10.0), "x/2")
        f = expression_integrand("1/(2-t)", grid_max=1.0)
        args = dict(grid_size=11, random_pairs=10, seed=1)
        report = certify(T, LOG, f, **args)
        assert (report.evaluated_pairs, report.error_count) == (4, 61)
        assert_bitwise_equal(
            report, sweep_pairs(T, LOG, f, **args), certify_scalar(T, LOG, f, **args)
        )

    def test_grid_max_probe_runs_phi_once_per_u(self):
        # 17,936 of 20,300 pairs fail and are redone by the scalar code; it
        # and the u the batch hands back share one memo, so the sweep takes
        # Phi of each of the 966 distinct u from one scalar call
        T = singleton_map(CompactSet.interval(0.0, 10.0), "x/2")
        f = expression_integrand("1/(2-t)", grid_max=1.0)
        spy = mock.patch.object(analysis, "capital_phi", wraps=analysis.capital_phi)
        with spy as phi:
            report = certify(T, LOG, f, grid_size=201, random_pairs=200, seed=1)
        us = [call.args[1] for call in phi.call_args_list]
        assert len(us) == len(set(us)) == 966
        assert (report.evaluated_pairs, report.error_count) == (2364, 17936)
        assert report.tau_star == 0.6994965783477536

    def test_failing_probe_integrates_each_u_once(self):
        # on 1 + t^0.3 every pair fails: the batch hands 1,453 u to the scalar
        # quadrature and finds 6 more failing near 0, whose message only the
        # scalar gives; the redo takes all of them from the same memo
        T = interval_map(UNIT, "x/4", "(x+1)/2")
        f = expression_integrand("1 + t^0.3", grid_max=2.0)
        spy = mock.patch.object(integrand, "adaptive_simpson", wraps=integrand.adaptive_simpson)
        with spy as quad:
            report = certify(T, LOG, f, grid_size=101, random_pairs=500)
        us = [call.args[2] for call in quad.call_args_list]
        assert len(us) == len(set(us)) == 1_459
        assert (report.evaluated_pairs, report.error_count) == (0, 5_550)

    def test_redo_images_each_point_once(self):
        # the unvalidated sqrt(x - 0.3) fails below 0.3: every pair with
        # x < 0.3 is redone by the scalar code and fails at its x, so the
        # redo images each such x once, keeps its failure, and images no y
        T = MultiMap(UNIT, "singleton", members=(parse_expr("sqrt(x - 0.3)"),))
        args = dict(grid_size=201, random_pairs=1000, seed=42)
        spy = mock.patch.object(analysis, "apply_map", wraps=analysis.apply_map)
        with spy as apply:
            report = certify(T, LOG, ONE, **args)
        imaged = [call.args[1] for call in apply.call_args_list]
        pairs = analysis._GridPairs(UNIT, 201, 1000, 42)
        x = pairs.points[pairs(0, pairs.count)[0]]
        assert sorted(imaged) == sorted(set(x[x < 0.3].tolist()))
        assert (len(imaged), report.error_count) == (559, 10_729)
        assert_bitwise_equal(
            report, sweep_pairs(T, LOG, ONE, **args), certify_scalar(T, LOG, ONE, **args)
        )

    @staticmethod
    def assert_spans_chunks(T, mode, pairs_per_chunk):
        # the chunk size the sweep really uses for these images
        evaluator = analysis._Evaluator(T, LOG, ONE, mode, domain_grid(T.domain, 11))
        assert evaluator.chunk_size == pairs_per_chunk
        grid_size = math.isqrt(4 * pairs_per_chunk) + 2  # over 2 chunks of grid pairs
        args = dict(grid_size=grid_size, random_pairs=200, seed=3, mode=mode)
        spy = mock.patch.object(analysis, "_evaluate_batch", wraps=analysis._evaluate_batch)
        with spy as batch:
            report = certify(T, LOG, ONE, **args)
        assert batch.call_count >= 3
        assert_bitwise_equal(
            report, sweep_pairs(T, LOG, ONE, **args), certify_scalar(T, LOG, ONE, **args)
        )

    @pytest.mark.parametrize("mode", analysis.MODES)
    def test_sweep_spanning_several_chunks(self, mode):
        # four-point images: the 4 members of both images and 12 columns
        self.assert_spans_chunks(FOUR_POINTS, mode, pairs_per_chunk=3276)

    @pytest.mark.parametrize("mode", analysis.MODES)
    def test_interval_sweep_spanning_several_chunks(self, mode):
        # one interval per image: four endpoint columns
        self.assert_spans_chunks(halving_interval_map(), mode, pairs_per_chunk=16384)

    @pytest.mark.parametrize("mode", analysis.MODES)
    def test_signed_zeros_take_separate_images_bit_for_bit(self, monkeypatch, mode):
        self.assert_signed_zeros_match(monkeypatch, singleton_map(NONPOSITIVE, "x/2"), mode)

    @pytest.mark.parametrize("mode", analysis.MODES)
    def test_signed_zeros_take_separate_own_distances_bit_for_bit(self, monkeypatch, mode):
        # two points: D(p, T(p)) is taken once per point, at -0.0 and at 0.0
        T = finite_set_map(NONPOSITIVE, ["x/2", "x/4 - 0.25"])
        self.assert_signed_zeros_match(monkeypatch, T, mode)

    @staticmethod
    def assert_signed_zeros_match(monkeypatch, T, mode):
        # the grid ends at -0.0 and each draw is 0.0 or -0.5: each zero is
        # imaged at its own sign, while the scalar loop's float-keyed memo
        # gives 0.0 the image of the grid's -0.0
        def draw(A, rng, n):  # n scalar draws give the same stream as one call
            return np.where(rng.random(n) < 0.5, 0.0, -0.5)

        monkeypatch.setattr(analysis, "sample_points", draw)
        monkeypatch.setattr(sets1d, "sample_points", draw)
        args = dict(grid_size=5, random_pairs=20, seed=3, mode=mode)
        spy = mock.patch.object(analysis, "image_arrays", wraps=analysis.image_arrays)
        with spy as images:
            report = certify(T, LOG, ONE, **args)
        imaged = images.call_args.args[1]
        assert len(imaged) == 5 + 2 * 20
        signs = np.signbit(imaged[imaged == 0.0])
        assert signs.any() and not signs.all()
        assert report.vacuous_pairs > 0  # the drawn (0.0, 0.0) pairs
        assert_bitwise_equal(
            report, sweep_pairs(T, LOG, ONE, **args), certify_scalar(T, LOG, ONE, **args)
        )

    def test_sweep_holds_the_pairs_as_columns(self):
        self.assert_sweep_order()

    def test_sweep_order_across_chunks(self):
        # 28 elements make chunks of 7 interval pairs, which start mid-row
        with mock.patch.object(analysis, "CHUNK_ELEMENTS", 28):
            self.assert_sweep_order()

    @staticmethod
    def assert_sweep_order():
        T = halving_interval_map()
        args = dict(grid_size=11, random_pairs=20, seed=42, mode="hausdorff")
        report = certify(T, LOG, ONE, **args)
        index, (x, y, *_, margin), errors = swept_columns(T, LOG, ONE, **args)
        assert len(x) == report.evaluated_pairs == 11 * 10 // 2 + 20
        assert np.isnan(margin).sum() == report.vacuous_pairs
        assert not errors
        # sweep order: the grid pairs row by row, then the drawn pairs
        assert (index == np.arange(len(x))).all()
        grid = domain_grid(UNIT, 11).tolist()
        assert list(zip(x[:55].tolist(), y[:55].tolist())) == list(itertools.combinations(grid, 2))
        assert (x[55:] <= y[55:]).all()


# bit patterns _dedupe must keep apart: NaN payloads (quiet, signalling,
# negative), both zeros and infinities, subnormals and their neighbours
DEDUPE_POOL = np.array(
    [
        0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001,
        0x0000000000000000, 0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000,
        0x0000000000000001, 0x8000000000000001, 0x000FFFFFFFFFFFFF, 0x0010000000000000,
        0x3FF0000000000000, 0x3FF0000000000001, 0x3FE0000000000000, 0x7FEFFFFFFFFFFFFF,
    ],
    dtype=np.uint64,
)
NO_HASH = mock.patch.object(analysis, "_HASH_MULTIPLIER", np.uint64(0))  # every key collides


class TestDedupe:
    """``_dedupe`` groups equal bits, and a hash collision only splits a group."""

    # the first length whose indices take 17 bits
    @example(n=2**16 + 1, shape="distinct", seed=0, collide=False)
    @example(n=2**16 + 1, shape="pool", seed=0, collide=True)
    @given(
        n=st.one_of(st.integers(1, 70), st.integers(1, 2**16 + 1)),
        shape=st.sampled_from(["pool", "equal", "distinct", "mixed"]),
        seed=st.integers(0, 2**32 - 1),
        collide=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_values_at_inverse_are_the_bits(self, n, shape, seed, collide):
        rng = np.random.default_rng(seed)
        if shape == "pool":
            bits = rng.choice(DEDUPE_POOL, n)
        elif shape == "equal":
            bits = np.full(n, rng.choice(DEDUPE_POOL))
        elif shape == "distinct":  # consecutive patterns, subnormals and NaNs among them
            bits = rng.choice(DEDUPE_POOL) + np.arange(n, dtype=np.uint64)
        else:
            pool, fresh = rng.choice(DEDUPE_POOL, n), rng.random(n).view(np.uint64)
            bits = np.where(rng.random(n) < 0.5, pool, fresh)
        with NO_HASH if collide else contextlib.nullcontext():
            values, inverse = analysis._dedupe(bits.view(np.float64))
        assert values.dtype == np.float64 and inverse.shape == (n,)
        assert (values[inverse].view(np.uint64) == bits).all()
        distinct = len(np.unique(bits))
        if collide:  # equal bits are grouped only where they run together
            assert distinct <= len(values) <= n
        else:
            assert len(values) == distinct

    @given(
        kind=st.sampled_from(ORACLE_MAPS),
        domain=st.sampled_from(sorted(ORACLE_DOMAINS)),
        integrand=st.sampled_from(sorted(ORACLE_INTEGRANDS)),
        mode=st.sampled_from(analysis.MODES),
        grid_size=st.integers(2, 12),
        random_pairs=st.integers(0, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_colliding_keys_change_no_bit(
        self, kind, domain, integrand, mode, grid_size, random_pairs, seed
    ):
        T, f = oracle_map(kind, domain), oracle_integrand(integrand)
        args = dict(grid_size=grid_size, random_pairs=random_pairs, seed=seed, mode=mode)
        with NO_HASH:
            report, pairs = certify(T, LOG, f, **args), sweep_pairs(T, LOG, f, **args)
        assert_bitwise_equal(report, pairs, certify_scalar(T, LOG, f, **args))


@st.composite
def sweep_ranges(draw):
    """A grid size, a number of drawn pairs and a range of sweep indices in that sweep."""
    grid_size, random_pairs = draw(st.integers(2, 40)), draw(st.integers(0, 30))
    count = grid_size * (grid_size - 1) // 2 + random_pairs
    start = draw(st.integers(0, count - 1))
    return grid_size, random_pairs, start, draw(st.integers(start + 1, count))


class TestSweepPairs:
    # grid 5 has 10 pairs, its rows starting at 0, 4, 7 and 9: the range
    # 8 .. 12 starts mid-row and straddles the grid/drawn boundary
    @example(case=(5, 3, 8, 12))
    @example(case=(2, 0, 0, 1))
    @example(case=(40, 30, 0, 810))
    @given(case=sweep_ranges())
    @settings(max_examples=150, deadline=None)
    def test_pairs_follow_the_rows(self, case):
        grid_size, random_pairs, start, stop = case
        pairs = analysis._GridPairs(UNIT, grid_size, random_pairs, 1)
        drawn = range(grid_size, len(pairs.points), 2)
        reference = [*itertools.combinations(range(grid_size), 2), *((k, k + 1) for k in drawn)]
        assert pairs.count == len(reference)
        first, second = (np.array(side, dtype=np.intp) for side in zip(*reference[start:stop]))
        xs, ys = pairs(start, stop)
        assert xs.dtype == ys.dtype == np.intp
        assert xs.tolist() == first.tolist()
        assert ys.tolist() == second.tolist()


PAIR_MAPS = {
    "interval": halving_interval_map,
    "singleton": lambda: oracle_map("singleton", "interval"),
    "four_points": lambda: FOUR_POINTS,
    # one-interval and union images, and a missing key at 0.5
    "union_table": lambda: oracle_map("table", "points"),
}
# NaN, the infinities, points outside [0, 1], both zeros and the table's keys
PAIR_POINTS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.5, 1.5, 0.0, -0.0, 0.25, 0.5, 1.0]),
    st.floats(0.0, 1.0),
)


class TestEvaluatePairsAgainstEvaluatePair:
    @given(
        name=st.sampled_from(sorted(PAIR_MAPS)),
        integrand=st.sampled_from(sorted(ORACLE_INTEGRANDS)),
        f_kind=st.sampled_from(["log", "log_plus_linear", "neg_inv_sqrt"]),
        mode=st.sampled_from(analysis.MODES),
        pairs=st.lists(st.tuples(PAIR_POINTS, PAIR_POINTS), max_size=30),
        chunk_elements=st.sampled_from([analysis.CHUNK_ELEMENTS, 64, 1]),
    )
    @settings(max_examples=150, deadline=None)
    def test_bit_for_bit(self, name, integrand, f_kind, mode, pairs, chunk_elements):
        T, f, F = PAIR_MAPS[name](), oracle_integrand(integrand), FFunction(f_kind)
        pairs += [(y, x) for x, y in pairs]  # each pair in both orders
        x, y = (np.array([pair[side] for pair in pairs]) for side in (0, 1))
        with mock.patch.object(analysis, "CHUNK_ELEMENTS", chunk_elements):
            index, columns, errors = evaluate_pairs(T, F, f, x, y, mode)
        assert {len(c) for c in columns} == {len(index)}
        rows = [
            (k, PairEvaluation(*values[:6], None if math.isnan(values[6]) else values[6]))
            for k, *values in zip(index.tolist(), *(c.tolist() for c in columns))
        ]
        expected_rows, expected_errors = [], []
        for k, (a, b) in enumerate(pairs):
            try:
                expected_rows.append((k, evaluate_pair(T, F, f, a, b, mode)))
            except MvfixError as err:
                expected_errors.append((a, b, k, str(err)))
        # repr of a float round-trips exactly and tells -0.0 from 0.0
        assert repr(rows) == repr(expected_rows)
        assert repr(errors) == repr(expected_errors)

    def test_orbit_pairs_take_no_scalar_code(self):
        # the (x, next) pairs of 10,000 nearest-point steps on x - x^2
        T = singleton_map(UNIT, "x - x^2")
        trace = iterate(T, 0.5, tol=0.0, max_iter=10_000)
        spy = mock.patch.object(analysis, "_evaluate", wraps=analysis._evaluate)
        with spy as scalar:
            index, columns, errors = evaluate_pairs(T, LOG, ONE, trace.x, trace.next_point)
        assert scalar.call_count == 0 and not errors
        assert index.tolist() == list(range(10_000))
        expected = [
            evaluate_pair(T, LOG, ONE, x, y)
            for x, y in zip(trace.x.tolist(), trace.next_point.tolist())
        ]
        rows = [PairEvaluation(*values) for values in zip(*(c.tolist() for c in columns))]
        assert repr(rows) == repr(expected)

    def test_x_and_y_must_be_one_length(self):
        with pytest.raises(DomainError, match=r"got shapes \(2,\) and \(1,\)"):
            evaluate_pairs(halving_interval_map(), LOG, ONE, [0.0, 1.0], [0.5])


# the table keys sit on a point domain, so the grid and the drawn pairs all hit them
KEYS = CompactSet.from_points([0.0, 0.25, 0.5, 0.75, 1.0])
HUGE = CompactSet.interval(-1.0, 1.0)
SHAPE_CASES = {
    # one interval per image: [0, 1] holds [0.2, 0.3], lies apart from
    # [2, 3], touches [1, 2] at 1, and holds the degenerate {0.5}
    "nested_disjoint_touching": lambda: table_map(
        KEYS,
        [
            (0.0, [(0.0, 1.0)]),
            (0.25, [(0.2, 0.3)]),
            (0.5, [(2.0, 3.0)]),
            (0.75, [(1.0, 2.0)]),
            (1.0, [(0.5, 0.5)]),
        ],
    ),
    "degenerate": lambda: interval_map(UNIT, "x/2", "x/2"),
    # lo exceeds hi by less than the slack near 0: the image collapses
    "near_tie": lambda: interval_map(UNIT, "x*x", "x*x + x/10 - 1e-13"),
    "singleton": lambda: singleton_map(UNIT, "x - x^2"),
    # members coincide at some x, so the number of distinct points varies
    "coinciding_members": lambda: finite_set_map(UNIT, ["x/2", "x/2", "x*x", "min(x, 0.5)"]),
    "four_points": lambda: finite_set_map(UNIT, ["x/4", "x/3", "(x+1)/2", "0.9*x"]),
    # the same points, permuted and with one repeated
    "permuted_points": lambda: finite_set_map(UNIT, ["0.9*x", "(x+1)/2", "x/4", "x/3", "(x+1)/2"]),
    # endpoint differences overflow to inf, and those pairs are redone
    "huge_interval": lambda: interval_map(HUGE, "1.5e308*x", "1.5e308*x + x*x"),
    "huge_points": lambda: finite_set_map(HUGE, ["1.5e308*x", "1e308*x"]),
    # one point per image: |p - v| takes no clamp; differences overflow and are redone
    "huge_singleton": lambda: singleton_map(HUGE, "1.5e308*x - x*x"),
    "signed_zero_singleton": lambda: singleton_map(UNIT, "-x"),
    # unvalidated maps whose images fail on part of the domain, inside the sweep
    "failing_points": lambda: MultiMap(
        UNIT, "finite_set", members=tuple(map(parse_expr, ["x/4", "ln(x - 0.5)", "x*x"]))
    ),
    "failing_singleton": lambda: MultiMap(UNIT, "singleton", members=(parse_expr("ln(x - 0.5)"),)),
    "failing_interval": lambda: MultiMap(
        UNIT, "interval_endpoints", lo=parse_expr("x/4"), hi=parse_expr("sqrt(x - 0.5) + 1")
    ),
    # unions, one holding the degenerate [0.2, 0.2]: the batch sweep fails
    # these images, so every pair takes the scalar code
    "union_images": lambda: table_map(
        KEYS,
        [
            (0.0, [(0.0, 0.1), (0.5, 0.6)]),
            (0.25, [(0.0, 0.05), (0.2, 0.2), (0.3, 0.4)]),
            (0.5, [(0.1, 0.3), (0.7, 0.9)]),
            (0.75, [(0.2, 0.3), (0.35, 0.5), (1.0, 1.5)]),
            (1.0, [(0.0, 0.2), (0.6, 1.0)]),
        ],
    ),
}


class TestShapePathsAgainstScalarLoop:
    """Each image shape's batch arithmetic against the scalar loop, on hand-picked images."""

    @pytest.mark.parametrize("mode", analysis.MODES)
    @pytest.mark.parametrize("case", sorted(SHAPE_CASES))
    def test_bit_for_bit(self, case, mode):
        T = SHAPE_CASES[case]()
        args = dict(grid_size=5 if T.domain is KEYS else 21, random_pairs=40, seed=5, mode=mode)
        report = certify(T, LOG, ONE, **args)
        assert report.evaluated_pairs > 0
        assert bool(report.errors) == case.startswith(("huge", "failing"))
        assert_bitwise_equal(
            report, sweep_pairs(T, LOG, ONE, **args), certify_scalar(T, LOG, ONE, **args)
        )

    @pytest.mark.parametrize("mode", analysis.MODES)
    @pytest.mark.parametrize("case", sorted(SHAPE_CASES))
    def test_deep_expression_integrand_bit_for_bit(self, case, mode):
        T, f = SHAPE_CASES[case](), oracle_integrand("expression_deep")
        args = dict(grid_size=5 if T.domain is KEYS else 21, random_pairs=40, seed=5, mode=mode)
        report = certify(T, LOG, f, **args)
        # exp overflows on every pair of the huge images
        assert (report.evaluated_pairs == 0) == case.startswith("huge")
        assert_bitwise_equal(
            report, sweep_pairs(T, LOG, f, **args), certify_scalar(T, LOG, f, **args)
        )

    @pytest.mark.parametrize("mode", analysis.MODES)
    def test_member_order_and_repeats_change_no_bit(self, mode):
        # each also matches the scalar loop in test_bit_for_bit
        args = dict(grid_size=21, random_pairs=40, seed=5, mode=mode)
        cases = ("four_points", "permuted_points")
        same, permuted = (certify(SHAPE_CASES[case](), LOG, ONE, **args) for case in cases)
        assert same.tau_star is not None and repr(permuted) == repr(same)

    def test_union_pairs_take_the_scalar_code(self):
        spy = mock.patch.object(analysis, "_evaluate", wraps=analysis._evaluate)
        with spy as scalar:
            report = certify(SHAPE_CASES["union_images"](), LOG, ONE, grid_size=5, random_pairs=40)
        assert scalar.call_count == report.evaluated_pairs == 50

    def test_one_block_per_chunk_with_redone_pairs_in_place(self):
        # pairs whose h or m overflow are redone by the scalar code: some
        # get a margin there, the rest fail and leave their block's columns
        T = SHAPE_CASES["huge_interval"]()
        args = dict(grid_size=21, random_pairs=40, seed=5, mode="hausdorff")
        spy = mock.patch.object(analysis, "_evaluate", wraps=analysis._evaluate)
        with mock.patch.object(analysis, "CHUNK_ELEMENTS", 64), spy as scalar:
            blocks = list(analysis._sweep(T, LOG, ONE, **args))  # 16 interval pairs a chunk
        count = 21 * 20 // 2 + 40
        assert len(blocks) == math.ceil(count / 16)
        failed = {k for block in blocks for _, _, k, _ in block.errors}
        index = np.concatenate([block.columns()[0] for block in blocks])
        assert failed and index.tolist() == sorted(set(range(count)) - failed)

        failed_xy = {(x, y) for block in blocks for x, y, _, _ in block.errors}
        redone = {call.args[2:4] for call in scalar.call_args_list} - failed_xy
        oracle = {(p.x, p.y): p for p in certify_scalar(T, LOG, ONE, **args).pairs}
        rows = [p for p in sweep_pairs(T, LOG, ONE, **args) if (p.x, p.y) in redone]
        assert rows and all(p.margin == math.inf for p in rows)
        assert repr(rows) == repr([oracle[p.x, p.y] for p in rows])

    @pytest.mark.parametrize("domain", sorted(ORACLE_DOMAINS))
    @pytest.mark.parametrize("kind", ORACLE_MAPS)
    def test_images_are_one_interval_or_points(self, kind, domain):
        # _Evaluator reads 1-D images as one interval each, 2-D as point members
        T = oracle_map(kind, domain)
        lo, hi = image_arrays(T, np.array(domain_grid(T.domain, 41).tolist() + [0.0, 0.25, 1.0]))
        assert lo.ndim == (2 if kind == "finite_set" else 1)
        # one member per image: one array, so each distance to it takes no clamp
        assert (lo is hi) == (kind in ("singleton", "finite_set"))
        failed = np.isnan(lo).reshape(-1, lo.shape[-1])[0]
        assert not failed.all()
        assert lo.ndim == 1 or (lo[:, ~failed] == hi[:, ~failed]).all()
