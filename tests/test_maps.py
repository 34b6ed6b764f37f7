import math
from dataclasses import replace

import numpy as np
import pytest
from helpers import outcome, spy_on_grid, validate_map_scalar

from mvfix import (
    CompactSet,
    DomainError,
    EvalError,
    InvariantError,
    IterationError,
    MvfixError,
    Num,
    apply_map,
    dist_point_set,
    domain_grid,
    finite_set_map,
    interval_map,
    is_fixed_point,
    iterate,
    singleton_map,
    table_map,
)
from mvfix.maps import (
    ENDPOINT_SLACK,
    MultiMap,
    _as_ast,
    _proved_valid,
    _value_set,
    image_arrays,
)
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
        for x in domain_grid(UNIT, 101).tolist():
            assert is_fixed_point(T, x, tol=0.0)


class TestSingletonMap:
    def test_value(self):
        T = singleton_map(UNIT, "x/2")
        assert apply_map(T, 0.8) == CompactSet.interval(0.4, 0.4)

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
            table_map(UNIT, [(2.0, CompactSet.interval(0.0, 0.0))])

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
        with pytest.raises(DomainError, match=r"^tol must be >= 0, got nan$"):
            is_fixed_point(halving_map(), 0.0, tol=math.nan)

    def test_infinite_tolerance_rejected(self):
        # d <= inf holds for every x, which would call every point fixed
        with pytest.raises(DomainError, match=r"^tol must be finite, got inf$"):
            is_fixed_point(halving_map(), 0.5, tol=math.inf)

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

    @pytest.mark.parametrize(
        "build, exprs",
        [
            (interval_map, ("x/4", "(x+1)/2")),
            (singleton_map, ("x - x^2",)),
            (finite_set_map, (["x/4", "x/3", "0.9*x"],)),
        ],
    )
    def test_expressions_compile_on_first_scalar_use(self, build, exprs, monkeypatch):
        from mvfix import maps

        compiled = []
        real = maps.compile_expr
        monkeypatch.setattr(maps, "compile_expr", lambda e: compiled.append(e) or real(e))
        T = build(UNIT, *exprs)
        image_arrays(T, np.linspace(0.0, 1.0, 11))
        assert compiled == []
        apply_map(T, 0.5)
        apply_map(T, 0.25)
        _step(T, 0.75)  # the orbit inlines its expressions, or reads the compiled members
        assert compiled == [T.lo, T.hi] if T.lo is not None else list(T.members)

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
    # valid on the grid, which misses the pole; the enclosure cannot prove it
    ("singleton", UNIT, ("0.001/(x - 0.123456789)",)),
    # valid, but one cell cannot prove lo <= hi: lo reaches 0.4 and hi starts at 0
    ("interval_endpoints", UNIT, ("x/2 - 0.1", "x/2")),
]

# the maps of the benchmark's configs
BENCHMARK_MAPS = [
    ("interval_endpoints", UNIT, ("x/4", "(x+1)/2")),
    ("finite_set", UNIT, ("x/4", "x/3", "(x+1)/2", "0.9*x")),
    ("singleton", UNIT, ("x - x^2",)),
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

    # sqrt(1 - x) reaches 0 exactly at x = 1
    @pytest.mark.parametrize(
        "kind, domain, exprs", BENCHMARK_MAPS + [("singleton", UNIT, ("sqrt(1 - x)",))]
    )
    def test_proved_maps_evaluate_no_grid(self, kind, domain, exprs, monkeypatch):
        calls = spy_on_grid(monkeypatch)
        assert _factory(kind, domain, exprs) == _unvalidated(kind, domain, exprs)
        assert calls == []

    @pytest.mark.parametrize("kind, domain, exprs", VALIDATION_CASES)
    def test_grid_runs_where_the_proof_fails(self, kind, domain, exprs, monkeypatch):
        T = _unvalidated(kind, domain, exprs)
        proved = all(_proved_valid(T, a, b) for a, b in domain.intervals)
        assert T._proved == proved
        calls = spy_on_grid(monkeypatch)
        result = outcome(_factory, kind, domain, exprs)
        assert bool(calls) == (not proved)
        if result != T:  # every refusal comes from the grid
            assert calls

    @pytest.mark.parametrize(
        "kind, exprs",
        [("singleton", ("0.001/(x - 0.123456789)",)), ("interval_endpoints", ("x/2 - 0.1", "x/2"))],
    )
    def test_maps_the_proof_cannot_settle_load_through_the_grid(self, kind, exprs, monkeypatch):
        calls = spy_on_grid(monkeypatch)
        assert _factory(kind, UNIT, exprs) == _unvalidated(kind, UNIT, exprs)
        assert "image_arrays" in calls

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
        xs = domain_grid(domain, 41).tolist() + [-0.5, 0.5, 2.0]
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
        p = T._compiled[0](x)
        return CompactSet.interval(p, p)
    lo, hi = (fn(x) for fn in T._compiled)
    if lo > hi:
        if lo - hi > ENDPOINT_SLACK:
            raise InvariantError(f"map endpoints inverted at x = {x}: lo = {lo}, hi = {hi}")
        mid = 0.5 * (lo + hi)
        return CompactSet.interval(mid, mid)
    return CompactSet.interval(lo, hi)


def _step(T, x):
    """One step of ``T``'s generated orbit loop from ``x``: ``(p, d)``, or the error T raises."""
    points = []
    _, _, stop, err = T._orbit(x, 0, 1, -1.0, points.append)  # d <= -1 never holds
    if stop == "error":
        raise err
    return points[0], abs(x - points[0])


class TestNearestStep:
    @pytest.mark.parametrize(
        "kind, domain, exprs", [case for case in VALIDATION_CASES if case[0] != "finite_set"]
    )
    def test_same_bits_and_errors_as_the_value_set(self, kind, domain, exprs):
        T = _unvalidated(kind, domain, exprs)
        for x in domain_grid(domain, 41).tolist():
            expected = outcome(lambda: _nearest(x, _one_interval_image(T, x)))
            assert repr(outcome(_step, T, x)) == repr(expected), x
            assert repr(outcome(_value_set, T, x)) == repr(outcome(_one_interval_image, T, x)), x

    def test_a_finite_singleton_step_makes_no_endpoint_check(self, monkeypatch):
        from mvfix import maps

        checked = []
        real = maps._checked_ends
        monkeypatch.setattr(maps, "_checked_ends", lambda *a: checked.append(a) or real(*a))
        T = singleton_map(UNIT, "x - x^2")
        assert _step(T, 0.5) == (0.25, 0.25) and _step(T, 0.0) == (0.0, 0.0)
        # at x == T(x) the clamp keeps x, and with it x's sign of zero
        point = CompactSet.interval(-0.0, -0.0)
        assert repr(_step(singleton_map(UNIT, "-x"), 0.0)) == repr(_nearest(0.0, point))
        assert checked == []
        nan_map = MultiMap(UNIT, "singleton", members=(Num(math.nan),))
        message = r"^interval endpoints must be finite, got \(nan, nan\)$"
        with pytest.raises(InvariantError, match=message):
            _step(nan_map, 0.5)
        assert len(checked) == 1

    def test_a_valid_interval_step_makes_no_endpoint_check(self, monkeypatch):
        from mvfix import maps

        checked = []
        real = maps._checked_ends
        monkeypatch.setattr(maps, "_checked_ends", lambda *a: checked.append(a) or real(*a))
        assert _step(halving_map(), 1.0) == (1.0, 0.0)
        assert _step(halving_map(), 0.0) == (0.0, 0.0)
        assert checked == []
        # a near tie collapses to its midpoint; an infinite endpoint raises
        assert _step(_unvalidated("interval_endpoints", UNIT, ("x + 1e-15", "x")), 0.0) == (
            5e-16, 5e-16,
        )
        with pytest.raises(InvariantError, match="interval endpoints must be finite"):
            _step(_unvalidated("interval_endpoints", UNIT, (Num(-math.inf), "x")), 0.5)
        assert len(checked) == 2


class TestOrbit:
    """The generated window loop on its own; tests/test_solver.py checks ``iterate`` on it."""

    def run(self, T, x, start, end, tol=0.0):
        """The orbit's result, its recorded points and each recorded step's d, as ``iterate``
        takes it: the distance from the step's x, the previous point (``x`` first)."""
        points = []
        result = T._orbit(x, start, end, tol, points.append)
        return result, points, [abs(a - b) for a, b in zip([x, *points], points)]

    def test_a_window_runs_its_steps_and_returns_the_last_x(self):
        (x, n, stop, err), points, ds = self.run(singleton_map(UNIT, "x/2"), 1.0, 5, 9)
        assert (x, n, stop, err) == (1.0 / 16, 9, None, None)
        assert points == [0.5, 0.25, 0.125, 0.0625] and ds == points

    def test_each_stop_names_its_step(self):
        # the fixed point is not recorded; the point that leaves is
        assert self.run(singleton_map(UNIT, "x/2"), 0.25, 3, 10, tol=0.1) == (
            (0.125, 4, "fixed", None), [0.125], [0.125],
        )
        left = self.run(singleton_map(GAPPED, "x/2"), 1.0, 0, 10)
        assert left == ((0.5, 0, "left", None), [0.5], [0.5])
        # ln(1) = 0 is recorded, then ln(0) raises at x = 0
        T = _unvalidated("singleton", UNIT, ("ln(x)",))
        (x, n, stop, err), points, _ = self.run(T, 1.0, 0, 10)
        assert (x, n, stop, points) == (0.0, 1, "error", [0.0])
        assert str(err) == "ln of non-positive value in 'ln(x)'"

    @pytest.mark.parametrize(
        "domain", [UNIT, GAPPED, POINTS, CompactSet([(0.0, 0.1), (0.3, 0.3), (0.5, 1.0)])]
    )
    def test_domain_test_matches_contains(self, domain):
        # a map that jumps to each probe once: its step leaves exactly where contains fails
        for p in [-0.5, -0.0, 0.0, 0.1, 0.25, 0.3, 0.5, 0.75, 0.9, 1.0, 1.5, 5e-324]:
            T = MultiMap(domain, "singleton", members=(Num(p),))
            (_, _, stop, _), _, _ = self.run(T, domain.min, 0, 1)
            if p == domain.min:  # a fixed point at the start
                continue
            assert (stop == "left") == (not domain.contains(p)), (domain, p)

    def test_finite_sets_and_tables_take_the_value_set(self):
        T = finite_set_map(UNIT, ["x/4", "x/3", "(x+1)/2", "0.9*x"])
        (_, _, stop, _), points, ds = self.run(T, 0.5, 0, 3)
        assert stop is None and points == [0.9 * 0.5, 0.9 * (0.9 * 0.5), 0.9 * (0.9 * (0.9 * 0.5))]
        table = table_map(UNIT, [(0.5, [(0.2, 0.3)]), (0.3, [(0.6, 0.7)])])
        (x, n, stop, err), points, _ = self.run(table, 0.5, 0, 5)
        assert (x, n, stop, points) == (0.6, 2, "error", [0.3, 0.6])
        assert str(err) == "no table entry for x = 0.6"

    def test_the_orbit_is_compiled_on_first_use_and_kept(self, monkeypatch):
        from mvfix import maps

        built = []
        real = maps._compile_orbit
        monkeypatch.setattr(maps, "_compile_orbit", lambda T: built.append(T) or real(T))
        T = singleton_map(UNIT, "x - x^2")
        assert built == [] and "_orbit" not in vars(T)
        iterate(T, 0.5, 0.0, 20)
        iterate(T, 0.25, 0.0, 20)
        assert built == [T]


# a map of each shape whose enclosures prove every image over [0, 1] valid;
# each orbit from 0.9 moves
PROVED_MAPS = [
    ("interval_endpoints", UNIT, ("x/4 - 0.1", "0.3 + x/4")),
    ("singleton", UNIT, ("x - x^2",)),
    ("finite_set", UNIT, ("x/4", "x/3", "(x+1)/2", "0.9*x")),
]
# maps the enclosures cannot prove, the start of an orbit and the exact outcome it ends with
UNPROVED_ORBITS = [
    ("singleton", ("sqrt(x - 0.3)",), 1.0, "sqrt of negative value in 'sqrt(x - 0.3)'"),
    ("singleton", (Num(math.nan),), 0.5, "interval endpoints must be finite, got (nan, nan)"),
    ("finite_set", ("x/2", Num(math.nan)), 0.5, "interval endpoints must be finite, got (nan, nan)"),
    (
        "interval_endpoints", ("x/2", "x - 0.1"), 0.6,
        "map endpoints inverted at x = 0.10000000000000003: lo = 0.05000000000000002,"
        " hi = 2.7755575615628914e-17",
    ),
    ("singleton", ("ln(x)",), 1.0, "ln of non-positive value in 'ln(x)'"),
]


class TestProvedOrbit:
    """A map proved valid over its domain (``T._proved``) runs an orbit with no failure check."""

    @pytest.fixture
    def finite_tests(self, monkeypatch):
        """The values generated code built from now on tests for finiteness."""
        from mvfix import expr

        tested = []
        real = expr._GENERATED_GLOBALS["_isfinite"]
        monkeypatch.setitem(
            expr._GENERATED_GLOBALS, "_isfinite", lambda v: tested.append(v) or real(v)
        )
        return tested

    @pytest.mark.parametrize("kind, domain, exprs", PROVED_MAPS)
    def test_a_proved_orbit_tests_no_value(self, kind, domain, exprs, finite_tests):
        T = _factory(kind, domain, exprs)
        assert T._proved
        trace = iterate(T, 0.9, 0.0, 100)
        assert len(trace.x) > 1 and finite_tests == []
        # with its proof withheld, the same map tests its values and takes the same steps
        unproved = _unvalidated(kind, domain, exprs)
        unproved.__dict__["_proved"] = False
        assert iterate(unproved, 0.9, 0.0, 100) == trace and finite_tests

    @pytest.mark.parametrize("kind, exprs, x0, message", UNPROVED_ORBITS)
    def test_an_unproved_orbit_keeps_its_checks_and_messages(self, kind, exprs, x0, message):
        T = _unvalidated(kind, UNIT, exprs)
        assert not T._proved
        trace = iterate(T, x0, 0.0, 100)
        assert isinstance(trace.outcome, IterationError)
        assert trace.outcome.detail == message

    def test_tables_are_never_proved(self):
        assert not table_map(UNIT, [(0.5, [(0.2, 0.3)])])._proved

    def test_validation_and_the_orbit_share_one_proof(self, monkeypatch):
        from mvfix import maps

        cells = []
        real = maps._proved_valid

        def spy(T, a, b):
            cells.append((a, b))
            return real(T, a, b)

        monkeypatch.setattr(maps, "_proved_valid", spy)
        T = singleton_map(GAPPED, "x/2 + 0.5")
        iterate(T, 0.8, 0.0, 20)
        assert T._proved and cells == list(GAPPED.intervals)

    @pytest.mark.parametrize(
        "kind, exprs", [("singleton", (Num(math.nan),)), ("finite_set", (Num(math.nan), "x/2"))]
    )
    def test_a_nan_past_a_broken_proof_leaves_the_domain(self, kind, exprs):
        # should libm break the enclosure's assumption, a NaN is no fixed point
        T = _unvalidated(kind, UNIT, exprs)
        T.__dict__["_proved"] = True
        points = []
        x, n, stop, err = T._orbit(0.5, 0, 5, 0.0, points.append)
        assert math.isnan(x) and (n, stop, err) == (0, "left", None)
        assert isinstance(iterate(T, 0.5, 0.0, 5).outcome, IterationError)
