import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvfix import (
    BinOp,
    Call,
    EvalError,
    Neg,
    Num,
    ParseError,
    Var,
    eval_expr,
    format_expr,
    parse_expr,
)
from helpers import interpret_expr
from mvfix.expr import compile_expr, eval_expr_array


class TestParsing:
    def test_simple_division_shape(self):
        assert parse_expr("x/4") == BinOp("/", Var("x"), Num(4.0))

    def test_parenthesized(self):
        assert parse_expr("(x+1)/2") == BinOp("/", BinOp("+", Var("x"), Num(1.0)), Num(2.0))

    def test_call_with_two_args(self):
        ast = parse_expr("min(1, exp(x))")
        assert ast == Call("min", (Num(1.0), Call("exp", (Var("x"),))))

    def test_scientific_notation(self):
        assert parse_expr("1.5e-3") == Num(0.0015)

    def test_custom_variable_name(self):
        assert parse_expr("t*t", variable="t") == BinOp("*", Var("t"), Var("t"))


class TestEvaluation:
    @pytest.mark.parametrize(
        "src, x, expected",
        [
            ("x/4", 1.0, 0.25),
            ("(x+1)/2", 0.0, 0.5),
            ("2+3*4", 0.0, 14.0),
            ("2*3^2", 0.0, 18.0),
            ("-2^2", 0.0, -4.0),
            ("(-2)^2", 0.0, 4.0),
            ("2^3^2", 0.0, 512.0),
            ("2^-1", 0.0, 0.5),
            ("-x^2", 3.0, -9.0),
            ("min(1, exp(x))", 0.0, 1.0),
            ("max(2, 3)", 0.0, 3.0),
            ("abs(-x)", -2.0, 2.0),
            ("sqrt(x)", 4.0, 2.0),
            ("ln(exp(x))", 5.0, 5.0),
            ("1 - x/2 + x", 2.0, 2.0),
        ],
    )
    def test_values(self, src, x, expected):
        assert eval_expr(parse_expr(src), x) == expected

    def test_division_by_zero(self):
        with pytest.raises(EvalError) as err:
            eval_expr(parse_expr("1/x"), 0.0)
        assert "1.0 / x" in str(err.value)

    def test_ln_nonpositive(self):
        with pytest.raises(EvalError):
            eval_expr(parse_expr("ln(x)"), 0.0)

    def test_sqrt_negative(self):
        with pytest.raises(EvalError):
            eval_expr(parse_expr("sqrt(x)"), -1.0)

    def test_fractional_power_of_negative(self):
        with pytest.raises(EvalError):
            eval_expr(parse_expr("x^0.5"), -2.0)

    def test_overflow_is_reported(self):
        with pytest.raises(EvalError):
            eval_expr(parse_expr("exp(x)"), 1e6)


class TestParseErrors:
    def test_dangling_operator_position(self):
        with pytest.raises(ParseError) as err:
            parse_expr("x+")
        assert err.value.position == 2
        assert "operand" in str(err.value)

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_expr("(x")

    def test_trailing_junk(self):
        with pytest.raises(ParseError):
            parse_expr("x 1")

    def test_unknown_identifier(self):
        with pytest.raises(ParseError) as err:
            parse_expr("foo(y)")
        assert "foo" in str(err.value) or "y" in str(err.value)

    def test_wrong_variable_rejected(self):
        with pytest.raises(ParseError):
            parse_expr("y + 1")

    def test_bad_arity(self):
        with pytest.raises(ParseError):
            parse_expr("min(x)")
        with pytest.raises(ParseError):
            parse_expr("abs(x, 1)")

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as err:
            parse_expr("x ? 1")
        assert err.value.position == 2

    @pytest.mark.parametrize("src, position", [("1e999", 0), ("x + 2e308", 4)])
    def test_overflowing_literal(self, src, position):
        with pytest.raises(ParseError) as err:
            parse_expr(src)
        assert err.value.position == position
        assert "number literal is not finite" in str(err.value)

    def test_largest_finite_literal_is_kept(self):
        assert parse_expr("1.7976931348623157e308") == Num(1.7976931348623157e308)


ROUND_TRIP_CORPUS = [
    "x",
    "1",
    "0.25",
    "1.5e-3",
    "x + 1",
    "x - 1",
    "1 - x",
    "x * 2",
    "x / 4",
    "(x + 1) / 2",
    "x / 3 + x / 2",
    "x * x - x",
    "2 + 3 * 4",
    "(2 + 3) * 4",
    "x ^ 2",
    "2 ^ 3 ^ 2",
    "(2 ^ 3) ^ 2",
    "-x",
    "-x ^ 2",
    "(-x) ^ 2",
    "-(x + 1)",
    "x - -x",
    "2 ^ -1",
    "x ^ 0.5",
    "abs(x)",
    "abs(-x)",
    "sqrt(x)",
    "sqrt(x + 1)",
    "ln(x)",
    "ln(exp(x))",
    "exp(-x)",
    "min(1, x)",
    "max(x, 0.5)",
    "min(max(x, 0), 1)",
    "min(1, exp(x))",
    "x / 4 + (x + 1) / 2",
    "(x + 1) * (x - 1)",
    "x * (1 - x)",
    "1 / (x + 1)",
    "x / (x + 2)",
    "sqrt(abs(x - 0.5))",
    "exp(x * ln(2))",
    "(x + 0.5) ^ 2 - 0.25",
    "max(0.1, x * x)",
    "abs(x) + abs(1 - x)",
    "x ^ 2 ^ 2",
    "-x * -x",
    "-(x ^ 2)",
    "((x))",
    "min(x / 2, max(x, 0.25))",
    "1.0 + 2.0 + 3.0",
    "1 - 2 - 3",
    "8 / 4 / 2",
    "x - (1 - x)",
    "8 / (4 / 2)",
    "exp(min(x, 10))",
]


class TestRoundTrip:
    @pytest.mark.parametrize("src", ROUND_TRIP_CORPUS)
    def test_corpus(self, src):
        ast = parse_expr(src)
        assert parse_expr(format_expr(ast)) == ast

    def test_printer_preserves_semantics(self):
        for src in ROUND_TRIP_CORPUS:
            ast = parse_expr(src)
            for x in (0.3, 0.9):
                try:
                    before = eval_expr(ast, x)
                except EvalError:
                    continue
                assert eval_expr(parse_expr(format_expr(ast)), x) == before


def _ast_strategy():
    numbers = st.floats(
        min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
    ).map(abs)
    leaves = st.one_of(st.builds(Num, numbers), st.just(Var("x")))

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(
                BinOp, st.sampled_from(["+", "-", "*", "/", "^"]), children, children
            ),
            st.builds(
                lambda fn, a: Call(fn, (a,)),
                st.sampled_from(["abs", "sqrt", "ln", "exp"]),
                children,
            ),
            st.builds(
                lambda fn, a, b: Call(fn, (a, b)),
                st.sampled_from(["min", "max"]),
                children,
                children,
            ),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@given(_ast_strategy())
@settings(max_examples=400)
def test_round_trip_random_ast(ast):
    assert parse_expr(format_expr(ast)) == ast


def assert_array_matches_scalar(ast, xs):
    """eval_expr_array agrees with eval_expr at every point, bit for bit."""
    values = eval_expr_array(ast, np.array(xs, dtype=float))
    assert values.shape == (len(xs),)
    for x, value in zip(xs, values.tolist()):
        try:
            expected = eval_expr(ast, x)
        except EvalError:
            assert math.isnan(value), (format_expr(ast), x)
            continue
        assert not math.isnan(value), (format_expr(ast), x)
        assert value.hex() == float(expected).hex(), (format_expr(ast), x)


POINTS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, 2.0, 1e-300, 700.0, -750.0, 1e300]),
    st.floats(min_value=-10.0, max_value=10.0),
)


ERROR_CORPUS = [
    ("1/(x - 0.5)", np.linspace(0.0, 1.0, 11)),  # division by zero at 0.5
    ("ln(x)", np.linspace(0.0, 1.0, 11)),  # ln of 0
    ("sqrt(x - 0.5)", np.linspace(0.0, 1.0, 11)),  # sqrt of negatives
    ("(-1)^x", np.linspace(-2.0, 2.0, 17)),  # pow domain error off integers
    ("exp(1000*x)", np.linspace(0.0, 1.0, 11)),  # exp overflow
    ("x^2000", np.linspace(0.0, 2.0, 11)),  # pow overflow
    ("x*1e300*1e300", np.linspace(-1.0, 1.0, 5)),  # product overflow
    # pow and ln fail in the first and the last of three pointwise blocks
    ("(x - 1)^0.5 + ln(2.5 - x)", np.linspace(-3.0, 3.0, 10_001)),
    # math.pow(nan, 0) and math.pow(1, nan) are 1.0, where the scalar raises
    ("ln(x)^0", np.linspace(0.0, 1.0, 11)),
    ("1^ln(x)", np.linspace(0.0, 1.0, 11)),
    # the pick keeps the first operand unless the second compares better,
    # which a NaN never does
    ("min(1, ln(x))", np.linspace(0.0, 1.0, 11)),
    ("max(ln(x), 1)", np.linspace(0.0, 1.0, 11)),
    ("min(ln(x), 100)", np.linspace(0.0, 1.0, 11)),
]


class TestArrayEvaluation:
    @given(_ast_strategy(), st.lists(POINTS, min_size=1, max_size=16))
    @settings(max_examples=400, deadline=None)
    def test_random_ast_matches_scalar(self, ast, xs):
        assert_array_matches_scalar(ast, xs)

    @pytest.mark.parametrize("src, xs", ERROR_CORPUS)
    def test_each_failure_kind(self, src, xs):
        ast = parse_expr(src)
        ok = ~np.isnan(eval_expr_array(ast, xs))
        assert ok.any() and not ok.all()
        assert_array_matches_scalar(ast, xs.tolist())

    @pytest.mark.parametrize("src", ["min(x, -x)", "max(x, -x)", "min(-x, x)", "max(-x, x)"])
    def test_min_max_keep_python_choice_of_zero(self, src):
        assert_array_matches_scalar(parse_expr(src), [0.0, -0.0])

    def test_empty_input(self):
        values = eval_expr_array(parse_expr("ln(x) + 1"), np.array([]))
        assert values.shape == (0,)


def outcome_at(fn, ast, x):
    """The value's bits, or the type and message of what ``fn(ast, x)`` raised."""
    try:
        return float(fn(ast, x)).hex()
    except Exception as err:
        return type(err), str(err)


def assert_compiled_matches_interpreter(ast, xs):
    compiled = compile_expr(ast)
    for x in xs:
        assert outcome_at(lambda _, v: compiled(v), ast, x) == outcome_at(
            interpret_expr, ast, x
        ), (format_expr(ast), x)


class TestCompiledEvaluation:
    @given(_ast_strategy(), st.lists(POINTS, min_size=1, max_size=16))
    @settings(max_examples=400, deadline=None)
    def test_random_ast_matches_interpreter(self, ast, xs):
        assert_compiled_matches_interpreter(ast, xs)

    @pytest.mark.parametrize("src, xs", ERROR_CORPUS)
    def test_each_failure_kind(self, src, xs):
        assert_compiled_matches_interpreter(parse_expr(src), xs.tolist())

    @pytest.mark.parametrize(
        "src",
        [
            "ln(x - 2) / sqrt(x - 3)",  # '/' tests its divisor first
            "ln(x - 2) + sqrt(x - 3)",
            "ln(x - 2) - 1 / (x - x)",
            "sqrt(x - 3) * ln(x - 2)",
            "ln(x - 2) ^ sqrt(x - 3)",
            "1 / (x - x) / ln(x - 2)",
            "min(ln(x - 2), sqrt(x - 3))",
            "max(sqrt(x - 3), exp(1000 + x))",
            "exp(ln(x - 2) + exp(1000 + x))",
        ],
    )
    def test_both_operands_raise(self, src):
        ast = parse_expr(src)
        with pytest.raises(EvalError):
            interpret_expr(ast, 0.0)
        assert_compiled_matches_interpreter(ast, [0.0, 5.0])

    @pytest.mark.parametrize(
        "ast",
        [
            BinOp("%", Var("x"), Num(1.0)),
            Call("abs", ()),
            Call("log", (Var("x"),)),
            BinOp("/", BinOp("%", Var("x"), Num(1.0)), Num(0.0)),
            BinOp("+", Num(1.0), Neg(Call("min", (Var("x"),)))),
        ],
    )
    def test_malformed_nodes_raise_when_reached(self, ast):
        assert_compiled_matches_interpreter(ast, [0.0, 1.0])

    def test_subexpression_is_printed_only_on_failure(self, monkeypatch):
        import mvfix.expr

        printed = []
        monkeypatch.setattr(
            mvfix.expr, "format_expr", lambda node: printed.append(node) or "?"
        )
        fn = compile_expr(parse_expr("1/(x - 0.5) + sqrt(x) * exp(x) - ln(x)^2"))
        fn(0.25)
        assert printed == []
        with pytest.raises(EvalError):
            fn(0.5)
        assert len(printed) == 1

    def test_eval_expr_is_the_compiled_value(self):
        ast = parse_expr("x - x^2")
        assert eval_expr(ast, 0.3) == compile_expr(ast)(0.3) == interpret_expr(ast, 0.3)
