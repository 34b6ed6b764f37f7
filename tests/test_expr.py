import math
from fractions import Fraction

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
    compile_expr,
    format_expr,
    parse_expr,
)
from helpers import TOO_DEEP, interpret_expr, nested_sources, random_asts
from mvfix.expr import FUNCTIONS, MAX_DEPTH, OPERATORS, enclose, eval_expr_array

X = Var("x")


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

    def test_literals_are_floats(self):
        with pytest.raises(OverflowError):
            Num(10**400)
        assert Num(1) == Num(1.0) and type(Num(1).value) is float

    # written out, not read from OPERATORS, so that a wrong row shows here
    # although the printer would round-trip it
    @pytest.mark.parametrize(
        "src, expected",
        [
            ("x - x - x", BinOp("-", BinOp("-", X, X), X)),
            ("x / x / x", BinOp("/", BinOp("/", X, X), X)),
            ("x ^ x ^ x", BinOp("^", X, BinOp("^", X, X))),
            ("-x ^ x", Neg(BinOp("^", X, X))),
            ("-x * x", BinOp("*", Neg(X), X)),
            ("x * -x", BinOp("*", X, Neg(X))),
            ("x ^ -x * x", BinOp("*", BinOp("^", X, Neg(X)), X)),
            ("x + x * x ^ x", BinOp("+", X, BinOp("*", X, BinOp("^", X, X)))),
        ],
    )
    def test_precedence_and_associativity(self, src, expected):
        assert parse_expr(src) == expected


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
        assert compile_expr(parse_expr(src))(x) == expected

    def test_division_by_zero(self):
        with pytest.raises(EvalError) as err:
            compile_expr(parse_expr("1/x"))(0.0)
        assert "1.0 / x" in str(err.value)

    def test_ln_nonpositive(self):
        with pytest.raises(EvalError):
            compile_expr(parse_expr("ln(x)"))(0.0)

    def test_sqrt_negative(self):
        with pytest.raises(EvalError):
            compile_expr(parse_expr("sqrt(x)"))(-1.0)

    def test_fractional_power_of_negative(self):
        with pytest.raises(EvalError):
            compile_expr(parse_expr("x^0.5"))(-2.0)

    def test_overflow_is_reported(self):
        with pytest.raises(EvalError):
            compile_expr(parse_expr("exp(x)"))(1e6)


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
        assert set(OPERATORS) == set(FUNCTIONS) | {"neg", "+", "-", "*", "/", "^"}
        for name, arity in FUNCTIONS.items():
            assert parse_expr(f"{name}({', '.join(['x'] * arity)})") == Call(name, (Var("x"),) * arity)
            for wrong in (arity - 1, arity + 1):
                with pytest.raises(ParseError):
                    parse_expr(f"{name}({', '.join(['x'] * wrong)})")

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

    def test_names_are_ascii(self):
        with pytest.raises(ParseError) as err:
            parse_expr("xé")
        assert str(err.value) == "unexpected character 'é' (at position 1)"
        assert err.value.position == 1

    # a superscript is a digit to str.isdigit, but never starts a number token
    @pytest.mark.parametrize(
        "src, message",
        [
            ("x²", "unexpected character '²' (at position 1)"),
            ("x + .", "malformed number starting with '.' (at position 4)"),
        ],
    )
    def test_only_a_dot_starts_a_malformed_number(self, src, message):
        with pytest.raises(ParseError) as err:
            parse_expr(src)
        assert str(err.value) == message


class TestNestingLimit:
    @pytest.mark.parametrize(
        "shape, position",
        [("parentheses", MAX_DEPTH), ("unary minus", MAX_DEPTH), ("sum", 2 * MAX_DEPTH + 1),
         ("power", 2 * MAX_DEPTH + 1)],
    )
    def test_refused_where_the_limit_is_crossed(self, shape, position):
        with pytest.raises(ParseError) as err:
            parse_expr(TOO_DEEP[shape])
        assert err.value.position == position
        assert str(err.value).startswith(f"expression nests deeper than {MAX_DEPTH} levels")

    @pytest.mark.parametrize("shape", sorted(nested_sources(MAX_DEPTH)))
    def test_at_the_limit_every_walker_runs(self, shape):
        ast = parse_expr(nested_sources(MAX_DEPTH)[shape])
        assert parse_expr(format_expr(ast)) == ast
        value = compile_expr(ast)(0.5)
        assert eval_expr_array(ast, np.array([0.5])).tolist() == [value]
        assert_enclosed(ast, 0.0, 1.0, [0.0, 0.5, 1.0])
        with pytest.raises(ParseError, match="nests deeper"):
            parse_expr(nested_sources(MAX_DEPTH + 1)[shape])

    def test_levels_add_up_across_ways_to_nest(self):
        # a call, parentheses and a chain of operations, one level per operation
        def src(operations):
            return "abs((" + "+".join(["x"] * (operations + 1)) + "))"

        assert isinstance(parse_expr(src(MAX_DEPTH - 2)), Call)
        with pytest.raises(ParseError) as err:
            parse_expr(src(MAX_DEPTH - 1))
        assert err.value.position == 5 + 2 * (MAX_DEPTH - 2) + 1  # the last '+'


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


def operators_in(node):
    """The names of the operator table rows that ``node`` uses."""
    match node:
        case Neg(arg):
            return {"neg"} | operators_in(arg)
        case BinOp(op, lhs, rhs):
            return {op} | operators_in(lhs) | operators_in(rhs)
        case Call(fn, args):
            return {fn}.union(*map(operators_in, args))
    return set()


class TestRoundTrip:
    def test_corpus_uses_every_operator(self):
        used = set().union(*(operators_in(parse_expr(src)) for src in ROUND_TRIP_CORPUS))
        assert used == set(OPERATORS)

    @pytest.mark.parametrize("src", ROUND_TRIP_CORPUS)
    def test_corpus(self, src):
        ast = parse_expr(src)
        assert parse_expr(format_expr(ast)) == ast

    def test_printer_preserves_semantics(self):
        for src in ROUND_TRIP_CORPUS:
            ast = parse_expr(src)
            fn, printed = compile_expr(ast), compile_expr(parse_expr(format_expr(ast)))
            for x in (0.3, 0.9):
                try:
                    before = fn(x)
                except EvalError:
                    continue
                assert printed(x) == before


def _ast_strategy():
    numbers = st.floats(
        min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
    ).map(abs)
    return random_asts(numbers)


@given(_ast_strategy())
@settings(max_examples=400)
def test_round_trip_random_ast(ast):
    assert parse_expr(format_expr(ast)) == ast


def assert_array_matches_scalar(ast, xs):
    """eval_expr_array agrees with the compiled function at every point, bit for bit."""
    values = eval_expr_array(ast, np.array(xs, dtype=float))
    assert values.shape == (len(xs),)
    scalar = compile_expr(ast)
    for x, value in zip(xs, values.tolist()):
        try:
            expected = scalar(x)
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


def test_every_guard_and_raise_fires_in_the_error_corpus():
    messages = set()
    for src, xs in ERROR_CORPUS:
        compiled = compile_expr(parse_expr(src))
        for x in xs.tolist():
            try:
                compiled(x)
            except EvalError as err:
                messages.add(str(err).split(" in '")[0])
    for name, op in OPERATORS.items():
        if op.guard:
            assert op.guard[2] in messages, name
        if op.raises:
            assert any(m.startswith(op.raises[1].format("")) for m in messages), name


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

    @pytest.mark.parametrize(
        "ast",
        [BinOp("%", X, Num(1.0)), Call("log", (X,)), BinOp("+", Num(1.0), Neg(Call("min", (X,))))],
    )
    def test_malformed_node_raises(self, ast):
        with pytest.raises(EvalError, match="^malformed AST node in "):
            eval_expr_array(ast, np.array([0.5]))

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


# ASTs built directly, with literals the parser never makes
LITERAL_ASTS = [
    Num(-0.0),
    Neg(Num(-0.0)),
    BinOp("+", Var("x"), Num(-0.0)),
    BinOp("*", Num(-0.0), Var("x")),
    Call("min", (Num(-0.0), Var("x"))),
    Call("max", (Var("x"), Num(-0.0))),
    Call("sqrt", (Num(-0.0),)),
    Num(math.nan),
    Call("sqrt", (Num(math.nan),)),
    Call("ln", (Neg(Num(math.nan)),)),
    BinOp("^", Num(math.nan), Num(0.0)),  # math.pow(nan, 0) is 1.0
    BinOp("+", Var("x"), Num(math.nan)),
    BinOp("/", Var("x"), Num(math.nan)),
    Num(math.inf),
    Call("abs", (Num(-math.inf),)),
    Call("ln", (Num(math.inf),)),
    Call("exp", (Num(math.inf),)),
    Call("exp", (Neg(Num(math.inf)),)),
    BinOp("-", Num(math.inf), Num(math.inf)),
    BinOp("^", Var("x"), Num(math.inf)),
    Num(5e-324),
    BinOp("*", Num(5e-324), Var("x")),
    BinOp("/", Var("x"), Num(5e-324)),
    BinOp("/", Num(5e-324), Var("x")),
    BinOp("^", Num(5e-324), Num(0.5)),
]


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

    @pytest.mark.parametrize("ast", LITERAL_ASTS)
    def test_literals_built_directly_keep_their_bits(self, ast):
        assert_compiled_matches_interpreter(ast, [0.0, -0.0, 0.5, -2.0, 1e300])

    def test_literals_are_bound_not_printed(self):
        ast = parse_expr("x * 0.1 + 1e-300")
        fn = compile_expr(ast)
        cells = [cell.cell_contents for cell in fn.__closure__]
        assert any(c is ast.lhs.rhs.value for c in cells)
        assert any(c is ast.rhs.value for c in cells)
        assert 0.1 not in fn.__code__.co_consts and 1e-300 not in fn.__code__.co_consts

    @pytest.mark.parametrize("x", [0.5, -3.0, 700.0, 1000.0])
    def test_deeply_nested_exp(self, x):
        # CPython nests at most 20 blocks; each exp's try block holds only its own call
        ast = Var("x")
        for _ in range(30):
            ast = Call("ln", (Call("exp", (ast,)),))
        assert_compiled_matches_interpreter(ast, [x])
        assert_compiled_matches_interpreter(Call("exp", (ast,)), [x])

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


def exact_value(node, x):
    """The exact value at ``x`` of an expression of literals, ``x``, negation and ``+ - * /``.

    None for an expression with any other node.
    """
    match node:
        case Num(value):
            return Fraction(value)
        case Var(_):
            return Fraction(x)
        case Neg(arg):
            a = exact_value(arg, x)
            return None if a is None else -a
        case BinOp("+" | "-" | "*" | "/" as op, lhs, rhs):
            a, b = exact_value(lhs, x), exact_value(rhs, x)
            if a is None or b is None:
                return None
            return {"+": a + b, "-": a - b, "*": a * b}[op] if op != "/" else a / b
    return None


@st.composite
def cells(draw):
    """A cell ``[a, b]`` and a point in it; -0.0 sorts below 0.0."""
    a, b = sorted((draw(POINTS), draw(POINTS)), key=lambda v: (v, math.copysign(1.0, v)))
    return a, b, draw(st.floats(min_value=a, max_value=b))


def assert_enclosed(ast, a, b, xs):
    """Where enclose gives an interval over [a, b], no point of ``xs`` raises and each lies in it."""
    box = enclose(ast, a, b)
    if box is None:
        return
    lo, hi = box
    assert math.isfinite(lo) and math.isfinite(hi) and lo <= hi, (format_expr(ast), box)
    compiled = compile_expr(ast)
    for x in xs:
        value = compiled(x)
        assert lo <= value <= hi, (format_expr(ast), a, b, x, value, box)
        exact = exact_value(ast, x)
        if exact is not None:
            assert Fraction(lo) <= exact <= Fraction(hi), (format_expr(ast), a, b, x, box)


ENCLOSURE_CORPUS = (
    [parse_expr(src) for src in ROUND_TRIP_CORPUS]
    + [parse_expr(src) for src, _ in ERROR_CORPUS]
    + LITERAL_ASTS
)


class TestEnclosure:
    @given(st.sampled_from(ENCLOSURE_CORPUS), cells())
    @settings(max_examples=1000, deadline=None)
    def test_corpus_is_enclosed(self, ast, cell):
        a, b, x = cell
        assert_enclosed(ast, a, b, [a, x, b])

    @given(_ast_strategy(), cells())
    @settings(max_examples=400, deadline=None)
    def test_random_ast_is_enclosed(self, ast, cell):
        a, b, x = cell
        assert_enclosed(ast, a, b, [a, x, b])

    @pytest.mark.parametrize(
        "src, lo, hi",
        [
            ("x/4", 0.0, 1.0),
            ("(x+1)/2", 0.0, 1.0),
            ("x/3", 0.0, 1.0),
            ("0.9*x", 0.0, 1.0),
            ("x - x^2", 0.0, 1.0),
            ("1 + x^2", 0.0, 2.0),
            ("x^2", -1.0, 2.0),  # an even power of a base around 0
            ("x^-3", -2.0, -1.0),  # a negative integer power of a negative base
            ("exp(x) + abs(x - 0.3)", 0.0, 2.0),
            ("sqrt(x) + ln(x + 1)", 0.0, 1.0),
            ("min(x, 1 - x) + max(-x, 0.5)", -1.0, 1.0),
            # exact zero ends are not stepped below 0
            ("sqrt(1 - x)", 0.0, 1.0),
            ("sqrt(x/2)", 0.0, 1.0),
            ("sqrt(x*x)", 0.0, 1.0),
            ("sqrt(x^2)", 0.0, 1.0),
            ("sqrt(ln(x))", 1.0, 2.0),  # ln(1) is exactly 0
        ],
    )
    def test_proves_what_maps_and_integrands_use(self, src, lo, hi):
        ast = parse_expr(src)
        assert enclose(ast, lo, hi) is not None
        assert_enclosed(ast, lo, hi, np.linspace(lo, hi, 101).tolist())

    @pytest.mark.parametrize(
        "src, lo, hi",
        [
            ("0.001/(x - 0.123456789)", 0.0, 1.0),  # a divisor interval that holds 0
            ("1/x", -0.0, 1.0),
            ("ln(x)", 0.0, 1.0),  # ln reaching 0
            ("sqrt(x - 0.5)", 0.0, 1.0),  # sqrt reaching below 0
            ("exp(1000*x)", 0.0, 1.0),  # exp overflows
            ("x*1e300*1e300", -1.0, 1.0),  # a non-finite end
            ("(-1)^x", -2.0, 2.0),  # a negative base to a non-integer power
            ("x^-1", -1.0, 1.0),  # a negative power of a base around 0
            ("x^0.5", -1.0, 1.0),
        ],
    )
    def test_may_fail_is_none(self, src, lo, hi):
        assert enclose(parse_expr(src), lo, hi) is None

    @pytest.mark.parametrize("ast", [BinOp("%", Var("x"), Num(1.0)), Call("log", (Var("x"),))])
    def test_malformed_nodes_are_none(self, ast):
        assert enclose(ast, 0.0, 1.0) is None

    @pytest.mark.parametrize("src, lo, hi", [("x * 1e-200", 0.0, 1e-200), ("x*x", 1e-200, 1e-200)])
    def test_a_product_that_underflows_to_zero_is_not_exact(self, src, lo, hi):
        assert enclose(parse_expr(src), lo, hi) is not None
        assert_enclosed(parse_expr(src), lo, hi, [lo, hi])

    def test_ln_of_one_is_an_exact_zero(self):
        # log(2.0) is 0.6931471805599453, here stepped 4 floats up
        lo, hi = enclose(parse_expr("ln(x)"), 1.0, 2.0)
        assert (lo, math.copysign(1.0, lo), hi) == (0.0, 1.0, 0.6931471805599457)

    def test_rounded_ends_step_outward(self):
        # 0.1 + 0.2 rounds up, so the exact sum lies below the float one
        lo, hi = enclose(parse_expr("x + 0.2"), 0.1, 0.1)
        assert lo == math.nextafter(0.1 + 0.2, -math.inf) and hi == math.nextafter(0.1 + 0.2, math.inf)
        assert Fraction(lo) <= Fraction(0.1) + Fraction(0.2) <= Fraction(hi)
