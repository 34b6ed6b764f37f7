"""A tiny arithmetic expression language over one variable.

Supported syntax: decimal literals, one designated variable name, unary
minus, the binary operators ``+ - * / ^`` (with ``^`` right-associative
and binding tighter than unary minus), parentheses, and the functions
``abs``, ``sqrt``, ``ln``, ``exp`` (unary) and ``min``, ``max`` (binary).

Parsing is recursive descent over a flat token list.  Failures raise
:class:`ParseError` with a 0-based character position; a literal that
overflows to infinity is one.  Evaluation failures raise
:class:`EvalError` carrying the offending subexpression in printed form,
so at a finite point :func:`eval_expr` returns a finite value or raises.
:func:`compile_expr` generates one straight-line Python function per AST,
with its literals, nodes and messages bound by reference rather than
printed into the source; callers that evaluate an AST at many points
compile it once, and maps and integrands do so on first scalar use.
:func:`eval_expr` is that function's value.  :func:`eval_expr_array`
evaluates over a whole array with the same bits, and gives NaN at the
points where :func:`eval_expr` would raise.  :func:`enclose` bounds the
compiled function over a whole interval of the variable, or says that it
may raise there.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import EvalError, ParseError

__all__ = [
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "ExprAst",
    "parse_expr",
    "compile_expr",
    "eval_expr",
    "eval_expr_array",
    "enclose",
    "format_expr",
]

FUNCTIONS = {"abs": 1, "sqrt": 1, "ln": 1, "exp": 1, "min": 2, "max": 2}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "ExprAst"


@dataclass(frozen=True)
class BinOp:
    op: str
    lhs: "ExprAst"
    rhs: "ExprAst"


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple["ExprAst", ...]


ExprAst = Union[Num, Var, Neg, BinOp, Call]

_NUMBER = re.compile(r"(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "ident" | "op" | "lparen" | "rparen" | "comma" | "end"
    text: str
    pos: int
    value: float = 0.0


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            m = _NUMBER.match(src, i)
            if m is None:
                raise ParseError(f"malformed number starting with '{ch}'", i)
            value = float(m.group(0))
            if not math.isfinite(value):
                raise ParseError("number literal is not finite", i)
            tokens.append(_Token("num", m.group(0), i, value))
            i = m.end()
            continue
        if ch.isalpha() or ch == "_":
            m = _IDENT.match(src, i)
            tokens.append(_Token("ident", m.group(0), i))
            i = m.end()
            continue
        if ch in "+-*/^":
            tokens.append(_Token("op", ch, i))
        elif ch == "(":
            tokens.append(_Token("lparen", ch, i))
        elif ch == ")":
            tokens.append(_Token("rparen", ch, i))
        elif ch == ",":
            tokens.append(_Token("comma", ch, i))
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
        i += 1
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], variable: str):
        self.tokens = tokens
        self.pos = 0
        self.variable = variable

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}", tok.pos)
        return self.advance()

    # expr := term (('+'|'-') term)*
    def expr(self) -> ExprAst:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    # term := factor (('*'|'/') factor)*
    def term(self) -> ExprAst:
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.factor())
        return node

    # factor := '-' factor | power        (unary minus binds looser than '^')
    def factor(self) -> ExprAst:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    # power := atom ('^' factor)?         (right-associative)
    def power(self) -> ExprAst:
        node = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            return BinOp("^", node, self.factor())
        return node

    def atom(self) -> ExprAst:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(tok.value)
        if tok.kind == "lparen":
            self.advance()
            node = self.expr()
            self.expect("rparen", "')'")
            return node
        if tok.kind == "ident":
            self.advance()
            if tok.text in FUNCTIONS:
                return self.call(tok)
            if tok.text == self.variable:
                return Var(tok.text)
            raise ParseError(f"unknown identifier '{tok.text}'", tok.pos)
        raise ParseError("expected operand", tok.pos)

    def call(self, name: _Token) -> ExprAst:
        self.expect("lparen", "'(' after function name")
        args = [self.expr()]
        while self.peek().kind == "comma":
            self.advance()
            args.append(self.expr())
        self.expect("rparen", "')'")
        arity = FUNCTIONS[name.text]
        if len(args) != arity:
            raise ParseError(
                f"{name.text} expects {arity} argument{'s' if arity > 1 else ''},"
                f" got {len(args)}",
                name.pos,
            )
        return Call(name.text, tuple(args))


def parse_expr(src: str, variable: str = "x") -> ExprAst:
    """Parse ``src`` into an AST; the only legal free name is ``variable``."""
    parser = _Parser(_tokenize(src), variable)
    node = parser.expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise ParseError(f"unexpected trailing input '{tail.text}'", tail.pos)
    return node


def compile_expr(node: ExprAst) -> Callable[[float], float]:
    """Turn ``node`` into a function ``x -> value`` that evaluates it in binary64.

    The function is generated as straight-line Python source, one
    statement per operation, and built with one ``compile``/``exec``, so a
    call makes no call per node and no dispatch on node kinds.  Every
    literal, node and message the source needs is bound to it by
    reference: no text of the expression enters the source.  Operands are
    evaluated left to right, except that ``/`` evaluates and tests its
    divisor first.  Division by zero, ``ln`` of a nonpositive value,
    ``sqrt`` of a negative value, and any non-finite result of
    ``+ - * / ^ exp`` raise :class:`EvalError` carrying the failing
    subexpression, which is printed only when it raises.  A malformed
    node raises :class:`EvalError` when its statement runs.
    """
    gen = _Codegen()
    gen.emit(2, f"return {gen.value(node, 2)}")
    return gen.build("<mvfix.expr.compile_expr>", "compiled", "x")


def _fail(message: str, node: ExprAst):
    raise EvalError(message, format_expr(node)) from None


def _invalid_power(err: Exception, node: ExprAst):
    _fail(f"invalid power: {err}", node)


def _malformed(node):
    raise EvalError("malformed AST node", repr(node))


# the names generated source reads besides x, its temporaries and its bound objects
_GENERATED_GLOBALS = {
    "_pow": math.pow,
    "_sqrt": math.sqrt,
    "_log": math.log,
    "_exp": math.exp,
    "_isfinite": math.isfinite,
    "_fail": _fail,
    "_invalid_power": _invalid_power,
    "_malformed": _malformed,
}

# exp nests its argument's statements in its own try block, one indent
# deeper; from this indent on (the body starts at 2, and each indent past
# it is one block, a loop's too) the argument is compiled on its own,
# since CPython nests at most 20 blocks
_MAX_TRY_INDENT = 16


class _Codegen:
    """Statements of one compiled expression, in evaluation order."""

    def __init__(self):
        self.lines: list[str] = []
        self.bound: list[object] = []  # passed to the source as b0, b1, ...
        self.temps = 0

    def bind(self, obj) -> str:
        self.bound.append(obj)
        return f"b{len(self.bound) - 1}"

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def let(self, indent: int, value: str) -> str:
        name = f"v{self.temps}"
        self.temps += 1
        self.emit(indent, f"{name} = {value}")
        return name

    def build(self, filename: str, name: str, params: str) -> Callable:
        """``def name(params)`` with the emitted lines (indent 2 on) as its body, built by one exec.

        Every bound object reaches the body as a closure cell ``b0``,
        ``b1``, ...; the names of ``_GENERATED_GLOBALS`` are its globals.
        """
        source = "\n".join(
            [
                f"def bind({', '.join(f'b{i}' for i in range(len(self.bound)))}):",
                f"    def {name}({params}):",
                *self.lines,
                f"    return {name}",
            ]
        )
        namespace = dict(_GENERATED_GLOBALS)
        exec(compile(source, filename, "exec"), namespace)
        return namespace["bind"](*self.bound)

    def fail(self, indent: int, message: str, at: str) -> None:
        self.emit(indent + 1, f"_fail({self.bind(message)}, {at})")

    def finite(self, indent: int, value: str, at: str) -> str:
        name = self.let(indent, value)
        self.emit(indent, f"if not _isfinite({name}):")
        self.fail(indent, "non-finite result", at)
        return name

    def value(self, node: ExprAst, indent: int) -> str:
        """Emit the statements that compute ``node``; return the name holding its value."""
        match node:
            case Num(value):
                return self.bind(value)
            case Var(_):
                return "x"
            case Neg(arg):
                return self.let(indent, f"-{self.value(arg, indent)}")
            case BinOp("+" | "-" | "*" as op, lhs, rhs):
                a, b = self.value(lhs, indent), self.value(rhs, indent)
                return self.finite(indent, f"{a} {op} {b}", self.bind(node))
            case BinOp("/", lhs, rhs):
                b, at = self.value(rhs, indent), self.bind(node)
                self.emit(indent, f"if {b} == 0.0:")
                self.fail(indent, "division by zero", at)
                return self.finite(indent, f"{self.value(lhs, indent)} / {b}", at)
            case BinOp("^", lhs, rhs):
                a, b, at = self.value(lhs, indent), self.value(rhs, indent), self.bind(node)
                self.emit(indent, "try:")
                v = self.let(indent + 1, f"_pow({a}, {b})")
                self.emit(indent, "except (ValueError, OverflowError) as err:")
                self.emit(indent + 1, f"_invalid_power(err, {at})")
                return self.finite(indent, v, at)
            case Call("abs", (arg,)):
                return self.let(indent, f"abs({self.value(arg, indent)})")
            case Call("sqrt", (arg,)):
                a = self.value(arg, indent)
                self.emit(indent, f"if {a} < 0.0:")
                self.fail(indent, "sqrt of negative value", self.bind(node))
                return self.let(indent, f"_sqrt({a})")
            case Call("ln", (arg,)):
                a = self.value(arg, indent)
                self.emit(indent, f"if {a} <= 0.0:")
                self.fail(indent, "ln of non-positive value", self.bind(node))
                return self.let(indent, f"_log({a})")
            case Call("exp", (arg,)):
                # the try covers the argument too, as math.exp(f(x)) does
                self.emit(indent, "try:")
                if indent < _MAX_TRY_INDENT:
                    a = self.value(arg, indent + 1)
                else:
                    a = self.let(indent + 1, f"{self.bind(compile_expr(arg))}(x)")
                v = self.let(indent + 1, f"_exp({a})")
                self.emit(indent, "except OverflowError:")
                at = self.bind(node)
                self.fail(indent, "exp overflow", at)
                return self.finite(indent, v, at)
            case Call("min" | "max" as fn, (a, b)):
                return self.let(indent, f"{fn}({self.value(a, indent)}, {self.value(b, indent)})")
        self.emit(indent, f"_malformed({self.bind(node)})")
        return "None"


def eval_expr(node: ExprAst, x: float) -> float:
    """Evaluate ``node`` at the variable value ``x``; see :func:`compile_expr`.

    Compiles ``node`` on every call: a caller that evaluates one AST at
    many points compiles it once and keeps the function.
    """
    return compile_expr(node)(x)


def eval_expr_array(node: ExprAst, xs: np.ndarray) -> np.ndarray:
    """Evaluate ``node`` at every element of the 1-D array ``xs`` of non-NaN values.

    ``values[i]`` is NaN exactly where ``eval_expr(node, xs[i])`` raises,
    and elsewhere its result bit for bit, sign of zero included.  Only
    IEEE-exact operations (``+ - * /``, ``abs``, ``sqrt``, negation,
    comparisons, ``where``) run on whole arrays; ``^``, ``ln`` and
    ``exp`` go through :func:`_pointwise`.
    """
    with np.errstate(all="ignore"):
        return _eval_array(node, np.asarray(xs, dtype=float))


# _pointwise turns this many elements into Python floats at a time
_POINTWISE_BLOCK = 4096


def _pointwise(fn: Callable[..., float], *args: np.ndarray) -> np.ndarray:
    """``fn`` applied element by element; an element where it raises is NaN.

    A transcendental runs through ``math`` one element at a time, because
    numpy's vectorised ones are not correctly rounded and differ from
    ``math`` in the last bit on some inputs (numpy 2.4.6 with AVX-512 on
    an Intel Xeon: ``log`` on 59 of 600,000 inputs spread over
    exp(-40) .. exp(40), ``expm1`` on 33,049 of 600,000 uniform inputs in
    [-30, 30], ``pow`` on 10,635 of 200,000).  Each block of elements is
    one ``fromiter`` pass, so the Python floats made at a time stay few; a
    block where some call raised is redone one element at a time.
    """
    out = np.empty(len(args[0]))
    for start in range(0, len(out), _POINTWISE_BLOCK):
        lists = [a[start : start + _POINTWISE_BLOCK].tolist() for a in args]
        try:
            out[start : start + len(lists[0])] = np.fromiter(map(fn, *lists), float)
        except (ValueError, OverflowError):
            for k, row in enumerate(zip(*lists), start):
                try:
                    out[k] = fn(*row)
                except (ValueError, OverflowError):
                    out[k] = math.nan
    return out


_ARRAY_BINOPS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.true_divide,
    "^": lambda a, b: _pointwise(math.pow, a, b),
}


def _eval_array(node: ExprAst, xs: np.ndarray) -> np.ndarray:
    # Mirrors _Codegen.value case by case.  A NaN operand stays NaN through
    # + - * /, abs, sqrt, ln and exp, so each case only adds the NaNs of
    # its own raise.  Returned arrays are never written in place: xs is one.
    match node:
        case Num(value):
            return np.full(xs.shape, value, dtype=float)
        case Var(_):
            return xs
        case Neg(arg):
            return -_eval_array(arg, xs)
        case BinOp(op, lhs, rhs) if op in _ARRAY_BINOPS:
            a, b = _eval_array(lhs, xs), _eval_array(rhs, xs)
            v = _ARRAY_BINOPS[op](a, b)
            if op == "^":  # math.pow(nan, 0) and math.pow(1, nan) are 1.0
                v[np.isnan(a) | np.isnan(b)] = math.nan
            # the scalar raises on a non-finite result; a zero divisor gives one
            v[np.isinf(v)] = math.nan
            return v
        case Call("abs", (arg,)):
            return np.abs(_eval_array(arg, xs))
        case Call("sqrt", (arg,)):
            return np.sqrt(_eval_array(arg, xs))  # NaN below 0, where the scalar raises
        case Call("ln", (arg,)):
            return _pointwise(math.log, _eval_array(arg, xs))
        case Call("exp", (arg,)):
            v = _pointwise(math.exp, _eval_array(arg, xs))
            v[np.isinf(v)] = math.nan  # math.exp(inf) is inf
            return v
        case Call("min" | "max" as fn, (a, b)):
            va, vb = _eval_array(a, xs), _eval_array(b, xs)
            # Python's min(a, b) keeps a unless b < a (max: unless b > a),
            # which fixes the choice between -0.0 and 0.0; a NaN vb is
            # never picked, so it is put back
            better = (vb < va if fn == "min" else vb > va) | np.isnan(vb)
            return np.where(better, vb, va)
    raise EvalError("malformed AST node", repr(node))


# enclose widens what math.pow, math.exp and math.log give at an endpoint
# by this many ulps each way
_LIBM_ULPS = 4


def enclose(node: ExprAst, lo: float, hi: float) -> tuple[float, float] | None:
    """An interval holding ``compile_expr(node)(x)`` at every float ``x`` in ``[lo, hi]``.

    Mirrors :func:`_eval_array` case by case, on intervals of finite
    floats (Moore, Kearfott and Cloud, *Introduction to Interval
    Analysis*, SIAM 2009).  Each end of a rounded result steps one float
    outward (``math.nextafter``), so the interval holds the float result
    and also the exact one; an expression made of literals and
    ``+ - * /`` has its exact value at ``x`` inside.  ``^``, ``exp`` and
    ``ln`` take ``math`` at the ends, where each is monotone, and step
    ``_LIBM_ULPS`` floats outward: this is sound if the platform's libm
    is within one ulp of the exact value, as glibc documents.  Returns
    None, a claim of nothing, where some point may raise or the bound is
    not known: a literal that is not a finite float, a divisor interval
    that holds 0, ``sqrt`` of an interval reaching below 0, ``ln`` of one
    reaching 0 or below, a non-finite end, a malformed node, and ``^``
    unless its base is positive, or nonnegative with a positive
    exponent, or its exponent is one integer (nonnegative, or with a
    negative base).
    """
    match node:
        case Num(value) if isinstance(value, float) and math.isfinite(value):
            return value, value
        case Var(_):
            return lo, hi
        case Neg(arg):
            if (a := enclose(arg, lo, hi)) is not None:
                return -a[1], -a[0]
        case BinOp("+" | "-" | "*" | "/" | "^" as op, lhs, rhs):
            a, b = enclose(lhs, lo, hi), enclose(rhs, lo, hi)
            if a is None or b is None:
                return None
            if op == "+":
                return _outward(a[0] + b[0], a[1] + b[1])
            if op == "-":
                return _outward(a[0] - b[1], a[1] - b[0])
            if op == "^":
                return _enclose_power(a, b)
            if op == "/" and b[0] <= 0.0 <= b[1]:
                return None
            ends = [u * v if op == "*" else u / v for u in a for v in b]
            return _outward(min(ends), max(ends))
        case Call("abs", (arg,)):
            if (a := enclose(arg, lo, hi)) is not None:
                if a[0] >= 0.0:
                    return a
                return (-a[1], -a[0]) if a[1] <= 0.0 else (0.0, max(-a[0], a[1]))
        case Call("sqrt", (arg,)):
            if (a := enclose(arg, lo, hi)) is not None and a[0] >= 0.0:
                return _outward(math.sqrt(a[0]), math.sqrt(a[1]))
        case Call("ln", (arg,)):
            if (a := enclose(arg, lo, hi)) is not None and a[0] > 0.0:
                return _outward(math.log(a[0]), math.log(a[1]), _LIBM_ULPS)
        case Call("exp", (arg,)):
            if (a := enclose(arg, lo, hi)) is not None:
                try:
                    return _outward(math.exp(a[0]), math.exp(a[1]), _LIBM_ULPS)
                except OverflowError:
                    return None
        case Call("min" | "max" as fn, (lhs, rhs)):
            a, b = enclose(lhs, lo, hi), enclose(rhs, lo, hi)
            if a is not None and b is not None:
                pick = min if fn == "min" else max
                return pick(a[0], b[0]), pick(a[1], b[1])
    return None


def _outward(lo: float, hi: float, ulps: int = 1) -> tuple[float, float] | None:
    """``[lo, hi]`` with each end ``ulps`` floats outward, or None if an end is not finite."""
    for _ in range(ulps):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    return (lo, hi) if math.isfinite(lo) and math.isfinite(hi) else None


def _enclose_power(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float] | None:
    # x^y is monotone in each argument over these boxes, so its bounds lie
    # at the corners; an even power of a base around 0 has its least value 0
    (a0, a1), (b0, b1) = a, b
    integer = b0 == b1 and float(b0).is_integer()
    if not (a0 > 0.0 or (a0 >= 0.0 and b0 > 0.0) or (integer and (b0 >= 0.0 or a1 < 0.0))):
        return None
    try:
        ends = [math.pow(u, v) for u in a for v in b]
    except (ValueError, OverflowError):
        return None
    low = 0.0 if a0 < 0.0 < a1 and b0 % 2.0 == 0.0 else min(ends)
    return _outward(low, max(ends), _LIBM_ULPS)


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _prec(node: ExprAst) -> int:
    match node:
        case BinOp(op, _, _):
            return _PREC[op]
        case Neg(_):
            return _PREC["neg"]
    return 5


def format_expr(node: ExprAst) -> str:
    """Print an AST back to canonical source; reparsing yields an equal AST."""
    match node:
        case Num(value):
            return repr(value)
        case Var(name):
            return name
        case Neg(arg):
            inner = format_expr(arg)
            if _prec(arg) < _PREC["neg"]:
                inner = f"({inner})"
            return f"-{inner}"
        case BinOp(op, lhs, rhs):
            p = _PREC[op]
            left, right = format_expr(lhs), format_expr(rhs)
            if op == "^":
                # right-associative: parenthesize the left side on ties
                if _prec(lhs) <= p:
                    left = f"({left})"
                if _prec(rhs) < p:
                    right = f"({right})"
            else:
                if _prec(lhs) < p:
                    left = f"({left})"
                if _prec(rhs) <= p:
                    right = f"({right})"
            return f"{left} {op} {right}"
        case Call(fn, args):
            return f"{fn}({', '.join(format_expr(a) for a in args)})"
    raise ValueError(f"malformed AST node: {node!r}")
