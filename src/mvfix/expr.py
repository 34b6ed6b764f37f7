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
:func:`compile_expr` turns an AST into a closure once, for callers that
evaluate it at many points; :func:`eval_expr` is that closure's value.
:func:`eval_expr_array` evaluates over a whole array with the same bits,
and gives NaN at the points where :func:`eval_expr` would raise.
"""

from __future__ import annotations

import math
import operator
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
    """Turn ``node`` into a closure ``x -> value`` that evaluates it in binary64.

    The closure tree is built once, so a call does no dispatch on node
    kinds.  Operands are evaluated left to right, except that ``/``
    evaluates and tests its divisor first.  Division by zero, ``ln`` of a
    nonpositive value, ``sqrt`` of a negative value, and any non-finite
    result of ``+ - * / ^ exp`` raise :class:`EvalError` carrying the
    failing subexpression, which is printed only when it raises.  A
    malformed node raises :class:`EvalError` when its closure runs.
    """
    match node:
        case Num(value):
            return lambda x: value
        case Var(_):
            return lambda x: x
        case Neg(arg):
            f = compile_expr(arg)
            return lambda x: -f(x)
        case BinOp("+" | "-" | "*" as op, lhs, rhs):
            a, b, apply = compile_expr(lhs), compile_expr(rhs), _ARITHMETIC[op]

            def arithmetic(x):
                v = apply(a(x), b(x))
                if math.isfinite(v):
                    return v
                raise EvalError("non-finite result", format_expr(node))

            return arithmetic
        case BinOp("/", lhs, rhs):
            a, b = compile_expr(lhs), compile_expr(rhs)

            def divide(x):
                denom = b(x)
                if denom == 0.0:
                    raise EvalError("division by zero", format_expr(node))
                v = a(x) / denom
                if math.isfinite(v):
                    return v
                raise EvalError("non-finite result", format_expr(node))

            return divide
        case BinOp("^", lhs, rhs):
            a, b = compile_expr(lhs), compile_expr(rhs)

            def power(x):
                base, exponent = a(x), b(x)
                try:
                    v = math.pow(base, exponent)
                except (ValueError, OverflowError) as err:
                    raise EvalError(f"invalid power: {err}", format_expr(node)) from None
                if math.isfinite(v):
                    return v
                raise EvalError("non-finite result", format_expr(node))

            return power
        case Call("abs", (arg,)):
            f = compile_expr(arg)
            return lambda x: abs(f(x))
        case Call("sqrt", (arg,)):
            f = compile_expr(arg)

            def sqrt(x):
                v = f(x)
                if v < 0.0:
                    raise EvalError("sqrt of negative value", format_expr(node))
                return math.sqrt(v)

            return sqrt
        case Call("ln", (arg,)):
            f = compile_expr(arg)

            def ln(x):
                v = f(x)
                if v <= 0.0:
                    raise EvalError("ln of non-positive value", format_expr(node))
                return math.log(v)

            return ln
        case Call("exp", (arg,)):
            f = compile_expr(arg)

            def exp(x):
                try:
                    v = math.exp(f(x))
                except OverflowError:
                    raise EvalError("exp overflow", format_expr(node)) from None
                if math.isfinite(v):
                    return v
                raise EvalError("non-finite result", format_expr(node))

            return exp
        case Call("min" | "max" as fn, (a, b)):
            fa, fb, pick = compile_expr(a), compile_expr(b), min if fn == "min" else max
            return lambda x: pick(fa(x), fb(x))

    def malformed(x):
        raise EvalError("malformed AST node", repr(node))

    return malformed


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def eval_expr(node: ExprAst, x: float) -> float:
    """Evaluate ``node`` at the variable value ``x``; see :func:`compile_expr`.

    Compiles ``node`` on every call: a caller that evaluates one AST at
    many points compiles it once and keeps the closure.
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
    # Mirrors compile_expr case by case.  A NaN operand stays NaN through
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
