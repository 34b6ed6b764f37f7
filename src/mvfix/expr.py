"""A tiny arithmetic expression language over one variable.

Supported syntax: decimal literals, one designated variable name, unary
minus, the binary operators ``+ - * / ^`` (with ``^`` right-associative
and binding tighter than unary minus), parentheses, and the functions
``abs``, ``sqrt``, ``ln``, ``exp`` (unary) and ``min``, ``max`` (binary).
Literals are floats: :class:`Num` stores ``float(value)``.

Parsing is recursive descent over a flat token list.  Failures raise
:class:`ParseError` with a 0-based character position; a literal that
overflows to infinity is one.  Evaluation failures raise
:class:`EvalError` carrying the offending subexpression in printed form,
so at a finite point :func:`eval_expr` returns a finite value or raises.

Each operator is one row of :data:`OPERATORS`, which gives it in every
form below and says once, for all of them, where it raises.
:func:`compile_expr` generates one straight-line Python function per
AST; callers that evaluate an AST at many points compile it once, and
maps and integrands do so on first scalar use.  :func:`eval_expr` is
that function's value.  :func:`eval_expr_array` evaluates over a whole
array with the same bits, NaN where :func:`eval_expr` would raise.
:func:`enclose` bounds the compiled function over an interval of the
variable, or says that it may raise there.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import partial
from itertools import product
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


@dataclass(frozen=True)
class Num:
    value: float

    def __post_init__(self):
        # an int too large for a float raises OverflowError here
        object.__setattr__(self, "value", float(self.value))


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


def _array_power(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    v = _pointwise(math.pow, a, b)
    v[np.isnan(a) | np.isnan(b)] = math.nan  # math.pow(nan, 0) and math.pow(1, nan) are 1.0
    return v


def _pick(better: Callable) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    # Python's min(a, b) keeps a unless b < a (max: unless b > a), which
    # fixes the choice between -0.0 and 0.0; a NaN b is never picked, so it
    # is put back
    return lambda a, b: np.where(better(b, a) | np.isnan(b), b, a)


def _with_zero(box: tuple[float, float]) -> tuple[float, ...]:
    return (*box, 0.0) if box[0] < 0.0 < box[1] else box


def _power_corners(a: tuple[float, float], b: tuple[float, float]):
    # x^y is monotone in each argument over these boxes, so its bounds lie
    # at the corners; an even power of a base around 0 has its least value at 0
    (a0, a1), (b0, b1) = a, b
    integer = b0 == b1 and float(b0).is_integer()
    if not (a0 > 0.0 or (a0 >= 0.0 and b0 > 0.0) or (integer and (b0 >= 0.0 or a1 < 0.0))):
        return None
    return product(_with_zero(a) if b0 % 2.0 == 0.0 else a, b)


# enclose widens what math.pow, math.exp and math.log give at an endpoint
# by this many ulps each way
_LIBM_ULPS = 4

# binding strength of a call, a literal or the variable in printed source
_ATOM = 5


@dataclass(frozen=True)
class _Op:
    """One operator, in each form an expression is evaluated in.

    ``source`` is scalar code over the operand names ``{0}``, ``{1}``;
    ``array`` the same on arrays, NaN where an operand is NaN.  ``point``
    at ``corners(*boxes)`` takes its least and greatest values over the
    operands' intervals (None: not known), which :func:`enclose` rounds
    ``ulps`` floats outward (0: exact).  The ``guard``, ``(operand,
    relation to 0, message)``, drives the scalar test (the operand is
    evaluated first), the array NaNs and :func:`enclose`'s refusal.
    ``raises`` is what ``point`` raises and the message for it.
    """

    arity: int
    prec: int  # binding strength in printed source
    source: str
    array: Callable[..., np.ndarray]
    point: Callable[..., float]
    ulps: int = 0
    guard: tuple[int, str, str] | None = None
    finite: bool = False  # a non-finite result raises
    raises: tuple[tuple[type[Exception], ...], str] | None = None
    corners: Callable = product
    zero_is_exact: bool = False  # a 0 result is exact even with no zero operand
    right: bool = False  # right-associative


# a rounded sum or difference is 0 only where it is exactly 0; abs is
# monotone on each side of 0
OPERATORS = {
    "neg": _Op(1, 3, "-{0}", np.negative, operator.neg),
    "+": _Op(2, 1, "{0} + {1}", np.add, operator.add, 1, finite=True, zero_is_exact=True),
    "-": _Op(2, 1, "{0} - {1}", np.subtract, operator.sub, 1, finite=True, zero_is_exact=True),
    "*": _Op(2, 2, "{0} * {1}", np.multiply, operator.mul, 1, finite=True),
    "/": _Op(2, 2, "{0} / {1}", np.true_divide, operator.truediv, 1, finite=True,
             guard=(1, "==", "division by zero")),
    "^": _Op(2, 4, "_pow({0}, {1})", _array_power, math.pow, _LIBM_ULPS, finite=True,
             raises=((ValueError, OverflowError), "invalid power: {}"),
             corners=_power_corners, right=True),
    "abs": _Op(1, _ATOM, "abs({0})", np.abs, abs, corners=lambda a: product(_with_zero(a))),
    "sqrt": _Op(1, _ATOM, "_sqrt({0})", np.sqrt, math.sqrt, 1,
                guard=(0, "<", "sqrt of negative value")),
    "ln": _Op(1, _ATOM, "_log({0})", partial(_pointwise, math.log), math.log, _LIBM_ULPS,
              guard=(0, "<=", "ln of non-positive value")),
    "exp": _Op(1, _ATOM, "_exp({0})", partial(_pointwise, math.exp), math.exp, _LIBM_ULPS,
               finite=True, raises=((OverflowError,), "exp overflow")),
    "min": _Op(2, _ATOM, "min({0}, {1})", _pick(np.less), min),
    "max": _Op(2, _ATOM, "max({0}, {1})", _pick(np.greater), max),
}

FUNCTIONS = {name: op.arity for name, op in OPERATORS.items() if op.prec == _ATOM}
_INFIX = {name for name, op in OPERATORS.items() if op.arity == 2 and op.prec < _ATOM}
_RELATIONS = {"==": operator.eq, "<": operator.lt, "<=": operator.le}


def _operation(node: ExprAst) -> tuple[str, _Op, tuple[ExprAst, ...]] | None:
    """The name, row and operands of an operation node; None for a leaf or a malformed node."""
    match node:
        case Neg(arg):
            return "neg", OPERATORS["neg"], (arg,)
        case BinOp(name, lhs, rhs) if name in _INFIX:
            return name, OPERATORS[name], (lhs, rhs)
        case Call(name, args) if FUNCTIONS.get(name) == len(args):
            return name, OPERATORS[name], tuple(args)
    return None


def compile_expr(node: ExprAst) -> Callable[[float], float]:
    """Turn ``node`` into a function ``x -> value`` that evaluates it in binary64.

    Straight-line Python source, one statement per operation from its
    row's ``source``, built with one ``compile``/``exec``: a call makes no
    call per node and no dispatch on node kinds.  Literals, nodes and
    messages are bound by reference, so no text of the expression enters
    the source.  Operands run left to right, except that a guarded one
    (the divisor of ``/``) is evaluated and tested first.  Where a guard
    holds, where ``^`` or ``exp`` raises in ``math``, and at a non-finite
    result of ``+ - * / ^ exp``, it raises :class:`EvalError` with the
    failing subexpression, printed only then; a malformed node raises it
    when its statement runs.
    """
    gen = _Codegen()
    gen.emit(2, f"return {gen.value(node, 2)}")
    return gen.build("<mvfix.expr.compile_expr>", "compiled", "x")


def _fail(message: str, node: ExprAst):
    raise EvalError(message, format_expr(node)) from None


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
    "_malformed": _malformed,
}


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
        if (found := _operation(node)) is None:
            self.emit(indent, f"_malformed({self.bind(node)})")
            return "None"
        _, op, args = found
        names: list[str | None] = [None] * len(args)
        at = None  # the node, bound where a failure needs it
        if op.guard:
            i, relation, message = op.guard
            names[i] = self.value(args[i], indent)
            at = self.bind(node)
            self.emit(indent, f"if {names[i]} {relation} 0.0:")
            self.fail(indent, message, at)
        names = [name or self.value(arg, indent) for name, arg in zip(names, args)]
        text = op.source.format(*names)
        if op.raises:
            errors, message = op.raises
            at = at or self.bind(node)
            self.emit(indent, "try:")
            text = self.let(indent + 1, text)
            self.emit(indent, f"except {self.bind(errors)} as err:")
            self.emit(indent + 1, f"_fail({self.bind(message)}.format(err), {at})")
        if op.finite:
            return self.finite(indent, text, at or self.bind(node))
        return self.let(indent, text)


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


def _eval_array(node: ExprAst, xs: np.ndarray) -> np.ndarray:
    # A NaN operand stays NaN through every row's array form, so each
    # operation only adds the NaNs of its own raise.  Returned arrays are
    # never written in place: xs is one.
    match node:
        case Num(value):
            return np.full(xs.shape, value)
        case Var(_):
            return xs
    if (found := _operation(node)) is None:
        raise EvalError("malformed AST node", repr(node))
    _, op, args = found
    operands = [_eval_array(arg, xs) for arg in args]
    if op.guard:  # NaN where it holds, so math.log is never called there
        i, relation, _ = op.guard
        operands[i] = np.where(_RELATIONS[relation](operands[i], 0.0), math.nan, operands[i])
    v = op.array(*operands)
    if op.finite:
        v[np.isinf(v)] = math.nan
    return v


def enclose(node: ExprAst, lo: float, hi: float) -> tuple[float, float] | None:
    """An interval holding ``compile_expr(node)(x)`` at every float ``x`` in ``[lo, hi]``.

    Interval arithmetic on finite floats (Moore, Kearfott and Cloud,
    *Introduction to Interval Analysis*, SIAM 2009): each row's ``point``
    at the ``corners`` of its operands' intervals, the least and greatest
    value stepped ``ulps`` floats outward (``math.nextafter``).  That is
    one float for the correctly rounded ``+ - * /`` and ``sqrt``, so the
    exact value lies inside too, and ``_LIBM_ULPS`` for ``^``, ``exp`` and
    ``ln``, sound if libm is within one ulp, as glibc documents.  A zero
    end stays where every corner giving 0 is exact: a sum or difference,
    or one with a zero operand (a product or quotient, ``sqrt(0)``, a
    zero base to a positive power); a product that underflows is not.
    Returns None, a claim of nothing, where some point may raise or the
    bound is not known: a literal that is not finite, a malformed node, a
    guard that may hold (``==``: the operand's interval holds 0; else the
    relation holds at its low end), a ``point`` raising at a corner, a
    non-finite end, and ``^`` unless its base is positive, or nonnegative
    with a positive exponent, or its exponent is one integer
    (nonnegative, or with a negative base).
    """
    match node:
        case Num(value):
            return (value, value) if math.isfinite(value) else None
        case Var(_):
            return lo, hi
    if (found := _operation(node)) is None:
        return None
    _, op, args = found
    boxes = [enclose(arg, lo, hi) for arg in args]
    if None in boxes:
        return None
    if op.guard:
        i, relation, _ = op.guard
        a0, a1 = boxes[i]
        if a0 <= 0.0 <= a1 if relation == "==" else _RELATIONS[relation](a0, 0.0):
            return None
    if (corners := op.corners(*boxes)) is None:
        return None
    corners = list(corners)
    try:
        values = [op.point(*c) for c in corners]
    except op.raises[0] if op.raises else ():
        return None
    a, b = min(values), max(values)
    if op.ulps:
        exact_zero = 0.0 in values and all(
            op.zero_is_exact or 0.0 in c for v, c in zip(values, corners) if v == 0.0
        )
        a = a if a == 0.0 and exact_zero else _outward(a, -math.inf, op.ulps)
        b = b if b == 0.0 and exact_zero else _outward(b, math.inf, op.ulps)
    return (a, b) if math.isfinite(a) and math.isfinite(b) else None


def _outward(end: float, toward: float, ulps: int) -> float:
    for _ in range(ulps):
        end = math.nextafter(end, toward)
    return end


def format_expr(node: ExprAst) -> str:
    """Print an AST back to canonical source; reparsing yields an equal AST."""
    match node:
        case Num(value):
            return repr(value)
        case Var(name):
            return name
        case Call(fn, args):
            return f"{fn}({', '.join(format_expr(arg) for arg in args)})"
    if (found := _operation(node)) is None:
        raise ValueError(f"malformed AST node: {node!r}")
    name, op, args = found
    parts = [format_expr(arg) for arg in args]
    # an operand binding looser is parenthesized, and so is one binding as
    # tight on the side the operator does not associate from
    tie = 0 if op.right else 1
    for i, arg in enumerate(args):
        inner = _operation(arg)
        if (inner[1].prec if inner else _ATOM) < op.prec + (i == tie):
            parts[i] = f"({parts[i]})"
    return f"-{parts[0]}" if op.arity == 1 else f"{parts[0]} {name} {parts[1]}"
