"""A tiny arithmetic expression language over one variable.

Supported syntax: decimal literals, one designated variable name, unary
minus, the binary operators ``+ - * / ^`` (with ``^`` right-associative
and binding tighter than unary minus), parentheses, and the functions
``abs``, ``sqrt``, ``ln``, ``exp`` (unary) and ``min``, ``max`` (binary).
Literals are floats: :class:`Num` stores ``float(value)``.  Names are
ASCII.

Parsing is top-down operator precedence over a flat token list, with
each operator's binding strength and associativity read from its row of
:data:`OPERATORS`.  Failures raise :class:`ParseError` with a 0-based
character position; a literal that overflows to infinity is one, and so
is nesting deeper than :data:`MAX_DEPTH` (200) levels of parentheses,
calls and operations.  Evaluation failures raise
:class:`EvalError` carrying the offending subexpression in printed form,
so at a finite point a compiled expression returns a finite value or
raises.

Each operator is one row of :data:`OPERATORS`, which gives it in every
form below and says once, for all of them, where it raises.
:func:`compile_expr` generates one straight-line Python function per
AST; callers that evaluate an AST at many points compile it once, and
maps and integrands do so on first scalar use.  :func:`eval_expr_array`
evaluates over a whole array with the same bits, NaN where the compiled
function would raise.
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
from typing import Callable, NamedTuple, Union

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

# Deepest nesting parse_expr admits, in levels: parentheses, calls and
# operations.  The recursive walkers of an AST (_Codegen.value,
# _eval_array, enclose, format_expr) take about two frames per level, so
# about 500 levels overflow Python's default recursion limit; 200 leaves
# a 2x margin.  ASTs built directly are not limited.
MAX_DEPTH = 200

# one alternative per token kind, the group's name being the kind; where
# no token starts after the whitespace, the match holds no group
_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^])"
    r"|(?P<lparen>\()|(?P<rparen>\))|(?P<comma>,))?"
)


class _Token(NamedTuple):
    kind: str  # a group name of _TOKEN, or "end"
    text: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    m = _TOKEN.match(src)
    while kind := m.lastgroup:
        tokens.append(_Token(kind, m[kind], m.start(kind)))
        if kind == "num" and not math.isfinite(float(m[kind])):
            raise ParseError("number literal is not finite", m.start(kind))
        m = _TOKEN.match(src, m.end())
    if (i := m.end()) < len(src):
        ch = src[i]
        if ch == ".":  # a \d always starts a number token, so only "." can fail to
            raise ParseError("malformed number starting with '.'", i)
        raise ParseError(f"unexpected character {ch!r}", i)
    return [*tokens, _Token("end", "", i)]


class _Parser:
    """Top-down operator precedence (Pratt, POPL 1973) over the rows of :data:`OPERATORS`.

    Each parsing method returns a tree and its height in levels.
    """

    def __init__(self, tokens: list[_Token], variable: str):
        self.tokens = tokens
        self.pos = 0
        self.variable = variable
        self.depth = 0  # levels open around the next token

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

    def expr(self, least: int = 0) -> tuple[ExprAst, int]:
        """An operand, then each infix operator whose row's ``prec`` is at least ``least``.

        A right operand takes in each operator after it that binds
        tighter, and one that binds as tight where the row is ``right``.
        """
        if (tok := self.peek()).text == "-":
            self.advance()
            arg, height = self.nested(tok, OPERATORS["neg"].prec)
            node = Neg(arg)
        else:
            node, height = self.atom()
        while (tok := self.peek()).kind == "op" and (op := OPERATORS[tok.text]).prec >= least:
            self.advance()
            rhs, height = self.nested(tok, op.prec if op.right else op.prec + 1, height)
            node = BinOp(tok.text, node, rhs)
        return node, height

    def nested(self, opener: _Token, least: int = 0, lhs: int = 0) -> tuple[ExprAst, int]:
        """``expr(least)`` one level down, and the height of that level.

        The level also holds a left operand of height ``lhs``; one past
        ``MAX_DEPTH`` raises at ``opener``.
        """
        if self.depth + lhs >= MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", opener.pos)
        self.depth += 1
        node, height = self.expr(least)
        self.depth -= 1
        return node, max(height, lhs) + 1

    def atom(self) -> tuple[ExprAst, int]:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text)), 0
        if tok.kind == "lparen":
            self.advance()
            found = self.nested(tok)
            self.expect("rparen", "')'")
            return found
        if tok.kind == "ident":
            self.advance()
            if tok.text in FUNCTIONS:
                return self.call(tok)
            if tok.text == self.variable:
                return Var(tok.text), 0
            raise ParseError(f"unknown identifier '{tok.text}'", tok.pos)
        raise ParseError("expected operand", tok.pos)

    def call(self, name: _Token) -> tuple[ExprAst, int]:
        opener = self.expect("lparen", "'(' after function name")
        args = [self.nested(opener)]
        while self.peek().kind == "comma":
            self.advance()
            args.append(self.nested(opener))
        self.expect("rparen", "')'")
        arity = FUNCTIONS[name.text]
        if len(args) != arity:
            raise ParseError(
                f"{name.text} expects {arity} argument{'s' if arity > 1 else ''},"
                f" got {len(args)}",
                name.pos,
            )
        return Call(name.text, tuple(arg for arg, _ in args)), max(h for _, h in args)


def parse_expr(src: str, variable: str = "x") -> ExprAst:
    """Parse ``src`` into an AST; the only legal free name is ``variable``."""
    parser = _Parser(_tokenize(src), variable)
    node, _ = parser.expr()
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
    block where some call raised is redone one element at a time.  A 0-d
    argument (a literal, say) is one Python float repeated over the
    block, not listed; with only 0-d arguments the result is 0-d.
    """
    out = np.empty(next((a.shape for a in args if np.ndim(a)), ()))
    flat = out.reshape(-1)
    for start in range(0, len(flat), _POINTWISE_BLOCK):
        count = min(len(flat) - start, _POINTWISE_BLOCK)
        lists = [a[start : start + count].tolist() if np.ndim(a) else [float(a)] * count for a in args]
        try:
            flat[start : start + count] = np.fromiter(map(fn, *lists), float, count)
        except (ValueError, OverflowError):
            for k, row in enumerate(zip(*lists), start):
                try:
                    flat[k] = fn(*row)
                except (ValueError, OverflowError):
                    flat[k] = math.nan
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


# a rounded sum or difference is 0 only where it is exactly 0, and a log
# only at 1, where C99 Annex F makes it exactly +0; abs is monotone on
# each side of 0
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
              guard=(0, "<=", "ln of non-positive value"), zero_is_exact=True),
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
    """Statements of one compiled expression, in evaluation order.

    ``checked=False`` is for expressions whose enclosure over every point
    the code runs at exists (:func:`enclose`), where no operation can
    fail: each is then one plain statement, with no guard, ``try`` block
    or finiteness test.
    """

    def __init__(self, checked: bool = True):
        self.lines: list[str] = []
        self.bound: list[object] = []  # passed to the source as b0, b1, ...
        self.temps = 0
        self.checked = checked

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
        if not self.checked:
            return self.let(indent, op.source.format(*(self.value(arg, indent) for arg in args)))
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


def eval_expr_array(node: ExprAst, xs: np.ndarray) -> np.ndarray:
    """Evaluate ``node`` at every element of the 1-D array ``xs`` of non-NaN values.

    ``values[i]`` is NaN exactly where ``compile_expr(node)(xs[i])`` raises,
    and elsewhere its result bit for bit, sign of zero included.  Only
    IEEE-exact operations (``+ - * /``, ``abs``, ``sqrt``, negation,
    comparisons, ``where``) run on whole arrays; ``^``, ``ln`` and
    ``exp`` go through :func:`_pointwise`.  A subtree without the variable
    is one 0-d value that numpy broadcasts, not one per element; a whole
    expression without it still comes back as a fresh ``(n,)`` array.
    """
    with np.errstate(all="ignore"):
        v = _eval_array(node, np.asarray(xs, dtype=float))
    return v if v.ndim else np.full(len(xs), v)


def _eval_array(node: ExprAst, xs: np.ndarray) -> np.ndarray:
    # A NaN operand stays NaN through every row's array form, so each
    # operation only adds the NaNs of its own raise.  Returned arrays are
    # never written in place: xs is one.  asarray keeps a 0-d value an array.
    match node:
        case Num(value):
            return np.array(value)
        case Var(_):
            return xs
    if (found := _operation(node)) is None:
        raise EvalError("malformed AST node", repr(node))
    _, op, args = found
    operands = [_eval_array(arg, xs) for arg in args]
    if op.guard:  # NaN where it holds, so math.log is never called there
        i, relation, _ = op.guard
        operands[i] = np.where(_RELATIONS[relation](operands[i], 0.0), math.nan, operands[i])
    v = np.asarray(op.array(*operands))
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
    end stays where every corner giving 0 is exact: a sum, a difference,
    ``ln(1)``, or one with a zero operand (a product or quotient,
    ``sqrt(0)``, a zero base to a positive power), but not an underflow.
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
