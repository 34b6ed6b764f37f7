"""Exception types shared across the package, and the one rule of each number:
:func:`checked_number` checks a config key and the library argument of that
name by the same rule in :data:`_NUMBER_RULES`, refusing in the same words.
"""

import math
import numbers
from typing import Any, Callable

__all__ = [
    "MvfixError",
    "InvariantError",
    "DomainError",
    "ParseError",
    "EvalError",
    "QuadratureError",
    "ConfigError",
    "InsufficientTraceError",
]


class MvfixError(Exception):
    """Base class for every error raised by this package."""


class InvariantError(MvfixError):
    """A constructed value violates a structural invariant."""


class DomainError(MvfixError):
    """An argument lies outside the mathematical domain of an operation."""


class ParseError(MvfixError):
    """Expression source could not be parsed.

    `position` is the 0-based character offset where parsing failed.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalError(MvfixError):
    """Expression evaluation failed; `subexpr` is the offending subexpression."""

    def __init__(self, message: str, subexpr: str):
        super().__init__(f"{message} in '{subexpr}'")
        self.subexpr = subexpr


class QuadratureError(MvfixError):
    """Adaptive quadrature exhausted its depth budget before reaching tolerance."""


class ConfigError(MvfixError):
    """A problem configuration failed schema validation."""


class InsufficientTraceError(MvfixError):
    """An iteration trace is too short to validate."""


# Upper bound on grid_size and random_pairs.  A sweep holds its pairs only
# a chunk at a time, but its grid and drawn points are whole arrays: no
# sweep that large fits them in memory, and far larger sizes end in a raw
# numpy error.
SWEEP_LIMIT = 10**9


def _whole(least: float = -math.inf) -> tuple[Callable[[Any], bool], str]:
    """The test of an integer key, at least ``least``."""
    words = "must be an integer" + (f" >= {least}" if least > -math.inf else "")
    return (lambda v: math.isfinite(v) and int(v) == v and v >= least, words)


# Every number key, of a kind or a setting: the type it is stored as, then
# its tests in order, each with the words of its message.
_POSITIVE = (lambda v: v > 0.0, "must be positive")
_FINITE = (math.isfinite, "must be finite")
_SWEEP = (lambda v: v <= SWEEP_LIMIT, f"must be at most {SWEEP_LIMIT}")
_NUMBER_RULES = {
    "c": (float, _POSITIVE, _FINITE),
    "p": (float, (lambda v: v > -1.0, "must be > -1"), _FINITE),
    "rate": (float, _FINITE),
    "scale": (float, _POSITIVE, _FINITE),
    "grid_max": (float, _POSITIVE, _FINITE),
    "k": (float, (lambda v: 0.0 < v < 1.0, "must lie in (0, 1)")),
    "tau": (float, _POSITIVE, _FINITE),
    "grid_size": (int, _whole(2), _SWEEP),
    "random_pairs": (int, _whole(0), _SWEEP),
    # certify seeds numpy's generator, which takes no negative seed
    "seed": (int, _whole(), (lambda v: v >= 0, "must be >= 0")),
    "tol": (float, (lambda v: v >= 0.0, "must be >= 0"), _FINITE),
    "max_iter": (int, _whole(1)),
    "x0": (float,),
}


def real_number(v: Any, name: str, error: type) -> Any:
    """``v``, or ``error`` naming ``name`` unless ``v`` is a real number a
    float can hold: a bool, a string or None is none."""
    if type(v) is float:  # every value set a map builds; the abstract-class test is slow
        return v
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise error(f"{name} must be a number, got {v!r}")
    try:
        float(v)
    except OverflowError:
        raise error(f"{name} must be a number, got an integer too large for a float") from None
    return v


def checked_number(key: str, v: Any, name: str = "", error: type = DomainError) -> Any:
    """``v`` as number ``key`` stores it (a whole float as an int for an int
    key), or ``error`` in its rule's words, naming it ``name`` or ``key``."""
    name = name or key
    real_number(v, name, error)
    store, *tests = _NUMBER_RULES[key]
    for test, words in tests:
        if not test(v):
            raise error(f"{name} {words}, got {v}")
    return store(v)
