"""The number arguments of the library against the config keys of their names.

Every number a config key holds is also an argument of a library entry
point, and both are checked by one rule: each value is refused by both or
by neither, in the same words after the name.
"""

import math

import pytest

from mvfix import (
    CompactSet,
    ConfigError,
    ConstantIntegrand,
    DomainError,
    ExponentialIntegrand,
    FFunction,
    InvariantError,
    MvfixError,
    PowerIntegrand,
    certify,
    config_from_dict,
    expression_integrand,
    is_fixed_point,
    iterate,
    singleton_map,
    validate_trace,
)
from mvfix.errors import _NUMBER_RULES

UNIT = CompactSet.interval(0.0, 1.0)
HALVING = singleton_map(UNIT, "x/2")
LOG = FFunction("log")
ONE = ConstantIntegrand(1.0)
TRACE = iterate(HALVING, 1.0, tol=0.0, max_iter=5)


# For each number key: the config object that holds it (None: the top
# level), the error class of the library, and the library calls that take
# it.  Accepted values stay cheap: sweeps of at most 10 pairs, at most 10 steps.
ENTRIES = {
    "c": ({"kind": "constant"}, InvariantError, [lambda v: ConstantIntegrand(v)]),
    "p": ({"kind": "power"}, InvariantError, [lambda v: PowerIntegrand(p=v)]),
    "rate": ({"kind": "exponential"}, InvariantError, [lambda v: ExponentialIntegrand(rate=v)]),
    "scale": (
        {"kind": "power", "p": 1.0},
        InvariantError,
        [lambda v: PowerIntegrand(1.0, v), lambda v: ExponentialIntegrand(1.0, v)],
    ),
    "grid_max": (
        {"kind": "expression", "source": "1 + t"},
        InvariantError,
        [lambda v: expression_integrand("1 + t", grid_max=v)],
    ),
    "k": ({"kind": "log"}, InvariantError, [lambda v: FFunction("log", k=v)]),
    "tau": (None, DomainError, [lambda v: validate_trace(TRACE, LOG, v)]),
    "grid_size": (None, DomainError, [lambda v: certify(HALVING, LOG, ONE, v, 2)]),
    "random_pairs": (None, DomainError, [lambda v: certify(HALVING, LOG, ONE, 3, v)]),
    "seed": (None, DomainError, [lambda v: certify(HALVING, LOG, ONE, 3, 2, seed=v)]),
    "tol": (
        None,
        DomainError,
        [
            lambda v: iterate(HALVING, 1.0, tol=v, max_iter=3),
            lambda v: is_fixed_point(HALVING, 0.5, tol=v),
        ],
    ),
    "max_iter": (None, DomainError, [lambda v: iterate(HALVING, 1.0, max_iter=v)]),
    "x0": (None, DomainError, [lambda v: iterate(HALVING, v, max_iter=3)]),
}
IN_RANGE = {
    "c": 2.5,
    "p": 0.5,
    "rate": -0.5,
    "scale": 2.5,
    "grid_max": 2.5,
    "k": 0.25,
    "tau": 0.5,
    "grid_size": 4,
    "random_pairs": 5,
    "seed": 7,
    "tol": 0.5,
    "max_iter": 10,
    "x0": 0.5,
}
# the in-range value of the key, in place of a value of the corpus
IN = object()
CORPUS = [True, False, "1", None, math.nan, math.inf, -math.inf, -2, 0, 2.0, 10**400, IN]


def config_words(key, v):
    """The words after the name with which ``config_from_dict`` refuses ``key = v``,
    or None when it takes the value."""
    holder = ENTRIES[key][0]
    data = {"domain": [[0.0, 1.0]], "map": {"kind": "singleton", "f": "x/2"}}
    if holder is None:
        data[key] = v
    else:
        data["f" if key == "k" else "integrand"] = {**holder, key: v}
    try:
        config_from_dict(data)
    except ConfigError as err:
        return str(err).split(" ", 1)[1]
    return None


def library_words(key, v):
    """The same for the library calls of ``key``, which must agree and raise
    their own error class; for ``x0``, a start outside the domain is taken."""
    _, error, calls = ENTRIES[key]
    found = []
    for call in calls:
        try:
            call(v)
        except MvfixError as err:
            assert type(err) is error
            name, words = str(err).split(" ", 1)
            outside = key == "x0" and name == "starting"
            assert outside or name == key
            found.append(None if outside else words)
        else:
            found.append(None)
    assert len(set(found)) == 1
    return found[0]


def test_every_number_key_has_an_entry_point():
    assert set(ENTRIES) == set(IN_RANGE) == set(_NUMBER_RULES)


# is_fixed_point(HALVING, 0.5, tol=True) once called 0.5 a fixed point of
# x/2, and a string or None ended in a raw TypeError
@pytest.mark.parametrize("value", [True, "0", None], ids=repr)
@pytest.mark.parametrize("key", sorted(ENTRIES))
def test_a_bool_a_string_or_none_is_no_number(key, value):
    _, error, calls = ENTRIES[key]
    for call in calls:
        with pytest.raises(error) as err:
            call(value)
        assert str(err.value) == f"{key} must be a number, got {value!r}"


@pytest.mark.parametrize(
    "value", CORPUS, ids=lambda v: "in_range" if v is IN else "huge" if v == 10**400 else repr(v)
)
@pytest.mark.parametrize("key", sorted(ENTRIES))
def test_config_and_library_refuse_alike(key, value):
    value = IN_RANGE[key] if value is IN else value
    assert library_words(key, value) == config_words(key, value)
