"""The number arguments of the library against the config keys of their names.

Every number a config key holds is also an argument of a library entry
point, and both are checked by one rule: each value is refused by both or
by neither, in the same words after the name.
"""

import math

import numpy as np
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
    apply_map,
    certify,
    config_from_dict,
    domain_grid,
    evaluate_pair,
    evaluate_pairs,
    expression_integrand,
    is_fixed_point,
    iterate,
    m_value,
    singleton_map,
    table_map,
    validate_trace,
)
from mvfix.errors import _NUMBER_RULES, checked_number

UNIT = CompactSet.interval(0.0, 1.0)
HALVING = singleton_map(UNIT, "x/2")
LOG = FFunction("log")
ONE = ConstantIntegrand(1.0)
TRACE = iterate(HALVING, 1.0, tol=0.0, max_iter=5)
# the holder of a number that no config key holds
NO_CONFIG = object()


# For each number key: the config object that holds it (None: the top
# level; NO_CONFIG: none), the error class of the library, and the library
# calls that take it.  Accepted values stay cheap: sweeps of at most 10
# pairs, at most 10 steps.
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
    # domain_grid(A, True) once made one point, a string or None ended in a
    # raw TypeError, and a nan grid over an interval was said to overflow
    "size": (
        NO_CONFIG,
        DomainError,
        [lambda v: domain_grid(UNIT, v), lambda v: domain_grid(CompactSet.from_points([0, 1]), v)],
    ),
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
    "size": 4,
}
# the in-range value of the key, in place of a value of the corpus
IN = object()
CORPUS = [True, False, "1", None, math.nan, math.inf, -math.inf, -2, 0, 2.0, 10**400, IN]


def config_words(key, v):
    """The words after the name with which ``config_from_dict`` refuses ``key = v``,
    or None when it takes the value; for a number no config key holds, the
    words of its rule."""
    holder = ENTRIES[key][0]
    if holder is NO_CONFIG:
        try:
            checked_number(key, v)
        except DomainError as err:
            return str(err).split(" ", 1)[1]
        return None
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


# The point arguments of the map and pair functions, each with the name it
# is refused under.  evaluate_pair(HALVING, LOG, ONE, "a", 0.5) once ended
# in a raw TypeError, and True ran as the point 1.0.
POINT_CALLS = {
    "apply_map": ("x", lambda v: apply_map(HALVING, v)),
    "is_fixed_point": ("x", lambda v: is_fixed_point(HALVING, v)),
    "m_value_x": ("x", lambda v: m_value(HALVING, v, 0.5)),
    "m_value_y": ("y", lambda v: m_value(HALVING, 0.5, v)),
    "evaluate_pair_x": ("x", lambda v: evaluate_pair(HALVING, LOG, ONE, v, 0.5)),
    "evaluate_pair_y": ("y", lambda v: evaluate_pair(HALVING, LOG, ONE, 0.5, v)),
    "evaluate_pairs_x": ("x", lambda v: evaluate_pairs(HALVING, LOG, ONE, [0.25, v], [0.5, 0.5])),
    "evaluate_pairs_y": ("y", lambda v: evaluate_pairs(HALVING, LOG, ONE, [0.5, 0.5], [0.25, v])),
}


@pytest.mark.parametrize("value", [True, False, "a", "0.5", None], ids=repr)
@pytest.mark.parametrize("call", sorted(POINT_CALLS))
def test_a_point_is_a_real_number(call, value):
    name, run = POINT_CALLS[call]
    with pytest.raises(DomainError) as err:
        run(value)
    assert str(err.value) == f"{name} must be a number, got {value!r}"


@pytest.mark.parametrize(
    "x, words",
    [
        (np.array([True, False]), "True"),
        (np.array(["0.25", "0.5"]), "'0.25'"),
        (np.array([0.25, None], dtype=object), "None"),
        (np.array([0.25, 10**400], dtype=object), "an integer too large for a float"),
        ("0.25", "'0.25'"),
    ],
    ids=["bool", "str", "object", "huge", "scalar_str"],
)
def test_evaluate_pairs_refuses_arrays_of_no_numbers(x, words):
    with pytest.raises(DomainError) as err:
        evaluate_pairs(HALVING, LOG, ONE, x, [0.5, 0.5])
    assert str(err.value) == f"x must be a number, got {words}"


def test_evaluate_pairs_takes_an_object_array_of_numbers():
    x = np.array([0.25, 1], dtype=object)
    taken = evaluate_pairs(HALVING, LOG, ONE, x, [0.5, 0.5])
    assert repr(taken) == repr(evaluate_pairs(HALVING, LOG, ONE, [0.25, 1.0], [0.5, 0.5]))


# NaN and the infinities are numbers outside the domain: an error, or an error row
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
def test_a_point_outside_the_domain_keeps_its_words(value):
    words = f"argument {value} lies outside the map domain"
    with pytest.raises(DomainError, match=f"^{words}$"):
        evaluate_pair(HALVING, LOG, ONE, value, 0.5)
    index, _, errors = evaluate_pairs(HALVING, LOG, ONE, [0.25, value], [0.5, 0.5])
    assert index.tolist() == [0]
    assert [(k, message) for _, _, k, message in errors] == [(1, words)]


# A table key and an endpoint of the domain or of a table's value set:
# True once loaded as 1.0 and "0.5" as 0.5.  The config refuses a key in
# the words of table_map, inside its "bad table entry" prefix.
NO_NUMBERS = [True, False, "0.5", None]


@pytest.mark.parametrize("value", NO_NUMBERS, ids=repr)
def test_a_table_key_is_a_real_number(value):
    words = f"table key must be a number, got {value!r}"
    with pytest.raises(InvariantError) as err:
        table_map(UNIT, [(value, [(0.0, 1.0)])])
    assert str(err.value) == words
    entries = [[value, [[0.0, 1.0]]]]
    with pytest.raises(ConfigError) as err:
        config_from_dict({"domain": [[0.0, 1.0]], "map": {"kind": "table", "entries": entries}})
    assert str(err.value) == f"bad table entry {entries[0]!r}: {words}"


@pytest.mark.parametrize("value", NO_NUMBERS, ids=repr)
def test_an_endpoint_is_a_real_number(value):
    words = f"endpoint must be a number, got {value!r}"
    table = {"kind": "table", "entries": [[0.5, [[0.0, value]]]]}
    with pytest.raises(ConfigError) as err:
        config_from_dict({"domain": [[0.0, 1.0]], "map": table})
    assert str(err.value) == f"bad table entry {table['entries'][0]!r}: {words}"
    with pytest.raises(ConfigError) as err:
        config_from_dict({"domain": [[value, 1.0]], "map": {"kind": "singleton", "f": "x/2"}})
    assert str(err.value) == f"bad domain: {words}"
