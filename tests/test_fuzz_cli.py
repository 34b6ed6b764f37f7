"""Fuzzing ``mvfix certify`` and ``mvfix solve`` with generated config files.

Valid configs cover every map, integrand and F kind and both modes; the
mutated ones change, drop or add one key, anywhere in the config.  Every
run must end with an exit code of 0 to 4, print at most one ``error:``
line on stderr, and let no exception escape ``main``.  Grids stay at most
11 points, random pairs at most 10 and iterations at most 50, so each run
takes milliseconds.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mvfix.cli import EXIT_ERROR, main
from mvfix.ffunctions import F_KINDS

DOMAINS = [[[0.0, 1.0]], [[0.0, 1.0], [2.0, 3.0]], [[-1.0, 0.5]]]

MAPS = [
    {"kind": "interval_endpoints", "lo": "x/4", "hi": "(x+1)/2"},
    {"kind": "interval_endpoints", "lo": "0", "hi": "x/3"},
    {"kind": "singleton", "f": "x/2"},
    {"kind": "singleton", "f": "x - x^2"},
    {"kind": "singleton", "f": "sqrt(abs(x))/2"},
    {"kind": "finite_set", "members": ["x/3", "x/2 + 0.1"]},
    {"kind": "finite_set", "members": ["0", "min(x, 0.5)", "exp(-x)/4"]},
    {"kind": "table", "entries": [[0.0, [[0.0, 0.25]]], [0.5, [[0.1, 0.2], [0.4, 0.5]]]]},
]

INTEGRANDS = [
    {"kind": "constant"},
    {"kind": "constant", "c": 2.5},
    {"kind": "power", "p": -0.5},
    {"kind": "power", "p": 2, "scale": 0.5},
    {"kind": "exponential", "rate": -1.0},
    {"kind": "exponential", "rate": 0.0, "scale": 3.0},
    {"kind": "expression", "source": "1 + t^2"},
    {"kind": "expression", "source": "exp(-t)", "grid_max": 10},
]

# Values a mutation puts in place of any one value in the config.
BAD_VALUES = st.sampled_from(
    [None, True, "x", "x +", "(", "ln(x - 5)", "1/x", "nope(x)", [], [1], [[1, 0]], {},
     {"kind": "fractal"}, -5, -1, -0.5, 0, 0.5, 1.5, 3, 10**400, math.inf, -math.inf,
     math.nan]
)

# the flags each command takes: only certify overrides config keys
FLAGS = {
    "certify": st.sampled_from([[], ["--mode", "excess"], ["--seed", "3"], ["--seed", "-5"]]),
    "solve": st.just([]),
}


@st.composite
def valid_configs(draw):
    domain = draw(st.sampled_from(DOMAINS))
    lo, hi = domain[0]
    cfg = {
        "domain": domain,
        "map": draw(st.sampled_from(MAPS)),
        "f": {"kind": draw(st.sampled_from(F_KINDS)), "k": draw(st.sampled_from([0.25, 0.5, 0.9]))},
        "integrand": draw(st.sampled_from(INTEGRANDS)),
        "grid_size": draw(st.integers(2, 11)),
        "random_pairs": draw(st.integers(0, 10)),
        "seed": draw(st.integers(0, 2**32)),
        "mode": draw(st.sampled_from(["hausdorff", "excess"])),
        "tol": draw(st.sampled_from([0.0, 1e-12, 1e-3])),
        "max_iter": draw(st.integers(1, 50)),
        "x0": draw(st.floats(lo, hi)),
    }
    if draw(st.booleans()):
        cfg["tau"] = draw(st.sampled_from([0.01, 0.5, 2.0]))
    return json.loads(json.dumps(cfg))  # fresh lists and dicts to mutate


def _slots(node, slots):
    """Every (container, key) whose value a mutation may change or drop."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        slots.append((node, key))
        if isinstance(value, (dict, list)):
            _slots(value, slots)
    return slots


@st.composite
def mutated_configs(draw):
    cfg = draw(valid_configs())
    slots = _slots(cfg, [])
    for _ in range(draw(st.integers(1, 3))):
        node, key = draw(st.sampled_from(slots))
        action = draw(st.sampled_from(["replace", "drop", "add"]))
        if action == "replace":
            node[key] = draw(BAD_VALUES)
        elif action == "drop" and isinstance(node, dict):
            node.pop(key, None)
        elif isinstance(node, dict):
            node["extra"] = draw(BAD_VALUES)
    return cfg


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


NUMERIC_KNOBS = [
    {"grid_size": math.inf}, {"grid_size": math.nan}, {"grid_size": 1e20}, {"grid_size": 10**400},
    {"random_pairs": math.inf}, {"random_pairs": math.nan}, {"random_pairs": 1e20},
    {"seed": math.inf}, {"seed": math.nan}, {"seed": -5},
    {"max_iter": math.inf}, {"max_iter": math.nan}, {"tol": math.nan}, {"tau": math.inf},
]
BASE = {"domain": [[0.0, 1.0]], "map": MAPS[2], "x0": 0.8, "tau": 0.5, "max_iter": 50,
        "grid_size": 11, "random_pairs": 10}


def _with_knob_examples(test):
    for command in ("certify", "solve"):
        for knob in NUMERIC_KNOBS:
            test = example(cfg=dict(BASE, **knob), invocation=(command, []))(test)
    return example(cfg=BASE, invocation=("certify", ["--seed", "-5"]))(test)


@_with_knob_examples
@example(cfg=dict(BASE, map={"kind": "singleton", "f": "xé"}), invocation=("solve", []))
@example(
    cfg=dict(BASE, integrand={"kind": "expression", "source": "xé"}), invocation=("certify", [])
)
@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    cfg=st.one_of(valid_configs(), mutated_configs()),
    invocation=st.sampled_from(sorted(FLAGS)).flatmap(
        lambda command: st.tuples(st.just(command), FLAGS[command])
    ),
)
def test_cli_ends_with_an_exit_code_and_at_most_one_error_line(cfg, invocation):
    command, flags = invocation
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "problem.json"
        path.write_text(json.dumps(cfg))
        code, out, err = _run([command, str(path), *flags])
    assert 0 <= code <= 4
    if err:
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
    if code == EXIT_ERROR and not err:
        # the run itself failed: the report names the first error
        assert "first error: " in out or "\nerror: " in out, out
