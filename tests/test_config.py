import json

import pytest

from mvfix import (
    CompactSet,
    ConfigError,
    ConstantIntegrand,
    ExponentialIntegrand,
    FFunction,
    InvariantError,
    MvfixError,
    PowerIntegrand,
    Spec,
    build_ffunction,
    build_integrand,
    build_map,
    config_from_dict,
    config_to_dict,
    integrand_label,
    load_config,
    save_config,
)

MINIMAL = {
    "domain": [[0.0, 1.0]],
    "map": {"kind": "singleton", "f": "x/2"},
}

FULL = {
    "domain": [[0.0, 1.0], [2.0, 3.0]],
    "map": {"kind": "interval_endpoints", "lo": "x/4", "hi": "(x+1)/2"},
    "f": {"kind": "log", "k": 0.5},
    "integrand": {"kind": "power", "p": 1.0, "scale": 2.0},
    "tau": 0.6,
    "grid_size": 51,
    "random_pairs": 200,
    "seed": 7,
    "mode": "excess",
    "tol": 1e-10,
    "max_iter": 500,
    "x0": 0.9,
}


class TestParsing:
    def test_minimal_defaults(self):
        cfg = config_from_dict(MINIMAL)
        assert cfg.domain == ((0.0, 1.0),)
        assert cfg.map.kind == "singleton"
        assert cfg.f.kind == "log"
        assert cfg.f.k == 0.5
        assert cfg.integrand.kind == "constant"
        assert cfg.tau is None
        assert cfg.grid_size == 101
        assert cfg.random_pairs == 1000
        assert cfg.seed == 42
        assert cfg.mode == "hausdorff"
        assert cfg.tol == 1e-12
        assert cfg.max_iter == 10_000
        assert cfg.x0 is None

    def test_full_values(self):
        cfg = config_from_dict(FULL)
        assert cfg.map.lo == "x/4"
        assert cfg.integrand.p == 1.0
        assert cfg.tau == 0.6
        assert cfg.mode == "excess"
        assert cfg.x0 == 0.9

    def test_not_an_object(self):
        with pytest.raises(ConfigError):
            config_from_dict([1, 2])

    def test_unknown_top_level_key(self):
        bad = dict(MINIMAL, extra=1)
        with pytest.raises(ConfigError, match="unknown key 'extra'"):
            config_from_dict(bad)

    def test_unknown_map_key(self):
        bad = dict(MINIMAL, map={"kind": "singleton", "f": "x", "speed": 2})
        with pytest.raises(ConfigError, match="speed"):
            config_from_dict(bad)

    def test_missing_map(self):
        with pytest.raises(ConfigError, match="map"):
            config_from_dict({"domain": [[0.0, 1.0]]})

    def test_missing_domain(self):
        with pytest.raises(ConfigError, match="domain"):
            config_from_dict({"map": MINIMAL["map"]})

    def test_reversed_domain(self):
        with pytest.raises(ConfigError, match="bad domain"):
            config_from_dict(dict(MINIMAL, domain=[[1.0, 0.0]]))

    def test_nonpositive_tau(self):
        with pytest.raises(ConfigError, match="tau must be positive"):
            config_from_dict(dict(MINIMAL, tau=-1.0))
        with pytest.raises(ConfigError, match="tau must be positive"):
            config_from_dict(dict(MINIMAL, tau=0.0))

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            config_from_dict(dict(MINIMAL, mode="sup"))

    def test_bad_map_kind(self):
        with pytest.raises(ConfigError, match="map.kind"):
            config_from_dict(dict(MINIMAL, map={"kind": "fractal"}))

    def test_bad_f_kind(self):
        with pytest.raises(ConfigError, match="f.kind"):
            config_from_dict(dict(MINIMAL, f={"kind": "cosh"}))

    def test_bad_witness(self):
        with pytest.raises(ConfigError, match="f.k"):
            config_from_dict(dict(MINIMAL, f={"kind": "log", "k": 1.0}))

    def test_bad_integrand_kind(self):
        with pytest.raises(ConfigError, match="integrand.kind"):
            config_from_dict(dict(MINIMAL, integrand={"kind": "spline"}))

    def test_power_requires_exponent(self):
        with pytest.raises(ConfigError, match="requires 'p'"):
            config_from_dict(dict(MINIMAL, integrand={"kind": "power"}))

    @pytest.mark.parametrize(
        "key,value",
        [
            ("grid_size", 1),
            ("grid_size", 10.5),
            ("random_pairs", -1),
            ("seed", 1.5),
            ("tol", -1e-9),
            ("max_iter", 0),
            ("tau", "big"),
        ],
    )
    def test_bad_scalar_values(self, key, value):
        with pytest.raises(ConfigError):
            config_from_dict(dict(MINIMAL, **{key: value}))

    def test_boolean_is_not_a_number(self):
        with pytest.raises(ConfigError):
            config_from_dict(dict(MINIMAL, seed=True))


class TestRoundTrip:
    @pytest.mark.parametrize("raw", [MINIMAL, FULL])
    def test_dict_round_trip(self, raw):
        cfg = config_from_dict(raw)
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_optional_fields_omitted_when_unset(self):
        out = config_to_dict(config_from_dict(MINIMAL))
        assert "tau" not in out
        assert "x0" not in out

    def test_table_entries_round_trip(self):
        raw = dict(
            MINIMAL,
            map={
                "kind": "table",
                "entries": [[0.0, [[0.0, 0.25]]], [1.0, [[0.5, 0.5]]]],
            },
        )
        cfg = config_from_dict(raw)
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = config_from_dict(FULL)
        path = tmp_path / "problem.json"
        save_config(cfg, path)
        assert load_config(path) == cfg
        # the file itself is plain JSON
        assert json.loads(path.read_text())["mode"] == "excess"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    @pytest.mark.parametrize(
        "raw,detail",
        [
            (b'{"seed": \xff}', "'utf-8' codec can't decode byte 0xff in position 9"),
            (b"[" * 100_000, "maximum recursion depth exceeded"),
        ],
        ids=["not-utf-8", "nested-too-deep"],
    )
    def test_undecodable_file(self, tmp_path, raw, detail):
        path = tmp_path / "broken.json"
        path.write_bytes(raw)
        with pytest.raises(ConfigError, match=f"^configuration is not valid JSON: {detail}"):
            load_config(path)


class TestSpec:
    def test_parameters_read_as_attributes(self):
        spec = Spec("power", (("p", 1.0), ("scale", 2.0)))
        assert (spec.p, spec.scale) == (1.0, 2.0)
        with pytest.raises(AttributeError, match="^rate$"):
            spec.rate
        assert getattr(spec, "rate", None) is None


class TestBuilders:
    def test_domain(self):
        cfg = config_from_dict(FULL)
        assert build_map(cfg).domain == CompactSet([(0.0, 1.0), (2.0, 3.0)])

    def test_map(self):
        cfg = config_from_dict(MINIMAL)
        T = build_map(cfg)
        assert T.kind == "singleton"
        assert T.domain == CompactSet.interval(0.0, 1.0)

    def test_map_validation_runs_at_build(self):
        cfg = config_from_dict(
            dict(MINIMAL, map={"kind": "interval_endpoints", "lo": "x", "hi": "x/2"})
        )
        with pytest.raises(InvariantError):
            build_map(cfg)

    def test_ffunction(self):
        cfg = config_from_dict(dict(MINIMAL, f={"kind": "neg_inv_sqrt", "k": 0.9}))
        assert build_ffunction(cfg) == FFunction("neg_inv_sqrt", k=0.9)

    def test_integrands(self):
        assert build_integrand(config_from_dict(MINIMAL)) == ConstantIntegrand(1.0)
        assert build_integrand(config_from_dict(FULL)) == PowerIntegrand(p=1.0, scale=2.0)
        cfg = config_from_dict(
            dict(MINIMAL, integrand={"kind": "exponential", "rate": 0.2, "scale": 3.0})
        )
        assert build_integrand(cfg) == ExponentialIntegrand(rate=0.2, scale=3.0)
        cfg = config_from_dict(
            dict(MINIMAL, integrand={"kind": "expression", "source": "1 + t*t"})
        )
        f = build_integrand(cfg)
        assert f.source == "1 + t*t"


# Each case: a map, integrand or F object put into MINIMAL, and the exact
# error text of loading the config and building its map and integrand.
NAN, INF = float("nan"), float("inf")
BIG = 10**400  # a JSON integer that no float can hold
TOO_BIG = "must be a number, got an integer too large for a float"


def _map(**kw):
    return {"map": kw}


def _integrand(**kw):
    return {"integrand": kw}


def _f(**kw):
    return {"f": kw}


F_KIND_WORDS = "f.kind must be one of ('log', 'log_plus_linear', 'neg_inv_sqrt')"


MESSAGE_CASES = [
    ("lo-missing", _map(kind="interval_endpoints", hi="x"),
     "ConfigError: map.lo and map.hi must be expression strings"),
    ("lo-type", _map(kind="interval_endpoints", lo=1, hi="x"),
     "ConfigError: map.lo and map.hi must be expression strings"),
    ("lo-range", _map(kind="interval_endpoints", lo="x/", hi="x"),
     "ParseError: expected operand (at position 2)"),
    ("hi-missing", _map(kind="interval_endpoints", lo="x"),
     "ConfigError: map.lo and map.hi must be expression strings"),
    ("hi-type", _map(kind="interval_endpoints", lo="x", hi=["x"]),
     "ConfigError: map.lo and map.hi must be expression strings"),
    ("hi-range", _map(kind="interval_endpoints", lo="x", hi="x/2"),
     "InvariantError: map endpoints inverted at x = 0.0001: lo = 0.0001, hi = 5e-05"),
    ("f-missing", _map(kind="singleton"),
     "ConfigError: map.f must be an expression string"),
    ("f-type", _map(kind="singleton", f=2),
     "ConfigError: map.f must be an expression string"),
    ("f-range", _map(kind="singleton", f="1/x"),
     "EvalError: division by zero in '1.0 / x'"),
    ("members-missing", _map(kind="finite_set"),
     "ConfigError: map.members must be a nonempty list of expression strings"),
    ("members-type", _map(kind="finite_set", members="x"),
     "ConfigError: map.members must be a nonempty list of expression strings"),
    ("members-item-type", _map(kind="finite_set", members=["x", 1]),
     "ConfigError: map.members must be a nonempty list of expression strings"),
    ("members-range", _map(kind="finite_set", members=[]),
     "ConfigError: map.members must be a nonempty list of expression strings"),
    ("entries-missing", _map(kind="table"),
     "ConfigError: map.entries must be a nonempty list of [x, intervals] rows"),
    ("entries-type", _map(kind="table", entries="x"),
     "ConfigError: map.entries must be a nonempty list of [x, intervals] rows"),
    ("entries-row-type", _map(kind="table", entries=[[0.5]]),
     "ConfigError: bad table entry [0.5]: not enough values to unpack (expected 2, got 1)"),
    ("entries-key-type", _map(kind="table", entries=[["a", [[0.0, 1.0]]]]),
     "ConfigError: bad table entry ['a', [[0.0, 1.0]]]: table key must be a number, got 'a'"),
    # bools and numeric strings once loaded as the numbers float() makes of them
    ("entries-key-bool", _map(kind="table", entries=[[True, [[0, 1]]]]),
     "ConfigError: bad table entry [True, [[0, 1]]]: table key must be a number, got True"),
    ("entries-key-string", _map(kind="table", entries=[["0.5", [["0.1", "0.2"]]]]),
     "ConfigError: bad table entry ['0.5', [['0.1', '0.2']]]: table key must be a number, "
     "got '0.5'"),
    ("entries-interval-string", _map(kind="table", entries=[[0.5, [["0.1", 0.2]]]]),
     "ConfigError: bad table entry [0.5, [['0.1', 0.2]]]: endpoint must be a number, got '0.1'"),
    ("entries-interval-bool", _map(kind="table", entries=[[0.5, [[0, True]]]]),
     "ConfigError: bad table entry [0.5, [[0, True]]]: endpoint must be a number, got True"),
    ("domain-endpoint-string", {"domain": [["0", "1"]]},
     "ConfigError: bad domain: endpoint must be a number, got '0'"),
    ("domain-endpoint-bool", {"domain": [[False, True]]},
     "ConfigError: bad domain: endpoint must be a number, got False"),
    ("domain-endpoint-null", {"domain": [[0, None]]},
     "ConfigError: bad domain: endpoint must be a number, got None"),
    ("entries-range", _map(kind="table", entries=[]),
     "ConfigError: map.entries must be a nonempty list of [x, intervals] rows"),
    ("entries-key-range", _map(kind="table", entries=[[2.0, [[0.0, 1.0]]]]),
     "InvariantError: table key 2.0 lies outside the domain"),
    ("entries-interval-range", _map(kind="table", entries=[[0.5, [[1.0, 0.0]]]]),
     "InvariantError: interval has lo > hi: (1.0, 0.0)"),
    ("entries-key-repeated",
     _map(kind="table", entries=[[0.5, [[0, 0.1]]], [0.5, [[0.3, 0.4]]], [1.0, [[0.2, 0.2]]]]),
     "InvariantError: table key 0.5 appears more than once"),
    ("entries-key-signed-zero",
     _map(kind="table", entries=[[-0.0, [[0, 0.1]]], [0.0, [[0.3, 0.4]]]]),
     "InvariantError: table key 0.0 appears more than once"),
    ("c-null", _integrand(kind="constant", c=None),
     "ConfigError: c must be a number, got None"),
    ("c-type", _integrand(kind="constant", c="x"),
     "ConfigError: c must be a number, got 'x'"),
    ("c-bool", _integrand(kind="constant", c=True),
     "ConfigError: c must be a number, got True"),
    ("c-range", _integrand(kind="constant", c=0),
     "ConfigError: integrand.c must be positive, got 0"),
    ("c-negative", _integrand(kind="constant", c=-1.5),
     "ConfigError: integrand.c must be positive, got -1.5"),
    ("c-nan", _integrand(kind="constant", c=NAN),
     "ConfigError: integrand.c must be positive, got nan"),
    ("c-inf", _integrand(kind="constant", c=INF),
     "ConfigError: integrand.c must be finite, got inf"),
    ("p-missing", _integrand(kind="power"),
     "ConfigError: integrand requires 'p'"),
    ("p-type", _integrand(kind="power", p="x"),
     "ConfigError: p must be a number, got 'x'"),
    ("p-range", _integrand(kind="power", p=-1),
     "ConfigError: integrand.p must be > -1, got -1"),
    ("p-nan", _integrand(kind="power", p=NAN),
     "ConfigError: integrand.p must be > -1, got nan"),
    ("p-inf", _integrand(kind="power", p=INF),
     "ConfigError: integrand.p must be finite, got inf"),
    ("scale-power-type", _integrand(kind="power", p=1, scale="x"),
     "ConfigError: scale must be a number, got 'x'"),
    ("scale-power-range", _integrand(kind="power", p=1, scale=0),
     "ConfigError: integrand.scale must be positive, got 0"),
    ("scale-exponential-type", _integrand(kind="exponential", rate=1, scale=None),
     "ConfigError: scale must be a number, got None"),
    ("scale-exponential-range", _integrand(kind="exponential", rate=1, scale=-2),
     "ConfigError: integrand.scale must be positive, got -2"),
    ("scale-exponential-inf", _integrand(kind="exponential", rate=1, scale=INF),
     "ConfigError: integrand.scale must be finite, got inf"),
    ("rate-missing", _integrand(kind="exponential"),
     "ConfigError: integrand requires 'rate'"),
    ("rate-type", _integrand(kind="exponential", rate="x"),
     "ConfigError: rate must be a number, got 'x'"),
    ("rate-range", _integrand(kind="exponential", rate=INF),
     "ConfigError: integrand.rate must be finite, got inf"),
    ("rate-nan", _integrand(kind="exponential", rate=NAN),
     "ConfigError: integrand.rate must be finite, got nan"),
    ("rate-negative-inf", _integrand(kind="exponential", rate=-INF),
     "ConfigError: integrand.rate must be finite, got -inf"),
    ("source-missing", _integrand(kind="expression"),
     "ConfigError: integrand.source must be an expression string"),
    ("source-type", _integrand(kind="expression", source=1),
     "ConfigError: integrand.source must be an expression string"),
    ("source-range", _integrand(kind="expression", source="t - 1"),
     "InvariantError: integrand 't - 1' is negative at t = 0: -1.0"),
    ("source-parse", _integrand(kind="expression", source="t +"),
     "ParseError: expected operand (at position 3)"),
    ("grid_max-type", _integrand(kind="expression", source="1", grid_max="x"),
     "ConfigError: grid_max must be a number, got 'x'"),
    ("grid_max-range", _integrand(kind="expression", source="1", grid_max=0),
     "ConfigError: integrand.grid_max must be positive, got 0"),
    ("grid_max-inf", _integrand(kind="expression", source="1", grid_max=INF),
     "ConfigError: integrand.grid_max must be finite, got inf"),
    ("c-big", _integrand(kind="constant", c=BIG), f"ConfigError: c {TOO_BIG}"),
    ("p-big", _integrand(kind="power", p=BIG), f"ConfigError: p {TOO_BIG}"),
    ("scale-big", _integrand(kind="power", p=1, scale=-BIG), f"ConfigError: scale {TOO_BIG}"),
    ("rate-big", _integrand(kind="exponential", rate=BIG), f"ConfigError: rate {TOO_BIG}"),
    ("grid_max-big", _integrand(kind="expression", source="1", grid_max=BIG),
     f"ConfigError: grid_max {TOO_BIG}"),
    ("f-k-big", _f(k=BIG), f"ConfigError: k {TOO_BIG}"),
    ("domain-endpoint-big", {"domain": [[0.0, BIG]]},
     "ConfigError: bad domain: int too large to convert to float"),
    ("entries-key-big", _map(kind="table", entries=[[BIG, [[0.0, 1.0]]]]),
     f"ConfigError: bad table entry [{BIG}, [[0.0, 1.0]]]: int too large to convert to float"),
    ("entries-interval-big", _map(kind="table", entries=[[0.5, [[0.0, BIG]]]]),
     f"ConfigError: bad table entry [0.5, [[0.0, {BIG}]]]: int too large to convert to float"),
    ("map-unknown-key", _map(kind="singleton", f="x", speed=2),
     "ConfigError: unknown key 'speed' in map"),
    ("map-other-kind-key", _map(kind="singleton", f="x", lo="x"),
     "ConfigError: unknown key 'lo' in map"),
    ("map-unknown-before-value", _map(kind="interval_endpoints", extra=1),
     "ConfigError: unknown key 'extra' in map"),
    ("integrand-unknown-key", _integrand(kind="power", p=1, q=2),
     "ConfigError: unknown key 'q' in integrand"),
    ("integrand-other-kind-key", _integrand(kind="constant", p=1),
     "ConfigError: unknown key 'p' in integrand"),
    ("integrand-unknown-before-value", _integrand(kind="power", p="x", rate=1),
     "ConfigError: unknown key 'rate' in integrand"),
    ("map-kind-missing", _map(f="x"),
     "ConfigError: map.kind must be one of ('interval_endpoints', 'singleton', "
     "'finite_set', 'table'), got None"),
    ("map-kind-bad", _map(kind="fractal"),
     "ConfigError: map.kind must be one of ('interval_endpoints', 'singleton', "
     "'finite_set', 'table'), got 'fractal'"),
    ("map-kind-type", _map(kind=3),
     "ConfigError: map.kind must be one of ('interval_endpoints', 'singleton', "
     "'finite_set', 'table'), got 3"),
    ("map-not-object", {"map": "x"},
     "ConfigError: map must be an object"),
    ("integrand-kind-bad", _integrand(kind="spline"),
     "ConfigError: integrand.kind must be one of ('constant', 'power', 'exponential', "
     "'expression'), got 'spline'"),
    ("integrand-kind-null", _integrand(kind=None),
     "ConfigError: integrand.kind must be one of ('constant', 'power', 'exponential', "
     "'expression'), got None"),
    ("integrand-not-object", {"integrand": [1]},
     "ConfigError: integrand must be an object"),
    # one message for both interval endpoints, whichever is wrong
    ("lo-hi-both", _map(kind="interval_endpoints", lo=1, hi=2),
     "ConfigError: map.lo and map.hi must be expression strings"),
    ("hi-null", _map(kind="interval_endpoints", lo="x", hi=None),
     "ConfigError: map.lo and map.hi must be expression strings"),
    # every key's type is checked, in the factory's parameter order, before any range
    ("power-scale-type-before-p-range", _integrand(kind="power", p=-2, scale="x"),
     "ConfigError: scale must be a number, got 'x'"),
    ("power-p-type-before-scale-range", _integrand(kind="power", p="x", scale=0),
     "ConfigError: p must be a number, got 'x'"),
    ("power-p-range-before-scale-range", _integrand(kind="power", p=-2, scale=0),
     "ConfigError: integrand.p must be > -1, got -2"),
    ("exponential-rate-type-before-scale-range",
     _integrand(kind="exponential", rate="x", scale=0),
     "ConfigError: rate must be a number, got 'x'"),
    ("expression-source-before-grid_max-range",
     _integrand(kind="expression", source=1, grid_max=0),
     "ConfigError: integrand.source must be an expression string"),
    ("expression-source-before-grid_max-type", _integrand(kind="expression", grid_max="x"),
     "ConfigError: integrand.source must be an expression string"),
    ("f-not-object", {"f": "log"}, "ConfigError: f must be an object"),
    ("f-kind-bad", _f(kind="cosh"), f"ConfigError: {F_KIND_WORDS}, got 'cosh'"),
    ("f-kind-null", _f(kind=None), f"ConfigError: {F_KIND_WORDS}, got None"),
    ("f-unknown-key", _f(kind="log", speed=2), "ConfigError: unknown key 'speed' in f"),
    # as for map and integrand, the kind is checked before the keys
    ("f-kind-before-unknown-key", _f(kind="cosh", speed=2),
     f"ConfigError: {F_KIND_WORDS}, got 'cosh'"),
    ("f-k-type", _f(k="0.5"), "ConfigError: k must be a number, got '0.5'"),
    ("f-k-range", _f(k=1.5), "ConfigError: f.k must lie in (0, 1), got 1.5"),
    ("f-k-zero", _f(kind="neg_inv_sqrt", k=0), "ConfigError: f.k must lie in (0, 1), got 0"),
    ("f-k-nan", _f(k=NAN), "ConfigError: f.k must lie in (0, 1), got nan"),
    ("f-k-inf", _f(k=INF), "ConfigError: f.k must lie in (0, 1), got inf"),
    # an infinite tol would call every start a fixed point
    ("tol-inf", {"tol": INF}, "ConfigError: tol must be finite, got inf"),
    ("tol-nan", {"tol": NAN}, "ConfigError: tol must be >= 0, got nan"),
]


def _load_and_build(patch):
    cfg = config_from_dict(dict(MINIMAL, **patch))
    return cfg, build_map(cfg), build_integrand(cfg)


@pytest.mark.parametrize(
    "patch,expected", [case[1:] for case in MESSAGE_CASES], ids=[case[0] for case in MESSAGE_CASES]
)
def test_config_message(patch, expected):
    with pytest.raises(MvfixError) as info:
        _load_and_build(patch)
    assert f"{type(info.value).__name__}: {info.value}" == expected


# (map object, config_to_dict output, repr of the built map, its describe())
MAP_CASES = [
    (
        {"kind": "interval_endpoints", "lo": "x/4", "hi": "(x+1)/2"},
        {"kind": "interval_endpoints", "lo": "x/4", "hi": "(x+1)/2"},
        "MultiMap(domain=CompactSet([0.0, 1.0]), kind='interval_endpoints', "
        "lo=BinOp(op='/', lhs=Var(name='x'), rhs=Num(value=4.0)), "
        "hi=BinOp(op='/', lhs=BinOp(op='+', lhs=Var(name='x'), rhs=Num(value=1.0)), "
        "rhs=Num(value=2.0)), members=(), table=())",
        "T(x) = [x / 4.0, (x + 1.0) / 2.0]",
    ),
    (
        {"kind": "singleton", "f": "x/2"},
        {"kind": "singleton", "f": "x/2"},
        "MultiMap(domain=CompactSet([0.0, 1.0]), kind='singleton', lo=None, hi=None, "
        "members=(BinOp(op='/', lhs=Var(name='x'), rhs=Num(value=2.0)),), table=())",
        "T(x) = {x / 2.0}",
    ),
    (
        {"kind": "finite_set", "members": ["x/3", "1 - x"]},
        {"kind": "finite_set", "members": ["x/3", "1 - x"]},
        "MultiMap(domain=CompactSet([0.0, 1.0]), kind='finite_set', lo=None, hi=None, "
        "members=(BinOp(op='/', lhs=Var(name='x'), rhs=Num(value=3.0)), "
        "BinOp(op='-', lhs=Num(value=1.0), rhs=Var(name='x'))), table=())",
        "T(x) = {x / 3.0, 1.0 - x}",
    ),
    (
        {"kind": "table", "entries": [[0, [[0, 0.25], [0.5, 1]]], [1, [[0.5, 0.5]]]]},
        {"kind": "table", "entries": [[0.0, [[0.0, 0.25], [0.5, 1.0]]], [1.0, [[0.5, 0.5]]]]},
        "MultiMap(domain=CompactSet([0.0, 1.0]), kind='table', lo=None, hi=None, "
        "members=(), table=((0.0, CompactSet([0.0, 0.25], [0.5, 1.0])), "
        "(1.0, CompactSet({0.5}))))",
        "table with 2 entries",
    ),
]


@pytest.mark.parametrize("raw,saved,built,described", MAP_CASES)
def test_valid_map_config(raw, saved, built, described):
    cfg, T, _ = _load_and_build({"map": raw})
    assert config_to_dict(cfg)["map"] == saved
    assert repr(T) == built
    assert T.describe() == described


# (integrand object, config_to_dict output, repr of the built integrand, its label);
# a missing key takes the default
INTEGRAND_CASES = [
    (None, {"kind": "constant", "c": 1.0}, "ConstantIntegrand(c=1.0)", "constant(1)"),
    (
        {"kind": "constant", "c": 2},
        {"kind": "constant", "c": 2.0},
        "ConstantIntegrand(c=2.0)",
        "constant(2)",
    ),
    (
        {"kind": "power", "p": 0},
        {"kind": "power", "p": 0.0, "scale": 1.0},
        "PowerIntegrand(p=0.0, scale=1.0)",
        "power(p=0, scale=1)",
    ),
    (
        {"kind": "power", "p": -0.5, "scale": 3},
        {"kind": "power", "p": -0.5, "scale": 3.0},
        "PowerIntegrand(p=-0.5, scale=3.0)",
        "power(p=-0.5, scale=3)",
    ),
    (
        {"kind": "exponential", "rate": -1, "scale": 0.5},
        {"kind": "exponential", "rate": -1.0, "scale": 0.5},
        "ExponentialIntegrand(rate=-1.0, scale=0.5)",
        "exponential(rate=-1, scale=0.5)",
    ),
    (
        {"kind": "expression", "source": "1 + t^2"},
        {"kind": "expression", "source": "1 + t^2", "grid_max": 100.0},
        "ExpressionIntegrand(ast=BinOp(op='+', lhs=Num(value=1.0), rhs=BinOp(op='^', "
        "lhs=Var(name='t'), rhs=Num(value=2.0))), source='1 + t^2', grid_max=100.0)",
        "expression('1 + t^2')",
    ),
    (
        {"kind": "expression", "source": "exp(-t)", "grid_max": 5},
        {"kind": "expression", "source": "exp(-t)", "grid_max": 5.0},
        "ExpressionIntegrand(ast=Call(fn='exp', args=(Neg(arg=Var(name='t')),)), "
        "source='exp(-t)', grid_max=5.0)",
        "expression('exp(-t)')",
    ),
]


@pytest.mark.parametrize("raw,saved,built,label", INTEGRAND_CASES)
def test_valid_integrand_config(raw, saved, built, label):
    cfg, _, f = _load_and_build({} if raw is None else {"integrand": raw})
    assert config_to_dict(cfg)["integrand"] == saved
    assert repr(f) == built
    assert integrand_label(f) == label
