"""Problem configuration: JSON schema, validation, and object builders.

A configuration bundles the domain, the multivalued map, the gauge
function F, the integrand, and all sweep/iteration knobs.  Loading is
strict: unknown keys and out-of-range values raise :class:`ConfigError`
naming the offending key.  Serialization round-trips exactly.

The keys of a map or integrand kind are the parameters of its factory in
:data:`~mvfix.maps.MAP_KINDS` or :data:`~mvfix.integrand.INTEGRAND_KINDS`
(after ``domain``), and a key left out takes the factory's default.  This
module checks keys, not kinds: a key means the same thing in every kind
that has it.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Union

from .analysis import MODES
from .errors import ConfigError, MvfixError
from .ffunctions import F_KINDS, FFunction
from .integrand import INTEGRAND_KINDS, Integrand
from .maps import MAP_KINDS, MultiMap
from .sets1d import CompactSet

__all__ = [
    "Spec",
    "FSpec",
    "ProblemConfig",
    "config_from_dict",
    "config_to_dict",
    "load_config",
    "save_config",
    "build_domain",
    "build_map",
    "build_ffunction",
    "build_integrand",
]


@dataclass(frozen=True)
class Spec:
    """A map or integrand kind with its factory's arguments, in parameter order.

    Parameters read as attributes: ``spec.lo`` is the value of ``lo``.
    """

    kind: str
    params: tuple[tuple[str, Any], ...] = ()

    def __getattr__(self, name: str) -> Any:
        # vars() keeps a half-built instance (as unpickling makes) from recursing
        for key, value in vars(self).get("params", ()):
            if key == name:
                return value
        raise AttributeError(name)


@dataclass(frozen=True)
class FSpec:
    kind: str = "log"
    k: float = 0.5


def _require_keys(data: dict, allowed: set[str], where: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown key '{sorted(unknown)[0]}' in {where}")


def _number(data: dict, key: str, where: str, default=None, required=False):
    if key not in data:
        if required:
            raise ConfigError(f"{where} requires '{key}'")
        return default
    v = data[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{key} must be a number, got {v!r}")
    return v


def _expression(message: str) -> Callable[[Any], str]:
    def read(v: Any) -> str:
        if not isinstance(v, str):
            raise ConfigError(message)
        return v

    return read


def _members(v: Any) -> tuple[str, ...]:
    if not isinstance(v, list) or not v or not all(isinstance(m, str) for m in v):
        raise ConfigError("map.members must be a nonempty list of expression strings")
    return tuple(v)


def _entries(v: Any) -> tuple[tuple[float, tuple[tuple[float, float], ...]], ...]:
    if not isinstance(v, list) or not v:
        raise ConfigError("map.entries must be a nonempty list of [x, intervals] rows")
    rows = []
    for row in v:
        try:
            key, intervals = row
            rows.append((float(key), tuple((float(lo), float(hi)) for lo, hi in intervals)))
        except (TypeError, ValueError) as err:
            raise ConfigError(f"bad table entry {row!r}: {err}") from None
    return tuple(rows)


_ENDPOINT = _expression("map.lo and map.hi must be expression strings")

# Every key a map or integrand factory takes.  A number key has its range
# test and the words of its message, and must be finite; any other key
# has a reader that turns the JSON value into the stored value or raises.
_FINITE = (math.isfinite, "must be finite")
_POSITIVE = (lambda v: v > 0.0, "must be positive")
_NUMBER_RANGES = {
    "c": _POSITIVE,
    "p": (lambda v: v > -1.0, "must be > -1"),
    "rate": _FINITE,
    "scale": _POSITIVE,
    "grid_max": _POSITIVE,
}
_READERS = {
    "lo": _ENDPOINT,
    "hi": _ENDPOINT,
    "f": _expression("map.f must be an expression string"),
    "members": _members,
    "entries": _entries,
    "source": _expression("integrand.source must be an expression string"),
}


@functools.cache
def _parameters(factory: Callable) -> tuple[inspect.Parameter, ...]:
    """The factory's parameters that are config keys: all but ``domain``."""
    params = inspect.signature(factory).parameters.values()
    return tuple(p for p in params if p.name != "domain")


def _spec_from_dict(data: Any, where: str, kinds: dict, default_kind: str | None) -> Spec:
    """Read a ``where`` object whose kind names a factory in ``kinds``.

    Unknown keys are refused first, then every key's type is checked in
    the factory's parameter order, then every number's range.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be an object")
    kind = data.get("kind", default_kind)
    if kind not in tuple(kinds):
        raise ConfigError(f"{where}.kind must be one of {tuple(kinds)}, got {kind!r}")
    params = _parameters(kinds[kind])
    _require_keys(data, {"kind", *(p.name for p in params)}, where)
    values = {}
    for p in params:
        if p.name in _NUMBER_RANGES:
            values[p.name] = _number(data, p.name, where, p.default, p.default is p.empty)
        else:
            values[p.name] = _READERS[p.name](data.get(p.name))
    for name, v in values.items():
        if name in _NUMBER_RANGES:
            for in_range, words in (_NUMBER_RANGES[name], _FINITE):
                if not in_range(v):
                    raise ConfigError(f"{where}.{name} {words}, got {v}")
            values[name] = float(v)
    return Spec(kind, tuple(values.items()))


def _integrand_spec(data: Any) -> Spec:
    return _spec_from_dict(data, "integrand", INTEGRAND_KINDS, "constant")


@dataclass(frozen=True)
class ProblemConfig:
    domain: tuple[tuple[float, float], ...]
    map: Spec
    f: FSpec = field(default_factory=FSpec)
    integrand: Spec = field(default_factory=lambda: _integrand_spec({}))
    tau: float | None = None
    grid_size: int = 101
    random_pairs: int = 1000
    seed: int = 42
    mode: str = "hausdorff"
    tol: float = 1e-12
    max_iter: int = 10_000
    x0: float | None = None


def _f_spec_from_dict(data: Any) -> FSpec:
    if not isinstance(data, dict):
        raise ConfigError("f must be an object")
    _require_keys(data, {"kind", "k"}, "f")
    kind = data.get("kind", "log")
    if kind not in F_KINDS:
        raise ConfigError(f"f.kind must be one of {F_KINDS}, got {kind!r}")
    k = _number(data, "k", "f", default=0.5)
    if not 0.0 < k < 1.0:
        raise ConfigError(f"f.k must lie in (0, 1), got {k}")
    return FSpec(kind=kind, k=float(k))


# Upper bound on grid_size and random_pairs.  A sweep holds its pairs only
# a chunk at a time, but its grid and drawn points are whole arrays: no
# sweep that large fits them in memory, and far larger sizes end in a raw
# numpy error.
SWEEP_LIMIT = 10**9


def _integer(
    data: dict, key: str, default: int, least: int | None = None, most: int | None = None
) -> int:
    """A whole, finite number, at least ``least`` and at most ``most`` when given."""
    v = _number(data, key, "configuration", default=default)
    if not (math.isfinite(v) and int(v) == v and (least is None or v >= least)):
        bound = "" if least is None else f" >= {least}"
        raise ConfigError(f"{key} must be an integer{bound}, got {v}")
    if most is not None and v > most:
        raise ConfigError(f"{key} must be at most {most}, got {v}")
    return int(v)


def config_from_dict(data: Any) -> ProblemConfig:
    """Validate a parsed JSON object and produce a :class:`ProblemConfig`."""
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a JSON object")
    _require_keys(data, {f.name for f in fields(ProblemConfig)}, "configuration")

    domain_raw = data.get("domain")
    if not isinstance(domain_raw, list) or not domain_raw:
        raise ConfigError("domain must be a nonempty list of [lo, hi] pairs")
    try:
        domain = tuple((float(lo), float(hi)) for lo, hi in domain_raw)
        CompactSet(domain)  # surfaces reversed/non-finite endpoints now
    except (MvfixError, TypeError, ValueError) as err:
        raise ConfigError(f"bad domain: {err}") from None

    if "map" not in data:
        raise ConfigError("configuration requires 'map'")
    map_spec = _spec_from_dict(data["map"], "map", MAP_KINDS, None)
    f_spec = _f_spec_from_dict(data.get("f", {}))
    integrand_spec = _integrand_spec(data.get("integrand", {}))

    tau = _number(data, "tau", "configuration")
    if tau is not None and not 0.0 < tau < math.inf:
        raise ConfigError(f"tau must be {'finite' if tau > 0.0 else 'positive'}, got {tau}")
    grid_size = _integer(data, "grid_size", 101, least=2, most=SWEEP_LIMIT)
    random_pairs = _integer(data, "random_pairs", 1000, least=0, most=SWEEP_LIMIT)
    # certify seeds numpy's generator, which takes no negative seed
    seed = _integer(data, "seed", 42)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    mode = data.get("mode", "hausdorff")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    tol = _number(data, "tol", "configuration", default=1e-12)
    if not tol >= 0.0:
        raise ConfigError(f"tol must be >= 0, got {tol}")
    max_iter = _integer(data, "max_iter", 10_000, least=1)
    x0 = _number(data, "x0", "configuration")

    return ProblemConfig(
        domain=domain,
        map=map_spec,
        f=f_spec,
        integrand=integrand_spec,
        tau=None if tau is None else float(tau),
        grid_size=grid_size,
        random_pairs=random_pairs,
        seed=seed,
        mode=mode,
        tol=float(tol),
        max_iter=max_iter,
        x0=None if x0 is None else float(x0),
    )


def config_to_dict(cfg: ProblemConfig) -> dict:
    """Plain JSON-ready dict; feeding it back reproduces an equal config."""
    raw = asdict(cfg)
    raw["domain"] = [list(pair) for pair in cfg.domain]
    raw["map"] = _spec_to_dict(cfg.map)
    raw["integrand"] = _spec_to_dict(cfg.integrand)
    if cfg.tau is None:
        raw.pop("tau")
    if cfg.x0 is None:
        raw.pop("x0")
    return raw


def _spec_to_dict(spec: Spec) -> dict:
    return {"kind": spec.kind, **{key: _json(v) for key, v in spec.params}}


def _json(v: Any) -> Any:
    return [_json(item) for item in v] if isinstance(v, tuple) else v


def load_config(path: Union[str, Path]) -> ProblemConfig:
    """Read and validate a JSON configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read configuration: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"configuration is not valid JSON: {err}") from None
    return config_from_dict(data)


def save_config(cfg: ProblemConfig, path: Union[str, Path]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2)
        fh.write("\n")


def build_domain(cfg: ProblemConfig) -> CompactSet:
    return CompactSet(cfg.domain)


def build_map(cfg: ProblemConfig) -> MultiMap:
    """Construct the configured map, running its grid validation."""
    return MAP_KINDS[cfg.map.kind](build_domain(cfg), **dict(cfg.map.params))


def build_ffunction(cfg: ProblemConfig) -> FFunction:
    return FFunction(kind=cfg.f.kind, k_witness=cfg.f.k)


def build_integrand(cfg: ProblemConfig) -> Integrand:
    return INTEGRAND_KINDS[cfg.integrand.kind](**dict(cfg.integrand.params))
