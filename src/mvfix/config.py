"""Problem configuration: JSON schema, validation, and object builders.

A configuration bundles the domain, the multivalued map, the gauge
function F, the integrand, and all sweep/iteration knobs.  Loading is
strict: unknown keys and out-of-range values raise :class:`ConfigError`
naming the offending key.  Serialization round-trips exactly.

The keys of a map, integrand or F kind are the parameters of its factory
in :data:`~mvfix.maps.MAP_KINDS`, :data:`~mvfix.integrand.INTEGRAND_KINDS`
or :data:`F_FACTORIES` (a map's ``domain`` aside), and a key left out
takes the factory's default.  This module checks keys, not kinds: a key
means the same thing in every kind that has it, and a number key keeps the
rule of the library argument of its name (:func:`~mvfix.errors.checked_number`).
"""

from __future__ import annotations

import functools
import inspect
import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Union

from .analysis import MODES
from .errors import _NUMBER_RULES, SWEEP_LIMIT, ConfigError, MvfixError, checked_number, real_number
from .ffunctions import F_KINDS, FFunction
from .integrand import INTEGRAND_KINDS, Integrand
from .maps import MAP_KINDS, MultiMap
from .sets1d import CompactSet

__all__ = [
    "SWEEP_LIMIT",
    "Spec",
    "ProblemConfig",
    "config_from_dict",
    "config_to_dict",
    "load_config",
    "save_config",
    "build_map",
    "build_ffunction",
    "build_integrand",
]


@dataclass(frozen=True)
class Spec:
    """A map, integrand or F kind with its factory's arguments, in parameter order.

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


def _require_keys(data: dict, allowed: set[str], where: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown key '{sorted(unknown)[0]}' in {where}")


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


def _real(v: Any, name: str = "endpoint") -> float:
    # real_number's rule and words, but an int too large for a float keeps float()'s words
    if not isinstance(v, int) or isinstance(v, bool):
        real_number(v, name, TypeError)
    return float(v)


def _entries(v: Any) -> tuple[tuple[float, tuple[tuple[float, float], ...]], ...]:
    if not isinstance(v, list) or not v:
        raise ConfigError("map.entries must be a nonempty list of [x, intervals] rows")
    rows = []
    for row in v:
        try:
            key, intervals = row
            key = _real(key, "table key")
            rows.append((key, tuple((_real(lo), _real(hi)) for lo, hi in intervals)))
        except (TypeError, ValueError, OverflowError) as err:
            raise ConfigError(f"bad table entry {row!r}: {err}") from None
    return tuple(rows)


_ENDPOINT = _expression("map.lo and map.hi must be expression strings")


# Every key of a kind other than a number key (see ``_NUMBER_RULES``) has a
# reader that turns the JSON value into the stored value or raises.
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
        if p.name not in _NUMBER_RULES:
            values[p.name] = _READERS[p.name](data.get(p.name))
        elif p.name not in data and p.default is p.empty:
            raise ConfigError(f"{where} requires '{p.name}'")
        else:
            values[p.name] = real_number(data.get(p.name, p.default), p.name, ConfigError)
    for key, v in values.items():
        if key in _NUMBER_RULES:
            values[key] = checked_number(key, v, f"{where}.{key}", ConfigError)
    return Spec(kind, tuple(values.items()))


# The factory of each F kind, by config name; its one key is F's exponent k.
F_FACTORIES = {kind: functools.partial(FFunction, kind) for kind in F_KINDS}


def _integrand_spec(data: Any) -> Spec:
    return _spec_from_dict(data, "integrand", INTEGRAND_KINDS, "constant")


def _f_spec(data: Any) -> Spec:
    return _spec_from_dict(data, "f", F_FACTORIES, "log")


@dataclass(frozen=True)
class ProblemConfig:
    domain: tuple[tuple[float, float], ...]
    map: Spec
    f: Spec = field(default_factory=lambda: _f_spec({}))
    integrand: Spec = field(default_factory=lambda: _integrand_spec({}))
    tau: float | None = None
    grid_size: int = 101
    random_pairs: int = 1000
    seed: int = 42
    mode: str = "hausdorff"
    tol: float = 1e-12
    max_iter: int = 10_000
    x0: float | None = None


def config_from_dict(data: Any) -> ProblemConfig:
    """Validate a parsed JSON object and produce a :class:`ProblemConfig`."""
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a JSON object")
    _require_keys(data, {f.name for f in fields(ProblemConfig)}, "configuration")

    domain_raw = data.get("domain")
    if not isinstance(domain_raw, list) or not domain_raw:
        raise ConfigError("domain must be a nonempty list of [lo, hi] pairs")
    try:
        domain = tuple((_real(lo), _real(hi)) for lo, hi in domain_raw)
        CompactSet(domain)  # surfaces reversed/non-finite endpoints now
    except (MvfixError, TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"bad domain: {err}") from None

    if "map" not in data:
        raise ConfigError("configuration requires 'map'")
    map_spec = _spec_from_dict(data["map"], "map", MAP_KINDS, None)
    f_spec = _f_spec(data.get("f", {}))
    integrand_spec = _integrand_spec(data.get("integrand", {}))

    settings = {}
    for setting in fields(ProblemConfig):
        key = setting.name
        if key == "mode":
            settings[key] = data.get(key, setting.default)
            if settings[key] not in MODES:
                raise ConfigError(f"mode must be one of {MODES}, got {settings[key]!r}")
        elif key in data and key in _NUMBER_RULES:
            settings[key] = checked_number(key, data[key], key, ConfigError)
    return ProblemConfig(domain, map_spec, f_spec, integrand_spec, **settings)


def config_to_dict(cfg: ProblemConfig) -> dict:
    """Plain JSON-ready dict; feeding it back reproduces an equal config."""
    raw = asdict(cfg)
    raw["domain"] = [list(pair) for pair in cfg.domain]
    raw["map"] = _spec_to_dict(cfg.map)
    raw["f"] = _spec_to_dict(cfg.f)
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
    except (ValueError, RecursionError) as err:  # bad JSON, bad UTF-8 or nesting too deep
        raise ConfigError(f"configuration is not valid JSON: {err}") from None
    return config_from_dict(data)


def save_config(cfg: ProblemConfig, path: Union[str, Path]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2)
        fh.write("\n")


def build_map(cfg: ProblemConfig) -> MultiMap:
    """Construct the configured map, running its grid validation."""
    return MAP_KINDS[cfg.map.kind](CompactSet(cfg.domain), **dict(cfg.map.params))


def build_ffunction(cfg: ProblemConfig) -> FFunction:
    return F_FACTORIES[cfg.f.kind](**dict(cfg.f.params))


def build_integrand(cfg: ProblemConfig) -> Integrand:
    return INTEGRAND_KINDS[cfg.integrand.kind](**dict(cfg.integrand.params))
