"""Run configuration: JSON schema, overrides, validation, manifests.

A config JSON names the input files, the ingestion knobs, the pipeline
(geo, two_layer, or three_layer), exactly one border model, and optional
sweep lists. The dataclasses are the schema: each JSON object of a
config (the top level, `_meta`, `column_map`, `border_model` and each
split rule) must hold the required fields of its dataclass and refuses
any key that is not one of its fields. Relative input paths resolve
against the config file's directory. A manifest is the same document
re-emitted with resolved values and every field listed (`output_dir` as
null), so a finished run can be replayed from its manifest alone.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path

from .errors import ConfigError
from .fileio import atomic_write, open_input
from .ingest import DEFAULT_CATEGORIES, DEFAULT_ROUNDING, ColumnMap
from .sequence import GroupSplitRule

# The border models each pipeline prices; no other module checks the pairing.
# `geo` prices its one distance layer in km or not at all, and permeability
# weights the border layer of the multilayer pipelines only.
BORDER_KINDS = {
    "geo": ("none", "linear"),
    "two_layer": ("permeability",),
    "three_layer": ("permeability",),
}
PIPELINES = tuple(BORDER_KINDS)
# Every kind some pipeline prices, in BORDER_KINDS order.
BORDER_MODEL_KINDS = tuple(dict.fromkeys(k for kinds in BORDER_KINDS.values() for k in kinds))

_META_KEY = "_meta"


def _finite(value, name: str) -> float:
    """`value` as a float, if it is a finite real number (bool and text are not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return number


def _integer(value, name: str) -> int:
    """`value` itself, if it is a true integer (bool, float and text are not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _string(value, name: str) -> str:
    """`value` itself, if it is a string."""
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


def _listed(value, name: str, entry=str) -> tuple:
    """`value` as a tuple, if it is a list of `entry` items (a bare string is not).

    Sweep lists pass entry=object: RunConfig checks each entry as a
    number, with its own message.
    """
    if not isinstance(value, (list, tuple)) or not all(isinstance(v, entry) for v in value):
        what = {str: "strings", dict: "objects"}.get(entry, "numbers")
        raise ConfigError(f"{name} must be a list of {what}, got {value!r}")
    return tuple(value)


def _path(value, name: str) -> str:
    """`value` itself, if it is a string that is not empty or only whitespace."""
    # Path("") is ".", which would name the config's own directory.
    if not _string(value, name).strip():
        raise ConfigError(f"{name} must not be an empty path, got {value!r}")
    return value


def _object(raw, name: str, schema, *extra) -> dict:
    """`raw` itself, if it is a JSON object that gives each required field of
    the `schema` dataclass (not as null) and no key but its fields and `extra`."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be a JSON object")
    unknown = set(raw) - {f.name for f in fields(schema)} - set(extra)
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    for f in fields(schema):
        if f.default is MISSING and f.default_factory is MISSING and raw.get(f.name) is None:
            raise ConfigError(f"{name} missing field {f.name!r}")
    return raw


@dataclass(frozen=True)
class BorderModel:
    """Exactly one way of pricing borders: nothing, linear km, or p^b."""

    kind: str
    cost_km: float | None = None
    p: float | None = None

    def __post_init__(self):
        if self.kind not in BORDER_MODEL_KINDS:
            raise ConfigError(
                f"border model kind must be one of {BORDER_MODEL_KINDS}, got {self.kind!r}"
            )
        if self.kind == "linear":
            if self.cost_km is None or self.p is not None:
                raise ConfigError("linear border model takes cost_km and nothing else")
            object.__setattr__(self, "cost_km", _finite(self.cost_km, "cost_km"))
            if self.cost_km < 0:
                raise ConfigError(f"cost_km must be nonnegative, got {self.cost_km}")
        elif self.kind == "permeability":
            if self.p is None or self.cost_km is not None:
                raise ConfigError("permeability border model takes p and nothing else")
            object.__setattr__(self, "p", _finite(self.p, "p"))
            if not 0.0 < self.p <= 1.0:
                raise ConfigError(f"p must be in (0, 1], got {self.p}")
        elif self.cost_km is not None or self.p is not None:
            raise ConfigError("border model 'none' takes no parameters")

    @property
    def value(self) -> float | None:
        """The swept parameter: cost_km, p, or None for the 'none' model."""
        return self.cost_km if self.kind == "linear" else self.p

    def to_dict(self) -> dict:
        return {key: value for key, value in asdict(self).items() if value is not None}


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs, resolved and validated."""

    events_csv: str
    pipeline: str = "geo"
    border_model: BorderModel = field(default_factory=lambda: BorderModel("none"))
    borders_csv: str | None = None
    column_map: ColumnMap = field(default_factory=ColumnMap)
    categories: tuple = DEFAULT_CATEGORIES
    rounding: int = DEFAULT_ROUNDING
    k: int = 2
    groups: tuple = ()
    split_rules: tuple = ()
    sweep_costs_km: tuple = ()
    sweep_probabilities: tuple = ()
    output_dir: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "categories", tuple(self.categories))
        object.__setattr__(self, "groups", tuple(self.groups))
        object.__setattr__(self, "split_rules", tuple(self.split_rules))
        # Entries must be numbers here, so a bad list fails before ingest;
        # their range is checked per value, as the sweep reaches each one.
        for name in ("sweep_costs_km", "sweep_probabilities"):
            values = tuple(_finite(v, f"{name} entry") for v in getattr(self, name))
            object.__setattr__(self, name, values)
        if self.pipeline not in PIPELINES:
            raise ConfigError(f"pipeline must be one of {PIPELINES}, got {self.pipeline!r}")
        object.__setattr__(self, "k", _integer(self.k, "k"))
        object.__setattr__(self, "rounding", _integer(self.rounding, "rounding"))
        if self.k not in (1, 2, 3):
            raise ConfigError(f"k must be 1, 2, or 3, got {self.k}")
        if not 0 <= self.rounding <= 6:
            raise ConfigError(f"rounding must be in [0, 6], got {self.rounding}")
        if not self.categories:
            raise ConfigError("categories must be non-empty")
        if self.border_model.kind not in BORDER_KINDS[self.pipeline]:
            raise ConfigError(
                f"pipeline {self.pipeline!r} takes border model kind in "
                f"{BORDER_KINDS[self.pipeline]}, got {self.border_model.kind!r}"
            )
        if self.pipeline == "three_layer" and not self.groups:
            raise ConfigError("three_layer pipeline needs a non-empty group selection")
        repeated = [g for i, g in enumerate(self.groups) if g in self.groups[:i]]
        if repeated:
            raise ConfigError(f"group {repeated[0]!r} is listed more than once")

    def sweep_values(self) -> tuple:
        """The border values to sweep: a non-empty list with no value twice."""
        swept = {"linear": self.sweep_costs_km, "permeability": self.sweep_probabilities}
        values = swept.get(self.border_model.kind)
        if values is None:
            raise ConfigError("border model 'none' has nothing to sweep")
        if not values:
            raise ConfigError("sweep list is empty")
        # Compared as floats, so 0.0 and -0.0 are one value.
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ConfigError(f"sweep value {repeated[0]!r} is listed more than once")
        return values

    def with_border_value(self, value: float) -> "RunConfig":
        kind = self.border_model.kind
        if kind == "none":
            raise ConfigError("border model 'none' has nothing to sweep")
        parameter = "cost_km" if kind == "linear" else "p"
        return replace(self, border_model=BorderModel(kind, **{parameter: float(value)}))


@dataclass(frozen=True)
class _Meta:
    """A manifest's bookkeeping: the command that wrote it and the format."""

    command: str
    format: int = 1


def _build_column_map(raw, name: str) -> ColumnMap:
    kwargs = {}
    for key, value in _object(raw, name, ColumnMap).items():
        check = _listed if key == "date_formats" else _string
        kwargs[key] = check(value, f"{name}.{key}")
    return ColumnMap(**kwargs)


def _build_split_rules(raw, name: str) -> tuple:
    rules = []
    for item in _listed(raw, name, dict):
        kwargs = {}
        for key, value in _object(item, "split rule", GroupSplitRule).items():
            check = _finite if key == "threshold" else _string
            kwargs[key] = check(value, f"split rule {key}")
        rules.append(GroupSplitRule(**kwargs))
    return tuple(rules)


def config_from_dict(raw: dict, base_dir: Path | None = None) -> RunConfig:
    """Validate a raw JSON document into a RunConfig.

    A null, or an empty list for a list field, leaves the field's
    default. Relative input paths are resolved against base_dir when
    given. The manifest bookkeeping key is checked and then ignored, so
    manifests are valid configs. A check's ConfigError passes as it is;
    any other TypeError or ValueError becomes an "invalid config value".
    """
    _object(raw, "config", RunConfig, _META_KEY)
    if _META_KEY in raw:
        _object(raw[_META_KEY], _META_KEY, _Meta)

    def resolve(path_str, key):
        path = Path(_path(path_str, key))
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        return str(path)

    numeric = partial(_listed, entry=object)
    # How a JSON value becomes its field; the other values pass unchanged.
    convert = {
        "events_csv": resolve,
        "borders_csv": resolve,
        "output_dir": resolve,
        "border_model": lambda value, name: BorderModel(**_object(value, name, BorderModel)),
        "column_map": _build_column_map,
        "categories": _listed,
        "groups": _listed,
        "split_rules": _build_split_rules,
        "sweep_costs_km": numeric,
        "sweep_probabilities": numeric,
    }
    lists = {f.name for f in fields(RunConfig) if isinstance(f.default, tuple)}
    kwargs = {}
    try:
        for key, value in raw.items():
            if key == _META_KEY or value is None or (value == [] and key in lists):
                continue
            kwargs[key] = convert[key](value, key) if key in convert else value
        return RunConfig(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc


def apply_overrides(raw: dict, overrides) -> dict:
    """Apply `key=value` strings to a raw config dict, dotted keys nested.

    Values parse as JSON when possible and fall back to plain strings, so
    `--override border_model.p=0.8` and `--override pipeline=geo` both do
    what they look like.
    """
    out = json.loads(json.dumps(raw))
    for item in overrides or ():
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            nested = node.get(part)
            if not isinstance(nested, dict):
                nested = {}
                node[part] = nested
            node = nested
        node[parts[-1]] = parsed
    return out


def load_config(path, overrides=()) -> RunConfig:
    """Read a config JSON file, apply overrides, and validate."""
    path = Path(path)
    try:
        with open_input(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    raw = apply_overrides(raw, overrides)
    return config_from_dict(raw, base_dir=path.parent)


def manifest_dict(config: RunConfig, command: str) -> dict:
    """The re-runnable record of a run: every config field plus bookkeeping.

    `output_dir` is written as null: a replay names its own.
    """
    return {
        **asdict(config),
        "border_model": config.border_model.to_dict(),
        "output_dir": None,
        _META_KEY: asdict(_Meta(command)),
    }


def out_dir(config: RunConfig, out: str | None) -> Path:
    """Where a run writes: `out` (the --out option) if given, else output_dir."""
    if out is None and config.output_dir is None:
        raise ConfigError("no output directory: pass --out or set output_dir")
    return Path(config.output_dir if out is None else _path(out, "--out"))


def write_manifest(config: RunConfig, command: str, path) -> None:
    with atomic_write(path) as fh:
        json.dump(manifest_dict(config, command), fh, indent=2, sort_keys=True)
        fh.write("\n")
