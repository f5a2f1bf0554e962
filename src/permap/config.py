"""Run configuration: JSON schema, overrides, validation, manifests.

A config JSON names the input files, the ingestion knobs, the pipeline
(geo, two_layer, or three_layer), exactly one border model, and optional
sweep lists. Relative input paths resolve against the config file's
directory. A manifest is the same document re-emitted with resolved
values, so a finished run can be replayed from its manifest alone.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .errors import ConfigError
from .fileio import atomic_write, open_input
from .ingest import DEFAULT_CATEGORIES, DEFAULT_ROUNDING, ColumnMap
from .layers import BORDER_KINDS
from .sequence import GroupSplitRule

PIPELINES = tuple(BORDER_KINDS)
BORDER_MODEL_KINDS = BORDER_KINDS["geo"]

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


def _listed(value, name: str, default=None, entry=str) -> tuple:
    """`value` as a tuple, if it is a list of `entry` items (a bare string is not).

    With a `default`, null and an empty list give it. Sweep lists pass
    entry=object: RunConfig checks each entry as a number, with its own
    message.
    """
    if default is not None and (value is None or isinstance(value, (list, tuple)) and not value):
        return default
    if not isinstance(value, (list, tuple)) or not all(isinstance(v, entry) for v in value):
        what = "strings" if entry is str else "numbers"
        raise ConfigError(f"{name} must be a list of {what}, got {value!r}")
    return tuple(value)


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
        out = {"kind": self.kind}
        if self.cost_km is not None:
            out["cost_km"] = self.cost_km
        if self.p is not None:
            out["p"] = self.p
        return out


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
            raise ConfigError(f"pipeline {self.pipeline!r} requires the permeability border model")
        if self.pipeline == "three_layer" and not self.groups:
            raise ConfigError("three_layer pipeline needs a non-empty group selection")

    def sweep_values(self) -> tuple:
        if self.border_model.kind == "linear":
            return self.sweep_costs_km
        if self.border_model.kind == "permeability":
            return self.sweep_probabilities
        raise ConfigError("border model 'none' has nothing to sweep")

    def with_border_value(self, value: float) -> "RunConfig":
        if self.border_model.kind == "linear":
            model = BorderModel("linear", cost_km=float(value))
        elif self.border_model.kind == "permeability":
            model = BorderModel("permeability", p=float(value))
        else:
            raise ConfigError("border model 'none' has nothing to sweep")
        return replace(self, border_model=model)

    def to_dict(self) -> dict:
        cmap = {f.name: getattr(self.column_map, f.name) for f in fields(ColumnMap)}
        cmap["date_formats"] = list(cmap["date_formats"])
        return {
            "events_csv": self.events_csv,
            "borders_csv": self.borders_csv,
            "pipeline": self.pipeline,
            "border_model": self.border_model.to_dict(),
            "column_map": cmap,
            "categories": list(self.categories),
            "rounding": self.rounding,
            "k": self.k,
            "groups": list(self.groups),
            "split_rules": [
                {
                    "group_id": r.group_id,
                    "attribute": r.attribute,
                    "comparator": r.comparator,
                    "threshold": float(r.threshold),
                    "virtual_suffix": r.virtual_suffix,
                }
                for r in self.split_rules
            ],
            "sweep_costs_km": [float(v) for v in self.sweep_costs_km],
            "sweep_probabilities": [float(v) for v in self.sweep_probabilities],
            "output_dir": None,
        }


def _build_column_map(raw) -> ColumnMap:
    if raw is None:
        return ColumnMap()
    if not isinstance(raw, dict):
        raise ConfigError("column_map must be a JSON object")
    known = {f.name for f in fields(ColumnMap)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown column_map keys: {sorted(unknown)}")
    kwargs = {}
    for key, value in raw.items():
        check = _listed if key == "date_formats" else _string
        kwargs[key] = check(value, f"column_map.{key}")
    return ColumnMap(**kwargs)


def _build_border_model(raw) -> BorderModel:
    if raw is None:
        return BorderModel("none")
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ConfigError("border_model must be an object with a 'kind' field")
    unknown = set(raw) - {"kind", "cost_km", "p"}
    if unknown:
        raise ConfigError(f"unknown border_model keys: {sorted(unknown)}")
    return BorderModel(raw["kind"], cost_km=raw.get("cost_km"), p=raw.get("p"))


def _build_split_rules(raw) -> tuple:
    if raw is None:
        return ()
    rules = []
    for item in raw:
        if not isinstance(item, dict):
            raise ConfigError("each split rule must be a JSON object")
        try:
            rules.append(
                GroupSplitRule(
                    group_id=_string(item["group_id"], "split rule group_id"),
                    attribute=_string(item["attribute"], "split rule attribute"),
                    comparator=_string(item["comparator"], "split rule comparator"),
                    threshold=_finite(item["threshold"], "split rule threshold"),
                    virtual_suffix=_string(item["virtual_suffix"], "split rule virtual_suffix"),
                )
            )
        except KeyError as exc:
            raise ConfigError(f"split rule missing field {exc.args[0]!r}") from None
    return tuple(rules)


_KNOWN_KEYS = {f.name for f in fields(RunConfig)} | {_META_KEY}


def config_from_dict(raw: dict, base_dir: Path | None = None) -> RunConfig:
    """Validate a raw JSON document into a RunConfig.

    Relative input paths are resolved against base_dir when given. The
    manifest bookkeeping key is ignored, so manifests are valid configs.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "events_csv" not in raw or not raw["events_csv"]:
        raise ConfigError("config must name events_csv")

    def resolve(key):
        path_str = raw.get(key)
        if path_str is None:
            return None
        # Path("") is ".", which would name the config's own directory.
        if not _string(path_str, key).strip():
            raise ConfigError(f"{key} must not be an empty path, got {path_str!r}")
        path = Path(path_str)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        return str(path)

    try:
        return RunConfig(
            events_csv=resolve("events_csv"),
            borders_csv=resolve("borders_csv"),
            pipeline=raw.get("pipeline", "geo"),
            border_model=_build_border_model(raw.get("border_model")),
            column_map=_build_column_map(raw.get("column_map")),
            categories=_listed(raw.get("categories"), "categories", DEFAULT_CATEGORIES),
            rounding=raw.get("rounding", DEFAULT_ROUNDING),
            k=raw.get("k", 2),
            groups=_listed(raw.get("groups"), "groups", ()),
            split_rules=_build_split_rules(raw.get("split_rules")),
            sweep_costs_km=_listed(raw.get("sweep_costs_km"), "sweep_costs_km", (), object),
            sweep_probabilities=_listed(
                raw.get("sweep_probabilities"), "sweep_probabilities", (), object
            ),
            output_dir=resolve("output_dir"),
        )
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
    """The re-runnable record of a run: resolved config plus bookkeeping."""
    out = config.to_dict()
    out[_META_KEY] = {"command": command, "format": 1}
    return out


def write_manifest(config: RunConfig, command: str, path) -> None:
    with atomic_write(path) as fh:
        json.dump(manifest_dict(config, command), fh, indent=2, sort_keys=True)
        fh.write("\n")
