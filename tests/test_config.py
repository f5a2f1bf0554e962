import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from permap.config import (
    PIPELINES,
    BorderModel,
    RunConfig,
    apply_overrides,
    config_from_dict,
    load_config,
    manifest_dict,
    write_manifest,
)
from permap.errors import ConfigError
from permap.ingest import DEFAULT_CATEGORIES, ColumnMap
from permap.sequence import GroupSplitRule

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class TestBorderModel:
    def test_each_kind_with_its_parameter(self):
        assert BorderModel("none").to_dict() == {"kind": "none"}
        linear = BorderModel("linear", cost_km=100.0)
        assert linear.to_dict() == {"kind": "linear", "cost_km": 100.0}
        perm = BorderModel("permeability", p=0.95)
        assert perm.to_dict() == {"kind": "permeability", "p": 0.95}

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            BorderModel("tariff")

    def test_parameter_mismatches(self):
        with pytest.raises(ConfigError, match="linear"):
            BorderModel("linear")
        with pytest.raises(ConfigError, match="linear"):
            BorderModel("linear", cost_km=10.0, p=0.9)
        with pytest.raises(ConfigError, match="permeability"):
            BorderModel("permeability")
        with pytest.raises(ConfigError, match="permeability"):
            BorderModel("permeability", cost_km=10.0, p=0.9)
        with pytest.raises(ConfigError, match="'none'"):
            BorderModel("none", cost_km=0.0)

    def test_parameter_bounds(self):
        with pytest.raises(ConfigError, match="nonnegative"):
            BorderModel("linear", cost_km=-1.0)
        for bad in (0.0, -0.1, 1.1):
            with pytest.raises(ConfigError, match="p must be"):
                BorderModel("permeability", p=bad)
        assert BorderModel("permeability", p=1.0).p == 1.0
        assert BorderModel("linear", cost_km=0.0).cost_km == 0.0

    def test_parameters_must_be_finite_numbers(self):
        for bad in (float("nan"), float("inf"), -float("inf"), 10**400, True, "0.5", "nan"):
            with pytest.raises(ConfigError, match="cost_km must be a finite number"):
                BorderModel("linear", cost_km=bad)
            with pytest.raises(ConfigError, match="p must be a finite number"):
                BorderModel("permeability", p=bad)

    def test_parameters_stored_as_floats(self):
        linear = BorderModel("linear", cost_km=100)
        perm = BorderModel("permeability", p=1)
        assert type(linear.cost_km) is float and linear.cost_km == 100.0
        assert type(perm.p) is float and perm.p == 1.0
        assert linear == BorderModel("linear", cost_km=100.0)


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig(events_csv="events.csv")
        assert cfg.pipeline == "geo"
        assert cfg.border_model == BorderModel("none")
        assert cfg.categories == DEFAULT_CATEGORIES
        assert cfg.k == 2 and cfg.rounding == 4
        assert cfg.groups == () and cfg.split_rules == ()

    def test_k_and_rounding_must_be_true_integers(self):
        for name in ("k", "rounding"):
            for bad in (2.0, 2.7, True, False, "2", None):
                with pytest.raises(ConfigError, match=f"{name} must be an integer"):
                    RunConfig(events_csv="e.csv", **{name: bad})
        cfg = RunConfig(events_csv="e.csv", k=np.int64(3), rounding=np.int32(2))
        assert type(cfg.k) is int and type(cfg.rounding) is int
        assert (cfg.k, cfg.rounding) == (3, 2)

    def test_field_validation(self):
        with pytest.raises(ConfigError, match="pipeline"):
            RunConfig(events_csv="e.csv", pipeline="mesh")
        for bad_k in (0, 4, "2"):
            with pytest.raises(ConfigError, match="k must be"):
                RunConfig(events_csv="e.csv", k=bad_k)
        with pytest.raises(ConfigError, match="rounding"):
            RunConfig(events_csv="e.csv", rounding=9)
        with pytest.raises(ConfigError, match="categories"):
            RunConfig(events_csv="e.csv", categories=())

    def test_multilayer_pipelines_need_permeability(self):
        perm = BorderModel("permeability", p=0.9)
        ok = RunConfig(events_csv="e.csv", pipeline="two_layer", border_model=perm)
        assert ok.pipeline == "two_layer"
        for model in (BorderModel("none"), BorderModel("linear", cost_km=10.0)):
            with pytest.raises(ConfigError, match="permeability"):
                RunConfig(events_csv="e.csv", pipeline="two_layer", border_model=model)
        with pytest.raises(ConfigError, match="group"):
            RunConfig(events_csv="e.csv", pipeline="three_layer", border_model=perm)
        three = RunConfig(
            events_csv="e.csv", pipeline="three_layer", border_model=perm, groups=("G",)
        )
        assert three.groups == ("G",)

    def test_sweep_values_follow_border_model(self):
        linear = RunConfig(
            events_csv="e.csv",
            border_model=BorderModel("linear", cost_km=0.0),
            sweep_costs_km=(0, 50),
            sweep_probabilities=(0.9,),
        )
        assert linear.sweep_values() == (0.0, 50.0)
        perm = replace(linear, border_model=BorderModel("permeability", p=0.9))
        assert perm.sweep_values() == (0.9,)
        plain = replace(linear, border_model=BorderModel("none"))
        with pytest.raises(ConfigError, match="sweep"):
            plain.sweep_values()

    def test_sweep_entries_must_be_finite_numbers(self):
        for name in ("sweep_costs_km", "sweep_probabilities"):
            for bad in (float("nan"), float("inf"), "0.5", False):
                with pytest.raises(ConfigError, match=f"{name} entry must be a finite number"):
                    RunConfig(events_csv="e.csv", **{name: (0.5, bad)})
        with pytest.raises(ConfigError, match="sweep_costs_km entry"):
            config_from_dict({"events_csv": "e.csv", "sweep_costs_km": [0, 1e400]})

    def test_with_border_value(self):
        linear = RunConfig(events_csv="e.csv", border_model=BorderModel("linear", cost_km=0.0))
        bumped = linear.with_border_value(250)
        assert bumped.border_model == BorderModel("linear", cost_km=250.0)
        assert bumped.events_csv == linear.events_csv
        perm = RunConfig(events_csv="e.csv", border_model=BorderModel("permeability", p=0.9))
        assert perm.with_border_value(0.5).border_model.p == 0.5
        with pytest.raises(ConfigError, match="p must be"):
            perm.with_border_value(1.5)


# A config entry that is not a list of the right items, and the message it fails with.
LIST_FIELD_CASES = (
    ({"groups": "AQIM"}, "invalid config value: groups must be a list of strings, got 'AQIM'"),
    ({"categories": "Battle"}, "categories must be a list of strings, got 'Battle'"),
    ({"categories": [1]}, "categories must be a list of strings, got [1]"),
    (
        {"column_map": {"date_formats": "%Y-%m-%d"}},
        "column_map.date_formats must be a list of strings, got '%Y-%m-%d'",
    ),
    ({"column_map": {"date_formats": None}}, "column_map.date_formats must be a list of strings"),
    ({"column_map": {"date_formats": []}}, "column_map.date_formats must list at least one format"),
    ({"sweep_costs_km": "100"}, "sweep_costs_km must be a list of numbers, got '100'"),
    ({"sweep_probabilities": 0.5}, "sweep_probabilities must be a list of numbers, got 0.5"),
)


class TestConfigFromDict:
    def test_minimal(self):
        cfg = config_from_dict({"events_csv": "e.csv"})
        assert cfg.events_csv == "e.csv"
        assert cfg.column_map == ColumnMap()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict({"events_csv": "e.csv", "verbosity": 3})
        with pytest.raises(ConfigError, match="unknown column_map keys"):
            config_from_dict({"events_csv": "e.csv", "column_map": {"city": "x"}})
        with pytest.raises(ConfigError, match="unknown border_model keys"):
            config_from_dict(
                {"events_csv": "e.csv", "border_model": {"kind": "none", "fee": 1}}
            )
        rule = {"group_id": "G", "attribute": "latitude", "comparator": "<", "threshold": 1.0}
        cases = (
            (
                {"split_rules": [{**rule, "virtual_suffix": "-s", "thresold": 99}]},
                "unknown split rule keys: ['thresold']",
            ),
            ({"split_rules": 5}, "split_rules must be a list of objects, got 5"),
            (
                {"split_rules": {"group_id": "A"}},
                "split_rules must be a list of objects, got {'group_id': 'A'}",
            ),
            ({"_meta": {"command": "embed", "inputs": {}}}, "unknown _meta keys: ['inputs']"),
        )
        for fragment, message in cases:
            with pytest.raises(ConfigError, match=re.escape(message)):
                config_from_dict({"events_csv": "e.csv", **fragment})

    def test_events_csv_required(self):
        with pytest.raises(ConfigError, match="events_csv"):
            config_from_dict({})
        with pytest.raises(ConfigError, match="events_csv"):
            config_from_dict({"events_csv": ""})
        with pytest.raises(ConfigError, match="events_csv must not be an empty path"):
            config_from_dict({"events_csv": " "})

    def test_relative_paths_resolve_against_base_dir(self):
        raw = {"events_csv": "data/e.csv", "borders_csv": "b.csv", "output_dir": "out"}
        cfg = config_from_dict(raw, base_dir=Path("/srv/run"))
        assert cfg.events_csv == str(Path("/srv/run/data/e.csv"))
        assert cfg.borders_csv == str(Path("/srv/run/b.csv"))
        assert cfg.output_dir == str(Path("/srv/run/out"))

    def test_absolute_paths_untouched(self):
        cfg = config_from_dict({"events_csv": "/data/e.csv"}, base_dir=Path("/srv/run"))
        assert cfg.events_csv == "/data/e.csv"

    def test_meta_key_ignored(self):
        cfg = config_from_dict({"events_csv": "e.csv", "_meta": {"command": "embed"}})
        assert cfg.events_csv == "e.csv"

    def test_split_rules_built(self):
        raw = {
            "events_csv": "e.csv",
            "split_rules": [
                {
                    "group_id": "G",
                    "attribute": "latitude",
                    "comparator": "<",
                    "threshold": 28.05,
                    "virtual_suffix": "-south",
                }
            ],
        }
        cfg = config_from_dict(raw)
        assert cfg.split_rules == (GroupSplitRule("G", "latitude", "<", 28.05, "-south"),)
        with pytest.raises(ConfigError, match="missing field 'threshold'"):
            config_from_dict(
                {
                    "events_csv": "e.csv",
                    "split_rules": [{"group_id": "G", "attribute": "latitude", "comparator": "<", "virtual_suffix": "-s"}],
                }
            )

    def test_custom_column_map_and_categories(self):
        raw = {
            "events_csv": "e.csv",
            "column_map": {"actor": "who", "date_formats": ["%Y-%m-%d"]},
            "categories": ["Battle"],
        }
        cfg = config_from_dict(raw)
        assert cfg.column_map.actor == "who"
        assert cfg.column_map.date_formats == ("%Y-%m-%d",)
        assert cfg.categories == ("Battle",)

    def test_list_fields_refuse_bare_strings_and_wrong_entries(self):
        for raw, message in LIST_FIELD_CASES:
            with pytest.raises(ConfigError, match=re.escape(message)):
                config_from_dict({"events_csv": "e.csv", **raw})

    def test_list_fields_null_or_empty_take_defaults(self):
        for value in (None, []):
            lists = dict.fromkeys(("categories", "groups", "sweep_costs_km"), value)
            cfg = config_from_dict({"events_csv": "e.csv", **lists})
            assert cfg.categories == DEFAULT_CATEGORIES
            assert cfg.groups == () and cfg.sweep_costs_km == ()


class TestApplyOverrides:
    def test_top_level_and_dotted(self):
        raw = {"events_csv": "e.csv", "border_model": {"kind": "permeability", "p": 0.95}}
        out = apply_overrides(raw, ["pipeline=two_layer", "border_model.p=0.8"])
        assert out["pipeline"] == "two_layer"
        assert out["border_model"] == {"kind": "permeability", "p": 0.8}

    def test_json_values_parse_and_strings_fall_back(self):
        raw = {"events_csv": "e.csv"}
        out = apply_overrides(raw, ["k=3", 'groups=["G", "H"]', "events_csv=other.csv"])
        assert out["k"] == 3
        assert out["groups"] == ["G", "H"]
        assert out["events_csv"] == "other.csv"

    def test_original_untouched(self):
        raw = {"events_csv": "e.csv", "border_model": {"kind": "none"}}
        apply_overrides(raw, ["border_model.kind=linear"])
        assert raw["border_model"]["kind"] == "none"

    def test_dotted_key_creates_nesting(self):
        out = apply_overrides({"events_csv": "e.csv"}, ["border_model.kind=none"])
        assert out["border_model"] == {"kind": "none"}

    def test_malformed_override_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides({}, ["pipeline"])
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides({}, ["=geo"])


class TestLoadConfig:
    def test_reads_and_resolves(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"events_csv": "events.csv"}), encoding="utf-8")
        cfg = load_config(path)
        assert cfg.events_csv == str(tmp_path / "events.csv")

    def test_overrides_applied_before_validation(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"events_csv": "events.csv", "k": 9}), encoding="utf-8")
        cfg = load_config(path, overrides=["k=3"])
        assert cfg.k == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)


class TestManifest:
    def full_config(self):
        return RunConfig(
            events_csv="/data/e.csv",
            borders_csv="/data/b.csv",
            pipeline="three_layer",
            border_model=BorderModel("permeability", p=0.9),
            column_map=ColumnMap(actor="who"),
            categories=("Battle", "Remote violence"),
            rounding=3,
            k=3,
            groups=("G", "H"),
            split_rules=(GroupSplitRule("G", "latitude", "<", 28.05, "-south"),),
            sweep_probabilities=(0.95, 0.8),
        )

    def test_round_trips_through_config_from_dict(self):
        cfg = self.full_config()
        again = config_from_dict(manifest_dict(cfg, "embed"))
        assert again == cfg

    def test_shipped_configs_round_trip(self, tmp_path):
        events = tmp_path / "events.csv"
        loaded = [load_config(path, [f"events_csv={events}"]) for path in CONFIGS.glob("*.json")]
        assert {cfg.pipeline for cfg in loaded} == set(PIPELINES)
        for cfg in loaded:
            assert cfg.events_csv == str(events)
            assert config_from_dict(manifest_dict(cfg, "embed")) == cfg

    def test_output_dir_always_written_as_null(self):
        cfg = RunConfig(events_csv="e.csv", output_dir="/tmp/somewhere")
        assert manifest_dict(cfg, "embed")["output_dir"] is None

    def test_meta_block_present(self):
        doc = manifest_dict(self.full_config(), "sweep")
        assert doc["_meta"] == {"command": "sweep", "format": 1}
        assert doc["output_dir"] is None

    def test_write_manifest_deterministic(self, tmp_path):
        cfg = self.full_config()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_manifest(cfg, "embed", a)
        write_manifest(cfg, "embed", b)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().endswith("\n")
        doc = json.loads(a.read_text())
        assert doc["border_model"] == {"kind": "permeability", "p": 0.9}
        assert config_from_dict(doc) == cfg

    def linear_sweep_config(self):
        # Built in code with int values: the manifest still writes floats.
        return RunConfig(
            events_csv="e.csv",
            border_model=BorderModel("linear", cost_km=100),
            split_rules=(GroupSplitRule("G", "longitude", ">=", -5, "-east"),),
            sweep_costs_km=(0, 50, 100.5),
            output_dir="out",
        )

    def test_golden_bytes(self, tmp_path):
        cases = (
            (self.full_config(), "embed", FULL_MANIFEST),
            (self.linear_sweep_config(), "sweep", LINEAR_SWEEP_MANIFEST),
        )
        for cfg, command, expected in cases:
            path = tmp_path / f"{command}.json"
            write_manifest(cfg, command, path)
            assert path.read_bytes() == expected.encode("utf-8")


# The exact bytes write_manifest gives for TestManifest's two configs.
FULL_MANIFEST = """\
{
  "_meta": {
    "command": "embed",
    "format": 1
  },
  "border_model": {
    "kind": "permeability",
    "p": 0.9
  },
  "borders_csv": "/data/b.csv",
  "categories": [
    "Battle",
    "Remote violence"
  ],
  "column_map": {
    "actor": "who",
    "admin1": "admin1",
    "country": "country",
    "date_formats": [
      "%Y-%m-%d",
      "%d %B %Y",
      "%d %b %Y",
      "%d/%m/%Y"
    ],
    "event_date": "event_date",
    "event_type": "event_type",
    "fatalities": "fatalities",
    "latitude": "latitude",
    "longitude": "longitude"
  },
  "events_csv": "/data/e.csv",
  "groups": [
    "G",
    "H"
  ],
  "k": 3,
  "output_dir": null,
  "pipeline": "three_layer",
  "rounding": 3,
  "split_rules": [
    {
      "attribute": "latitude",
      "comparator": "<",
      "group_id": "G",
      "threshold": 28.05,
      "virtual_suffix": "-south"
    }
  ],
  "sweep_costs_km": [],
  "sweep_probabilities": [
    0.95,
    0.8
  ]
}
"""

LINEAR_SWEEP_MANIFEST = """\
{
  "_meta": {
    "command": "sweep",
    "format": 1
  },
  "border_model": {
    "cost_km": 100.0,
    "kind": "linear"
  },
  "borders_csv": null,
  "categories": [
    "Battle",
    "Riots and protests",
    "Violence against civilians",
    "Remote violence"
  ],
  "column_map": {
    "actor": "actor1",
    "admin1": "admin1",
    "country": "country",
    "date_formats": [
      "%Y-%m-%d",
      "%d %B %Y",
      "%d %b %Y",
      "%d/%m/%Y"
    ],
    "event_date": "event_date",
    "event_type": "event_type",
    "fatalities": "fatalities",
    "latitude": "latitude",
    "longitude": "longitude"
  },
  "events_csv": "e.csv",
  "groups": [],
  "k": 2,
  "output_dir": null,
  "pipeline": "geo",
  "rounding": 4,
  "split_rules": [
    {
      "attribute": "longitude",
      "comparator": ">=",
      "group_id": "G",
      "threshold": -5.0,
      "virtual_suffix": "-east"
    }
  ],
  "sweep_costs_km": [
    0.0,
    50.0,
    100.5
  ],
  "sweep_probabilities": []
}
"""
