import csv
import dataclasses
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from conftest import benchmark_workloads, events_csv_text
from oracles import displacement_rows
from permap import ingest, layers, sequence
from permap.cli import main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture
def seven_event_config(tmp_path):
    rows = []
    plan = [("G", 1.0), ("G", 2.0), ("H", 1.0), ("G", 3.0), ("H", 1.0), ("H", 2.0), ("G", 3.0)]
    for i, (group, lat) in enumerate(plan):
        rows.append(
            (
                f"2024-01-{i + 1:02d}",
                group,
                lat,
                1.0,
                "A",
                f"d{int(lat)}",
                "Violence against civilians",
                0,
            )
        )
    (tmp_path / "events.csv").write_text(events_csv_text(rows), encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"events_csv": "events.csv"}), encoding="utf-8")
    return config


class TestSummarize:
    def test_totals_lines(self, capsys, fixture_run, tmp_path):
        out_dir = tmp_path / "out"
        rc, out, err = run_cli(
            capsys, "summarize", "--config", str(fixture_run["config"]), "--out", str(out_dir)
        )
        assert rc == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "events=12 groups=3 locations=12"
        assert lines[1] == "attacks_per_location mean=1.0 max=1"
        for name in (
            "attacks_per_location.csv",
            "groups_per_location.csv",
            "fatalities_by_country_year.csv",
            "rejections.csv",
        ):
            assert (out_dir / name).is_file()

    def test_repeat_attacks_fixture(self, capsys, seven_event_config, tmp_path):
        rc, out, _ = run_cli(
            capsys, "summarize", "--config", str(seven_event_config), "--out", str(tmp_path / "o")
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "events=7 groups=2 locations=3"
        assert lines[1] == f"attacks_per_location mean={7 / 3!r} max=3"
        attacks = (tmp_path / "o" / "attacks_per_location.csv").read_text().splitlines()
        assert attacks == ["location_id,attacks", "0,3", "1,2", "2,2"]

    def test_nothing_matching_filter_still_succeeds(self, capsys, fixture_run, tmp_path):
        rc, out, err = run_cli(
            capsys,
            "summarize",
            "--config",
            str(fixture_run["config"]),
            "--out",
            str(tmp_path / "o"),
            "--override",
            'categories=["Battle"]',
        )
        assert rc == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "events=0 groups=0 locations=0"
        assert lines[1] == "attacks_per_location mean=0.0 max=0"

    def test_rejections_reported(self, capsys, fixture_run, tmp_path):
        bad = fixture_run["events"].read_text() + "not a date,G,1,1,A,adm,Battle,0\n"
        fixture_run["events"].write_text(bad, encoding="utf-8")
        rc, _, _ = run_cli(
            capsys, "summarize", "--config", str(fixture_run["config"]), "--out", str(tmp_path / "o")
        )
        assert rc == 0
        lines = (tmp_path / "o" / "rejections.csv").read_text().splitlines()
        assert lines[0] == "line,reason"
        assert lines[1] == "14,unparseable date"


    def test_digit_separators_rejected(self, capsys, fixture_run, tmp_path):
        bad = fixture_run["events"].read_text() + "".join(
            f"2024-02-01,G,{lat},{lon},A,adm,Violence against civilians,{dead}\n"
            for lat, lon, dead in (("1_0", "1", "0"), ("1", "3_0", "0"), ("1", "1", "1_000"))
        )
        fixture_run["events"].write_text(bad, encoding="utf-8")
        rc, out, err = run_cli(
            capsys, "summarize", "--config", str(fixture_run["config"]), "--out", str(tmp_path / "o")
        )
        assert rc == 0 and err == ""
        assert out.splitlines()[0] == "events=12 groups=3 locations=12"
        assert (tmp_path / "o" / "rejections.csv").read_text().splitlines() == [
            "line,reason",
            "14,unparseable latitude",
            "15,unparseable longitude",
            "16,unparseable fatalities",
        ]


# The overrides that turn the fixture's geo config into each pipeline.
PIPELINES = {
    "geo": (),
    "two_layer": ("pipeline=two_layer", 'border_model={"kind": "permeability", "p": 0.95}'),
    "three_layer": (
        "pipeline=three_layer",
        'border_model={"kind": "permeability", "p": 0.95}',
        'groups=["Group A", "Group B", "Group C"]',
    ),
}


class TestEmbed:
    def test_geo_run_exports_everything(self, capsys, fixture_run, tmp_path):
        out_dir = tmp_path / "run"
        rc, _, err = run_cli(
            capsys, "embed", "--config", str(fixture_run["config"]), "--out", str(out_dir)
        )
        assert rc == 0 and err == ""
        emb = (out_dir / "embedding.csv").read_text().splitlines()
        assert emb[0] == "point_id,location_id,layer,copy,x,y,country"
        assert len(emb) == 13
        assert emb[1].split(",")[2] == "distance" and emb[1].split(",")[3] == "-"
        assert emb[1].split(",")[6] == "A" and emb[12].split(",")[6] == "C"
        values = (out_dir / "eigenvalues.csv").read_text().splitlines()
        assert values[0] == "dimension,eigenvalue" and len(values) == 3
        assert (out_dir / "manifest.json").is_file()
        assert (out_dir / "rejections.csv").read_text() == "line,reason\n"
        assert not (out_dir / "displacement.csv").exists()

    @pytest.mark.parametrize("command", ["embed", "sweep"])
    def test_geo_refuses_the_permeability_model_in_config(
        self, capsys, fixture_run, tmp_path, command
    ):
        out_dir = tmp_path / "run"
        rc, out, err = run_cli(
            capsys,
            command,
            "--config",
            str(fixture_run["config"]),
            "--out",
            str(out_dir),
            "--override",
            'border_model={"kind": "permeability", "p": 0.95}',
            "--override",
            "sweep_probabilities=[0.5, 0.95]",
        )
        assert (rc, out) == (1, "")
        assert err == (
            "error: config: pipeline 'geo' takes border model kind in ('none', 'linear'), "
            "got 'permeability'\n"
        )
        assert not out_dir.exists()

    def test_k_override_changes_columns(self, capsys, fixture_run, tmp_path):
        out_dir = tmp_path / "run"
        rc, _, _ = run_cli(
            capsys,
            "embed",
            "--config",
            str(fixture_run["config"]),
            "--out",
            str(out_dir),
            "--override",
            "k=1",
        )
        assert rc == 0
        emb = (out_dir / "embedding.csv").read_text().splitlines()
        assert emb[0] == "point_id,location_id,layer,copy,x,country"
        assert len((out_dir / "eigenvalues.csv").read_text().splitlines()) == 2

    def test_two_layer_run(self, capsys, fixture_run, tmp_path):
        out_dir = tmp_path / "run"
        rc, _, err = run_cli(
            capsys,
            "embed",
            "--config",
            str(fixture_run["config"]),
            "--out",
            str(out_dir),
            "--override",
            "pipeline=two_layer",
            "--override",
            'border_model={"kind": "permeability", "p": 0.95}',
        )
        assert rc == 0 and err == ""
        emb = (out_dir / "embedding.csv").read_text().splitlines()
        assert len(emb) == 25
        layers_seen = {line.split(",")[2] for line in emb[1:]}
        assert layers_seen == {"distance", "border"}
        disp = (out_dir / "displacement.csv").read_text().splitlines()
        assert disp[0] == "location_id,layer_a,layer_b,dx,dy,length,country"
        assert len(disp) == 13

    def test_three_layer_run(self, capsys, fixture_run, tmp_path):
        out_dir = tmp_path / "run"
        rc, _, err = run_cli(
            capsys,
            "embed",
            "--config",
            str(fixture_run["config"]),
            "--out",
            str(out_dir),
            "--override",
            "pipeline=three_layer",
            "--override",
            'border_model={"kind": "permeability", "p": 0.95}',
            "--override",
            'groups=["Group A", "Group B", "Group C"]',
        )
        assert rc == 0 and err == ""
        emb = (out_dir / "embedding.csv").read_text().splitlines()
        assert len(emb) == 73
        copies = {line.split(",")[3] for line in emb[1:]}
        assert copies == {"out", "in"}
        disp = (out_dir / "displacement.csv").read_text().splitlines()
        assert len(disp) == 13
        assert disp[1].split(",")[1:3] == ["distance", "border"]

    @pytest.mark.parametrize("pipeline", ["geo", "two_layer", "three_layer"])
    def test_rows_follow_the_layout(self, capsys, fixture_run, tmp_path, pipeline):
        # embedding.csv spells out the layout: layer by layer, copy by copy,
        # location by location; displacement.csv is the oracle's, from those points.
        out_dir = tmp_path / "run"
        args = [arg for override in PIPELINES[pipeline] for arg in ("--override", override)]
        config = str(fixture_run["config"])
        rc, _, err = run_cli(capsys, "embed", "--config", config, "--out", str(out_dir), *args)
        assert rc == 0 and err == ""
        with open(out_dir / "embedding.csv", encoding="utf-8", newline="") as fh:
            points = list(csv.DictReader(fh))
        layer_tags, copies = layers.LAYOUTS.get(pipeline, (("distance",), ("-",)))
        want = [(str(i), tag, copy) for tag in layer_tags for copy in copies for i in range(12)]
        assert [(row["location_id"], row["layer"], row["copy"]) for row in points] == want
        assert [row["point_id"] for row in points] == [str(i) for i in range(len(want))]
        if pipeline == "geo":
            assert not (out_dir / "displacement.csv").exists()
            return
        want = displacement_rows(
            [
                (int(row["location_id"]), row["layer"], [float(row["x"]), float(row["y"])])
                for row in points
            ],
            "distance",
            "border",
        )
        with open(out_dir / "displacement.csv", encoding="utf-8", newline="") as fh:
            got = list(csv.DictReader(fh))
        assert [(row["layer_a"], row["layer_b"]) for row in got] == [("distance", "border")] * 12
        assert [(int(row["location_id"]), (float(row["dx"]), float(row["dy"]))) for row in got] == [
            (lid, vector) for lid, vector, _ in want
        ]
        lengths = [float(row["length"]) for row in got]
        assert lengths == pytest.approx([length for _, _, length in want], rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "overrides",
        [
            (),
            (
                "pipeline=three_layer",
                'border_model={"kind": "permeability", "p": 0.95}',
                'groups=["Group A", "Group B", "Group C"]',
                'split_rules=[{"group_id": "Group A", "attribute": "latitude", '
                '"comparator": ">=", "threshold": 90, "virtual_suffix": "-north"}]',
            ),
        ],
        ids=["geo", "three_layer"],
    )
    def test_event_tables_are_freed_before_prepare(
        self, capsys, fixture_run, tmp_path, monkeypatch, overrides
    ):
        # The distance layer is built in prepare; no event table may be
        # alive then to add to the run's peak memory.
        tables = []

        def keeping(fn):
            def wrapper(*args, **kwargs):
                table = fn(*args, **kwargs)
                tables.append(weakref.ref(table))
                return table

            return wrapper

        alive = []
        prepare = layers.prepare

        def checking(*args, **kwargs):
            alive.extend(ref() is not None for ref in tables)
            return prepare(*args, **kwargs)

        monkeypatch.setattr(ingest, "filter_violent", keeping(ingest.filter_violent))
        monkeypatch.setattr(sequence, "split_groups", keeping(sequence.split_groups))
        monkeypatch.setattr(layers, "prepare", checking)
        args = [arg for override in overrides for arg in ("--override", override)]
        config, out_dir = str(fixture_run["config"]), str(tmp_path / "run")
        rc, _, err = run_cli(capsys, "embed", "--config", config, "--out", out_dir, *args)
        assert rc == 0 and err == ""
        assert alive == [False] * (1 + bool(overrides))

    def test_zero_cost_matches_plain_geodesic_bytes(self, capsys, fixture_run, tmp_path):
        plain, zero = tmp_path / "plain", tmp_path / "zero"
        assert run_cli(
            capsys, "embed", "--config", str(fixture_run["config"]), "--out", str(plain)
        )[0] == 0
        rc, _, _ = run_cli(
            capsys,
            "embed",
            "--config",
            str(fixture_run["config"]),
            "--out",
            str(zero),
            "--override",
            'border_model={"kind": "linear", "cost_km": 0.0}',
        )
        assert rc == 0
        assert (plain / "embedding.csv").read_bytes() == (zero / "embedding.csv").read_bytes()
        assert (plain / "eigenvalues.csv").read_bytes() == (zero / "eigenvalues.csv").read_bytes()

    def test_rerun_from_manifest_is_byte_identical(self, capsys, fixture_run, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        rc, _, _ = run_cli(
            capsys,
            "embed",
            "--config",
            str(fixture_run["config"]),
            "--out",
            str(first),
            "--override",
            "pipeline=two_layer",
            "--override",
            'border_model={"kind": "permeability", "p": 0.95}',
        )
        assert rc == 0
        rc, _, _ = run_cli(
            capsys, "embed", "--config", str(first / "manifest.json"), "--out", str(second)
        )
        assert rc == 0
        for name in (
            "embedding.csv",
            "eigenvalues.csv",
            "displacement.csv",
            "rejections.csv",
            "manifest.json",
        ):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_output_dir_from_config(self, capsys, fixture_run):
        raw = json.loads(fixture_run["config"].read_text())
        raw["output_dir"] = "configured_out"
        fixture_run["config"].write_text(json.dumps(raw), encoding="utf-8")
        rc, _, _ = run_cli(capsys, "embed", "--config", str(fixture_run["config"]))
        assert rc == 0
        assert (fixture_run["dir"] / "configured_out" / "embedding.csv").is_file()


class TestSweep:
    def test_linear_cost_sweep(self, capsys, fixture_run, tmp_path):
        out_dir = tmp_path / "sweep"
        rc, _, err = run_cli(
            capsys,
            "sweep",
            "--config",
            str(fixture_run["config"]),
            "--out",
            str(out_dir),
            "--override",
            'border_model={"kind": "linear", "cost_km": 0.0}',
            "--override",
            "sweep_costs_km=[0.0, 50.0]",
        )
        assert rc == 0 and err == ""
        table = (out_dir / "separation_ratios.csv").read_text().splitlines()
        assert table[0] == "value,separation_ratio"
        assert [line.split(",")[0] for line in table[1:]] == ["0.0", "50.0"]
        for line in table[1:]:
            assert float(line.split(",")[1]) > 0
        for label in ("cost_0.0", "cost_50.0"):
            assert (out_dir / label / "embedding.csv").is_file()
            assert (out_dir / label / "manifest.json").is_file()

    def test_single_value_sweep_matches_embed(self, capsys, fixture_run, tmp_path):
        sweep_dir, embed_dir = tmp_path / "sweep", tmp_path / "embed"
        overrides = [
            "--override",
            'border_model={"kind": "linear", "cost_km": 50.0}',
            "--override",
            "sweep_costs_km=[50.0]",
        ]
        rc, _, _ = run_cli(
            capsys, "sweep", "--config", str(fixture_run["config"]), "--out", str(sweep_dir), *overrides
        )
        assert rc == 0
        rc, _, _ = run_cli(
            capsys, "embed", "--config", str(fixture_run["config"]), "--out", str(embed_dir), *overrides
        )
        assert rc == 0
        sub = sweep_dir / "cost_50.0"
        for name in ("embedding.csv", "eigenvalues.csv", "manifest.json"):
            assert (sub / name).read_bytes() == (embed_dir / name).read_bytes()

    def test_bad_value_skipped_and_reported(self, capsys, fixture_run, tmp_path):
        out_dir = tmp_path / "sweep"
        rc, _, err = run_cli(
            capsys,
            "sweep",
            "--config",
            str(fixture_run["config"]),
            "--out",
            str(out_dir),
            "--override",
            "pipeline=two_layer",
            "--override",
            'border_model={"kind": "permeability", "p": 0.95}',
            "--override",
            "sweep_probabilities=[0.95, 1.5]",
        )
        assert rc == 1
        assert "sweep value 1.5 failed" in err
        table = (out_dir / "separation_ratios.csv").read_text().splitlines()
        assert len(table) == 2 and table[1].startswith("0.95,")
        assert (out_dir / "p_0.95").is_dir()
        assert not (out_dir / "p_1.5").exists()

    def test_events_parsed_once_per_sweep(self, capsys, fixture_run, tmp_path, monkeypatch):
        calls = []
        parse = ingest.parse_events

        def counting_parse(*args, **kwargs):
            calls.append(1)
            return parse(*args, **kwargs)

        monkeypatch.setattr(ingest, "parse_events", counting_parse)
        rc, _, err = run_cli(
            capsys,
            "sweep",
            "--config",
            str(fixture_run["config"]),
            "--out",
            str(tmp_path / "o"),
            "--override",
            'border_model={"kind": "linear", "cost_km": 0.0}',
            "--override",
            "sweep_costs_km=[0, 50, 100]",
        )
        assert rc == 0 and err == ""
        assert len(calls) == 1
        assert len((tmp_path / "o" / "separation_ratios.csv").read_text().splitlines()) == 4

    def test_ingest_failure_aborts_whole_sweep(self, capsys, fixture_run, tmp_path):
        out_dir = tmp_path / "o"
        rc, _, err = run_cli(
            capsys,
            "sweep",
            "--config",
            str(fixture_run["config"]),
            "--out",
            str(out_dir),
            "--override",
            'border_model={"kind": "linear", "cost_km": 0.0}',
            "--override",
            "sweep_costs_km=[0, 50, 100]",
            "--override",
            "events_csv=absent.csv",
        )
        assert rc == 1
        assert err.startswith("error: ingest:")
        assert err.count("error:") == 1 and "sweep value" not in err
        assert not out_dir.exists()

    def test_single_country_ratio_fails_in_export(
        self, capsys, fixture_run, tmp_path, twelve_locations
    ):
        # Every event in country A: no inter-country pairs, so no ratio.
        rows = []
        for i, loc in enumerate(twelve_locations):
            rows.append(
                (
                    f"2024-01-{i + 1:02d}",
                    "G",
                    loc.latitude,
                    loc.longitude,
                    "A",
                    loc.admin_key,
                    "Violence against civilians",
                    0,
                )
            )
        fixture_run["events"].write_text(events_csv_text(rows), encoding="utf-8")
        out_dir = tmp_path / "o"
        rc, _, err = run_cli(
            capsys,
            "sweep",
            "--config",
            str(fixture_run["config"]),
            "--out",
            str(out_dir),
            "--override",
            'border_model={"kind": "linear", "cost_km": 0.0}',
            "--override",
            "sweep_costs_km=[0.0]",
        )
        assert rc == 1
        assert err == "sweep value 0.0 failed; export: no inter-country point pairs; ratio undefined\n"
        table = (out_dir / "separation_ratios.csv").read_text().splitlines()
        assert table == ["value,separation_ratio"]
        # A skipped value leaves none of its files behind.
        assert not (out_dir / "cost_0.0").exists()

    def test_repeated_values_rejected(self, capsys, fixture_run, tmp_path):
        cases = (
            (
                "two_layer",
                '{"kind": "permeability", "p": 0.5}',
                "sweep_probabilities=[0.5, 0.8, 0.5]",
                "0.5",
            ),
            (
                "geo",
                '{"kind": "linear", "cost_km": 0.0}',
                "sweep_costs_km=[0.0, 50.0, -0.0]",
                "-0.0",
            ),
        )
        for pipeline, model, sweep, repeated in cases:
            out_dir = tmp_path / f"o{repeated}"
            rc, _, err = run_cli(
                capsys,
                "sweep",
                "--config",
                str(fixture_run["config"]),
                "--out",
                str(out_dir),
                "--override",
                f"pipeline={pipeline}",
                "--override",
                f"border_model={model}",
                "--override",
                sweep,
            )
            assert rc == 1
            assert err == f"error: config: sweep value {repeated} is listed more than once\n"
            assert not out_dir.exists()

    def test_non_finite_sweep_entry_fails_before_ingest(self, capsys, fixture_run, tmp_path):
        cases = (
            ('{"kind": "linear", "cost_km": 0.0}', "sweep_costs_km=[0.0, NaN]", "nan"),
            ('{"kind": "permeability", "p": 0.5}', "sweep_probabilities=[0.5, Infinity]", "inf"),
            ('{"kind": "permeability", "p": 0.5}', 'sweep_probabilities=[0.5, "0.8"]', "'0.8'"),
        )
        for model, sweep, shown in cases:
            out_dir = tmp_path / "o"
            rc, _, err = run_cli(
                capsys,
                "sweep",
                "--config",
                str(fixture_run["config"]),
                "--out",
                str(out_dir),
                "--override",
                f"border_model={model}",
                "--override",
                sweep,
                "--override",
                "events_csv=absent.csv",
            )
            assert rc == 1
            assert err.startswith("error: config:") and err.count("error:") == 1
            assert f"entry must be a finite number, got {shown}" in err
            assert not out_dir.exists()

    def test_unsweepable_border_model(self, capsys, fixture_run, tmp_path):
        rc, _, err = run_cli(
            capsys, "sweep", "--config", str(fixture_run["config"]), "--out", str(tmp_path / "o")
        )
        assert rc == 1
        assert "error: config:" in err and "nothing to sweep" in err

    def test_empty_sweep_list(self, capsys, fixture_run, tmp_path):
        rc, _, err = run_cli(
            capsys,
            "sweep",
            "--config",
            str(fixture_run["config"]),
            "--out",
            str(tmp_path / "o"),
            "--override",
            'border_model={"kind": "linear", "cost_km": 0.0}',
        )
        assert rc == 1
        assert "error: config:" in err and "sweep list is empty" in err


class TestFreeTextCells:
    """Every table the CLI writes reads back, with a country that needs quoting."""

    COUNTRY = 'Congo, "Republic" of'
    PERMEABILITY = 'border_model={"kind": "permeability", "p": 0.95}'
    RUNS = {
        "summarize": ("summarize",),
        "geo": ("embed",),
        "two_layer": ("embed", "--override", "pipeline=two_layer", "--override", PERMEABILITY),
        "three_layer": (
            "embed",
            "--override",
            "pipeline=three_layer",
            "--override",
            PERMEABILITY,
            "--override",
            'groups=["G"]',
        ),
        "geo_sweep": (
            "sweep",
            "--override",
            'border_model={"kind": "linear", "cost_km": 0.0}',
            "--override",
            "sweep_costs_km=[0.0, 50.0]",
        ),
        "two_layer_sweep": (
            "sweep",
            "--override",
            "pipeline=two_layer",
            "--override",
            PERMEABILITY,
            "--override",
            "sweep_probabilities=[0.95, 0.5]",
        ),
    }
    TABLES = {
        "rejections.csv",
        "attacks_per_location.csv",
        "groups_per_location.csv",
        "fatalities_by_country_year.csv",
        "embedding.csv",
        "eigenvalues.csv",
        "displacement.csv",
        "separation_ratios.csv",
    }

    @pytest.fixture
    def free_text_run(self, tmp_path):
        """Six events in two countries, one named in a custom borders file, and a bad row."""
        header = ["event_date", "actor1", "latitude", "longitude", "country", "admin1"]
        header += ["event_type", "fatalities"]
        sites = [(-4.3, 15.3, self.COUNTRY), (-1.6, 13.6, self.COUNTRY)]
        sites += [(-3.0, 12.5, self.COUNTRY), (0.4, 9.5, "Gabon")]
        sites += [(-1.7, 11.9, "Gabon"), (1.5, 11.0, "Gabon")]
        with open(tmp_path / "events.csv", "w", encoding="utf-8", newline="") as fh:
            rows = csv.writer(fh)
            rows.writerow(header)
            for day, (lat, lon, country) in enumerate(sites, start=1):
                rows.writerow(
                    [f"2020-03-{day:02d}", "G", lat, lon, country, f"a{day}", "Battles", 1]
                )
            rows.writerow(["not a date", "G", 0.0, 10.0, "Gabon", "a7", "Battles", 1])
        with open(tmp_path / "borders.csv", "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerow([self.COUNTRY, "Gabon"])
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "events_csv": "events.csv",
                    "borders_csv": "borders.csv",
                    "pipeline": "geo",
                    "border_model": {"kind": "none"},
                    "categories": ["Battles"],
                }
            ),
            encoding="utf-8",
        )
        return config

    def read_back(self, path):
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert {len(row) for row in rows} == {len(rows[0])}, path
        return [dict(zip(rows[0], row)) for row in rows[1:]]

    def test_every_table_reads_back_at_its_header_width(self, capsys, free_text_run, tmp_path):
        tables = {}
        for name, (command, *overrides) in self.RUNS.items():
            out_dir = tmp_path / name
            rc, _, err = run_cli(
                capsys, command, "--config", str(free_text_run), "--out", str(out_dir), *overrides
            )
            assert (rc, err) == (0, ""), name
            for path in sorted(out_dir.rglob("*.csv")):
                tables[path.relative_to(tmp_path).as_posix()] = self.read_back(path)
        assert {key.rpartition("/")[2] for key in tables} == self.TABLES
        assert tables["summarize/fatalities_by_country_year.csv"] == [
            {"country": self.COUNTRY, "year": "2020", "fatalities": "3"},
            {"country": "Gabon", "year": "2020", "fatalities": "3"},
        ]
        for key, rows in tables.items():
            if key.endswith("rejections.csv"):
                assert rows == [{"line": "8", "reason": "unparseable date"}], key
            elif "country" in rows[0]:
                assert {row["country"] for row in rows} == {self.COUNTRY, "Gabon"}, key


class TestByteOrderMark:
    """Spreadsheets save "CSV UTF-8" with a leading byte-order mark."""

    BOM = "\ufeff"

    def outputs(self, out_dir):
        return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}

    def test_events_csv_with_a_bom_reads_as_without(self, capsys, fixture_run, tmp_path):
        # The header starts with event_date, the name a BOM would join. A bad
        # row is added, so the rejection line numbers are compared too.
        events = fixture_run["events"]
        text = events.read_text(encoding="utf-8") + "not a date,G,1,1,A,adm,Battle,0\n"
        runs = {}
        for name, prefix in (("plain", ""), ("bom", self.BOM)):
            events.write_text(prefix + text, encoding="utf-8")
            out_dir = tmp_path / name
            rc, out, err = run_cli(
                capsys, "summarize", "--config", str(fixture_run["config"]), "--out", str(out_dir)
            )
            assert rc == 0 and err == ""
            runs[name] = (out, self.outputs(out_dir))
        assert runs["bom"] == runs["plain"]
        assert runs["bom"][0].splitlines()[0] == "events=12 groups=3 locations=12"
        assert runs["bom"][1]["rejections.csv"] == b"line,reason\n14,unparseable date\n"

    def test_borders_csv_with_a_bom_reads_as_without(self, capsys, fixture_run, tmp_path):
        borders = fixture_run["borders"]
        runs = {}
        for name, prefix in (("plain", ""), ("bom", self.BOM)):
            borders.write_text(prefix + "A,B\nB,C\n", encoding="utf-8")
            out_dir = tmp_path / name
            rc, _, err = run_cli(
                capsys,
                "embed",
                "--config",
                str(fixture_run["config"]),
                "--out",
                str(out_dir),
                "--override",
                'border_model={"kind": "linear", "cost_km": 100.0}',
            )
            assert rc == 0 and err == ""
            runs[name] = self.outputs(out_dir)
        assert runs["bom"] == runs["plain"]
        countries = {line.split(b",")[-1] for line in runs["bom"]["embedding.csv"].splitlines()}
        assert countries == {b"country", b"A", b"B", b"C"}

    def test_config_json_with_a_bom_reads_as_without(self, capsys, fixture_run, tmp_path):
        # Windows Notepad saves "UTF-8" JSON with a byte-order mark.
        config = fixture_run["config"]
        text = config.read_text(encoding="utf-8")
        runs = {}
        for name, prefix in (("plain", ""), ("bom", self.BOM)):
            config.write_text(prefix + text, encoding="utf-8")
            out_dir = tmp_path / name
            rc, out, err = run_cli(capsys, "embed", "--config", str(config), "--out", str(out_dir))
            assert rc == 0 and err == ""
            runs[name] = (out, self.outputs(out_dir))
        assert runs["bom"] == runs["plain"]
        assert sorted(runs["bom"][1]) == [
            "eigenvalues.csv",
            "embedding.csv",
            "manifest.json",
            "rejections.csv",
        ]


class TestListConfigFields:
    CASES = (
        ("groups=AQIM", "groups must be a list of strings, got 'AQIM'"),
        ('groups="AQIM"', "groups must be a list of strings, got 'AQIM'"),
        ("categories=Battle", "categories must be a list of strings, got 'Battle'"),
        ("categories=[1]", "categories must be a list of strings, got [1]"),
        (
            "column_map.date_formats=%Y-%m-%d",
            "column_map.date_formats must be a list of strings, got '%Y-%m-%d'",
        ),
        ('sweep_costs_km="100"', "sweep_costs_km must be a list of numbers, got '100'"),
        ("sweep_probabilities=0.5", "sweep_probabilities must be a list of numbers, got 0.5"),
    )

    def test_override_with_a_bare_value_fails_in_config(self, capsys, fixture_run, tmp_path):
        for override, message in self.CASES:
            out_dir = tmp_path / "o"
            rc, _, err = run_cli(
                capsys,
                "embed",
                "--config",
                str(fixture_run["config"]),
                "--out",
                str(out_dir),
                "--override",
                override,
            )
            assert rc == 1
            assert err.strip() == f"error: config: {message}"
            assert not out_dir.exists()

    def test_json_config_with_a_bare_string_fails_in_config(self, capsys, fixture_run, tmp_path):
        raw = json.loads(fixture_run["config"].read_text())
        config = fixture_run["config"].with_name("bare.json")
        config.write_text(json.dumps({**raw, "groups": "AQIM"}), encoding="utf-8")
        rc, _, err = run_cli(capsys, "embed", "--config", str(config), "--out", str(tmp_path / "o"))
        assert rc == 1
        assert err.strip() == (
            "error: config: groups must be a list of strings, got 'AQIM'"
        )


SPLIT_RULE = {
    "group_id": "Group A",
    "attribute": "latitude",
    "comparator": "<",
    "threshold": 28.05,
    "virtual_suffix": "-south",
}


def dotted_overrides(fragment, prefix=""):
    """`--override` strings that set every leaf of a config fragment; lists are leaves."""
    for key, value in fragment.items():
        if isinstance(value, dict):
            yield from dotted_overrides(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}={json.dumps(value)}"


class TestNestedConfigFields:
    # A nested config value of the wrong type, and the message it fails with.
    CASES = (
        ({"column_map": {"actor": 5}}, "column_map.actor must be a string, got 5"),
        (
            {"split_rules": [{**SPLIT_RULE, "threshold": True}]},
            "split rule threshold must be a finite number, got True",
        ),
        (
            {"split_rules": [{**SPLIT_RULE, "threshold": "13.5"}]},
            "split rule threshold must be a finite number, got '13.5'",
        ),
        (
            {"split_rules": [{**SPLIT_RULE, "virtual_suffix": 5}]},
            "split rule virtual_suffix must be a string, got 5",
        ),
        ({"split_rules": [{**SPLIT_RULE, "group_id": 7}]}, "split rule group_id must be a string, got 7"),
        (
            {"split_rules": [{**SPLIT_RULE, "attribute": ["latitude"]}]},
            "split rule attribute must be a string, got ['latitude']",
        ),
        ({"split_rules": [{**SPLIT_RULE, "comparator": 1}]}, "split rule comparator must be a string, got 1"),
        ({"split_rules": 5}, "split_rules must be a list of objects, got 5"),
        (
            {"split_rules": {"group_id": "A"}},
            "split_rules must be a list of objects, got {'group_id': 'A'}",
        ),
        ({"split_rules": [{**SPLIT_RULE, "thresold": 99}]}, "unknown split rule keys: ['thresold']"),
    )

    def run(self, capsys, config, out_dir, *overrides):
        argv = ["embed", "--config", str(config), "--out", str(out_dir)]
        for override in overrides:
            argv += ["--override", override]
        rc, _, err = run_cli(capsys, *argv)
        assert not out_dir.exists()
        return rc, err.strip()

    def test_json_config_fails_in_config(self, capsys, fixture_run, tmp_path):
        raw = json.loads(fixture_run["config"].read_text())
        config = fixture_run["config"].with_name("nested.json")
        for fragment, message in self.CASES:
            config.write_text(json.dumps({**raw, **fragment}), encoding="utf-8")
            got = self.run(capsys, config, tmp_path / "o")
            assert got == (1, f"error: config: {message}")

    def test_override_fails_in_config(self, capsys, fixture_run, tmp_path):
        for fragment, message in self.CASES:
            overrides = list(dotted_overrides(fragment))
            got = self.run(capsys, fixture_run["config"], tmp_path / "o", *overrides)
            assert got == (1, f"error: config: {message}")

    def test_an_integer_threshold_is_recorded_as_a_float(self, capsys, fixture_run, tmp_path):
        rule = json.dumps([{**SPLIT_RULE, "threshold": 28}])
        argv = ["--override", f"split_rules={rule}"]
        rc, _, _ = run_cli(
            capsys, "embed", "--config", str(fixture_run["config"]), "--out", str(tmp_path / "o"), *argv
        )
        assert rc == 0
        text = (tmp_path / "o" / "manifest.json").read_text()
        # 28.0 == 28 in Python, so the text is what shows the type.
        assert '"threshold": 28.0,' in text
        assert json.loads(text)["split_rules"] == [{**SPLIT_RULE, "threshold": 28.0}]


class TestFailureStages:
    def test_missing_config_file(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, "embed", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "o")
        )
        assert rc == 1
        assert err.startswith("error: config:")

    def test_missing_output_dir(self, capsys, fixture_run):
        rc, _, err = run_cli(capsys, "embed", "--config", str(fixture_run["config"]))
        assert rc == 1
        assert "error: config:" in err and "output directory" in err

    def test_empty_paths_fail_in_config(self, capsys, fixture_run, tmp_path):
        # An empty path would resolve to the config's own directory: the
        # border graph would fail to read it, and outputs would land there.
        config = fixture_run["config"]
        raw = json.loads(config.read_text(encoding="utf-8"))
        raw["border_model"] = {"kind": "linear", "cost_km": 100.0}
        before = sorted(fixture_run["dir"].iterdir())
        for key, out in (("borders_csv", ("--out", str(tmp_path / "o"))), ("output_dir", ())):
            for empty in ("", " \t"):
                config.write_text(json.dumps({**raw, key: empty}), encoding="utf-8")
                rc, _, err = run_cli(capsys, "embed", "--config", str(config), *out)
                message = f"{key} must not be an empty path, got {empty!r}"
                assert (rc, err) == (1, f"error: config: {message}\n")
        assert sorted(fixture_run["dir"].iterdir()) == before

    def test_empty_out_fails_in_config(self, capsys, fixture_run, tmp_path):
        # An empty --out used to fall back to the config's output_dir.
        config = fixture_run["config"]
        raw = json.loads(config.read_text(encoding="utf-8"))
        config.write_text(json.dumps({**raw, "output_dir": str(tmp_path / "o")}), encoding="utf-8")
        for empty in ("", " \t"):
            rc, _, err = run_cli(capsys, "summarize", "--config", str(config), "--out", empty)
            message = f"--out must not be an empty path, got {empty!r}"
            assert (rc, err) == (1, f"error: config: {message}\n")
        assert not (tmp_path / "o").exists()

    def test_missing_events_file(self, capsys, fixture_run, tmp_path):
        rc, _, err = run_cli(
            capsys,
            "embed",
            "--config",
            str(fixture_run["config"]),
            "--out",
            str(tmp_path / "o"),
            "--override",
            "events_csv=absent.csv",
        )
        assert rc == 1
        assert err.startswith("error: ingest:")

    def test_no_date_formats(self, capsys, fixture_run, tmp_path):
        for command in ("embed", "summarize"):
            out = tmp_path / command
            rc, _, err = run_cli(
                capsys,
                command,
                "--config",
                str(fixture_run["config"]),
                "--out",
                str(out),
                "--override",
                "column_map.date_formats=[]",
            )
            assert rc == 1
            assert err.startswith("error: config:") and "date_formats" in err
            assert not out.exists()

    def test_filtered_to_nothing(self, capsys, fixture_run, tmp_path):
        rc, _, err = run_cli(
            capsys,
            "embed",
            "--config",
            str(fixture_run["config"]),
            "--out",
            str(tmp_path / "o"),
            "--override",
            'categories=["Battle"]',
        )
        assert rc == 1
        assert err.startswith("error: ingest:") and "no events left" in err

    def test_unknown_country_in_border_graph(self, capsys, fixture_run, tmp_path):
        (fixture_run["dir"] / "partial.csv").write_text("A,B\n", encoding="utf-8")
        rc, _, err = run_cli(
            capsys,
            "embed",
            "--config",
            str(fixture_run["config"]),
            "--out",
            str(tmp_path / "o"),
            "--override",
            'border_model={"kind": "linear", "cost_km": 100.0}',
            "--override",
            "borders_csv=partial.csv",
        )
        assert rc == 1
        assert err.startswith("error: borders:")
        assert "unknown country 'C'" in err

    def test_disconnected_border_graph(self, capsys, fixture_run, tmp_path):
        (fixture_run["dir"] / "split.csv").write_text("A,B\nC,D\n", encoding="utf-8")
        rc, _, err = run_cli(
            capsys,
            "embed",
            "--config",
            str(fixture_run["config"]),
            "--out",
            str(tmp_path / "o"),
            "--override",
            'border_model={"kind": "linear", "cost_km": 100.0}',
            "--override",
            "borders_csv=split.csv",
        )
        assert rc == 1
        assert err.startswith("error: borders:")
        assert "no border path" in err

    def test_too_little_memory_fails_in_assembly(self, capsys, monkeypatch, fixture_run, tmp_path):
        # 12 locations of a geo run with no borders: one 12 x 12 float array
        # and a 40-vector basis, 8 * 144 + 8 * 40 * 12 = 4992 bytes.
        monkeypatch.setattr(layers, "_available_memory", lambda: 4991)
        out_dir = tmp_path / "o"
        rc, _, err = run_cli(
            capsys, "embed", "--config", str(fixture_run["config"]), "--out", str(out_dir)
        )
        assert (rc, err) == (1, "error: assembly: needs an estimated 0.0 GB, 0.0 GB available\n")
        assert not out_dir.exists()
        monkeypatch.setattr(layers, "_available_memory", lambda: 4992)
        rc, _, _ = run_cli(
            capsys, "embed", "--config", str(fixture_run["config"]), "--out", str(out_dir)
        )
        assert rc == 0

    def test_three_layer_group_that_never_moves_fails_in_assembly(
        self, capsys, fixture_run, tmp_path
    ):
        # The only selected group attacks one location twice: no transitions.
        lines = fixture_run["events"].read_text(encoding="utf-8").splitlines()
        cells = lines[1].split(",")
        lone = [",".join([f"2024-02-0{day}", "Lone", *cells[2:]]) for day in (1, 2)]
        (fixture_run["dir"] / "lone.csv").write_text(
            "\n".join(lines + lone) + "\n", encoding="utf-8"
        )
        out_dir = tmp_path / "o"
        rc, _, err = run_cli(
            capsys,
            "embed",
            "--config",
            str(fixture_run["config"]),
            "--out",
            str(out_dir),
            "--override",
            "events_csv=lone.csv",
            "--override",
            "pipeline=three_layer",
            "--override",
            'border_model={"kind": "permeability", "p": 0.95}',
            "--override",
            'groups=["Lone"]',
        )
        assert (rc, err) == (
            1,
            "error: assembly: sequence layer has no edges; nothing to normalize\n",
        )
        assert not out_dir.exists()

    def test_a_group_listed_twice_fails_in_config(self, capsys, fixture_run, tmp_path):
        out_dir = tmp_path / "o"
        overrides = (*PIPELINES["three_layer"][:2], 'groups=["Group A", "Group B", "Group A"]')
        args = [arg for override in overrides for arg in ("--override", override)]
        config = str(fixture_run["config"])
        rc, _, err = run_cli(capsys, "embed", "--config", config, "--out", str(out_dir), *args)
        assert (rc, err) == (
            1,
            "error: config: group 'Group A' is listed more than once\n",
        )
        assert not out_dir.exists()

    def test_non_finite_border_value_fails_in_config(self, capsys, fixture_run, tmp_path):
        raw = json.loads(fixture_run["config"].read_text(encoding="utf-8"))
        raw["border_model"] = {"kind": "linear", "cost_km": float("nan")}
        nan_config = fixture_run["dir"] / "nan.json"
        nan_config.write_text(json.dumps(raw), encoding="utf-8")  # writes a bare NaN
        linear = 'border_model={"kind": "linear", "cost_km": 1.0}'
        cases = (
            (nan_config, [], "cost_km", "nan"),
            (fixture_run["config"], [linear, "border_model.cost_km=Infinity"], "cost_km", "inf"),
            (fixture_run["config"], [linear, "border_model.cost_km=1e400"], "cost_km", "inf"),
            (fixture_run["config"], [linear, "border_model.cost_km=nan"], "cost_km", "'nan'"),
            (
                fixture_run["config"],
                ['border_model={"kind": "permeability", "p": NaN}'],
                "p",
                "nan",
            ),
        )
        for config, overrides, name, shown in cases:
            argv = ["embed", "--config", str(config), "--out", str(tmp_path / "o")]
            for item in overrides:
                argv += ["--override", item]
            rc, _, err = run_cli(capsys, *argv)
            assert rc == 1
            assert err == (
                f"error: config: {name} must be a finite number, "
                f"got {shown}\n"
            )
            assert not (tmp_path / "o").exists()

    def test_integer_fields_refuse_floats_and_booleans(self, capsys, fixture_run, tmp_path):
        # Before, k=2.0 died in the solver, k=true ran as k = 1 and
        # rounding=2.7 ran as 2 with the coerced value in the manifest.
        raw = json.loads(fixture_run["config"].read_text(encoding="utf-8"))
        raw["k"] = 2.0
        float_config = fixture_run["dir"] / "float_k.json"
        float_config.write_text(json.dumps(raw), encoding="utf-8")
        cases = (
            (fixture_run["config"], ["k=2.0"], "k", "2.0"),
            (fixture_run["config"], ["k=true"], "k", "True"),
            (fixture_run["config"], ["rounding=2.7"], "rounding", "2.7"),
            (fixture_run["config"], ["rounding=true"], "rounding", "True"),
            (float_config, [], "k", "2.0"),
        )
        for config, overrides, name, shown in cases:
            argv = ["embed", "--config", str(config), "--out", str(tmp_path / "o")]
            for item in overrides:
                argv += ["--override", item]
            rc, _, err = run_cli(capsys, *argv)
            assert rc == 1
            assert err == (
                f"error: config: {name} must be an integer, got {shown}\n"
            )
            assert not (tmp_path / "o").exists()

    def test_invalid_override_value(self, capsys, fixture_run, tmp_path):
        rc, _, err = run_cli(
            capsys,
            "embed",
            "--config",
            str(fixture_run["config"]),
            "--out",
            str(tmp_path / "o"),
            "--override",
            "k",
        )
        assert rc == 1
        assert "error: config:" in err and "key=value" in err


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "permap", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "summarize" in proc.stdout and "sweep" in proc.stdout


# How far `embed` outputs may move between one and two OpenBLAS threads:
# symv sums in another order on each. Measured on the benchmark's seed-101
# and seed-102 inputs, at most: coordinates 1.7e-10 absolute, eigenvalues
# 7.1e-13 relative, displacement 4.8e-12 absolute (all three-layer).
THREAD_TOLERANCES = {
    "embedding.csv": ("abs", 1e-9),
    "eigenvalues.csv": ("rel", 1e-11),
    "displacement.csv": ("abs", 1e-10),
}


def assert_close_csv(a: Path, b: Path, kind: str, tol: float):
    """Same header, rows and text; numbers that differ are within tol."""
    rows_a, rows_b = (sorted(csv.reader(p.read_text().splitlines()[1:])) for p in (a, b))
    assert a.read_text().splitlines()[0] == b.read_text().splitlines()[0]
    assert len(rows_a) == len(rows_b)
    for row_a, row_b in zip(rows_a, rows_b):
        for x, y in zip(row_a, row_b):
            if x != y:
                x, y = float(x), float(y)
                scale = max(abs(x), abs(y)) if kind == "rel" else 1.0
                assert abs(x - y) <= tol * scale, (a.name, x, y)


@pytest.mark.parametrize("name", ["geo_sweep", "two_layer_sweep", "three_layer_embed"])
def test_one_and_two_blas_threads_agree_within_tolerance(name, tmp_path):
    """`embed` at one and two OpenBLAS threads, in subprocesses, on a 200-location input.

    Those sizes already multiply through multithreaded symv, so the
    outputs may differ in the last digits, never beyond THREAD_TOLERANCES;
    rejections.csv and manifest.json are byte-equal.
    """
    workloads = benchmark_workloads()
    workload = dataclasses.replace(workloads.WORKLOADS[name], locations=200, rows=3000)
    config = workloads.generate(workload, 101, 0, tmp_path / "input").config_json
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "permap", "embed", "--config", str(config), "--out", str(out)]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert {"rejections.csv", "manifest.json"} <= set(names)
    for file in names:
        a, b = outs[0] / file, outs[1] / file
        if file in THREAD_TOLERANCES:
            assert_close_csv(a, b, *THREAD_TOLERANCES[file])
        else:
            assert a.read_bytes() == b.read_bytes(), file
