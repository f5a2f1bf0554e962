import json
import subprocess
import sys

import pytest

from conftest import events_csv_text
from permap import ingest
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

    def test_permeability_geo_run_tags_border_layer(self, capsys, fixture_run, tmp_path):
        out_dir = tmp_path / "run"
        rc, _, _ = run_cli(
            capsys,
            "embed",
            "--config",
            str(fixture_run["config"]),
            "--out",
            str(out_dir),
            "--override",
            'border_model={"kind": "permeability", "p": 0.95}',
        )
        assert rc == 0
        emb = (out_dir / "embedding.csv").read_text().splitlines()
        assert emb[1].split(",")[2] == "border"

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

    def test_repeated_values_rejected(self, capsys, fixture_run, tmp_path):
        cases = (
            ('{"kind": "permeability", "p": 0.5}', "sweep_probabilities=[0.5, 0.8, 0.5]", "0.5"),
            ('{"kind": "linear", "cost_km": 0.0}', "sweep_costs_km=[0.0, 50.0, -0.0]", "-0.0"),
        )
        for model, sweep, repeated in cases:
            out_dir = tmp_path / f"o{repeated}"
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
            'border_model={"kind": "permeability", "p": 0.95}',
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
            'border_model={"kind": "permeability", "p": 0.95}',
            "--override",
            "borders_csv=split.csv",
        )
        assert rc == 1
        assert err.startswith("error: borders:")
        assert "no border path" in err

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
                f"error: config: invalid config value: {name} must be a finite number, "
                f"got {shown}\n"
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
