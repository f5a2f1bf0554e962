"""Command-line drivers: summarize, embed, and sweep runs.

Every command takes a JSON config (see the config module), an output
directory, and repeatable `--override key=value` tweaks. Failures exit
nonzero with a one-line diagnostic naming the pipeline stage that broke.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import config as config_mod
from . import geo, ingest, layers, sequence, spectral
from .config import RunConfig
from .errors import stage, stage_of
from .fileio import open_input, write_csv


def _load_events(cfg: RunConfig):
    with open_input(cfg.events_csv) as fh:
        events, rejections = ingest.parse_events(fh, cfg.column_map)
    violent = ingest.filter_violent(events, cfg.categories)
    if cfg.split_rules:
        violent = sequence.split_groups(violent, cfg.split_rules)
    return violent, rejections


def _border_graph(cfg: RunConfig) -> geo.CountryBorderGraph:
    if cfg.borders_csv:
        return geo.CountryBorderGraph.load_csv(cfg.borders_csv)
    return geo.load_reference_borders()


def cmd_summarize(cfg: RunConfig, out_dir: Path) -> int:
    """Write the summary tables and print the headline totals."""
    with stage("ingest"):
        violent, rejections = _load_events(cfg)
        if violent:
            locations, mapping = ingest.build_locations(violent, cfg.rounding)
            stats = ingest.summarize(violent, locations, mapping)
        else:
            stats = ingest.SummaryStats((), (), {}, ingest.Totals(0, 0, 0))
    with stage("export"):
        ingest.write_summary_csvs(stats, out_dir)
        ingest.write_rejections_csv(rejections, out_dir / "rejections.csv")
    totals = stats.totals
    print(f"events={totals.events} groups={totals.groups} locations={totals.locations}")
    if stats.attacks_per_location:
        mean = totals.events / totals.locations
        peak = max(stats.attacks_per_location)
    else:
        mean, peak = 0.0, 0
    print(f"attacks_per_location mean={float(mean)!r} max={peak}")
    return 0


def _prepare(cfg: RunConfig):
    """Ingest, load borders, build layers; returns (Prepared, countries by id, rejections)."""
    with stage("ingest"):
        violent, rejections = _load_events(cfg)
        if not violent:
            raise ValueError("no events left after filtering; nothing to embed")
    with stage("borders"):
        cg = None if cfg.border_model.kind == "none" else _border_graph(cfg)
    with stage("ingest"):
        locations, mapping = ingest.build_locations(violent, cfg.rounding)
    seq = None
    if cfg.pipeline == "three_layer":
        with stage("assembly"):
            seq = sequence.sequence_adjacency(violent, mapping, cfg.groups, len(locations))
    # The events are spent: freed here, they do not stack on the distance layer.
    del violent, mapping
    prepared = layers.prepare(cfg.pipeline, locations, cg, seq)
    return prepared, tuple(loc.country for loc in locations), rejections


def _export_run(cfg, emb, disp, countries, rejections, out_dir: Path) -> None:
    spectral.write_embedding_csv(emb, out_dir / "embedding.csv", countries)
    spectral.write_eigenvalues_csv(emb, out_dir / "eigenvalues.csv")
    if disp is not None:
        layers.write_displacement_csv(disp, out_dir / "displacement.csv", countries)
    ingest.write_rejections_csv(rejections, out_dir / "rejections.csv")
    config_mod.write_manifest(cfg, "embed", out_dir / "manifest.json")


def cmd_embed(cfg: RunConfig, out_dir: Path) -> int:
    """One embedding run: coordinates, eigenvalues, manifest, diagnostics."""
    prepared, countries, rejections = _prepare(cfg)
    emb, disp = layers.solve(prepared, cfg.border_model.value, cfg.k)
    with stage("export"):
        _export_run(cfg, emb, disp, countries, rejections, out_dir)
    return 0


def _sweep_label(cfg: RunConfig, value: float) -> str:
    prefix = "cost_" if cfg.border_model.kind == "linear" else "p_"
    return prefix + repr(float(value))


def cmd_sweep(cfg: RunConfig, out_dir: Path) -> int:
    """Embed at each swept border value and tabulate ratios.

    Events are ingested and the pipeline prepared once; a failure there
    aborts the sweep, while a failing value is reported and skipped.
    """
    with stage("config"):
        values = cfg.sweep_values()
    prepared, countries, rejections = _prepare(cfg)
    ratios = []
    failed = 0
    for value in values:
        try:
            with stage("config"):
                sub = cfg.with_border_value(value)
            emb, disp = layers.solve(prepared, value, cfg.k)
            with stage("export"):
                # The ratio first, so a value it fails on writes no files.
                ids = emb.location_ids()
                ratio = layers.country_separation_ratio(emb.coordinates, ids, countries)
                sub_dir = out_dir / _sweep_label(cfg, value)
                _export_run(sub, emb, disp, countries, rejections, sub_dir)
                ratios.append((value, float(ratio)))
        except Exception as exc:
            if stage_of(exc) is None:
                raise
            failed += 1
            print(f"sweep value {value!r} failed; {stage_of(exc)}: {exc}", file=sys.stderr)
    with stage("export"):
        write_csv(out_dir / "separation_ratios.csv", ["value", "separation_ratio"], ratios)
    return 1 if failed else 0


_COMMANDS = {
    "summarize": cmd_summarize,
    "embed": cmd_embed,
    "sweep": cmd_sweep,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permap",
        description="Location-network embeddings from geocoded event data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "summarize": "parse events and write per-location summary tables",
        "embed": "run one embedding and export coordinate CSVs",
        "sweep": "run an embedding per border-model value and tabulate separation",
    }
    for name, text in helps.items():
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, help="path to a run config JSON")
        cmd.add_argument("--out", help="output directory (falls back to config output_dir)")
        cmd.add_argument(
            "--override",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config entry; dotted keys reach nested fields",
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with stage("config"):
            cfg = config_mod.load_config(args.config, args.override)
            out_dir = config_mod.out_dir(cfg, args.out)
        return _COMMANDS[args.command](cfg, out_dir)
    except Exception as exc:
        if stage_of(exc) is None:
            raise
        print(f"error: {stage_of(exc)}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
