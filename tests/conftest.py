"""Shared fixtures: synthetic locations, border files, and event CSVs.

Setting CI loads the Hypothesis `ci` profile: examples are derandomized
and no example database is kept, so `CI=1 python -m pytest` replays a CI
failure locally.
"""

import json
import os
import sys
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from permap.geo import CountryBorderGraph
from permap.ingest import ROW, EventRecord, EventTable, Location

settings.register_profile("ci", derandomize=True, database=None)
if os.environ.get("CI"):
    settings.load_profile("ci")

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def benchmark_workloads():
    """The benchmark's workload generator module, imported from perfbench/ without changing it."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


@pytest.fixture
def chain_borders():
    """Three synthetic countries in a line: A - B - C."""
    return CountryBorderGraph.from_pairs([("A", "B"), ("B", "C")])


def make_location(lat, lon, country="A", admin="adm"):
    return Location(latitude=lat, longitude=lon, country=country, admin_key=admin)


def make_event(
    row,
    group="G",
    when=date(2024, 1, 1),
    lat=1.0,
    lon=1.0,
    country="A",
    admin="adm",
    kind="Violence against civilians",
    fatalities=0,
):
    return EventRecord(
        event_date=when,
        group_id=group,
        latitude=lat,
        longitude=lon,
        country=country,
        admin1=admin,
        event_type=kind,
        fatalities=fatalities,
        source_row=row,
    )


def event_table(*records):
    """The records coded into an EventTable, in the order given, as parse_events codes a file.

    Each distinct group, site (latitude, longitude, country, admin1),
    fatality count and event type gets the next code at its first record.
    """
    groups, sites, deaths, kinds = [{} for _ in range(4)]

    def code(values, key):
        return values.setdefault(key, len(values))

    rows = [
        (e.event_date.toordinal(), code(groups, e.group_id), code(sites, e[2:6]),
         code(deaths, e.fatalities), code(kinds, e.event_type), e.source_row)
        for e in records
    ]
    return EventTable(np.array(rows, dtype=ROW), *map(tuple, (groups, sites, kinds, deaths)))


@pytest.fixture
def twelve_locations():
    """Four sites in each of three chained countries, well separated."""
    spots = {
        "A": [(1.0, 1.0), (1.4, 1.2), (0.8, 1.6), (1.2, 0.7)],
        "B": [(1.1, 4.0), (1.5, 4.3), (0.7, 4.5), (1.3, 3.8)],
        "C": [(1.0, 7.2), (1.4, 7.0), (0.9, 7.6), (1.2, 7.4)],
    }
    out = []
    for country, coords in spots.items():
        for lat, lon in coords:
            out.append(make_location(lat, lon, country, f"d{len(out)}"))
    return out


def events_csv_text(rows):
    """Build CSV text from (date, actor, lat, lon, country, admin, type, fat) tuples."""
    header = "event_date,actor1,latitude,longitude,country,admin1,event_type,fatalities"
    lines = [header]
    for row in rows:
        lines.append(",".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


@pytest.fixture
def fixture_run(tmp_path, twelve_locations):
    """Events CSV (one per location), chain borders CSV, and a geo config."""
    rows = []
    for i, loc in enumerate(twelve_locations):
        rows.append(
            (
                f"2024-01-{i + 1:02d}",
                f"Group {loc.country}",
                loc.latitude,
                loc.longitude,
                loc.country,
                loc.admin_key,
                "Violence against civilians",
                i % 3,
            )
        )
    events = tmp_path / "events.csv"
    events.write_text(events_csv_text(rows), encoding="utf-8")
    borders = tmp_path / "borders.csv"
    borders.write_text("A,B\nB,C\n", encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "events_csv": "events.csv",
                "borders_csv": "borders.csv",
                "pipeline": "geo",
                "border_model": {"kind": "none"},
                "k": 2,
            }
        ),
        encoding="utf-8",
    )
    return {"dir": tmp_path, "events": events, "borders": borders, "config": config}
