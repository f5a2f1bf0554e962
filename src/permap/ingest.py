"""Event CSV ingestion: parsing, violence filtering, location deduplication.

Input files are header-first CSVs in the style of public conflict-event
exports. Malformed rows never abort a run; they are collected into a
rejection report with line numbers. Locations are deduplicated on a
composite key of country, admin district, and rounded coordinates.
Rows are read by cell position, and each distinct date, text cell,
coordinate pair, event type and exact site is judged once, since real
exports repeat them; records holding the same text share one object.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, fields
from datetime import date, datetime
from typing import NamedTuple

from .errors import ConfigError
from .fileio import atomic_write

DEFAULT_CATEGORIES = (
    "Battle",
    "Riots and protests",
    "Violence against civilians",
    "Remote violence",
)

DEFAULT_DATE_FORMATS = ("%Y-%m-%d", "%d %B %Y", "%d %b %Y", "%d/%m/%Y")

DEFAULT_ROUNDING = 4


class EventRecord(NamedTuple):
    """One violent incident from a single CSV row; an immutable NamedTuple."""

    event_date: date
    group_id: str
    latitude: float
    longitude: float
    country: str
    admin1: str
    event_type: str
    fatalities: int
    source_row: int


@dataclass(frozen=True)
class Location:
    """A deduplicated attack site; id indexes every matrix in the pipeline."""

    id: int
    latitude: float
    longitude: float
    country: str
    admin_key: str


@dataclass(frozen=True)
class ColumnMap:
    """Names of the input columns carrying each required field.

    Header lookup is case-insensitive and ignores surrounding whitespace.
    Dates are tried against each format in order until one parses; at
    least one format must be given.
    """

    event_date: str = "event_date"
    actor: str = "actor1"
    latitude: str = "latitude"
    longitude: str = "longitude"
    country: str = "country"
    admin1: str = "admin1"
    event_type: str = "event_type"
    fatalities: str = "fatalities"
    date_formats: tuple = DEFAULT_DATE_FORMATS

    def __post_init__(self):
        if not self.date_formats:
            raise ConfigError("column_map.date_formats must list at least one format")

    def required(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "date_formats"}


@dataclass
class ParseReport:
    """Per-row rejections: (physical line number, frozen reason string)."""

    rejections: list = field(default_factory=list)

    def reject(self, line: int, reason: str):
        self.rejections.append((line, reason))

    def __len__(self):
        return len(self.rejections)


def write_rejections_csv(report: ParseReport, path) -> None:
    with atomic_write(path) as fh:
        fh.write("line,reason\n")
        for line, reason in report.rejections:
            fh.write(f"{line},{reason}\n")


def _parse_date(text: str, formats) -> date | None:
    for fmt in formats:
        try:
            return datetime.strptime(text.strip(), fmt).date()
        except ValueError:
            continue
    return None


class _Memo(dict):
    """key -> fn(key), each computed at its first lookup and then shared."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _coordinates(cells: tuple):
    """(latitude, longitude) of one row's coordinate cells, or the reason they are rejected."""
    raw_lat, raw_lon = cells
    try:
        lat = float(raw_lat)
    except ValueError:
        return "unparseable latitude"
    try:
        lon = float(raw_lon)
    except ValueError:
        return "unparseable longitude"
    if not -90.0 <= lat <= 90.0:
        return "latitude out of range"
    if not -180.0 <= lon <= 180.0:
        return "longitude out of range"
    return lat, lon


def parse_events(source, column_map: ColumnMap | None = None):
    """Parse a header-first CSV stream into events plus a rejection report.

    Returns (events, report). Rows that fail to parse, including rows the
    csv module itself cannot read, are skipped and logged with their
    physical line number; a missing mapped column in the header is a
    configuration error instead. Each distinct raw date, coordinate pair
    and actor, country, admin1 or event-type text is parsed once per call,
    and the records share what it gives: one date, one (latitude,
    longitude) pair of floats, one stripped str.
    """
    cmap = column_map or ColumnMap()
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise ConfigError("input CSV is empty; expected a header row") from None
    index = {}
    for pos, name in enumerate(header):
        index.setdefault(name.strip().casefold(), pos)
    positions = []
    missing = []
    for column in cmap.required().values():
        pos = index.get(column.strip().casefold())
        if pos is None:
            missing.append(column)
        else:
            positions.append(pos)
    if missing:
        raise ConfigError(f"mapped columns missing from header: {missing}")
    # In ColumnMap field order, which is also EventRecord's.
    at_date, at_actor, at_lat, at_lon, at_country, at_admin1, at_type, at_dead = positions
    width = max(positions)

    events = []
    report = ParseReport()
    reject = report.reject
    formats = cmap.date_formats
    # Real exports repeat the same cells across many rows, so each distinct
    # raw text is judged once and every record holding it shares one object.
    # Raw date text -> parsed date, or None when no format fits:
    dates = _Memo(lambda text: _parse_date(text, formats))
    # Raw actor, country, admin1 or event type text -> stripped text:
    texts = _Memo(str.strip)
    # Raw (latitude, longitude) texts -> (lat, lon), or a rejection reason:
    sites = _Memo(_coordinates)
    while True:
        # A row the csv module cannot read (an oversized field, or a NUL
        # byte before Python 3.11) is rejected; reading resumes on the
        # next physical line.
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error:
            reject(reader.line_num, "malformed csv row")
            continue
        line = reader.line_num
        # The cells joined are whitespace only exactly when every cell is.
        if not "".join(row).strip():
            continue
        if len(row) <= width:
            reject(line, "missing fields")
            continue

        when = dates[row[at_date]]
        if when is None:
            reject(line, "unparseable date")
            continue
        group = texts[row[at_actor]]
        if not group:
            reject(line, "empty group id")
            continue
        site = sites[row[at_lat], row[at_lon]]
        if type(site) is str:
            reject(line, site)
            continue
        country = texts[row[at_country]]
        if not country:
            reject(line, "empty country")
            continue
        raw_fatalities = row[at_dead].strip()
        if raw_fatalities:
            try:
                fatalities = int(raw_fatalities)
            except ValueError:
                reject(line, "unparseable fatalities")
                continue
            if fatalities < 0:
                reject(line, "negative fatalities")
                continue
        else:
            fatalities = 0

        admin1, kind = texts[row[at_admin1]], texts[row[at_type]]
        events.append(EventRecord(when, group, *site, country, admin1, kind, fatalities, line))
    return events, report


def _normalize(text: str) -> str:
    return text.strip().casefold()


def filter_violent(events, categories=DEFAULT_CATEGORIES):
    """Keep events whose type matches a category, preserving order.

    Matching is case-insensitive on trimmed names. A category reading
    "battle" matches every battle subtype by prefix; all other categories
    match exactly. Each distinct event type text is judged once.
    """
    cats = {_normalize(c) for c in categories}
    if not cats:
        raise ValueError("filter_violent needs at least one category")
    battles = any(c in ("battle", "battles") for c in cats)

    def keep(event_type: str) -> bool:
        kind = _normalize(event_type)
        return kind in cats or (battles and kind.startswith("battle"))

    verdicts = _Memo(keep)  # raw event type text -> keep or drop
    return [event for event in events if verdicts[event.event_type]]


def build_locations(events, rounding: int = DEFAULT_ROUNDING):
    """Deduplicate events into locations; returns (locations, id per event).

    The key is (country, admin1, coordinates rounded to `rounding`
    places); ids are dense in first-appearance order; each location keeps
    the exact coordinates of its first event.
    """
    if not events:
        raise ValueError("build_locations needs at least one event")
    if not 0 <= rounding <= 6:
        raise ValueError(f"rounding must be in [0, 6], got {rounding}")
    locations = []
    ids = {}  # rounded key -> location id
    sites = {}  # exact (country, admin1, latitude, longitude) -> location id
    mapping = []
    for event in events:
        site = (event.country, event.admin1, event.latitude, event.longitude)
        lid = sites.get(site)
        if lid is None:
            country, admin1, lat, lon = site
            key = (country, admin1, round(lat, rounding), round(lon, rounding))
            lid = ids.get(key)
            if lid is None:
                lid = ids[key] = len(locations)
                locations.append(Location(lid, lat, lon, country, admin1))
            sites[site] = lid
        mapping.append(lid)
    return locations, mapping


class Totals(NamedTuple):
    events: int
    groups: int
    locations: int


@dataclass(frozen=True)
class SummaryStats:
    """Attack counts, group diversity, and fatality totals for a run."""

    attacks_per_location: tuple
    groups_per_location: tuple
    fatalities_by_country_year: dict
    totals: Totals


def summarize(events, locations, mapping) -> SummaryStats:
    """Tally per-location and per-country-year statistics."""
    if len(mapping) != len(events):
        raise ValueError("mapping must assign a location id to every event")
    attacks = [0] * len(locations)
    group_sets = [set() for _ in locations]
    fatalities: dict = {}
    for event, lid in zip(events, mapping):
        attacks[lid] += 1
        group_sets[lid].add(event.group_id.strip())
        key = (event.country, event.event_date.year)
        fatalities[key] = fatalities.get(key, 0) + event.fatalities
    return SummaryStats(
        attacks_per_location=tuple(attacks),
        groups_per_location=tuple(len(s) for s in group_sets),
        fatalities_by_country_year=fatalities,
        totals=Totals(
            events=len(events),
            groups=len({e.group_id.strip() for e in events}),
            locations=len(locations),
        ),
    )


def write_summary_csvs(stats: SummaryStats, outdir) -> list:
    """Write the three summary tables; returns the paths written."""
    from pathlib import Path

    outdir = Path(outdir)
    attacks = outdir / "attacks_per_location.csv"
    with atomic_write(attacks) as fh:
        fh.write("location_id,attacks\n")
        for lid, count in enumerate(stats.attacks_per_location):
            fh.write(f"{lid},{count}\n")
    groups = outdir / "groups_per_location.csv"
    with atomic_write(groups) as fh:
        fh.write("location_id,groups\n")
        for lid, count in enumerate(stats.groups_per_location):
            fh.write(f"{lid},{count}\n")
    deaths = outdir / "fatalities_by_country_year.csv"
    with atomic_write(deaths) as fh:
        # Country names are free text and may hold a comma.
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["country", "year", "fatalities"])
        for (country, year), total in sorted(stats.fatalities_by_country_year.items()):
            out.writerow([country, year, total])
    return [attacks, groups, deaths]
