"""Event CSV ingestion: parsing, violence filtering, location deduplication.

Input files are header-first CSVs in the style of public conflict-event
exports. Malformed rows never abort a run; they are collected into a
rejection report with line numbers. Locations are deduplicated on a
composite key of country, admin district, and rounded coordinates.
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


@dataclass(frozen=True)
class EventRecord:
    """One violent incident as parsed from a single CSV row."""

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
    Dates are tried against each format in order until one parses.
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


def parse_events(source, column_map: ColumnMap | None = None):
    """Parse a header-first CSV stream into events plus a rejection report.

    Returns (events, report). Rows that fail to parse, including rows the
    csv module itself cannot read, are skipped and logged with their
    physical line number; a missing mapped column in the header is a
    configuration error instead. Each distinct date text is parsed once
    per call, since real exports repeat the same dates across many rows.
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
    columns = {}
    missing = []
    for field_name, column in cmap.required().items():
        pos = index.get(column.strip().casefold())
        if pos is None:
            missing.append(column)
        else:
            columns[field_name] = pos
    if missing:
        raise ConfigError(f"mapped columns missing from header: {missing}")

    events = []
    report = ParseReport()
    dates = {}  # raw date text -> parsed date, or None when no format fits
    while True:
        # A row the csv module cannot read (an oversized field, or a NUL
        # byte before Python 3.11) is rejected; reading resumes on the
        # next physical line.
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error:
            report.reject(reader.line_num, "malformed csv row")
            continue
        line = reader.line_num
        if not row or not any(cell.strip() for cell in row):
            continue
        if len(row) <= max(columns.values()):
            report.reject(line, "missing fields")
            continue
        cell = {name: row[pos] for name, pos in columns.items()}

        raw_date = cell["event_date"]
        if raw_date not in dates:
            dates[raw_date] = _parse_date(raw_date, cmap.date_formats)
        when = dates[raw_date]
        if when is None:
            report.reject(line, "unparseable date")
            continue
        group = cell["actor"].strip()
        if not group:
            report.reject(line, "empty group id")
            continue
        try:
            lat = float(cell["latitude"])
        except ValueError:
            report.reject(line, "unparseable latitude")
            continue
        try:
            lon = float(cell["longitude"])
        except ValueError:
            report.reject(line, "unparseable longitude")
            continue
        if not -90.0 <= lat <= 90.0:
            report.reject(line, "latitude out of range")
            continue
        if not -180.0 <= lon <= 180.0:
            report.reject(line, "longitude out of range")
            continue
        country = cell["country"].strip()
        if not country:
            report.reject(line, "empty country")
            continue
        raw_fatalities = cell["fatalities"].strip()
        if raw_fatalities:
            try:
                fatalities = int(raw_fatalities)
            except ValueError:
                report.reject(line, "unparseable fatalities")
                continue
            if fatalities < 0:
                report.reject(line, "negative fatalities")
                continue
        else:
            fatalities = 0

        events.append(
            EventRecord(
                event_date=when,
                group_id=group,
                latitude=lat,
                longitude=lon,
                country=country,
                admin1=cell["admin1"].strip(),
                event_type=cell["event_type"].strip(),
                fatalities=fatalities,
                source_row=line,
            )
        )
    return events, report


def _normalize(text: str) -> str:
    return text.strip().casefold()


def filter_violent(events, categories=DEFAULT_CATEGORIES):
    """Keep events whose type matches a category, preserving order.

    Matching is case-insensitive on trimmed names. A category reading
    "battle" matches every battle subtype by prefix; all other categories
    match exactly.
    """
    cats = {_normalize(c) for c in categories}
    if not cats:
        raise ValueError("filter_violent needs at least one category")
    battles = any(c in ("battle", "battles") for c in cats)

    def keep(event) -> bool:
        kind = _normalize(event.event_type)
        return kind in cats or (battles and kind.startswith("battle"))

    return [e for e in events if keep(e)]


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
    ids = {}
    mapping = []
    for event in events:
        key = (
            event.country,
            event.admin1,
            round(event.latitude, rounding),
            round(event.longitude, rounding),
        )
        lid = ids.get(key)
        if lid is None:
            lid = len(locations)
            ids[key] = lid
            locations.append(
                Location(
                    id=lid,
                    latitude=event.latitude,
                    longitude=event.longitude,
                    country=event.country,
                    admin_key=event.admin1,
                )
            )
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
        fh.write("country,year,fatalities\n")
        for (country, year), total in sorted(stats.fatalities_by_country_year.items()):
            fh.write(f"{country},{year},{total}\n")
    return [attacks, groups, deaths]
