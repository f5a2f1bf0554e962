"""Event CSV ingestion: parsing, violence filtering, location deduplication.

Input files are header-first CSVs in the style of public conflict-event
exports. Malformed rows never abort a run: `parse_events` returns them
beside the events, as a list of (line number, reason) tuples. Locations
are deduplicated on a composite key of country, admin district, and
rounded coordinates.

Parsed events are an `EventTable` of integer columns, not one object per
event. Real exports repeat the same actors, sites, event types and
fatality counts, so those columns hold codes into tuples of the distinct
values. The row loop only looks codes up, so each distinct date, cell
text and site is judged once; filtering, location deduplication, group
splits and summaries then work once per distinct value and gather the
columns. Every function here and in `sequence` that reads events takes
the table `parse_events` returns; iterating one gives its events as
`EventRecord`s.
"""

from __future__ import annotations

import csv
import locale
from array import array
from dataclasses import dataclass, fields, replace
from datetime import date, datetime
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .fileio import write_csv

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
    """A deduplicated attack site; its list index is its id in every matrix."""

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


def write_rejections_csv(rejections: list, path) -> None:
    write_csv(path, ["line", "reason"], rejections)


# The month names %B reads while LC_TIME is C, lower-cased.
_MONTHS = {
    name: month
    for month, name in enumerate(
        ("january", "february", "march", "april", "may", "june", "july",
         "august", "september", "october", "november", "december"),
        start=1,
    )
}


def _strptime_ordinal(fmt: str, text: str) -> int | None:
    try:
        return datetime.strptime(text, fmt).toordinal()
    except ValueError:
        return None


def _ordinal(year: int, month: int, day: int) -> int | None:
    try:
        return date(year, month, day).toordinal()
    except ValueError:
        return None


# For ASCII text, strptime reads %Y-%m-%d only as 4, 1-2 and 1-2 digits
# joined by hyphens (a space may pad the day), and %d %B %Y in the C locale
# only as 1-2 digits, a month name in any case and 4 digits split by runs of
# whitespace; then it fails exactly where date() does. So the two readers
# below settle ASCII text themselves and pass `strptime` the rest.


def _read_iso(strptime, text: str) -> int | None:
    if not text.isascii():
        return strptime(text)
    digits = text.replace("-", "")
    if not digits.isdigit():
        # Only a space-padded day can still match.
        return strptime(text) if digits.replace(" ", "").isdigit() else None
    parts = text.split("-")
    if len(parts) != 3 or len(parts[0]) != 4 or not all(0 < len(p) <= 2 for p in parts[1:]):
        return None
    return _ordinal(*map(int, parts))


def _read_day_month_year(strptime, text: str) -> int | None:
    if not text.isascii():
        return strptime(text)
    parts = text.split()
    if len(parts) != 3:
        return None
    day, month, year = parts
    month = _MONTHS.get(month.lower())
    if not (month and day.isdigit() and len(day) <= 2 and year.isdigit() and len(year) == 4):
        return None
    return _ordinal(int(year), month, int(day))


def _date_readers(formats) -> list:
    """One reader per format, in order: text -> its date ordinal, or None.

    Each gives what datetime.strptime(text, fmt).toordinal() gives, None
    where that raises ValueError. %Y-%m-%d, and %d %B %Y while LC_TIME is
    C, read the text they can without strptime.
    """
    c_time = locale.setlocale(locale.LC_TIME) in ("C", "POSIX")
    readers = []
    for fmt in formats:
        strptime = partial(_strptime_ordinal, fmt)
        if fmt == "%Y-%m-%d":
            readers.append(partial(_read_iso, strptime))
        elif fmt == "%d %B %Y" and c_time:
            readers.append(partial(_read_day_month_year, strptime))
        else:
            readers.append(strptime)
    return readers


def _parse_date(text: str, readers) -> int | None:
    """The date ordinal of the first of _date_readers' readers that reads text, or None."""
    text = text.strip()
    for read in readers:
        ordinal = read(text)
        if ordinal is not None:
            return ordinal
    return None


def _number(kind, text: str):
    """kind(text), or None where that fails or text holds a "_" digit separator."""
    try:
        return None if "_" in text else kind(text)
    except ValueError:
        return None


class _Memo(dict):
    """key -> fn(key), each computed at its first lookup and then shared."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class _Codes(dict):
    """value -> its code: the number of distinct values looked up before it."""

    def __missing__(self, key):
        code = self[key] = len(self)
        return code


def _coordinates(cells: tuple):
    """(latitude, longitude) of one row's coordinate cells, or the reason they are rejected."""
    lat, lon = (_number(float, text) for text in cells)
    if lat is None:
        return "unparseable latitude"
    if lon is None:
        return "unparseable longitude"
    if not -90.0 <= lat <= 90.0:
        return "latitude out of range"
    if not -180.0 <= lon <= 180.0:
        return "longitude out of range"
    return lat, lon


def _fatalities(text: str, codes: _Codes):
    """The code of a fatalities cell's count (0 when blank), or the reason it is rejected."""
    text = text.strip()
    value = _number(int, text) if text else 0
    if value is None:
        return "unparseable fatalities"
    return codes[value] if value >= 0 else "negative fatalities"


# One event: its date ordinal, codes into EventTable's value tuples, and
# its physical line. A line past 2**31 - 1 stops the parse with an
# OverflowError instead of wrapping.
ROW = np.dtype([(c, np.int32) for c in ("day", "group", "site", "dead", "kind", "source_row")])


@dataclass(frozen=True, eq=False)
class EventTable:
    """Events as integer columns, as parse_events reads them.

    `rows` holds one ROW per event. Its `group`, `site`, `dead` and `kind`
    columns are codes into `groups`, `sites` ((latitude, longitude,
    country, admin1) tuples), `deaths` (fatality counts) and `kinds`.
    Iteration builds an EventRecord per event from the columns, so records
    holding the same text or coordinate share one object; the benchmark's
    reference reads each event's source_row that way.
    """

    rows: np.ndarray
    groups: tuple
    sites: tuple
    kinds: tuple
    deaths: tuple

    def group_codes(self) -> dict:
        """Name -> code of each group that at least one event holds."""
        return {self.groups[g]: g for g in np.unique(self.rows["group"]).tolist()}

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        for day, group, site, dead, kind, source_row in self.rows.tolist():
            yield EventRecord(
                date.fromordinal(day), self.groups[group], *self.sites[site], self.kinds[kind],
                self.deaths[dead], source_row,
            )


def parse_events(source, column_map: ColumnMap | None = None):
    """Parse a header-first CSV stream into an EventTable and the rows it rejected.

    Returns (events, rejections). Rows that fail to parse, including rows
    the csv module itself cannot read, are skipped; `rejections` lists
    each as a (physical line number, reason) tuple, in file order. A
    missing mapped column in the header is a configuration error
    instead. Each distinct raw date, site (the coordinate, country and
    admin1 cells), actor, event type and fatalities text is judged once
    per call, and the row keeps its code.
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

    rejections = []
    readers = _date_readers(cmap.date_formats)
    texts = _Memo(str.strip)
    coordinates = _Memo(_coordinates)
    groups, kinds, deaths, sites = _Codes(), _Codes(), _Codes(), []

    def site(cells):
        place, country = coordinates[cells[:2]], texts[cells[2]]
        if type(place) is str:
            return place
        if not country:
            return "empty country"
        sites.append((*place, country, texts[cells[3]]))
        return len(sites) - 1

    # Raw cell text -> its code (the ordinal for a date), or why the row is rejected.
    day_of = _Memo(lambda text: _parse_date(text, readers) or "unparseable date")
    group_of = _Memo(lambda text: groups[texts[text]] if texts[text] else "empty group id")
    site_of = _Memo(site)
    dead_of = _Memo(lambda text: _fatalities(text, deaths))
    kind_of = _Memo(lambda text: kinds[texts[text]])
    rows = array("i")
    while True:
        # A row the csv module cannot read (an oversized field, or a NUL
        # byte before Python 3.11) is rejected; reading resumes on the
        # next physical line.
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error:
            rejections.append((reader.line_num, "malformed csv row"))
            continue
        line = reader.line_num
        # The cells joined are whitespace only exactly when every cell is.
        if not "".join(row).strip():
            continue
        if len(row) <= width:
            rejections.append((line, "missing fields"))
            continue
        # In the order the rules are checked; the first reason rejects the row.
        codes = (
            day_of[row[at_date]],
            group_of[row[at_actor]],
            site_of[row[at_lat], row[at_lon], row[at_country], row[at_admin1]],
            dead_of[row[at_dead]],
        )
        for code in codes:
            if type(code) is str:
                rejections.append((line, code))
                break
        else:
            rows.extend((*codes, kind_of[row[at_type]], line))
    events = EventTable(np.frombuffer(rows, dtype=ROW), *map(tuple, (groups, sites, kinds, deaths)))
    return events, rejections


def _normalize(text: str) -> str:
    return text.strip().casefold()


def filter_violent(events: EventTable, categories=DEFAULT_CATEGORIES) -> EventTable:
    """Keep events whose type matches a category, preserving order.

    Matching is case-insensitive on trimmed names. A category reading
    "battle" matches every battle subtype by prefix; all other categories
    match exactly. Each distinct event type is judged once.
    """
    cats = {_normalize(c) for c in categories}
    if not cats:
        raise ValueError("filter_violent needs at least one category")
    battles = any(c in ("battle", "battles") for c in cats)
    kinds = [_normalize(kind) for kind in events.kinds]
    keep = np.array([k in cats or (battles and k.startswith("battle")) for k in kinds], dtype=bool)
    return replace(events, rows=events.rows[keep[events.rows["kind"]]])


def build_locations(events: EventTable, rounding: int = DEFAULT_ROUNDING):
    """Deduplicate events into locations; returns (locations, id per event).

    The key is (country, admin1, coordinates rounded to `rounding`
    places); ids are dense in first-appearance order; each location keeps
    the exact coordinates of its first event. Each distinct site is keyed
    once, in the order its first event appears.
    """
    if not len(events):
        raise ValueError("build_locations needs at least one event")
    if not 0 <= rounding <= 6:
        raise ValueError(f"rounding must be in [0, 6], got {rounding}")
    site = events.rows["site"]
    used, first = np.unique(site, return_index=True)
    location_of_site = np.zeros(len(events.sites), dtype=np.intp)
    locations = []
    ids = {}  # rounded key -> location id
    for s in used[np.argsort(first)].tolist():
        lat, lon, country, admin1 = events.sites[s]
        key = (country, admin1, round(lat, rounding), round(lon, rounding))
        lid = ids.get(key)
        if lid is None:
            lid = ids[key] = len(locations)
            locations.append(Location(lat, lon, country, admin1))
        location_of_site[s] = lid
    return locations, location_of_site.take(site)


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


def summarize(events: EventTable, locations, mapping) -> SummaryStats:
    """Tally per-location and per-country-year statistics.

    Groups count by their stripped names, which a split rule's suffix may pad.
    """
    if len(mapping) != len(events):
        raise ValueError("mapping must assign a location id to every event")
    n = len(locations)
    names = _Codes()
    rows = events.rows
    group = np.array([names[g.strip()] for g in events.groups], dtype=np.intp)[rows["group"]]
    located = np.unique(np.stack([np.asarray(mapping, dtype=np.intp), group]), axis=1)[0]
    # Proleptic Gregorian, as datetime.date: 719163 is 1970-01-01's ordinal.
    year = (rows["day"] - 719163).astype("datetime64[D]").astype("datetime64[Y]").astype(int) + 1970
    keys = np.stack([rows["site"], year, rows["dead"]])
    tallies, counts = np.unique(keys, axis=1, return_counts=True)
    fatalities: dict = {}
    for (site, y, dead), count in zip(tallies.T.tolist(), counts.tolist()):
        key = (events.sites[site][2], y)
        fatalities[key] = fatalities.get(key, 0) + events.deaths[dead] * count
    return SummaryStats(
        attacks_per_location=tuple(np.bincount(mapping, minlength=n).tolist()),
        groups_per_location=tuple(np.bincount(located, minlength=n).tolist()),
        fatalities_by_country_year=fatalities,
        totals=Totals(len(events), len(np.unique(group)), n),
    )


def write_summary_csvs(stats: SummaryStats, outdir) -> list:
    """Write the three summary tables; returns the paths written."""
    attacks = Path(outdir) / "attacks_per_location.csv"
    write_csv(attacks, ["location_id", "attacks"], enumerate(stats.attacks_per_location))
    groups = attacks.with_name("groups_per_location.csv")
    write_csv(groups, ["location_id", "groups"], enumerate(stats.groups_per_location))
    deaths = attacks.with_name("fatalities_by_country_year.csv")
    rows = sorted((*key, total) for key, total in stats.fatalities_by_country_year.items())
    write_csv(deaths, ["country", "year", "fatalities"], rows)
    return [attacks, groups, deaths]
