import io
import locale
import tracemalloc
from datetime import date
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import benchmark_workloads, event_table, events_csv_text, make_event
from permap import ingest
from permap.errors import ConfigError
from permap.ingest import (
    ColumnMap,
    build_locations,
    filter_violent,
    parse_events,
    summarize,
    write_rejections_csv,
    write_summary_csvs,
)

ROW = ("2024-01-05", "Group A", "12.5", "-3.25", "Mali", "Mopti", "Battle", "4")


def parse(rows, column_map=None):
    return parse_events(io.StringIO(events_csv_text(rows)), column_map)


class TestParseEvents:
    def test_single_row(self):
        events, rejections = parse([ROW])
        assert len(rejections) == 0
        (e,) = events
        assert e.event_date == date(2024, 1, 5)
        assert e.group_id == "Group A"
        assert e.latitude == 12.5 and e.longitude == -3.25
        assert e.country == "Mali" and e.admin1 == "Mopti"
        assert e.event_type == "Battle" and e.fatalities == 4
        assert e.source_row == 2

    def test_repeated_cells_share_one_object(self):
        padded = ("2024-01-05", " Group A ", "12.5", "-3.25", "Mali ", "Mopti", "Battle", "4")
        bad = ("2024-01-05", "Group A", "12.5", "x", "Mali", "Mopti", "Battle", "4")
        events, rejections = parse([ROW, padded, ROW, bad, bad])
        first, second, third = events
        assert first.group_id is third.group_id and first.country is third.country
        assert first.latitude is third.latitude and first.longitude is third.longitude
        assert (second.group_id, second.country) == ("Group A", "Mali")
        assert rejections == [(5, "unparseable longitude"), (6, "unparseable longitude")]

    def test_alternate_date_formats(self):
        rows = [
            ("01 January 1997",) + ROW[1:],
            ("01 Jan 1997",) + ROW[1:],
            ("05/03/1997",) + ROW[1:],
        ]
        events, rejections = parse(rows)
        assert len(rejections) == 0
        assert [e.event_date for e in events] == [
            date(1997, 1, 1),
            date(1997, 1, 1),
            date(1997, 3, 5),
        ]

    def test_month_names_go_to_strptime_outside_the_c_locale(self, monkeypatch):
        # Elsewhere %B reads the locale's month names, which only strptime knows.
        formats = ingest.DEFAULT_DATE_FORMATS
        readers = ingest._date_readers(formats)
        assert readers[1].func is ingest._read_day_month_year
        monkeypatch.setattr(locale, "setlocale", lambda category, value=None: "fr_FR.UTF-8")
        readers = ingest._date_readers(formats)
        assert readers[0].func is ingest._read_iso
        assert [r.args for r in readers[1:]] == [(fmt,) for fmt in formats[1:]]
        assert ingest._parse_date("05 March 2011", readers) == date(2011, 3, 5).toordinal()

    def test_each_rejection_reason(self):
        rows = [
            ("not a date",) + ROW[1:],
            ("2024-01-05", "  ") + ROW[2:],
            ROW[:2] + ("twelve",) + ROW[3:],
            ROW[:3] + ("east",) + ROW[4:],
            ROW[:2] + ("91.0",) + ROW[3:],
            ROW[:3] + ("-180.5",) + ROW[4:],
            ROW[:4] + ("",) + ROW[5:],
            ROW[:7] + ("many",),
            ROW[:7] + ("-1",),
        ]
        events, rejections = parse(rows)
        assert list(events) == []
        assert rejections == [
            (2, "unparseable date"),
            (3, "empty group id"),
            (4, "unparseable latitude"),
            (5, "unparseable longitude"),
            (6, "latitude out of range"),
            (7, "longitude out of range"),
            (8, "empty country"),
            (9, "unparseable fatalities"),
            (10, "negative fatalities"),
        ]

    def test_digit_separators_rejected(self):
        # float and int read "3_0" as 30; no export writes a number that way.
        rows = [
            ROW[:2] + ("1_2.5",) + ROW[3:],
            ROW[:3] + ("-3_0",) + ROW[4:],
            ROW[:7] + ("1_000",),
            ROW[:7] + (" 4_ ",),
            ROW,
        ]
        events, rejections = parse(rows)
        assert [e.source_row for e in events] == [6]
        assert rejections == [
            (2, "unparseable latitude"),
            (3, "unparseable longitude"),
            (4, "unparseable fatalities"),
            (5, "unparseable fatalities"),
        ]

    def test_short_row_rejected_blank_row_skipped(self):
        text = events_csv_text([ROW]) + "\n2024-01-06,Group B\n" + events_csv_text([ROW])[
            len(events_csv_text([])) :
        ]
        events, rejections = parse_events(io.StringIO(text))
        assert len(events) == 2
        assert rejections == [(4, "missing fields")]

    def test_whitespace_and_comma_only_rows_skipped(self):
        header = events_csv_text([])
        row = ",".join(ROW) + "\n"
        text = header + " , ,\t,\n" + row + ",,,,,,,,\n\t\n" + row
        events, rejections = parse_events(io.StringIO(text))
        assert [e.source_row for e in events] == [3, 6]
        assert rejections == []

    def test_unreadable_csv_row_rejected_and_parsing_continues(self):
        # A field over the csv module's 131072-character limit makes the
        # reader raise for that line; the rows around it still parse.
        huge = ROW[:7] + ("9" * 200_000,)
        events, rejections = parse([ROW, huge, ROW])
        assert [e.source_row for e in events] == [2, 4]
        assert rejections == [(3, "malformed csv row")]

    def test_good_rows_survive_bad_neighbors(self):
        rows = []
        for i in range(10):
            if i in (3, 7):
                rows.append(("bad date",) + ROW[1:])
            else:
                rows.append((f"2024-01-{i + 1:02d}",) + ROW[1:])
        events, rejections = parse(rows)
        assert len(events) == 8
        assert len(rejections) == 2
        assert [line for line, _ in rejections] == [5, 9]

    def test_repeated_unparseable_date_rejected_on_every_row(self):
        rows = [("bad date",) + ROW[1:], ROW, ("bad date",) + ROW[1:], ("bad date",) + ROW[1:]]
        events, rejections = parse(rows)
        assert [e.source_row for e in events] == [3]
        assert rejections == [(line, "unparseable date") for line in (2, 4, 5)]

    def test_each_distinct_date_text_parsed_once(self, monkeypatch):
        seen = []
        real = ingest._parse_date

        def counting(text, formats):
            seen.append(text)
            return real(text, formats)

        monkeypatch.setattr(ingest, "_parse_date", counting)
        texts = ["2024-01-05", "01 January 1997", "2024-01-05", "bad", "01 January 1997", "bad"]
        events, rejections = parse([(text,) + ROW[1:] for text in texts])
        assert sorted(seen) == sorted(set(texts))
        assert [e.event_date for e in events] == [
            date(2024, 1, 5),
            date(1997, 1, 1),
            date(2024, 1, 5),
            date(1997, 1, 1),
        ]
        assert rejections == [(5, "unparseable date"), (7, "unparseable date")]

    def test_blank_fatalities_default_to_zero(self):
        events, rejections = parse([ROW[:7] + ("",)])
        assert len(rejections) == 0
        assert [e.fatalities for e in events] == [0]

    def test_non_finite_coordinates_rejected(self):
        events, rejections = parse([ROW[:2] + ("nan",) + ROW[3:], ROW[:3] + ("inf",) + ROW[4:]])
        assert list(events) == []
        assert [r for _, r in rejections] == [
            "latitude out of range",
            "longitude out of range",
        ]

    def test_headers_case_insensitive(self):
        text = events_csv_text([ROW]).replace(
            "event_date,actor1", "Event_Date, ACTOR1", 1
        )
        events, rejections = parse_events(io.StringIO(text))
        assert len(events) == 1 and len(rejections) == 0

    def test_custom_column_map(self):
        text = "DATE,WHO,LAT,LON,CTRY,ADM,KIND,DEAD\n" + ",".join(ROW) + "\n"
        cmap = ColumnMap(
            event_date="date",
            actor="who",
            latitude="lat",
            longitude="lon",
            country="ctry",
            admin1="adm",
            event_type="kind",
            fatalities="dead",
        )
        events, _ = parse_events(io.StringIO(text), cmap)
        assert [e.group_id for e in events] == ["Group A"]

    def test_missing_columns_listed(self):
        text = "event_date,actor1,latitude,longitude\n"
        with pytest.raises(ConfigError, match=r"missing from header.*country"):
            parse_events(io.StringIO(text))

    def test_empty_file_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            parse_events(io.StringIO(""))

    def test_quoted_fields_with_commas(self):
        text = events_csv_text([]) + '2024-01-05,"Militia (Group, A)",12.5,-3.25,Mali,Mopti,Battle,0\n'
        events, rejections = parse_events(io.StringIO(text))
        assert len(rejections) == 0
        assert [e.group_id for e in events] == ["Militia (Group, A)"]

    def test_extra_columns_ignored(self):
        text = (
            "event_date,actor1,latitude,longitude,country,admin1,event_type,fatalities,notes\n"
            + ",".join(ROW)
            + ",some note\n"
        )
        events, _ = parse_events(io.StringIO(text))
        assert len(events) == 1


class TestFilterViolent:
    def test_default_categories(self):
        kinds = [
            "Battle",
            "Riots and protests",
            "Violence against civilians",
            "Remote violence",
            "Strategic development",
            "Non-violent transfer of territory",
        ]
        events = [make_event(i + 1, kind=k) for i, k in enumerate(kinds)]
        kept = filter_violent(event_table(*events))
        assert [e.source_row for e in kept] == [1, 2, 3, 4]

    def test_battle_prefix_subtypes(self):
        events = [
            make_event(1, kind="Battle-No change of territory"),
            make_event(2, kind="Battle (government regains territory)"),
            make_event(3, kind="Battles"),
        ]
        assert len(filter_violent(event_table(*events))) == 3

    def test_case_and_whitespace_insensitive(self):
        events = [make_event(1, kind="  VIOLENCE AGAINST CIVILIANS ")]
        assert len(filter_violent(event_table(*events))) == 1

    def test_custom_categories_exact_match(self):
        events = [make_event(1, kind="Remote violence"), make_event(2, kind="Battle")]
        kept = filter_violent(event_table(*events), categories=("Remote violence",))
        assert [e.source_row for e in kept] == [1]

    def test_non_battle_categories_never_prefix_match(self):
        events = [make_event(1, kind="Remote violence against convoys")]
        assert list(filter_violent(event_table(*events), categories=("Remote violence",))) == []

    def test_empty_categories_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            filter_violent(event_table(), categories=())


class TestBuildLocations:
    def test_identical_events_collapse(self):
        events = [make_event(i) for i in range(1, 4)]
        locations, mapping = build_locations(event_table(*events))
        assert len(locations) == 1
        assert list(mapping) == [0, 0, 0]

    def test_fifth_decimal_collapses_at_default_rounding(self):
        events = [
            make_event(1, lat=12.00001, lon=3.0),
            make_event(2, lat=12.00004, lon=3.0),
            make_event(3, lat=12.1, lon=3.0),
        ]
        locations, mapping = build_locations(event_table(*events))
        assert len(locations) == 2
        assert list(mapping) == [0, 0, 1]
        # the first event's exact coordinates are kept
        assert locations[0].latitude == 12.00001

    def test_admin_and_country_split_same_coordinates(self):
        events = [
            make_event(1, country="Mali", admin="Mopti"),
            make_event(2, country="Mali", admin="Gao"),
            make_event(3, country="Niger", admin="Mopti"),
        ]
        locations, mapping = build_locations(event_table(*events))
        assert len(locations) == 3
        assert list(mapping) == [0, 1, 2]

    def test_seven_events_three_districts(self):
        events = [
            make_event(1, admin="d0"),
            make_event(2, admin="d1", lat=2.0),
            make_event(3, admin="d0"),
            make_event(4, admin="d2", lat=3.0),
            make_event(5, admin="d0"),
            make_event(6, admin="d1", lat=2.0),
            make_event(7, admin="d2", lat=3.0),
        ]
        locations, mapping = build_locations(event_table(*events))
        assert len(locations) == 3
        assert list(mapping) == [0, 1, 0, 2, 0, 1, 2]

    def test_rounding_bounds(self):
        with pytest.raises(ValueError, match="rounding"):
            build_locations(event_table(make_event(1)), rounding=7)
        with pytest.raises(ValueError, match="rounding"):
            build_locations(event_table(make_event(1)), rounding=-1)

    def test_coarser_rounding_merges_more(self):
        events = [make_event(1, lat=12.01), make_event(2, lat=12.02)]
        fine, _ = build_locations(event_table(*events), rounding=4)
        coarse, _ = build_locations(event_table(*events), rounding=1)
        assert len(fine) == 2 and len(coarse) == 1

    def test_no_events_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            build_locations(event_table())


@pytest.fixture(scope="module")
def geo_sweep_input(tmp_path_factory):
    """The seed-101 `geo_sweep` benchmark input: 100k rows over 1500 locations."""
    workloads = benchmark_workloads()
    root = tmp_path_factory.mktemp("geo_sweep")
    return workloads.generate(workloads.WORKLOADS["geo_sweep"], 101, 0, root)


def test_counts_on_the_geo_sweep_benchmark_input(geo_sweep_input):
    """The seed-101 `geo_sweep` input ingests to the counts its generator wrote."""
    gen = geo_sweep_input
    want = gen.properties
    with open(gen.config_json.parent / "events.csv", newline="", encoding="utf-8") as fh:
        events, rejections = parse_events(fh)
    assert len(events) + len(rejections) == want["rows"] == 100_000
    assert len(rejections) == want["rows_malformed"] == 1000
    violent = filter_violent(events)
    assert len(violent) == want["rows_violent"] == 89_000
    locations, mapping = build_locations(violent)
    assert len(locations) == want["locations"] == 1500
    assert len(mapping) == len(violent)



@pytest.fixture(scope="module")
def traced_ingest(geo_sweep_input):
    """One ingest of the 100k-row input under tracemalloc, as the CLI runs it.

    `parse_peak` is the traced peak once parse_events returns, and
    `ingest_peak` the peak once filter_violent and build_locations have
    run too. The parsed table is kept alive for the first test, though
    the CLI drops it once filtered; that can only raise the second peak.
    """
    events_csv = geo_sweep_input.config_json.parent / "events.csv"
    with open(events_csv, newline="", encoding="utf-8") as fh:
        tracemalloc.start()
        try:
            events, _ = parse_events(fh)
            _, parse_peak = tracemalloc.get_traced_memory()
            violent = filter_violent(events)
            locations, mapping = build_locations(violent)
            _, ingest_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    sizes = (len(violent), len(locations), len(mapping))
    return SimpleNamespace(
        events=events, parse_peak=parse_peak, sizes=sizes, ingest_peak=ingest_peak
    )


def test_geo_sweep_input_records_share_their_cells(traced_ingest):
    """Each distinct cell text is held once, so the 99k records parse within 24 MB.

    Records holding their own copy of every text and float took 47 MB.
    """
    events = traced_ingest.events
    assert len(events) == 99_000
    assert traced_ingest.parse_peak < 24e6
    texts, sites = {}, {}
    for e in events:
        for text in (e.group_id, e.country, e.admin1, e.event_type):
            assert texts.setdefault(text, text) is text
        first = sites.setdefault((e.latitude, e.longitude), e)
        assert first.latitude is e.latitude and first.longitude is e.longitude
    assert len(sites) == 1500


def test_geo_sweep_input_ingests_within_8_mb(traced_ingest):
    """Parse, filter and location dedup of the 100k-row input peak below 8 MB.

    Events held as one record each peaked at 17.9 MB here.
    """
    assert traced_ingest.sizes == (89_000, 1500, 89_000)
    assert traced_ingest.ingest_peak < 8e6


class TestSummarize:
    def test_single_event(self):
        events = [make_event(1, fatalities=3)]
        locations, mapping = build_locations(event_table(*events))
        stats = summarize(event_table(*events), locations, mapping)
        assert stats.totals == (1, 1, 1)
        assert stats.attacks_per_location == (1,)
        assert stats.groups_per_location == (1,)
        assert stats.fatalities_by_country_year == {("A", 2024): 3}

    def test_seven_event_fixture(self):
        events = [
            make_event(1, group="G", admin="d0"),
            make_event(2, group="G", admin="d1", lat=2.0),
            make_event(3, group="H", admin="d0"),
            make_event(4, group="G", admin="d2", lat=3.0),
            make_event(5, group="H", admin="d0"),
            make_event(6, group="H", admin="d1", lat=2.0),
            make_event(7, group="G", admin="d2", lat=3.0),
        ]
        locations, mapping = build_locations(event_table(*events))
        stats = summarize(event_table(*events), locations, mapping)
        assert stats.totals == (7, 2, 3)
        assert stats.attacks_per_location == (3, 2, 2)
        assert stats.groups_per_location == (2, 2, 1)

    def test_groups_never_exceed_attacks(self):
        rng = np.random.default_rng(23)
        events = [
            make_event(
                row,
                group=f"G{rng.integers(0, 4)}",
                lat=float(rng.integers(0, 3)),
                fatalities=int(rng.integers(0, 5)),
            )
            for row in range(1, 61)
        ]
        locations, mapping = build_locations(event_table(*events))
        stats = summarize(event_table(*events), locations, mapping)
        assert sum(stats.attacks_per_location) == len(events)
        for attacks, groups in zip(stats.attacks_per_location, stats.groups_per_location):
            assert 1 <= groups <= attacks
        assert sum(stats.fatalities_by_country_year.values()) == sum(
            e.fatalities for e in events
        )

    def test_fatalities_keyed_by_country_and_year(self):
        events = [
            make_event(1, country="Mali", when=date(2023, 5, 1), fatalities=2),
            make_event(2, country="Mali", when=date(2024, 5, 1), fatalities=3),
            make_event(3, country="Niger", when=date(2024, 5, 1), fatalities=5),
        ]
        locations, mapping = build_locations(event_table(*events))
        stats = summarize(event_table(*events), locations, mapping)
        assert stats.fatalities_by_country_year == {
            ("Mali", 2023): 2,
            ("Mali", 2024): 3,
            ("Niger", 2024): 5,
        }

    def test_mapping_length_checked(self):
        events = [make_event(1)]
        locations, _ = build_locations(event_table(*events))
        with pytest.raises(ValueError, match="mapping"):
            summarize(event_table(*events), locations, [])


class TestCsvWriters:
    def test_rejections_csv(self, tmp_path):
        path = tmp_path / "rejections.csv"
        write_rejections_csv([(4, "unparseable date"), (9, "empty country")], path)
        assert path.read_text().splitlines() == [
            "line,reason",
            "4,unparseable date",
            "9,empty country",
        ]

    def test_summary_csvs(self, tmp_path):
        events = [
            make_event(1, country="Mali", fatalities=2),
            make_event(2, country="Mali", lat=2.0, admin="d1", fatalities=1),
        ]
        locations, mapping = build_locations(event_table(*events))
        stats = summarize(event_table(*events), locations, mapping)
        paths = write_summary_csvs(stats, tmp_path)
        assert [p.name for p in paths] == [
            "attacks_per_location.csv",
            "groups_per_location.csv",
            "fatalities_by_country_year.csv",
        ]
        assert (tmp_path / "attacks_per_location.csv").read_text().splitlines() == [
            "location_id,attacks",
            "0,1",
            "1,1",
        ]
        assert (tmp_path / "fatalities_by_country_year.csv").read_text().splitlines() == [
            "country,year,fatalities",
            "Mali,2024,3",
        ]
