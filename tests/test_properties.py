"""Randomized properties, driven by hypothesis where shrinking helps."""

import io
import json
import tempfile
import warnings
from dataclasses import replace
from datetime import date
from pathlib import Path

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse

from conftest import event_table, events_csv_text, make_event, make_location
from oracles import (
    INGEST_COLUMNS,
    brute_force_sequence,
    haversine_reference,
    laplacian,
    principal_angle_cos,
    record_split_groups,
    record_summarize,
    reference_ingest,
    strptime_date,
    three_layer_system,
)
from permap import ingest
from permap.cli import main
from permap.config import BORDER_KINDS, BorderModel, RunConfig, config_from_dict, manifest_dict
from permap.geo import (
    EARTH_RADIUS_KM,
    CountryBorderGraph,
    country_farthest,
    distance_matrix,
    invert_distances,
    priced_top,
)
from permap.ingest import (
    DEFAULT_CATEGORIES,
    ColumnMap,
    DEFAULT_DATE_FORMATS,
    EventRecord,
    build_locations,
    filter_violent,
    parse_events,
    summarize,
)
from permap.graphs import (
    GroupBlocks,
    WeightMatrix,
    laplacian_operator,
)
from permap.layers import (
    build_three_layer,
    build_two_layer,
    prepare,
    solve,
    system_operator,
)
from permap.sequence import GroupSplitRule, sequence_adjacency, split_groups
from permap.spectral import embed, fix_signs

finite = {"allow_nan": False, "allow_infinity": False}


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, 4), st.integers(1, 28), st.integers(0, n - 1)),
                min_size=1,
                max_size=50,
            ),
        )
    )
)
def test_sequence_counts_match_brute_force(case):
    n_locations, rows = case
    events = [
        make_event(row, group=f"G{group}", when=date(2024, 1, day))
        for row, (group, day, _) in enumerate(rows, start=1)
    ]
    location_ids = [loc for _, _, loc in rows]
    groups = sorted({e.group_id for e in events})
    table = event_table(*events)
    got = sequence_adjacency(table, location_ids, groups, n_locations).values.toarray()
    want = np.array(brute_force_sequence(events, location_ids, groups, n_locations))
    assert np.array_equal(got, want)
    # each group with k events yields at most k - 1 moves
    assert got.sum() <= len(events) - len(groups)
    assert np.array_equal(np.diag(got), np.zeros(n_locations))


weight_or_zero = st.one_of(st.just(0.0), st.floats(0.25, 10.0, **finite))


@st.composite
def three_layer_inputs(draw):
    """Three layers as the builder takes them, and each as a plain array.

    The border layer is dense or group blocks, the sequence layer CSR;
    every border and distance node has an edge, and the sequence layer
    has at least one.
    """
    n = draw(st.integers(2, 6))
    if draw(st.booleans()):
        groups = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        table = draw(arrays(np.float64, (3, 3), elements=weight_or_zero))
        table = (table + table.T) / 2.0
        border = table[np.ix_(groups, groups)]
        np.fill_diagonal(border, 0.0)
        w_border = WeightMatrix(GroupBlocks(groups, table))
    else:
        border = draw(arrays(np.float64, (n, n), elements=weight_or_zero))
        border = (border + border.T) / 2.0
        w_border = WeightMatrix(border)
    dist = draw(arrays(np.float64, (n, n), elements=weight_or_zero))
    dist = (dist + dist.T) / 2.0
    seq = draw(arrays(np.float64, (n, n), elements=st.integers(0, 4).map(float)))
    assume((border.sum(axis=1) > 0).all() and (dist.sum(axis=1) > 0).all() and seq.any())
    layers = (w_border, WeightMatrix(dist), WeightMatrix(sparse.csr_matrix(seq)))
    return layers, (border, dist, seq)


@settings(max_examples=60, deadline=None)
@given(three_layer_inputs())
def test_three_layer_assembly_matches_the_oracle(case):
    layers, plain = case
    got = build_three_layer(*layers).assembled.values
    want = three_layer_system(*plain)
    assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)
    assert np.array_equal(got, got.T)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2),
    st.integers(2, 6).flatmap(
        lambda n: arrays(np.float64, (n, n), elements=weight_or_zero)
    ),
)
def test_mean_nonzero_normalize_properties(slot, m):
    """Each layer enters the system divided by the mean of its nonzero entries.

    Off its diagonal, a layer's out->in block of the assembled system is a
    quarter of the normalized layer (half a step, then averaged with a zero
    in->out block), so four times it has nonzero mean one and the support
    of the layer as given.
    """
    n = len(m)
    np.fill_diagonal(m, 0.0)
    if slot < 2:
        m = (m + m.T) / 2.0
        assume((m.sum(axis=1) > 0).all())
    else:
        assume(m.any())
    filler = np.ones((n, n)) - np.eye(n)
    plain = [filler, filler, filler]
    plain[slot] = m
    plain[2] = sparse.csr_matrix(plain[2])
    system = build_three_layer(*(WeightMatrix(p) for p in plain))
    dense = system.assembled.values
    out_row, in_col = 2 * slot * n, (2 * slot + 1) * n
    got = 4.0 * dense[out_row : out_row + n, in_col : in_col + n]
    np.fill_diagonal(got, 0.0)
    assert abs(float(got[got != 0].mean()) - 1.0) <= 1e-12
    assert np.array_equal(got != 0, m != 0)


@settings(max_examples=60, deadline=None)
@given(three_layer_inputs())
def test_symmetrize_properties(case):
    """The system is the raw walk averaged with its transpose.

    So it equals its own transpose exactly, averaging it again changes
    nothing, and it keeps the raw walk's total: 3/2 of the normalized
    layers' totals, where a layer divided by its nonzero mean totals its
    nonzero count and the padded sequence layer n times its largest row.
    """
    layers, (border, dist, seq) = case
    got = build_three_layer(*layers).assembled.values
    assert np.array_equal(got, got.T)
    assert np.array_equal((got + got.T) / 2.0, got)
    seq_total = len(seq) * seq.sum(axis=1).max() / seq[seq != 0].mean()
    want = 1.5 * (np.count_nonzero(border) + np.count_nonzero(dist) + seq_total)
    assert abs(got.sum() - want) <= 1e-9 * want


coordinate = st.tuples(
    st.floats(-90.0, 90.0, **finite), st.floats(-180.0, 180.0, **finite)
)


@settings(max_examples=80, deadline=None)
@given(coordinate, coordinate)
def test_haversine_is_a_bounded_symmetric_distance(a, b):
    d = distance_matrix([a, b]).values
    assert 0.0 <= d[0, 1] <= np.pi * EARTH_RADIUS_KM + 1e-9
    assert d[0, 1] == d[1, 0] == distance_matrix([b, a]).values[0, 1]
    reference = haversine_reference(a[0], a[1], b[0], b[1])
    assert abs(d[0, 1] - reference) <= 1e-9 * max(1.0, reference)


@settings(max_examples=80, deadline=None)
@given(coordinate, coordinate, coordinate)
def test_haversine_triangle_inequality(a, b, c):
    slack = 1e-6
    d = distance_matrix([a, b, c]).values
    assert d[0, 2] <= d[0, 1] + d[1, 2] + slack


# Coordinates with the poles and the antimeridian drawn often.
edge_coordinate = st.tuples(
    st.one_of(st.sampled_from([-90.0, 90.0, 0.0]), st.floats(-90.0, 90.0, **finite)),
    st.one_of(st.sampled_from([-180.0, 180.0, 0.0]), st.floats(-180.0, 180.0, **finite)),
)


@st.composite
def priced_sites(draw):
    """Sites drawn from a pool, so some repeat, with country codes, a hop table and a cost.

    Some draws span four of the 64-row blocks distance_matrix computes in.
    """
    pool = draw(st.lists(edge_coordinate, min_size=1, max_size=30))
    n = draw(st.one_of(st.integers(2, 40), st.integers(250, 300)))
    points = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    countries = draw(st.integers(1, 5))
    codes = draw(arrays(np.intp, n, elements=st.integers(0, countries - 1)))
    hops = draw(arrays(np.intp, (countries, countries), elements=st.integers(0, 6)))
    # Crossings are a symmetric table with a zero diagonal.
    hops = np.minimum(hops, hops.T)
    np.fill_diagonal(hops, 0)
    cost = draw(st.one_of(st.just(0.0), st.floats(0.0, 5000.0, **finite)))
    return points, codes, hops, cost


@settings(max_examples=150, deadline=None)
@given(priced_sites())
@example(([(90.0, 180.0), (-90.0, -180.0)], np.array([0, 1]), np.array([[0, 2], [2, 0]]), 50.0))
@example(([(90.0, 0.0), (90.0, 0.0)], np.array([0, 0]), np.array([[0]]), 0.0))
def test_dense_layers_are_exactly_symmetric(case):
    # A dense symmetric layer multiplies through its upper triangle alone,
    # which is the layer only where w == w.T holds exactly.
    points, codes, hops, cost = case
    d = distance_matrix(points)
    assert np.array_equal(d.values, d.values.T)
    if d.values.max() > 0:
        w = invert_distances(d).values
        assert np.array_equal(w, w.T)
    # geo's priced layer is never formed: it multiplies through d, and its
    # scale, read off the country table, is the n x n one bit for bit.
    size = codes.max() + 1
    hops = hops[:size, :size]
    priced = d.values + cost * hops[codes[:, None], codes[None, :]]
    if priced.max() > 0:
        assert priced_top(country_farthest(d, codes), hops, cost) == 1.1 * float(priced.max())


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 8).flatmap(
        lambda n: arrays(np.float64, (n, 2), elements=st.floats(-3.0, 3.0, **finite))
    )
)
def test_fix_signs_is_idempotent_and_leads_positive(vectors):
    out = fix_signs(vectors)
    for j in range(out.shape[1]):
        col = out[:, j]
        if np.abs(col).max() > 0:
            assert col[int(np.argmax(np.abs(col)))] > 0
    assert np.array_equal(fix_signs(out), out)


HEADER = "event_date,actor1,latitude,longitude,country,admin1,event_type,fatalities"

# Without quotes or CR/LF every line is one csv record whose cells are
# line.split(","), so the non-blank lines are known without the csv module.
# NUL stays in: the csv module refuses it before Python 3.11.
line_char = st.characters(blacklist_characters='"\r\n', blacklist_categories=("Cs",))
cell = st.one_of(
    st.sampled_from(
        ["2024-01-05", "05/03/1997", "Group A", "12.5", "-3.25", "91", "-180.5", "nan",
         "1e400", "Mali", "Battle", "4", "-1", "", " ", "\x00"]
    ),
    st.text(alphabet=line_char, max_size=12),
)
data_line = st.one_of(
    st.lists(cell, max_size=10).map(",".join),
    st.text(alphabet=line_char, max_size=60),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(data_line, max_size=20), st.integers(-1, 20))
def test_every_nonblank_row_is_an_event_or_a_rejection(lines, huge_at):
    if 0 <= huge_at <= len(lines):
        # one field past the csv module's 131072-character limit
        lines.insert(huge_at, "2024-01-05," + "9" * 140_000)
    text = HEADER + "\n" + "\n".join(lines) + "\n"
    events, report = parse_events(io.StringIO(text))
    nonblank = [
        number
        for number, line in enumerate(lines, start=2)
        if any(c.strip() for c in line.split(","))
    ]
    seen = [e.source_row for e in events] + [line for line, _ in report.rejections]
    assert sorted(seen) == nonblank


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=300))
def test_no_text_after_a_valid_header_makes_parse_events_raise(body):
    text = HEADER + "\n" + body
    events, report = parse_events(io.StringIO(text))
    physical = len(io.StringIO(text).readlines())
    seen = [e.source_row for e in events] + [line for line, _ in report.rejections]
    assert len(seen) == len(set(seen)) <= physical - 1
    assert all(2 <= number <= physical for number in seen)


# Cell texts per column that reach every parse rule: each rejection
# reason, padded and repeated texts, coordinates that differ only beyond
# the fourth decimal, and event types in mixed case and padding.
INGEST_CELLS = {
    "event_date": ["2024-01-05", " 2024-01-05 ", "05 March 1997", "5 Mar 1997", "05/03/1997",
                   "31/02/2011", "not a date", ""],
    "actor1": ["Group A", " Group B ", '"Militia (Group, A)"', "", "  "],
    "latitude": ["12.5", "12.50001", "12.50004", " 12.49996 ", "-90", "91", "nan", "north"],
    "longitude": ["-3.25", "-3.25004", "-3.2500001", "180", "-180.5", "inf", "east"],
    "country": ["Mali", " Niger ", "", "\t"],
    "admin1": ["Mopti", " Gao ", ""],
    "event_type": ["Battle", "battles", " BATTLE-No change of territory ", "Riots and protests",
                   "  violence AGAINST civilians", "Remote violence", "Strategic development",
                   "Protests", ""],
    "fatalities": ["4", "", " 0 ", "-1", "many", "2.5"],
}
BLANK_LINES = ["", "   ", ",,,,,,,,", " , ,\t,", "\t,"]
# One field past the csv module's 131072-character limit.
UNREADABLE_LINE = "2024-01-05," + "9" * 140_000


@st.composite
def event_csv_texts(draw):
    """Event CSV text with the mapped columns in a drawn order, maybe with a notes column."""
    columns = list(draw(st.permutations(INGEST_COLUMNS)))
    if draw(st.booleans()):
        columns.insert(draw(st.integers(0, len(columns))), "notes")
    cells = {**INGEST_CELLS, "notes": ["", "a note"]}
    kinds = st.lists(st.sampled_from(["full", "full", "short", "blank"]), max_size=25)
    lines = []
    for kind in draw(kinds):
        if kind == "blank":
            lines.append(draw(st.sampled_from(BLANK_LINES)))
            continue
        line = [draw(st.sampled_from(cells[name])) for name in columns]
        if kind == "short":
            line = line[: draw(st.integers(0, len(line) - 1))]
        lines.append(",".join(line))
    if draw(st.integers(0, 9)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), UNREADABLE_LINE)
    return "\n".join([",".join(columns)] + lines) + "\n"


EVERY_REASON = "\n".join(
    [",".join(INGEST_COLUMNS)]
    + [
        "05/03/1997,Group A,12.5,-3.25,Mali,Mopti,Battle,4",
        "2024-01-05,Group A,12.50004,-3.25,Mali,Mopti,battles,",
        "31/02/2011,Group A,12.5,-3.25,Mali,Mopti,Battle,4",
        "2024-01-05,  ,12.5,-3.25,Mali,Mopti,Battle,4",
        "2024-01-05,Group A,north,-3.25,Mali,Mopti,Battle,4",
        "2024-01-05,Group A,12.5,east,Mali,Mopti,Battle,4",
        "2024-01-05,Group A,91,-3.25,Mali,Mopti,Battle,4",
        "2024-01-05,Group A,12.5,-180.5,Mali,Mopti,Battle,4",
        "2024-01-05,Group A,12.5,-3.25, ,Mopti,Battle,4",
        "2024-01-05,Group A,12.5,-3.25,Mali,Mopti,Battle,many",
        "2024-01-05,Group A,12.5,-3.25,Mali,Mopti,Battle,-1",
        "2024-01-05,Group A,12.5",
        UNREADABLE_LINE,
        " , ,\t,",
        ",,,,,,,,",
        "",
        "05/03/1997,Group B,12.49996,-3.2500001,Mali,Mopti,  violence AGAINST civilians,0",
    ]
) + "\n"


@settings(max_examples=150, deadline=None)
@given(
    event_csv_texts(),
    st.sampled_from([DEFAULT_CATEGORIES, ("Battle",), ("remote violence", " PROTESTS ")]),
    st.integers(0, 6),
)
@example(EVERY_REASON, DEFAULT_CATEGORIES, 4)
def test_ingest_matches_the_row_by_row_reference(text, categories, rounding):
    events, report = parse_events(io.StringIO(text))
    kept = filter_violent(events, categories)
    ref_events, ref_rejections, ref_kept, ref_locations, ref_mapping = reference_ingest(
        text, DEFAULT_DATE_FORMATS, categories, rounding
    )
    assert list(events) == ref_events
    assert report.rejections == ref_rejections
    assert list(kept) == ref_kept
    if kept:
        locations, mapping = build_locations(kept, rounding)
        assert [
            (loc.id, loc.latitude, loc.longitude, loc.country, loc.admin_key) for loc in locations
        ] == ref_locations
        assert list(mapping) == ref_mapping


def test_the_every_reason_text_reaches_every_rule():
    _, rejections, kept, locations, _ = reference_ingest(
        EVERY_REASON, DEFAULT_DATE_FORMATS, DEFAULT_CATEGORIES, 4
    )
    assert {reason for _, reason in rejections} == {
        "malformed csv row", "missing fields", "unparseable date", "empty group id",
        "unparseable latitude", "unparseable longitude", "latitude out of range",
        "longitude out of range", "empty country", "unparseable fatalities",
        "negative fatalities",
    }
    assert len(kept) == 3 and len(locations) == 1


MONTH_NAMES = (
    "January", "February", "March", "April", "May", "June", "July",
    "August", "September", "October", "November", "December",
)
# Decimal digits that are not ASCII: Arabic-Indic, fullwidth, Devanagari.
OTHER_DIGITS = ("\u0660", "\uff10", "\u0966")


@st.composite
def date_texts(draw):
    """Dates written as the default formats write them, and near misses of each.

    Fields may be unpadded, padded with a zero or a space, out of range or
    of the wrong width, hold one digit of another script, and be split by
    runs of whitespace; month names come full or short, in any case.
    """

    def rarely():
        return draw(st.integers(0, 5)) == 0

    def number(value, width):
        text = str(value).zfill(draw(st.sampled_from([0, width])) + rarely())
        if rarely():
            text = " " + text
        if rarely():
            i = draw(st.integers(0, len(text) - 1))
            if text[i].isdigit():
                digit = chr(ord(draw(st.sampled_from(OTHER_DIGITS))) + int(text[i]))
                text = text[:i] + digit + text[i + 1 :]
        return text

    year = number(draw(st.integers(0, 10000) if rarely() else st.integers(1000, 9999)), 4)
    month = draw(st.integers(0, 13) if rarely() else st.integers(1, 12))
    day = number(draw(st.integers(0, 32) if rarely() else st.integers(1, 29)), 2)
    name = MONTH_NAMES[month % 12]
    name = draw(st.sampled_from([name, name[:3], name.upper(), name.lower(), name + "x"]))
    gap = draw(st.text(" \t\n\x1c\xa0\u3000-/", min_size=1, max_size=3)) if rarely() else " "
    gap2 = draw(st.sampled_from([gap, " ", "-", "/"]))
    return draw(
        st.sampled_from(
            [
                f"{year}-{number(month, 2)}-{day}",
                f"{day}{gap}{name}{gap2}{year}",
                f"{day}/{number(month, 2)}/{year}",
                f"{year}{gap}{number(month, 2)}{gap2}{day}",
            ]
        )
    )


@settings(max_examples=600, deadline=None)
@given(
    st.one_of(date_texts(), st.text(max_size=20)),
    st.permutations(DEFAULT_DATE_FORMATS).flatmap(
        lambda order: st.integers(1, len(order)).map(lambda k: tuple(order[:k]))
    ),
)
@example("31/02/2011", DEFAULT_DATE_FORMATS)
@example("29 February 2012", DEFAULT_DATE_FORMATS)
@example("29 february 2011", DEFAULT_DATE_FORMATS)
@example("2012-02-29", ("%d %B %Y", "%Y-%m-%d"))
@example("2011-02-29", DEFAULT_DATE_FORMATS)
@example("2011-1-5", DEFAULT_DATE_FORMATS)
@example("2011-01- 5", DEFAULT_DATE_FORMATS)
@example(" 5 \t March\x1c 2011 ", DEFAULT_DATE_FORMATS)
@example("1\u0665 March 2011", DEFAULT_DATE_FORMATS)
@example("05 March \u0662\u0660\u0661\u0661", DEFAULT_DATE_FORMATS)
@example("\uff12\uff10\uff11\uff11-01-05", DEFAULT_DATE_FORMATS)
@example("05 May 2011", ("%d %b %Y", "%d %B %Y"))
@example("0000-01-01", DEFAULT_DATE_FORMATS)
@example("999-01-05", DEFAULT_DATE_FORMATS)
@example("2011-001-05", DEFAULT_DATE_FORMATS)
@example("005 March 2011", DEFAULT_DATE_FORMATS)
@example("05 March 02011", DEFAULT_DATE_FORMATS)
@example("\u0660\u0665 March 2011", DEFAULT_DATE_FORMATS)
def test_date_readers_match_the_strptime_loop(text, formats):
    want = strptime_date(text, formats)
    got = ingest._parse_date(text, ingest._date_readers(formats))
    assert got == (None if want is None else want.toordinal())


# INGEST_CELLS plus quoted cells that span lines, so a row's line number
# is its last physical line; digit separators; and "Group A-south", which
# the first split rule below also writes. CLEAN_CELLS are the ones no rule
# rejects, so clean rows keep enough events to split and sequence.
PIPELINE_CELLS = {
    **INGEST_CELLS,
    "actor1": INGEST_CELLS["actor1"] + ["Group A-south", '"Group\nA"'],
    "latitude": INGEST_CELLS["latitude"] + ["1_2.5", '"12.5\n"'],
    "longitude": INGEST_CELLS["longitude"] + ["-3_0"],
    "admin1": INGEST_CELLS["admin1"] + ['"Mop\nti"'],
    "fatalities": INGEST_CELLS["fatalities"] + ["1_000"],
    "notes": ["", '"a\nlong, note"'],
}
CLEAN_CELLS = {
    "event_date": ["2024-01-05", " 2024-01-05 ", "06 Jan 2024", "05/03/1997", "2024-02-29"],
    "actor1": ["Group A", " Group B ", "Group A-south", '"Group\nA"', "Group A"],
    "latitude": ["12.5", "12.50001", "12.50004", " 12.49996 ", '"12.5\n"'],
    "longitude": ["-3.25", "-3.25004", "-3.2500001", "-3.24"],
    "country": ["Mali", " Niger "],
    "admin1": ["Mopti", " Gao ", "", '"Mop\nti"'],
    "event_type": ["Battle", "battles", " BATTLE-No change of territory ", "Remote violence",
                   "  violence AGAINST civilians", "Protests", "Strategic development"],
    "fatalities": ["4", "", " 0 ", "12"],
    "notes": PIPELINE_CELLS["notes"],
}
SPLIT_RULES = [
    GroupSplitRule("Group A", "latitude", "<", 12.50002, "-south"),
    GroupSplitRule("Group A", "longitude", ">=", -3.25, " east"),
    # Its name strips back to the group's own, which summarize counts once.
    GroupSplitRule("Group B", "latitude", ">=", 12.5, " "),
    GroupSplitRule("Nobody", "latitude", "<", 0.0, "-x"),
]


# The first rule writes "Group A-south" beside the actor of that name, the
# third "Group B " beside "Group B" at one location; quoted cells span
# lines; one fatalities cell holds a digit separator.
SPLIT_EXAMPLE = "\n".join(
    [",".join(INGEST_COLUMNS + ("notes",))]
    + [
        "2024-01-05,Group A,12.5,-3.25,Mali,Mopti,Battle,4,",
        '2024-01-06,Group A-south,12.6,-3.25,Mali,Mopti,Battle,0,"a\nlong, note"',
        "2024-01-05,Group A,12.6,-3.24,Mali,Mopti,Battle,1_000,",
        '06 Jan 2024,"Group\nA",12.50001,-3.25, Niger ,Gao,Remote violence,,',
        "05/03/1997,Group A,12.49996,-3.25004,Mali,Mopti,Battle,2,",
        "2024-01-05, Group B ,12.5,-3.25,Mali,Mopti,Battle,3,",
        "2024-01-08,Group B,12.49996,-3.25,Mali,Mopti,Battle,0,",
        "2024-01-07,Group A,12.6,-3.25,Mali,Mopti,Battle,1,",
    ]
) + "\n"


@st.composite
def pipeline_csv_texts(draw):
    """Event CSV text: clean, full, short, blank and unreadable rows, with a notes column."""
    columns = list(draw(st.permutations(INGEST_COLUMNS)))
    columns.insert(draw(st.integers(0, len(columns))), "notes")
    lines = []
    kinds = ["clean", "clean", "clean", "full", "short", "blank"]
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=4, max_size=30)):
        if kind == "blank":
            lines.append(draw(st.sampled_from(BLANK_LINES)))
            continue
        cells = CLEAN_CELLS if kind == "clean" else PIPELINE_CELLS
        line = [draw(st.sampled_from(cells[name])) for name in columns]
        if kind == "short":
            line = line[: draw(st.integers(0, len(line) - 1))]
        lines.append(",".join(line))
    if draw(st.integers(0, 9)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), UNREADABLE_LINE)
    return "\n".join([",".join(columns)] + lines) + "\n"


def run_warned(fn, *args):
    """fn(*args) and the messages of the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [str(w.message) for w in caught]


@settings(max_examples=150, deadline=None)
@given(
    pipeline_csv_texts(),
    st.sampled_from([DEFAULT_CATEGORIES, ("Battle",), ("remote violence", " PROTESTS ")]),
    st.integers(0, 6),
    st.lists(st.sampled_from(SPLIT_RULES), max_size=3),
)
@example(EVERY_REASON, DEFAULT_CATEGORIES, 4, SPLIT_RULES)
@example(SPLIT_EXAMPLE, DEFAULT_CATEGORIES, 4, SPLIT_RULES)
def test_columnar_pipeline_matches_the_record_oracles(text, categories, rounding, rules):
    events, report = parse_events(io.StringIO(text))
    kept, warned = run_warned(split_groups, filter_violent(events, categories), rules)
    ref_events, ref_rejections, ref_kept, ref_locations, ref_mapping = reference_ingest(
        text, DEFAULT_DATE_FORMATS, categories, rounding
    )
    ref_kept = [EventRecord(*e) for e in ref_kept]
    ref_split, ref_warned = run_warned(record_split_groups, ref_kept, rules)
    assert list(events) == ref_events
    assert report.rejections == ref_rejections
    assert list(kept) == ref_split
    assert warned == ref_warned
    if not ref_split:
        return
    locations, mapping = build_locations(kept, rounding)
    got = [(loc.id, loc.latitude, loc.longitude, loc.country, loc.admin_key) for loc in locations]
    assert got == ref_locations
    assert list(mapping) == ref_mapping
    stats = summarize(kept, locations, mapping)
    got = (stats.attacks_per_location, stats.groups_per_location,
           stats.fatalities_by_country_year, tuple(stats.totals))
    assert got == record_summarize(ref_split, len(ref_locations), ref_mapping)
    n = len(locations)
    groups = sorted({e.group_id for e in ref_split}) + ["Nobody"]
    seq, warned = run_warned(sequence_adjacency, kept, mapping, groups, n)
    ref_seq = brute_force_sequence(ref_split, ref_mapping, groups, n)
    assert np.array_equal(seq.values.toarray(), np.array(ref_seq, dtype=float))
    assert warned == ["selected group 'Nobody' has no events"]


CHAIN = CountryBorderGraph.from_pairs([("A", "B"), ("B", "C")])
# Distinct sites on a 0.1-degree grid, each in one of three chained countries.
sites = st.lists(
    st.tuples(st.integers(0, 80), st.integers(0, 80), st.sampled_from("ABC")),
    min_size=3,
    max_size=12,
    unique_by=lambda site: site[:2],
)


def site_locations(drawn):
    return [
        make_location(i, 5.0 + 0.1 * lat, -4.0 + 0.1 * lon, country, f"d{i}")
        for i, (lat, lon, country) in enumerate(drawn)
    ]


@settings(max_examples=40, deadline=None)
@given(sites)
def test_two_layer_border_layer_at_p_one_is_all_ones(drawn):
    # Every p ** hops is 1, so the border layer is 11^T - I.
    locations = site_locations(drawn)
    n = len(locations)
    prepared = prepare("two_layer", locations, CHAIN)
    lap, _ = system_operator(prepared, 1.0)
    distance, border = lap.layers
    assert isinstance(border.values, GroupBlocks)
    ones = np.ones((n, n)) - np.eye(n)
    # Each product with a unit vector is exact, so this is the layer itself.
    assert np.array_equal(np.column_stack([border @ unit for unit in np.eye(n)]), ones)
    reference = laplacian(build_two_layer(prepared.distances, WeightMatrix(ones)).assembled)
    x = np.cos(np.arange(2 * n) * 0.7)
    assert np.abs(lap @ x - reference @ x).max() <= 1e-13 * np.abs(reference @ x).max()


@settings(max_examples=15, deadline=None)
@given(sites)
def test_zero_linear_cost_writes_the_same_bytes_as_no_borders(drawn):
    # d + 0 * hops is d, so pricing borders at 0 km changes nothing.
    rows = [
        ("2024-01-01", "G", loc.latitude, loc.longitude, loc.country, loc.admin_key,
         "Violence against civilians", 0)
        for loc in site_locations(drawn)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "events.csv").write_text(events_csv_text(rows), encoding="utf-8")
        (root / "borders.csv").write_text("A,B\nB,C\n", encoding="utf-8")
        config = root / "config.json"
        config.write_text(
            json.dumps({"events_csv": "events.csv", "borders_csv": "borders.csv", "k": 2}),
            encoding="utf-8",
        )
        linear = 'border_model={"kind": "linear", "cost_km": 0.0}'
        assert main(["embed", "--config", str(config), "--out", str(root / "none")]) == 0
        argv = ["embed", "--config", str(config), "--out", str(root / "linear")]
        assert main(argv + ["--override", linear]) == 0
        for name in ("embedding.csv", "eigenvalues.csv", "rejections.csv"):
            assert (root / "none" / name).read_bytes() == (root / "linear" / name).read_bytes()


def permuted_runs_agree(run, locations, order, copies):
    """Embed the locations and their reordering; the second must be the first, reordered.

    `run` maps a location list to (Embedding, LaplacianOperator). Points are
    layer-major, so point c * n + i belongs to copy c of location i. The
    start vector does not permute, so each embedding is compared by its
    subspace, not entry by entry, and only where the gap at the cut
    determines that subspace.
    """
    n = len(locations)
    emb, lap = run(locations)
    spectrum = np.linalg.eigvalsh(lap.toarray())
    k = emb.k
    assume(spectrum[k + 1] - spectrum[k] >= 1e-3 * spectrum[k + 1])
    moved, _ = run([locations[i] for i in order])
    points = np.concatenate([c * n + np.asarray(order) for c in range(copies)])
    assert principal_angle_cos(emb.coordinates[points], moved.coordinates) >= 1 - 1e-6
    assert np.abs(moved.eigenvalues - emb.eigenvalues).max() <= 1e-9 * lap.inf_norm


# Distinct sites as above, enough of them for a 2-dimensional embedding.
site_sets = st.lists(
    st.tuples(st.integers(0, 80), st.integers(0, 80), st.sampled_from("ABC")),
    min_size=6,
    max_size=40,
    unique_by=lambda site: site[:2],
)


@settings(max_examples=25, deadline=None)
@given(site_sets.flatmap(lambda drawn: st.tuples(st.just(drawn), st.permutations(range(len(drawn))))))
def test_permuting_locations_permutes_the_geo_embedding(case):
    drawn, order = case

    def run(locations):
        w = invert_distances(distance_matrix(locations))
        return embed(w, 2), laplacian_operator(w)

    permuted_runs_agree(run, site_locations(drawn), order, copies=1)


@settings(max_examples=25, deadline=None)
@given(
    site_sets.flatmap(lambda drawn: st.tuples(st.just(drawn), st.permutations(range(len(drawn))))),
    st.sampled_from([1.0, 0.9, 0.5]),
)
def test_permuting_locations_permutes_the_two_layer_embedding(case, p):
    drawn, order = case

    def run(locations):
        prepared = prepare("two_layer", locations, CHAIN)
        emb, _ = solve(prepared, p, 2)
        return emb, system_operator(prepared, p)[0]

    permuted_runs_agree(run, site_locations(drawn), order, copies=2)


names = st.text(alphabet="abcAB _-", min_size=1, max_size=6)
# Relative or absolute paths that the Path() in config_from_dict leaves as they are.
paths = st.builds(
    lambda root, parts: root + "/".join(parts),
    st.sampled_from(["", "/"]),
    st.lists(st.text("abc_", min_size=1, max_size=4), min_size=1, max_size=3),
)


def int_or_float(lo, hi):
    return st.integers(lo, hi) | st.floats(lo, hi, **finite)


def split_rules(attribute, bound):
    return st.builds(
        GroupSplitRule,
        group_id=names,
        attribute=st.just(attribute),
        comparator=st.sampled_from(["<", ">="]),
        threshold=int_or_float(-bound, bound),
        virtual_suffix=names,
    )


@st.composite
def run_configs(draw):
    pipeline = draw(st.sampled_from(sorted(BORDER_KINDS)))
    kind = draw(st.sampled_from(BORDER_KINDS[pipeline]))
    if kind == "linear":
        model = BorderModel(kind, cost_km=draw(int_or_float(0, 10**6)))
    elif kind == "permeability":
        model = BorderModel(kind, p=draw(st.just(1) | st.floats(0, 1, exclude_min=True)))
    else:
        model = BorderModel(kind)
    sweep = st.lists(int_or_float(-(10**9), 10**9), max_size=4)
    rule = split_rules("latitude", 90) | split_rules("longitude", 180)
    return RunConfig(
        events_csv=draw(paths),
        pipeline=pipeline,
        border_model=model,
        borders_csv=draw(st.none() | paths),
        column_map=ColumnMap(actor=draw(names), date_formats=tuple(draw(st.lists(names, min_size=1)))),
        categories=draw(st.lists(names, min_size=1, max_size=3)),
        rounding=draw(st.integers(0, 6)),
        k=draw(st.integers(1, 3)),
        # A group listed twice is refused, so each is drawn once.
        groups=draw(
            st.lists(names, min_size=int(pipeline == "three_layer"), max_size=3, unique=True)
        ),
        split_rules=draw(st.lists(rule, max_size=2)),
        sweep_costs_km=draw(sweep),
        sweep_probabilities=draw(sweep),
        output_dir=draw(st.none() | paths),
    )


@settings(max_examples=200, deadline=None)
@given(run_configs())
def test_a_manifest_replays_its_config(cfg):
    doc = json.loads(json.dumps(manifest_dict(cfg, "embed")))
    # The manifest leaves output_dir to the replay, and keeps every other field.
    assert config_from_dict(doc) == replace(cfg, output_dir=None)
    written = doc["sweep_costs_km"] + doc["sweep_probabilities"]
    written += [rule["threshold"] for rule in doc["split_rules"]]
    assert all(type(v) is float for v in written)
