import tracemalloc
from datetime import date

import numpy as np
import pytest
from scipy import sparse

from conftest import make_event
from oracles import brute_force_sequence
from permap.errors import ConfigError
from permap.sequence import GroupSplitRule, sequence_adjacency, split_groups


def rule(group="G", attribute="latitude", comparator="<", threshold=27.9, suffix="-south"):
    return GroupSplitRule(group, attribute, comparator, threshold, suffix)


class TestGroupSplitRule:
    def test_valid_rule_matches_half_plane(self):
        r = rule()
        assert r.matches(make_event(1, lat=10.0))
        assert not r.matches(make_event(2, lat=27.9))
        assert not r.matches(make_event(3, lat=30.0))

    def test_ge_comparator(self):
        r = rule(comparator=">=")
        assert r.matches(make_event(1, lat=27.9))
        assert not r.matches(make_event(2, lat=27.89))

    def test_longitude_attribute(self):
        r = rule(attribute="longitude", threshold=5.0)
        assert r.matches(make_event(1, lon=4.0))
        assert not r.matches(make_event(2, lon=5.0))

    def test_invalid_fields_rejected(self):
        with pytest.raises(ConfigError, match="attribute"):
            rule(attribute="altitude")
        with pytest.raises(ConfigError, match="comparator"):
            rule(comparator="<=")
        with pytest.raises(ConfigError, match="threshold"):
            rule(threshold=95.0)
        with pytest.raises(ConfigError, match="threshold"):
            rule(attribute="longitude", threshold=-181.0)
        with pytest.raises(ConfigError, match="suffix"):
            rule(suffix="")


class TestSplitGroups:
    def test_rewrites_matching_events_only(self):
        events = [
            make_event(1, group="G", lat=10.0),
            make_event(2, group="G", lat=30.0),
            make_event(3, group="H", lat=10.0),
        ]
        out = split_groups(events, [rule()])
        assert [e.group_id for e in out] == ["G-south", "G", "H"]

    def test_order_and_other_fields_preserved(self):
        events = [make_event(i, group="G", lat=float(i)) for i in range(1, 6)]
        out = split_groups(events, [rule(threshold=3.0)])
        assert [e.source_row for e in out] == [1, 2, 3, 4, 5]
        assert out[0].latitude == 1.0 and out[0].event_date == events[0].event_date

    def test_first_matching_rule_wins(self):
        events = [make_event(1, group="G", lat=5.0)]
        out = split_groups(events, [rule(suffix="-a"), rule(suffix="-b")])
        assert out[0].group_id == "G-a"

    def test_unknown_group_warns(self):
        events = [make_event(1, group="G")]
        with pytest.warns(UserWarning, match="unknown group 'Z'"):
            out = split_groups(events, [rule(group="Z")])
        assert out[0].group_id == "G"

    def test_no_rules_is_identity(self):
        events = [make_event(1), make_event(2)]
        assert list(split_groups(events, [])) == events


def walk_matrix(path, n):
    """The adjacency of one group visiting the locations in `path`, one per event."""
    want = np.zeros((n, n))
    for a, b in zip(path, path[1:]):
        want[a, b] += 1.0
    return want


class TestOrderEvents:
    """sequence_adjacency walks a group's events by date, ties in file order.

    Each event sits at a location of its own, so the adjacency is a path
    that spells out the order the events were walked in.
    """

    def test_sorts_by_date(self):
        events = [
            make_event(1, when=date(2024, 3, 1)),
            make_event(2, when=date(2024, 1, 5)),
            make_event(3, when=date(2024, 2, 10)),
        ]
        got = sequence_adjacency(events, [0, 1, 2], ["G"], 3).values.toarray()
        assert np.array_equal(got, walk_matrix([1, 2, 0], 3))

    def test_date_ties_keep_file_order(self):
        events = [
            make_event(9, when=date(2024, 1, 1)),
            make_event(2, when=date(2024, 1, 1)),
            make_event(5, when=date(2024, 1, 1)),
        ]
        got = sequence_adjacency(events, [0, 1, 2], ["G"], 3).values.toarray()
        assert np.array_equal(got, walk_matrix([1, 2, 0], 3))

    def test_filters_to_named_group(self):
        events = [
            make_event(1, group="G"),
            make_event(2, group="H"),
            make_event(3, group="G"),
            make_event(4, group="H"),
        ]
        got = sequence_adjacency(events, [0, 1, 2, 3], ["H"], 4).values.toarray()
        assert np.array_equal(got, walk_matrix([1, 3], 4))

    def test_matches_independent_sort(self):
        rng = np.random.default_rng(13)
        events = []
        for row in range(1, 41):
            events.append(
                make_event(
                    row,
                    group=f"G{rng.integers(0, 3)}",
                    when=date(2024, 1, int(rng.integers(1, 28))),
                )
            )
        ids = list(range(40))  # the event on line `row` sits at location row - 1
        shuffled = list(events)
        rng.shuffle(shuffled)
        for g in ("G0", "G1", "G2"):
            got = sequence_adjacency(events, ids, [g], 40).values.toarray()
            want = sorted(
                ((e.event_date, e.source_row) for e in shuffled if e.group_id == g),
            )
            assert np.array_equal(got, walk_matrix([row - 1 for _, row in want], 40))


class TestSequenceAdjacency:
    def test_back_and_forth_pair(self):
        events = [
            make_event(1, when=date(2024, 1, 1)),
            make_event(2, when=date(2024, 1, 2)),
            make_event(3, when=date(2024, 1, 3)),
        ]
        a = sequence_adjacency(events, [0, 1, 0], ["G"], 2)
        assert not a.is_symmetric
        assert np.array_equal(a.values.toarray(), [[0.0, 1.0], [1.0, 0.0]])

    def test_repeated_pair_accumulates(self):
        base = date(2024, 1, 1).toordinal()
        events = [
            make_event(row, when=date.fromordinal(base + row - 1)) for row in range(1, 33)
        ]
        ids = [(row + 1) % 2 for row in range(1, 33)]
        a = sequence_adjacency(events, ids, ["G"], 2).values.toarray()
        assert a[0, 1] == 16.0 and a[1, 0] == 15.0

    def test_same_location_pairs_skipped(self):
        events = [make_event(i, when=date(2024, 1, i)) for i in range(1, 4)]
        a = sequence_adjacency(events, [0, 0, 0], ["G"], 1)
        assert np.array_equal(a.values.toarray(), np.zeros((1, 1)))

    def test_two_group_fixture_matches_oracle(self):
        events = [
            make_event(1, group="G", when=date(2024, 1, 1)),
            make_event(2, group="H", when=date(2024, 1, 1)),
            make_event(3, group="G", when=date(2024, 1, 2)),
            make_event(4, group="H", when=date(2024, 1, 3)),
            make_event(5, group="G", when=date(2024, 1, 3)),
            make_event(6, group="H", when=date(2024, 1, 4)),
            make_event(7, group="G", when=date(2024, 1, 5)),
            make_event(8, group="H", when=date(2024, 1, 5)),
            make_event(9, group="G", when=date(2024, 1, 6)),
        ]
        ids = [0, 2, 1, 0, 2, 1, 0, 2, 1]
        got = sequence_adjacency(events, ids, ["G", "H"], 3).values.toarray()
        want = brute_force_sequence(events, ids, ["G", "H"], 3)
        assert np.array_equal(got, want)
        # G walks 0 -> 1 -> 2 -> 0 -> 1, H walks 2 -> 0 -> 1 -> 2
        assert got[0, 1] == 3.0 and got[1, 2] == 2.0 and got[2, 0] == 2.0

    def test_random_logs_match_oracle_with_weight_identity(self):
        rng = np.random.default_rng(101)
        for _ in range(30):
            n_events = int(rng.integers(2, 50))
            n_groups = int(rng.integers(1, 6))
            n_locs = int(rng.integers(2, 8))
            events, ids = [], []
            for row in range(1, n_events + 1):
                events.append(
                    make_event(
                        row,
                        group=f"G{rng.integers(0, n_groups)}",
                        when=date(2024, 1 + int(rng.integers(0, 12)), 1 + int(rng.integers(0, 28))),
                    )
                )
                ids.append(int(rng.integers(0, n_locs)))
            groups = [f"G{i}" for i in range(n_groups)]
            present = {e.group_id for e in events}
            groups = [g for g in groups if g in present]
            got = sequence_adjacency(events, ids, groups, n_locs).values.toarray()
            want = np.array(brute_force_sequence(events, ids, groups, n_locs), dtype=float)
            assert np.array_equal(got, want)
            moves = 0
            for g in groups:
                ordered = sorted(
                    (pair for pair in zip(events, ids) if pair[0].group_id == g),
                    key=lambda pair: (pair[0].event_date, pair[0].source_row),
                )
                moves += sum(1 for (_, a), (_, b) in zip(ordered, ordered[1:]) if a != b)
            assert got.sum() == moves

    def test_input_order_does_not_matter(self):
        rng = np.random.default_rng(7)
        events = [
            make_event(row, when=date(2024, 1, 1 + int(rng.integers(0, 20))))
            for row in range(1, 21)
        ]
        ids = [int(rng.integers(0, 4)) for _ in range(20)]
        a = sequence_adjacency(events, ids, ["G"], 4).values.toarray()
        order = rng.permutation(20)
        shuffled = [events[i] for i in order]
        b = sequence_adjacency(shuffled, [ids[i] for i in order], ["G"], 4).values.toarray()
        assert np.array_equal(a, b)

    def test_a_group_listed_twice_counts_twice(self):
        events = [make_event(i, when=date(2024, 1, i)) for i in range(1, 4)]
        got = sequence_adjacency(events, [0, 1, 0], ["G", "G"], 2).values.toarray()
        assert np.array_equal(got, brute_force_sequence(events, [0, 1, 0], ["G", "G"], 2))
        assert np.array_equal(got, [[0.0, 2.0], [2.0, 0.0]])

    def test_one_location_id_per_event(self):
        events = [make_event(1, when=date(2024, 1, 1)), make_event(7, when=date(2024, 1, 2))]
        for ids in ([0], [0, 1, 1], [[0], [1]]):
            with pytest.raises(ValueError, match="location ids of shape"):
                sequence_adjacency(events, ids, ["G"], 2)

    def test_location_outside_the_range_named_by_line(self):
        events = [make_event(1, when=date(2024, 1, 1)), make_event(7, when=date(2024, 1, 2))]
        # -1 would wrap to the last row of an array, 5 would index past it.
        for ids, line in (([-1, 0], 1), ([0, 5], 7), ([0, 2], 7)):
            message = rf"line {line} has location -?\d, outside \[0, 2\)"
            with pytest.raises(ValueError, match=message):
                sequence_adjacency(events, ids, ["G"], 2)

    def test_ids_keyed_by_line_read_as_aligned_ids(self):
        events = [
            make_event(9, when=date(2024, 1, 3)),
            make_event(2, when=date(2024, 1, 1)),
            make_event(5, when=date(2024, 1, 2)),
        ]
        got = sequence_adjacency(events, {9: 0, 2: 1, 5: 2}, ["G"], 3).values
        want = sequence_adjacency(events, [0, 1, 2], ["G"], 3).values
        assert np.array_equal(got.toarray(), want.toarray())

    def test_missing_location_named_by_line(self):
        events = [make_event(1, when=date(2024, 1, 1)), make_event(7, when=date(2024, 1, 2))]
        with pytest.raises(ValueError, match="line 7"):
            sequence_adjacency(events, {1: 0}, ["G"], 2)

    def test_large_layer_is_canonical_csr_without_a_dense_array(self):
        n = 2000
        base = date(2024, 1, 1).toordinal()
        # G1 moves 0 -> 7 twice, so one stored count is 2.
        sites = [0, 1999, 7, 1999, 0, 0, 7, 42]
        events = [
            make_event(row, group=f"G{row % 2}", when=date.fromordinal(base + row))
            for row in range(1, len(sites) + 1)
        ]
        tracemalloc.start()
        try:
            a = sequence_adjacency(events, sites, ["G0", "G1"], n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A dense n x n float64 array alone would take n * n * 8 = 32 MB.
        assert peak < n * n * 8 / 100
        assert a.values.format == "csr" and a.values.has_canonical_format
        assert a.values.max() == 2.0
        counts = brute_force_sequence(events, sites, ["G0", "G1"], n)
        want = sparse.csr_matrix(np.array(counts, dtype=float))
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(a.values, attr), getattr(want, attr))

    def test_empty_group_selection_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            sequence_adjacency([make_event(1)], [0], [], 1)

    def test_group_without_events_warns(self):
        events = [make_event(1), make_event(2, when=date(2024, 1, 2))]
        with pytest.warns(UserWarning, match="'Z' has no events"):
            a = sequence_adjacency(events, [0, 1], ["G", "Z"], 2)
        assert a.values[0, 1] == 1.0
