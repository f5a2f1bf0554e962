import re
import tracemalloc

import numpy as np
import pytest

from conftest import make_location
from oracles import bfs_crossings, haversine_matrix, haversine_reference
from permap import geo
from permap.errors import ConfigError, DisconnectedGraphError
from permap.geo import (
    EARTH_RADIUS_KM,
    CountryBorderGraph,
    border_permeability_matrix,
    country_crossings,
    closeness_matrix,
    country_farthest,
    crossings_matrix,
    distance_matrix,
    invert_distances,
    linear_border_distances,
    load_reference_borders,
    priced_top,
)

# High-precision references computed once with 50-digit arithmetic and frozen.
ALGIERS = (36.7525, 3.0420)
NIAMEY = (13.5116, 2.1254)
ALGIERS_NIAMEY_KM = 2585.8792100064217
QUARTER_EQUATOR_KM = 10007.543398010286
ONE_DEGREE_EQUATOR_KM = 111.19492664455873
TWO_DEGREE_EQUATOR_KM = 222.38985328911747
ANTIPODAL_KM = 20015.086796020572


def km(a, b):
    """Great-circle distance between two points, read off distance_matrix."""
    return distance_matrix([a, b]).values[0, 1]


def fewest_crossings(cg, a, b):
    return int(crossings_matrix([a, b], cg)[0, 1])


def shipped_and_64_row_blocks(monkeypatch, n):
    """Run the loop body at the shipped _BLOCK_BYTES, then with 64-row blocks.

    Shipped blocks hold every n up to _BLOCK_BYTES / 512 in one block, so
    the second pass is the one that puts n around a block edge.
    """
    for budget in (geo._BLOCK_BYTES, 8 * 64 * n):
        with monkeypatch.context() as patch:
            patch.setattr(geo, "_BLOCK_BYTES", budget)
            yield geo._block_rows(n)


class TestHaversine:
    def test_frozen_reference_values(self):
        assert km(ALGIERS, NIAMEY) == pytest.approx(ALGIERS_NIAMEY_KM, rel=1e-12)
        assert km((0, 0), (0, 90)) == pytest.approx(QUARTER_EQUATOR_KM, rel=1e-12)
        assert km((0, 0), (0, 1)) == pytest.approx(ONE_DEGREE_EQUATOR_KM, rel=1e-12)
        assert km((0, 0), (0, 2)) == pytest.approx(TWO_DEGREE_EQUATOR_KM, rel=1e-12)
        assert km((0, 0), (0, 180)) == pytest.approx(ANTIPODAL_KM, rel=1e-12)
        assert km((0, 0), (0, 180)) == pytest.approx(np.pi * EARTH_RADIUS_KM, rel=1e-12)

    def test_matches_independent_formula_on_random_points(self):
        rng = np.random.default_rng(17)
        points = list(zip(rng.uniform(-89, 89, 120), rng.uniform(-179, 179, 120)))
        d = distance_matrix(points).values
        for i, (lat1, lon1) in enumerate(points):
            for j, (lat2, lon2) in enumerate(points):
                want = haversine_reference(lat1, lon1, lat2, lon2)
                assert d[i, j] == pytest.approx(want, rel=1e-12, abs=1e-9)

    def test_zero_for_identical_points_and_symmetric(self):
        assert km((12.5, -3.25), (12.5, -3.25)) == 0.0
        assert km(ALGIERS, NIAMEY) == km(NIAMEY, ALGIERS)

    def test_accepts_objects_with_latitude_attribute(self):
        a = make_location(0.0, 0.0)
        b = make_location(0.0, 1.0)
        assert km(a, b) == pytest.approx(ONE_DEGREE_EQUATOR_KM, rel=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="latitude"):
            km((91.0, 0.0), (0.0, 0.0))
        with pytest.raises(ValueError, match="longitude"):
            km((0.0, 0.0), (0.0, -180.5))


class TestDistanceMatrix:
    def test_matches_pairwise_scalar_calls(self, twelve_locations):
        d = distance_matrix(twelve_locations).values
        n = len(twelve_locations)
        for i, a in enumerate(twelve_locations):
            for j, b in enumerate(twelve_locations):
                want = haversine_reference(a.latitude, a.longitude, b.latitude, b.longitude)
                assert d[i, j] == pytest.approx(want, rel=1e-12, abs=1e-9)
        assert np.array_equal(d, d.T)

    def test_row_blocks_bit_equal_to_whole_matrix_formula(self, monkeypatch, twelve_locations):
        # Only the tiles on and above the diagonal are computed; the rest are
        # their transposes. Each n runs at the shipped block size and at 64
        # rows per block. With 64 rows, 63 and 64 fill one block, 65 and 129
        # leave a one-row block, and 120, 600 and 700 are not multiples of
        # it; 255, 256 and 257 sit around four blocks.
        rng = np.random.default_rng(18)
        cases = [[(loc.latitude, loc.longitude) for loc in twelve_locations]]
        for n in (2, 63, 64, 65, 120, 129, 255, 256, 257, 600, 700):
            cases.append(list(zip(rng.uniform(-89, 89, n), rng.uniform(-179, 179, n))))
        for points in cases:
            for rows in shipped_and_64_row_blocks(monkeypatch, len(points)):
                d = distance_matrix(points).values
                assert np.array_equal(d, haversine_matrix(points)), rows
                for i, j in zip(rng.integers(0, len(points), 50), rng.integers(0, len(points), 50)):
                    want = haversine_reference(*points[i], *points[j])
                    assert d[i, j] == pytest.approx(want, rel=1e-12, abs=1e-9)
                assert np.array_equal(np.diag(d), np.zeros(len(points)))

    @pytest.mark.parametrize("rows", [1, 2, 3, 7])
    def test_any_block_of_rows_is_bit_equal(self, monkeypatch, rows):
        # Blocks are sized in bytes, so the rows per block depend on n; a
        # smaller budget puts these small n on the row counts a large n gets.
        rng = np.random.default_rng(21)
        for n in (2, 5, 13, 64):
            monkeypatch.setattr(geo, "_BLOCK_BYTES", 8 * n * rows)
            assert geo._block_rows(n) == rows
            points = list(zip(rng.uniform(-89, 89, n), rng.uniform(-179, 179, n)))
            d = distance_matrix(points)
            assert np.array_equal(d.values, haversine_matrix(points))
            codes = rng.integers(0, 3, n)
            want = farthest_oracle(d.values, codes, int(codes.max()) + 1)
            assert np.array_equal(country_farthest(d, codes), want)

    def test_needs_two_locations(self):
        with pytest.raises(ValueError, match="at least 2"):
            distance_matrix([(0.0, 0.0)])

    def test_bounds_checked(self):
        with pytest.raises(ValueError, match="longitude"):
            distance_matrix([(0.0, 0.0), (0.0, 181.0)])


class TestInvertDistances:
    def test_three_point_example(self):
        d = distance_matrix([(0, 0), (0, 1), (0, 3)])
        w = invert_distances(d).values
        top = 3 * ONE_DEGREE_EQUATOR_KM
        assert w[0, 1] == pytest.approx(1.1 * top - ONE_DEGREE_EQUATOR_KM, rel=1e-12)
        assert w[0, 2] == pytest.approx(0.1 * top, rel=1e-9)
        assert np.array_equal(np.diag(w), np.zeros(3))
        # nearer pairs end up heavier
        assert w[0, 1] > w[1, 2] > w[0, 2] > 0

    def test_all_zero_rejected(self):
        from permap.graphs import WeightMatrix

        with pytest.raises(ValueError, match="zero"):
            invert_distances(WeightMatrix(np.zeros((2, 2))))

    def test_closeness_matrix_bit_equal_to_two_step_form(self, monkeypatch, twelve_locations):
        # Inverted in the km matrix's own buffer, at the shipped block size
        # and at 64 rows per block, where 65, 129 and 256 cross block edges.
        rng = np.random.default_rng(19)
        cases = [twelve_locations]
        for n in (2, 63, 64, 65, 129, 256):
            cases.append(list(zip(rng.uniform(-89, 89, n), rng.uniform(-179, 179, n))))
        for points in cases:
            for rows in shipped_and_64_row_blocks(monkeypatch, len(points)):
                got = closeness_matrix(points)
                want = invert_distances(distance_matrix(points))
                assert got.is_symmetric
                assert np.array_equal(got.values, want.values), rows
                assert np.array_equal(np.signbit(got.values), np.signbit(want.values))
        with pytest.raises(ValueError, match="all distances are zero"):
            closeness_matrix([(3.0, 4.0)] * 3)

    def test_closeness_matrix_holds_one_n_by_n_array(self):
        # Besides the n x n result, only row blocks of at most _BLOCK_BYTES
        # each and per-location arrays: under 2 MB at any n up to
        # _BLOCK_BYTES / 8 columns.
        rng = np.random.default_rng(22)
        for n in (1500, 3000):
            points = list(zip(rng.uniform(-89, 89, n), rng.uniform(-179, 179, n)))
            tracemalloc.start()
            try:
                w = closeness_matrix(points)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert w.values.shape == (n, n)
            assert peak < 8 * n * n + 2 * 2**20
            del w


class TestCountryBorderGraph:
    def test_from_pairs_first_appearance_order(self):
        cg = CountryBorderGraph.from_pairs([("Mali", "Niger"), ("Niger", "Chad")])
        assert cg.countries == ("Mali", "Niger", "Chad")
        assert cg.adjacency[cg.index("Mali"), cg.index("Niger")]
        assert not cg.adjacency[cg.index("Mali"), cg.index("Chad")]

    def test_index_is_case_insensitive(self):
        cg = CountryBorderGraph.from_pairs([("Mali", "Niger")])
        assert cg.index("  mali ") == 0
        assert cg.index("NIGER") == 1

    def test_unknown_country_rejected(self):
        cg = CountryBorderGraph.from_pairs([("Mali", "Niger")])
        with pytest.raises(ValueError, match="unknown country 'Ghana'"):
            cg.index("Ghana")

    def test_bad_pairs_rejected(self):
        with pytest.raises(ConfigError, match="self-border"):
            CountryBorderGraph.from_pairs([("Mali", "mali")])
        with pytest.raises(ConfigError, match="empty country"):
            CountryBorderGraph.from_pairs([("Mali", "  ")])

    def test_constructor_validation(self):
        adj = np.zeros((2, 2), dtype=bool)
        adj[0, 1] = True
        with pytest.raises(ValueError, match="symmetric"):
            CountryBorderGraph(("A", "B"), adj)
        with pytest.raises(ValueError, match="duplicate"):
            CountryBorderGraph(("A", "a"), np.zeros((2, 2), dtype=bool))
        eye = np.eye(2, dtype=bool)
        with pytest.raises(ValueError, match="border itself"):
            CountryBorderGraph(("A", "B"), eye)

    def test_load_csv(self, tmp_path):
        path = tmp_path / "borders.csv"
        path.write_text("A,B\n\nB,C\n", encoding="utf-8")
        cg = CountryBorderGraph.load_csv(path)
        assert cg.countries == ("A", "B", "C")
        bad = tmp_path / "bad.csv"
        bad.write_text("A,B,C\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="countryA,countryB"):
            CountryBorderGraph.load_csv(bad)


class TestReferenceBorders:
    def test_twenty_one_countries(self):
        cg = load_reference_borders()
        assert len(cg.countries) == 21
        assert len(set(cg.countries)) == 21

    def test_spot_adjacencies(self):
        cg = load_reference_borders()
        for a, b in [
            ("Mali", "Algeria"),
            ("Niger", "Nigeria"),
            ("Guinea", "Sierra Leone"),
            ("Senegal", "Gambia"),
            ("Benin", "Togo"),
        ]:
            assert fewest_crossings(cg, a, b) == 1
        # no shared land border
        assert fewest_crossings(cg, "Morocco", "Tunisia") == 2
        # Ghana - Togo - Benin - Nigeria
        assert fewest_crossings(cg, "Ghana", "Nigeria") == 3

    def test_same_country_is_zero(self):
        cg = load_reference_borders()
        assert fewest_crossings(cg, "Mali", "Mali") == 0

    def test_sierra_leone_to_niger_needs_three(self):
        cg = load_reference_borders()
        assert fewest_crossings(cg, "Sierra Leone", "Niger") == 3

    def test_connected_and_matches_bfs_oracle(self):
        cg = load_reference_borders()
        pairs = [
            (cg.countries[i], cg.countries[j])
            for i in range(len(cg.countries))
            for j in range(i + 1, len(cg.countries))
            if cg.adjacency[i, j]
        ]
        codes, hops = country_crossings(cg.countries, cg)
        for i, a in enumerate(cg.countries):
            for j, b in enumerate(cg.countries):
                want = bfs_crossings(pairs, a, b)
                assert want is not None
                assert hops[codes[i], codes[j]] == want


def random_border_graph(rng, split):
    """A seeded border graph of 2-12 countries; `split` cuts it into two parts."""
    size = int(rng.integers(2, 13))
    names = tuple(f"c{i}" for i in range(size))
    part = rng.integers(0, 2, size) if split else np.zeros(size, dtype=int)
    upper = np.triu(rng.random((size, size)) < rng.uniform(0.1, 0.6), 1)
    upper &= part[:, None] == part[None, :]
    return CountryBorderGraph(names, upper | upper.T)


class TestCountryCrossingsOnRandomGraphs:
    def test_hops_match_the_bfs_oracle_or_name_the_first_cut_pair(self):
        rng = np.random.default_rng(29)
        outcomes = {"joined": 0, "cut": 0}
        for draw in range(60):
            cg = random_border_graph(rng, split=draw % 2 == 1)
            pairs = [(cg.countries[i], cg.countries[j]) for i, j in zip(*np.nonzero(cg.adjacency))]
            located = rng.choice(cg.countries, int(rng.integers(1, 15))).tolist()
            want = [[bfs_crossings(pairs, a, b) for b in located] for a in located]
            # Row-major, as country_crossings names the first cut pair.
            cut = [
                (a, b)
                for a, row in zip(located, want)
                for b, hops in zip(located, row)
                if hops is None
            ]
            if cut:
                outcomes["cut"] += 1
                message = re.escape("between {!r} and {!r}".format(*cut[0]))
                with pytest.raises(DisconnectedGraphError, match=message):
                    country_crossings(located, cg)
                continue
            outcomes["joined"] += 1
            codes, hops = country_crossings(located, cg)
            assert hops.dtype.kind == "i" and codes.dtype.kind == "i"
            # The products with border_blocks' table round by its memory order.
            assert hops.flags.c_contiguous
            assert hops.shape == (len(set(located)),) * 2
            got = [[int(hops[ci, cj]) for cj in codes] for ci in codes]
            assert got == want
        assert min(outcomes.values()) >= 10, outcomes


class TestCrossingsMatrix:
    def test_same_country_all_zero(self, chain_borders):
        locs = ["A", "A", "A"]
        assert np.array_equal(crossings_matrix(locs, chain_borders), np.zeros((3, 3), dtype=int))

    def test_chain_counts(self, chain_borders):
        b = crossings_matrix(["A", "B", "C", "A"], chain_borders)
        assert np.array_equal(
            b,
            [
                [0, 1, 2, 0],
                [1, 0, 1, 1],
                [2, 1, 0, 2],
                [0, 1, 2, 0],
            ],
        )

    def test_accepts_location_objects(self, chain_borders, twelve_locations):
        b = crossings_matrix(twelve_locations, chain_borders)
        assert b[0, 4] == 1 and b[0, 8] == 2 and b[4, 8] == 1
        pairs = [("A", "B"), ("B", "C")]
        for i, li in enumerate(twelve_locations):
            for j, lj in enumerate(twelve_locations):
                assert b[i, j] == bfs_crossings(pairs, li.country, lj.country)

    def test_unreachable_country_rejected(self):
        cg = CountryBorderGraph.from_pairs([("A", "B"), ("C", "D")])
        with pytest.raises(DisconnectedGraphError, match="no border path"):
            crossings_matrix(["A", "C"], cg)
        with pytest.raises(DisconnectedGraphError, match="between 'A' and 'D'"):
            country_crossings(["A", "B", "D"], cg)


class TestLinearBorderDistances:
    def test_adds_cost_per_crossing(self):
        from permap.graphs import WeightMatrix

        d = WeightMatrix(np.array([[0.0, 200.0], [200.0, 0.0]]))
        b = np.array([[0, 1], [1, 0]])
        out = linear_border_distances(d, b, 100.0).values
        assert np.array_equal(out, [[0.0, 300.0], [300.0, 0.0]])

    def test_zero_cost_is_bitwise_identity(self, twelve_locations, chain_borders):
        d = distance_matrix(twelve_locations)
        b = crossings_matrix(twelve_locations, chain_borders)
        out = linear_border_distances(d, b, 0.0)
        assert np.array_equal(out.values, d.values)

    def test_negative_cost_rejected(self):
        d = distance_matrix([(0, 0), (0, 1)])
        with pytest.raises(ValueError, match="nonnegative"):
            linear_border_distances(d, np.zeros((2, 2)), -5.0)

    def test_shape_mismatch_rejected(self):
        d = distance_matrix([(0, 0), (0, 1)])
        with pytest.raises(ValueError, match="shape"):
            linear_border_distances(d, np.zeros((3, 3)), 10.0)


def farthest_oracle(d, codes, size):
    """Country-pair maxima of d, pair by pair."""
    table = np.full((size, size), -np.inf)
    for i, a in enumerate(codes):
        for j, b in enumerate(codes):
            table[a, b] = max(table[a, b], d[i, j])
    return table


class TestCountryFarthest:
    def test_matches_pair_by_pair_maxima(self, monkeypatch):
        # Codes in any order, a one-location country, a code no location
        # has, and n at the shipped block size and around 64-row blocks.
        rng = np.random.default_rng(20)
        for n in (2, 63, 64, 65, 129):
            points = list(zip(rng.uniform(-60, 60, n), rng.uniform(-170, 170, n)))
            d = distance_matrix(points)
            codes = rng.integers(0, 5, n)
            codes[0] = 6
            for rows in shipped_and_64_row_blocks(monkeypatch, n):
                got = country_farthest(d, codes)
                assert np.array_equal(got, farthest_oracle(d.values, codes, 7)), rows
                assert np.all(got[5] == -np.inf) and np.all(got[:, 5] == -np.inf)
                assert got[6, 6] == 0.0
                assert np.array_equal(country_farthest(d), [[d.values.max()]])

    def test_priced_top_bit_equal_to_the_n_by_n_max(self, chain_borders):
        # 1.1 * max(d + cost * crossings), as invert_distances computes it
        # from the priced n x n matrix.
        rng = np.random.default_rng(21)
        for n in (2, 63, 64, 65, 129):
            countries = [("A", "B", "C")[i % 3] for i in range(n)]
            points = list(zip(rng.uniform(0, 10, n), rng.uniform(0, 10, n)))
            d = distance_matrix(points)
            codes, hops = country_crossings(countries, chain_borders)
            crossings = crossings_matrix(countries, chain_borders)
            farthest = country_farthest(d, codes)
            for cost in (0.0, 50.0, 500.0, 1e6, 0.1 + 0.2):
                want = 1.1 * float(linear_border_distances(d, crossings, cost).values.max())
                assert priced_top(farthest, hops, cost) == want
            assert priced_top(country_farthest(d), None, 0.0) == 1.1 * float(d.values.max())

    def test_priced_top_checks(self, chain_borders):
        d = distance_matrix([(1.0, 1.0)] * 3)
        codes, hops = country_crossings(["A", "A", "C"], chain_borders)
        with pytest.raises(ValueError, match="all distances are zero"):
            priced_top(country_farthest(d), None, 0.0)
        with pytest.raises(ValueError, match="all distances are zero"):
            priced_top(country_farthest(d, codes), hops, 0.0)
        # A cost makes the distances across a border nonzero.
        assert priced_top(country_farthest(d, codes), hops, 10.0) == 1.1 * 20.0
        with pytest.raises(ValueError, match="nonnegative"):
            priced_top(country_farthest(d, codes), hops, -1.0)


class TestBorderPermeability:
    def test_exact_powers(self):
        b = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        w = border_permeability_matrix(b, 0.95).values
        assert abs(w[0, 1] - 0.95) <= 1e-12
        assert abs(w[0, 2] - 0.9025) <= 1e-12
        assert abs(w[1, 2] - 0.95) <= 1e-12
        assert np.array_equal(np.diag(w), np.zeros(3))
        b3 = np.array([[0, 3], [3, 0]])
        assert abs(border_permeability_matrix(b3, 0.9).values[0, 1] - 0.729) <= 1e-12

    def test_probability_one_keeps_everything(self):
        b = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        w = border_permeability_matrix(b, 1.0).values
        assert np.array_equal(w, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])

    def test_monotone_in_probability(self):
        b = np.array([[0, 2], [2, 0]])
        last = np.inf
        for p in (1.0, 0.95, 0.8, 0.5, 0.1):
            w = border_permeability_matrix(b, p).values[0, 1]
            assert w < last or p == 1.0
            last = w

    def test_probability_bounds(self):
        b = np.zeros((2, 2))
        for bad in (0.0, -0.5, 1.0001, 2.0):
            with pytest.raises(ValueError, match="probability"):
                border_permeability_matrix(b, bad)
