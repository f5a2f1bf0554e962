import numpy as np
import pytest

from conftest import make_location
from oracles import (
    displacement_rows,
    pairwise_separation_ratio,
    three_layer_budget_assembly,
)
from permap.errors import IsolatedNodeError
from permap.geo import CountryBorderGraph
from permap.graphs import DIRECTED, SYMMETRIC, WeightMatrix
from permap.layers import (
    IN,
    NO_COPY,
    OUT,
    THREE_LAYER_TAGS,
    TWO_LAYER_TAGS,
    DisplacementRow,
    MultiLayerSystem,
    build_three_layer,
    build_two_layer,
    country_separation_ratio,
    displacement,
    embed_three_layer,
    embed_two_layer,
    normalize_sequence_layer,
    two_layer_walk_matrix,
    write_displacement_csv,
)
from permap.spectral import Embedding, PointRef


def sym(values):
    return WeightMatrix(np.asarray(values, dtype=float), SYMMETRIC)


def directed(values):
    return WeightMatrix(np.asarray(values, dtype=float), DIRECTED)


def fake_embedding(coords, refs):
    coords = np.asarray(coords, dtype=float)
    k = coords.shape[1]
    return Embedding(coords, np.ones(k), tuple(refs), np.zeros(k))


class TestTwoLayerWalk:
    def test_two_node_hand_fixture(self):
        walk = two_layer_walk_matrix(sym([[0, 1], [1, 0]]), sym([[0, 2], [2, 0]]))
        assert np.array_equal(
            walk,
            [
                [0.0, 0.5, 0.5, 0.0],
                [0.5, 0.0, 0.0, 0.5],
                [0.5, 0.0, 0.0, 0.5],
                [0.0, 0.5, 0.5, 0.0],
            ],
        )

    def test_rows_stochastic_and_diagonal_zero(self):
        rng = np.random.default_rng(61)
        m = rng.uniform(0.1, 3, (5, 5))
        a = sym((m + m.T) / 2 - np.diag(np.diag(m)))
        m2 = rng.uniform(0.1, 3, (5, 5))
        b = sym((m2 + m2.T) / 2 - np.diag(np.diag(m2)))
        walk = two_layer_walk_matrix(a, b)
        assert np.abs(walk.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.array_equal(np.diag(walk), np.zeros(10))
        # within-layer halves
        assert abs(walk[:5, :5].sum(axis=1) - 0.5).max() <= 1e-12
        assert abs(walk[5:, 5:].sum(axis=1) - 0.5).max() <= 1e-12

    def test_cross_blocks_are_exact_halves(self):
        walk = two_layer_walk_matrix(sym([[0, 1, 2], [1, 0, 1], [2, 1, 0]]), sym([[0, 3, 1], [3, 0, 2], [1, 2, 0]]))
        cross_ab = walk[:3, 3:]
        cross_ba = walk[3:, :3]
        assert np.array_equal(cross_ab, 0.5 * np.eye(3))
        assert np.array_equal(cross_ba, 0.5 * np.eye(3))

    def test_input_diagonal_discarded(self):
        walk = two_layer_walk_matrix(sym([[9, 1], [1, 9]]), sym([[0, 2], [2, 0]]))
        assert np.array_equal(np.diag(walk), np.zeros(4))
        assert walk[0, 1] == 0.5

    def test_size_and_kind_violations(self):
        a = sym([[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="at least 2"):
            two_layer_walk_matrix(sym([[0.0]]), sym([[0.0]]))
        with pytest.raises(ValueError, match="sizes differ"):
            two_layer_walk_matrix(a, sym(np.zeros((3, 3))))
        with pytest.raises(ValueError, match="symmetric"):
            two_layer_walk_matrix(a, directed([[0, 1], [2, 0]]))
        with pytest.raises(ValueError, match="WeightMatrix"):
            two_layer_walk_matrix(np.zeros((2, 2)), a)

    def test_isolated_node_names_layer(self):
        a = sym([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        b = sym([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        with pytest.raises(IsolatedNodeError, match="node 2 in layer 'distance'"):
            two_layer_walk_matrix(a, b)
        with pytest.raises(IsolatedNodeError, match="layer 'border'"):
            two_layer_walk_matrix(b, a)


class TestBuildTwoLayer:
    def test_provenance_layer_major(self):
        system = build_two_layer(sym([[0, 1], [1, 0]]), sym([[0, 2], [2, 0]]))
        assert system.layer_tags == TWO_LAYER_TAGS
        assert system.copies_per_layer == 1
        assert system.provenance == (
            PointRef(0, "distance", NO_COPY),
            PointRef(1, "distance", NO_COPY),
            PointRef(0, "border", NO_COPY),
            PointRef(1, "border", NO_COPY),
        )

    def test_assembled_symmetric(self):
        rng = np.random.default_rng(62)
        m = rng.uniform(0.1, 2, (4, 4))
        a = sym((m + m.T) / 2 - np.diag(np.diag(m)))
        system = build_two_layer(a, a)
        v = system.assembled.values
        assert system.assembled.is_symmetric
        assert np.array_equal(v, v.T)
        assert system.size == 8

    def test_assembled_is_bit_equal_to_symmetrized_walk(self):
        # build_two_layer averages only the within-layer blocks; the result
        # must match symmetrizing the whole walk matrix to the last bit.
        rng = np.random.default_rng(63)
        for n in (2, 128, 129, 300):
            a, b = (rng.uniform(0, 2, (n, n)) * (rng.uniform(size=(n, n)) < 0.7) for _ in "ab")
            a, b = sym(a + a.T + 1e-3), sym(b + b.T)
            got = build_two_layer(a, b).assembled.values
            want = two_layer_walk_matrix(a, b)
            want = (want + want.T) / 2.0
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            assert got.flags.c_contiguous

    def test_wrong_size_assembly_rejected(self):
        good = build_two_layer(sym([[0, 1], [1, 0]]), sym([[0, 1], [1, 0]]))
        with pytest.raises(ValueError, match="expected"):
            MultiLayerSystem(
                n=3,
                layer_tags=good.layer_tags,
                copies_per_layer=1,
                assembled=good.assembled,
                provenance=good.provenance,
            )


class TestEmbedTwoLayer:
    def test_symmetric_rectangle_has_equal_displacements(self):
        # equator-centered rectangle: all four sites are interchangeable
        locs = [
            make_location(0, -0.5, 0.0),
            make_location(1, -0.5, 1.0),
            make_location(2, 0.5, 1.0),
            make_location(3, 0.5, 0.0),
        ]
        cg = CountryBorderGraph.from_pairs([("A", "B")])
        emb, report = embed_two_layer(locs, cg, k=2)
        assert emb.n_points == 8
        lengths = [row.length for row in report.rows]
        assert max(lengths) - min(lengths) <= 1e-12
        assert report.layer_a == "distance" and report.layer_b == "border"

    def test_two_countries_give_positive_displacement(self, twelve_locations, chain_borders):
        emb, report = embed_two_layer(twelve_locations, chain_borders, p=0.5, k=2)
        assert emb.n_points == 24
        assert len(report.rows) == 12
        assert report.rows[0].length >= report.rows[-1].length
        assert report.rows[0].length > 0


class TestNormalizeSequenceLayer:
    def test_five_node_fixture(self):
        a = np.zeros((5, 5))
        a[0, 1:] = 1.0
        a[1, 0] = 1.0
        out = normalize_sequence_layer(directed(a))
        assert out.kind == DIRECTED
        # six unit weights have mean 1, so only the padding changes anything
        want = np.array(a)
        want[np.diag_indices(5)] = [0.0, 3.0, 4.0, 4.0, 4.0]
        assert np.array_equal(out.values, want)
        assert np.array_equal(out.values.sum(axis=1), np.full(5, 4.0))

    def test_row_sums_constant_after_padding(self):
        rng = np.random.default_rng(65)
        a = rng.uniform(0, 3, (7, 7)) * (rng.uniform(size=(7, 7)) < 0.4)
        np.fill_diagonal(a, 0.0)
        if not a.any():
            a[0, 1] = 1.0
        out = normalize_sequence_layer(directed(a)).values
        sums = out.sum(axis=1)
        assert np.abs(sums - sums[0]).max() <= 1e-12
        # off-diagonal ratios survive the rescale
        nz = a != 0
        ratio = out[nz] / a[nz]
        assert np.abs(ratio - ratio[0]).max() <= 1e-12

    def test_empty_layer_rejected(self):
        with pytest.raises(ValueError, match="no edges"):
            normalize_sequence_layer(directed(np.zeros((3, 3))))

    def test_plain_array_accepted(self):
        out = normalize_sequence_layer(np.array([[0.0, 2.0], [0.0, 0.0]]))
        assert np.array_equal(out.values, [[0.0, 1.0], [0.0, 1.0]])


class TestBudgetAssembly:
    def test_block_structure(self):
        m0 = np.array([[0.0, 2.0], [2.0, 0.0]])
        m1 = np.array([[0.0, 4.0], [4.0, 0.0]])
        m2 = np.array([[1.0, 1.0], [0.0, 3.0]])
        out = three_layer_budget_assembly([m0, m1, m2])
        assert out.shape == (6, 6)
        assert np.array_equal(out[:2, :2], m0 / 2.0)
        assert np.array_equal(out[2:4, 2:4], m1 / 2.0)
        assert np.array_equal(out[4:, 4:], m2 / 2.0)
        assert np.array_equal(out[:2, 2:4], np.diag([0.5, 0.5]))
        assert np.array_equal(out[:2, 4:], np.diag([0.5, 0.5]))
        assert np.array_equal(out[2:4, :2], np.diag([1.0, 1.0]))
        assert np.array_equal(out[4:, :2], np.diag([0.5, 0.75]))

    def test_rows_keep_their_budget(self):
        rng = np.random.default_rng(66)
        layers = [rng.uniform(0, 2, (4, 4)) for _ in range(3)]
        out = three_layer_budget_assembly(layers)
        for li, layer in enumerate(layers):
            rows = out[li * 4 : (li + 1) * 4]
            assert np.allclose(rows.sum(axis=1), layer.sum(axis=1), atol=1e-12)


def three_layer_fixture():
    w_border = sym([[0.0, 1.0, 0.95], [1.0, 0.0, 0.95], [0.95, 0.95, 0.0]])
    w_dist = sym([[0.0, 2.0, 1.0], [2.0, 0.0, 3.0], [1.0, 3.0, 0.0]])
    a_seq = np.zeros((3, 3))
    a_seq[0, 1] = 1.0
    return w_border, w_dist, directed(a_seq)


class TestBuildThreeLayer:
    def test_shape_tags_and_symmetry(self):
        system = build_three_layer(*three_layer_fixture())
        assert system.size == 18
        assert system.layer_tags == THREE_LAYER_TAGS
        assert system.copies_per_layer == 2
        v = system.assembled.values.toarray()
        assert np.array_equal(v, v.T)
        assert (v >= 0).all()

    def test_provenance_order(self):
        system = build_three_layer(*three_layer_fixture())
        refs = system.provenance
        assert refs[0] == PointRef(0, "border", OUT)
        assert refs[3] == PointRef(0, "border", IN)
        assert refs[6] == PointRef(0, "distance", OUT)
        assert refs[12] == PointRef(0, "sequence", OUT)
        assert refs[17] == PointRef(2, "sequence", IN)
        assert len(set(refs)) == 18

    def test_sequence_self_links_hand_values(self):
        system = build_three_layer(*three_layer_fixture())
        v = system.assembled.values
        # sequence out-rows 12..14, in-rows 15..17; the out/in link for
        # node i carries half its pre-symmetrization value
        assert v[12, 15] == pytest.approx(0.25 / 2, abs=1e-15)
        assert v[13, 16] == pytest.approx(1.25 / 2, abs=1e-15)
        assert v[14, 17] == pytest.approx(1.0 / 2, abs=1e-15)

    def test_matches_budget_oracle(self):
        # Pre-symmetrization weight flows only from out-rows to in-columns,
        # so twice that block, minus the out/in links on its diagonal, is
        # the budget assembly of the normalized layers.
        rng = np.random.default_rng(67)
        n = 5
        out_rows = np.concatenate([np.arange(2 * li * n, (2 * li + 1) * n) for li in range(3)])
        in_cols = out_rows + n
        b, d = (rng.uniform(0.1, 1.0, (n, n)) for _ in range(2))
        b, d = (b + b.T) / 2.0, (d + d.T) / 2.0
        a = rng.integers(0, 3, (n, n)).astype(float)
        for m in (b, d, a):
            np.fill_diagonal(m, 0.0)
        system = build_three_layer(sym(b), sym(d), directed(a))
        v = system.assembled.values.toarray()

        normalized = [m / m[m != 0].mean() for m in (b, d, a)]
        seq_sums = normalized[2].sum(axis=1)
        normalized[2][np.diag_indices(n)] += seq_sums.max() - seq_sums
        links = np.concatenate([(m.sum(axis=1) + m.sum(axis=0)) / 4.0 for m in normalized])
        got = 2.0 * v[np.ix_(out_rows, in_cols)] - np.diag(links)
        assert np.abs(got - three_layer_budget_assembly(normalized)).max() <= 1e-12

    def test_kind_violations(self):
        w_border, w_dist, a_seq = three_layer_fixture()
        with pytest.raises(ValueError, match="directed"):
            build_three_layer(w_border, w_dist, w_dist)
        with pytest.raises(ValueError, match="must be symmetric"):
            build_three_layer(directed([[0, 1, 1], [1, 0, 1], [1, 1, 0]]), w_dist, a_seq)
        with pytest.raises(ValueError, match="sizes differ"):
            build_three_layer(w_border, sym(np.zeros((2, 2))), a_seq)

    def test_isolated_node_names_layer(self):
        w_border = sym([[0, 1, 0], [1, 0, 0], [0, 0, 0.0]])
        _, w_dist, a_seq = three_layer_fixture()
        with pytest.raises(IsolatedNodeError, match="node 2 in layer 'border'"):
            build_three_layer(w_border, w_dist, a_seq)


class TestEmbedThreeLayer:
    def test_end_to_end_smoke(self, twelve_locations, chain_borders):
        a = np.zeros((12, 12))
        a[0, 1] = 2.0
        a[1, 2] = 1.0
        a[4, 5] = 3.0
        a[8, 9] = 1.0
        emb, report = embed_three_layer(twelve_locations, chain_borders, directed(a), k=2)
        assert emb.n_points == 72
        tags = [ref.layer for ref in emb.provenance]
        assert tags.count("border") == tags.count("distance") == tags.count("sequence") == 24
        assert len(report.rows) == 12
        assert report.layer_a == "distance" and report.layer_b == "border"


class TestDisplacement:
    def test_identical_copies_have_zero_length(self):
        coords = [[1.0, 2.0], [3.0, 4.0], [1.0, 2.0], [3.0, 4.0]]
        refs = [
            PointRef(0, "a", NO_COPY),
            PointRef(1, "a", NO_COPY),
            PointRef(0, "b", NO_COPY),
            PointRef(1, "b", NO_COPY),
        ]
        report = displacement(fake_embedding(coords, refs), ("a", "b"))
        assert all(row.length == 0.0 for row in report.rows)

    def test_hand_vectors_and_ordering(self):
        coords = [[0.0, 0.0], [1.0, 1.0], [3.0, 4.0], [1.0, 1.0]]
        refs = [
            PointRef(0, "a", NO_COPY),
            PointRef(1, "a", NO_COPY),
            PointRef(0, "b", NO_COPY),
            PointRef(1, "b", NO_COPY),
        ]
        report = displacement(fake_embedding(coords, refs), ("a", "b"))
        assert report.rows[0] == DisplacementRow(0, (3.0, 4.0), 5.0)
        assert report.rows[1] == DisplacementRow(1, (0.0, 0.0), 0.0)

    def test_equal_lengths_sort_by_location(self):
        coords = [[0.0], [0.0], [1.0], [1.0]]
        refs = [
            PointRef(1, "a", NO_COPY),
            PointRef(0, "a", NO_COPY),
            PointRef(1, "b", NO_COPY),
            PointRef(0, "b", NO_COPY),
        ]
        report = displacement(fake_embedding(coords, refs), ("a", "b"))
        assert [row.location_id for row in report.rows] == [0, 1]

    def test_copy_selectors_and_centroid(self):
        coords = [[0.0], [4.0], [10.0], [20.0]]
        refs = [
            PointRef(0, "s", OUT),
            PointRef(0, "s", IN),
            PointRef(0, "t", OUT),
            PointRef(0, "t", IN),
        ]
        emb = fake_embedding(coords, refs)
        both = displacement(emb, ("s", "t"))
        assert both.rows[0].vector == (13.0,)  # centroids 2 and 15
        narrowed = displacement(emb, ("s:out", "t:in"))
        assert narrowed.rows[0].vector == (20.0,)

    def test_matches_loop_oracle_with_both_and_single_copies(self):
        rng = np.random.default_rng(41)
        n = 60
        refs = [PointRef(i, tag, copy) for tag in THREE_LAYER_TAGS for copy in (OUT, IN) for i in range(n)]
        # A shuffled provenance order, and coordinates over several magnitudes.
        refs = [refs[i] for i in rng.permutation(len(refs))]
        coords = rng.standard_normal((len(refs), 3)) * 10.0 ** rng.integers(-6, 3, (len(refs), 1))
        emb = fake_embedding(coords, refs)
        points = [(ref.location_id, ref.layer, ref.copy, coords[i].tolist()) for i, ref in enumerate(refs)]
        for pair in (
            ("distance", "border"),
            ("distance:out", "border:in"),
            ("sequence:in", "distance"),
            ("border:out", "border:in"),
        ):
            report = displacement(emb, pair)
            want = displacement_rows(points, *pair)
            assert [(row.location_id, row.vector) for row in report.rows] == [
                (lid, vector) for lid, vector, _ in want
            ]
            lengths = np.array([row.length for row in report.rows])
            assert np.allclose(lengths, [length for _, _, length in want], rtol=1e-12, atol=0)

    def test_missing_copy_rejected(self):
        coords = [[0.0], [1.0], [2.0]]
        refs = [PointRef(0, "a", NO_COPY), PointRef(1, "a", NO_COPY), PointRef(0, "b", NO_COPY)]
        with pytest.raises(RuntimeError, match="location 1 is missing"):
            displacement(fake_embedding(coords, refs), ("a", "b"))

    def test_unknown_selector_rejected(self):
        coords = [[0.0], [1.0]]
        refs = [PointRef(0, "a", NO_COPY), PointRef(0, "b", NO_COPY)]
        with pytest.raises(RuntimeError, match="selector 'z'"):
            displacement(fake_embedding(coords, refs), ("a", "z"))

    def test_csv_export(self, tmp_path):
        coords = [[0.0, 0.0], [3.0, 4.0]]
        refs = [PointRef(0, "a", NO_COPY), PointRef(0, "b", NO_COPY)]
        report = displacement(fake_embedding(coords, refs), ("a", "b"))
        path = tmp_path / "displacement.csv"
        write_displacement_csv(report, path, countries={0: "Mali"})
        lines = path.read_text().splitlines()
        assert lines[0] == "location_id,layer_a,layer_b,dx,dy,length,country"
        assert lines[1] == "0,a,b,3.0,4.0,5.0,Mali"


class TestCountrySeparationRatio:
    def test_hand_ratio(self):
        coords = [[0.0], [1.0], [10.0], [11.0]]
        refs = [PointRef(i, "a", NO_COPY) for i in range(4)]
        emb = fake_embedding(coords, refs)
        countries = {0: "A", 1: "A", 2: "B", 3: "B"}
        # intra pairs: |0-1|=1 and |10-11|=1; inter: 10, 11, 9, 10
        assert country_separation_ratio(emb, countries) == pytest.approx(10.0, rel=1e-12)

    def test_same_location_pairs_excluded(self):
        coords = [[0.0], [100.0], [1.0], [10.0], [110.0], [11.0]]
        refs = [
            PointRef(0, "a", NO_COPY),
            PointRef(0, "b", NO_COPY),
            PointRef(1, "a", NO_COPY),
            PointRef(2, "a", NO_COPY),
            PointRef(2, "b", NO_COPY),
            PointRef(3, "a", NO_COPY),
        ]
        emb = fake_embedding(coords, refs)
        countries = {0: "A", 1: "A", 2: "B", 3: "B"}
        got = country_separation_ratio(emb, countries)
        ids = [0, 0, 1, 2, 2, 3]
        vals = [c[0] for c in coords]
        intra, inter = [], []
        for i in range(6):
            for j in range(i + 1, 6):
                if ids[i] == ids[j]:
                    continue
                gap = abs(vals[i] - vals[j])
                if countries[ids[i]] == countries[ids[j]]:
                    intra.append(gap)
                else:
                    inter.append(gap)
        want = (sum(inter) / len(inter)) / (sum(intra) / len(intra))
        assert got == pytest.approx(want, rel=1e-12)

    def test_single_country_rejected(self):
        coords = [[0.0], [1.0]]
        refs = [PointRef(0, "a", NO_COPY), PointRef(1, "a", NO_COPY)]
        with pytest.raises(ValueError, match="inter-country"):
            country_separation_ratio(fake_embedding(coords, refs), {0: "A", 1: "A"})

    def test_no_intra_pairs_rejected(self):
        coords = [[0.0], [1.0]]
        refs = [PointRef(0, "a", NO_COPY), PointRef(1, "a", NO_COPY)]
        with pytest.raises(ValueError, match="intra-country"):
            country_separation_ratio(fake_embedding(coords, refs), {0: "A", 1: "B"})

    def test_blocked_accumulation_matches_direct(self):
        rng = np.random.default_rng(67)
        coords = rng.uniform(-1, 1, (600, 2))
        refs = [PointRef(i, "a", NO_COPY) for i in range(600)]
        countries = {i: ("A" if i % 3 else "B") for i in range(600)}
        emb = fake_embedding(coords, refs)
        got = country_separation_ratio(emb, countries)
        intra_s = inter_s = 0.0
        intra_c = inter_c = 0
        for i in range(600):
            d = np.linalg.norm(coords[i + 1 :] - coords[i], axis=1)
            same = np.array(
                [countries[i] == countries[j] for j in range(i + 1, 600)], dtype=bool
            )
            intra_s += d[same].sum()
            intra_c += int(same.sum())
            inter_s += d[~same].sum()
            inter_c += int((~same).sum())
        want = (inter_s / inter_c) / (intra_s / intra_c)
        assert got == pytest.approx(want, rel=1e-10)

    def test_matches_pair_loop_oracle_over_several_blocks(self):
        # 1300 points over 650 locations, two copies each as in a two-layer
        # embedding: three 512-row blocks, and same-location pairs that
        # straddle blocks.
        rng = np.random.default_rng(68)
        for k in (1, 2, 3):
            location_ids = np.concatenate([rng.permutation(650), rng.permutation(650)])
            coords = rng.normal(size=(1300, k))
            country_of = {lid: f"C{lid % 7}" for lid in range(650)}
            refs = [PointRef(int(lid), "a", NO_COPY) for lid in location_ids]
            got = country_separation_ratio(fake_embedding(coords, refs), country_of)
            want = pairwise_separation_ratio(
                coords.tolist(), location_ids.tolist(), [country_of[lid] for lid in location_ids]
            )
            assert got == pytest.approx(want, rel=1e-12)
