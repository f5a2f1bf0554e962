import csv
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from conftest import make_location
from oracles import (
    displacement_rows,
    pairwise_separation_ratio,
    three_layer_system,
    two_layer_walk_matrix,
)
from permap import layers
from permap.errors import InsufficientMemoryError, IsolatedNodeError, stage_of
from permap.geo import (
    CountryBorderGraph,
    border_blocks,
    border_permeability_matrix,
    country_crossings,
)
from permap.graphs import GroupBlocks, WeightMatrix
from permap.layers import (
    IN,
    LAYOUTS,
    NO_COPY,
    OUT,
    THREE_LAYER_TAGS,
    TWO_LAYER_TAGS,
    MultiLayerSystem,
    build_three_layer,
    build_two_layer,
    country_separation_ratio,
    displacement,
    prepare,
    solve,
    three_layer_operator,
    two_layer_operator,
    write_displacement_csv,
)
from permap.spectral import Embedding, write_embedding_csv


def sym(values):
    return WeightMatrix(np.asarray(values, dtype=float))


def directed(values):
    return WeightMatrix(sparse.csr_matrix(np.asarray(values, dtype=float)))


def fake_embedding(coords, layout):
    coords = np.asarray(coords, dtype=float)
    k = coords.shape[1]
    return Embedding(coords, np.ones(k), layout, np.zeros(k))


def points_of(emb, tmp_path):
    """(location_id, layer, copy) of every point, as embedding.csv spells them out."""
    path = tmp_path / "embedding.csv"
    write_embedding_csv(emb, path)
    with open(path, encoding="utf-8", newline="") as fh:
        return [(int(row["location_id"]), row["layer"], row["copy"]) for row in csv.DictReader(fh)]


def report_rows(vectors):
    """(location_id, vector) of each displacement, longest first, ties by location."""
    rows = [(lid, tuple(vec.tolist())) for lid, vec in enumerate(vectors)]
    return sorted(rows, key=lambda row: (-float(np.linalg.norm(row[1])), row[0]))


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
        # The assembled builder and the operator share their checks.
        a = sym([[0, 1], [1, 0]])
        for build in (build_two_layer, two_layer_operator):
            with pytest.raises(ValueError, match="at least 2"):
                build(sym([[0.0]]), sym([[0.0]]))
            with pytest.raises(ValueError, match="sizes differ"):
                build(a, sym(np.zeros((3, 3))))
            with pytest.raises(ValueError, match="symmetric"):
                build(a, directed([[0, 1], [2, 0]]))
            with pytest.raises(ValueError, match="WeightMatrix"):
                build(np.zeros((2, 2)), a)

    def test_isolated_node_names_layer(self):
        a = sym([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        b = sym([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        for build in (build_two_layer, two_layer_operator):
            with pytest.raises(IsolatedNodeError, match="node 2 in layer 'distance'"):
                build(a, b)
            with pytest.raises(IsolatedNodeError, match="layer 'border'"):
                build(b, a)


class TestBuildTwoLayer:
    def test_provenance_layer_major(self, tmp_path):
        # The layout says which location, layer and copy each row stands for.
        system = build_two_layer(sym([[0, 1], [1, 0]]), sym([[0, 2], [2, 0]]))
        assert system.layout == LAYOUTS["two_layer"] == (TWO_LAYER_TAGS, (NO_COPY,))
        emb = fake_embedding(np.zeros((system.assembled.n, 1)), system.layout)
        assert points_of(emb, tmp_path) == [
            (0, "distance", NO_COPY),
            (1, "distance", NO_COPY),
            (0, "border", NO_COPY),
            (1, "border", NO_COPY),
        ]
        assert emb.location_ids().tolist() == [0, 1, 0, 1]

    def test_assembled_symmetric(self):
        rng = np.random.default_rng(62)
        m = rng.uniform(0.1, 2, (4, 4))
        a = sym((m + m.T) / 2 - np.diag(np.diag(m)))
        system = build_two_layer(a, a)
        v = system.assembled.values
        assert system.assembled.is_symmetric
        assert np.array_equal(v, v.T)
        assert system.assembled.n == 8

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
        with pytest.raises(ValueError, match="4 rows do not fit the layout"):
            MultiLayerSystem(assembled=good.assembled, layout=LAYOUTS["three_layer"])


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
        emb, vectors = solve(prepare("two_layer", locs, cg), 0.95, 2)
        assert emb.coordinates.shape == (8, 2) and emb.layout == LAYOUTS["two_layer"]
        assert vectors.shape == (4, 2)
        lengths = np.linalg.norm(vectors, axis=1)
        assert max(lengths) - min(lengths) <= 1e-12

    def test_two_countries_give_positive_displacement(self, twelve_locations, chain_borders):
        emb, vectors = solve(prepare("two_layer", twelve_locations, chain_borders), 0.5, 2)
        assert len(emb.coordinates) == 24
        assert vectors.shape == (12, 2)
        assert np.linalg.norm(vectors, axis=1).max() > 0


def three_layer_fixture():
    w_border = sym([[0.0, 1.0, 0.95], [1.0, 0.0, 0.95], [0.95, 0.95, 0.0]])
    w_dist = sym([[0.0, 2.0, 1.0], [2.0, 0.0, 3.0], [1.0, 3.0, 0.0]])
    a_seq = np.zeros((3, 3))
    a_seq[0, 1] = 1.0
    return w_border, w_dist, directed(a_seq)


class TestBuildThreeLayer:
    def test_shape_tags_and_symmetry(self):
        system = build_three_layer(*three_layer_fixture())
        assert system.assembled.n == 18
        assert system.layout == (THREE_LAYER_TAGS, (OUT, IN))
        v = system.assembled.values
        assert np.array_equal(v, v.T)
        assert (v >= 0).all()

    def test_csr_sequence_layer_gives_the_dense_assembly(self):
        # prepare holds the sequence layer as CSR; the reference builder
        # takes it and returns the system as a dense symmetric layer.
        rng = np.random.default_rng(72)
        n = 30
        a, b = (rng.uniform(0.1, 1.0, (n, n)) for _ in "ab")
        seq = rng.integers(0, 4, (n, n)) * (rng.uniform(size=(n, n)) < 0.1).astype(float)
        assembled = build_three_layer(sym(a + a.T), sym(b + b.T), directed(seq)).assembled
        assert isinstance(assembled.values, np.ndarray) and assembled.is_symmetric
        want = three_layer_system(a + a.T, b + b.T, seq)
        assert np.abs(assembled.values - want).max() <= 1e-12 * np.abs(want).max()

    def test_provenance_order(self, tmp_path):
        system = build_three_layer(*three_layer_fixture())
        refs = points_of(fake_embedding(np.zeros((18, 1)), system.layout), tmp_path)
        assert refs[0] == (0, "border", OUT)
        assert refs[3] == (0, "border", IN)
        assert refs[6] == (0, "distance", OUT)
        assert refs[12] == (0, "sequence", OUT)
        assert refs[17] == (2, "sequence", IN)
        assert len(set(refs)) == 18

    def test_sequence_self_links_hand_values(self):
        system = build_three_layer(*three_layer_fixture())
        v = system.assembled.values
        # sequence out-rows 12..14, in-rows 15..17; the out/in link for
        # node i carries half its pre-symmetrization value
        assert v[12, 15] == pytest.approx(0.25 / 2, abs=1e-15)
        assert v[13, 16] == pytest.approx(1.25 / 2, abs=1e-15)
        assert v[14, 17] == pytest.approx(1.0 / 2, abs=1e-15)

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


EMPTY_LAYERS = {
    "border": (0, sym(np.zeros((3, 3))), "all-zero"),
    "border_blocks": (
        0,
        WeightMatrix(GroupBlocks(np.zeros(3, dtype=int), np.zeros((1, 1)))),
        "all-zero",
    ),
    "distance": (1, sym(np.zeros((3, 3))), "all-zero"),
    # Stored zeros are not edges.
    "sequence": (
        2,
        WeightMatrix(sparse.csr_matrix(([0.0, 0.0], ([0, 1], [1, 2])), shape=(3, 3))),
        "no edges",
    ),
    "sequence_csr": (2, WeightMatrix(sparse.csr_matrix((3, 3))), "no edges"),
}


@pytest.mark.parametrize("build", [build_three_layer, three_layer_operator])
@pytest.mark.parametrize("empty", EMPTY_LAYERS)
def test_an_empty_three_layer_input_is_refused(build, empty):
    position, layer, message = EMPTY_LAYERS[empty]
    inputs = list(three_layer_fixture())
    inputs[position] = layer
    with pytest.raises(ValueError, match=message):
        build(*inputs)


class TestBuildersTakeEveryBorderStorage:
    def test_group_blocks_give_the_dense_assembly(self, twelve_locations, chain_borders):
        codes, hops = country_crossings(twelve_locations, chain_borders)
        crossings = hops[codes[:, None], codes]
        w_dist = sym(np.ones((12, 12)) - np.eye(12))
        seq = np.zeros((12, 12))
        seq[0, 1] = seq[4, 5] = 1.0
        for p in (1.0, 0.95, 0.5):
            blocks = border_blocks(codes, hops, p)
            dense = border_permeability_matrix(crossings, p)
            got = build_two_layer(w_dist, blocks).assembled.values
            assert np.array_equal(got, build_two_layer(w_dist, dense).assembled.values)
            got = build_three_layer(blocks, w_dist, directed(seq)).assembled.values
            want = build_three_layer(dense, w_dist, directed(seq)).assembled.values
            assert np.array_equal(got, want)
            assert np.array_equal(blocks.toarray(), dense.values)


class TestEmbedThreeLayer:
    def test_end_to_end_smoke(self, tmp_path, twelve_locations, chain_borders):
        a = np.zeros((12, 12))
        a[0, 1] = 2.0
        a[1, 2] = 1.0
        a[4, 5] = 3.0
        a[8, 9] = 1.0
        prepared = prepare("three_layer", twelve_locations, chain_borders, directed(a))
        emb, vectors = solve(prepared, 0.95, 2)
        assert len(emb.coordinates) == 72
        tags = [layer for _, layer, _ in points_of(emb, tmp_path)]
        assert tags.count("border") == tags.count("distance") == tags.count("sequence") == 24
        assert vectors.shape == (12, 2)

    def test_reports_read_the_points_the_provenance_names(
        self, tmp_path, twelve_locations, chain_borders
    ):
        a = np.zeros((12, 12))
        a[0, 1] = a[4, 5] = a[8, 9] = 1.0
        for emb, vectors in (
            solve(prepare("two_layer", twelve_locations, chain_borders), 0.95, 3),
            solve(prepare("three_layer", twelve_locations, chain_borders, directed(a)), 0.95, 3),
        ):
            points = [
                (lid, layer, xy.tolist())
                for (lid, layer, _), xy in zip(points_of(emb, tmp_path), emb.coordinates)
            ]
            want = displacement_rows(points, "distance", "border")
            assert report_rows(vectors) == [(lid, vector) for lid, vector, _ in want]


class TestPrepare:
    def test_unknown_pipeline_refused(self, twelve_locations, chain_borders):
        with pytest.raises(ValueError, match=r"pipeline must be one of \('geo', 'two_layer'"):
            prepare("four_layer", twelve_locations, chain_borders)

    @pytest.mark.parametrize("pipeline", ["two_layer", "three_layer"])
    def test_multilayer_prices_borders_by_permeability_only(
        self, pipeline, twelve_locations, chain_borders
    ):
        # Refused in prepare, before the distance layer is built.
        with pytest.raises(ValueError, match=f"^pipeline '{pipeline}' needs a border graph$"):
            prepare(pipeline, twelve_locations, None, directed(np.eye(12, k=1)))
        prepared = prepare(pipeline, twelve_locations, chain_borders, directed(np.eye(12, k=1)))
        with pytest.raises(ValueError, match="^border value None given with a border graph$"):
            solve(prepared, None, 2)

    def test_three_layer_needs_a_sequence_layer(self, twelve_locations, chain_borders):
        with pytest.raises(ValueError, match="^pipeline 'three_layer' needs a sequence layer$"):
            prepare("three_layer", twelve_locations, chain_borders)

    def test_geo_takes_a_border_value_exactly_with_a_border_graph(
        self, twelve_locations, chain_borders
    ):
        with pytest.raises(ValueError, match="^border value 500.0 given without a border graph$"):
            solve(prepare("geo", twelve_locations, None), 500.0, 2)
        with pytest.raises(ValueError, match="^border value None given with a border graph$"):
            solve(prepare("geo", twelve_locations, chain_borders), None, 2)

    def test_geo_prices_borders_in_km_exactly_with_a_border_graph(
        self, twelve_locations, chain_borders
    ):
        plain, _ = solve(prepare("geo", twelve_locations, None), None, 2)
        priced = prepare("geo", twelve_locations, chain_borders)
        free, _ = solve(priced, 0.0, 2)
        costly, _ = solve(priced, 500.0, 2)
        assert np.array_equal(free.eigenvalues, plain.eigenvalues)
        assert np.array_equal(free.coordinates, plain.coordinates)
        assert not np.allclose(costly.eigenvalues, plain.eigenvalues)


def twenty_locations():
    return [
        make_location(i, 1.0 + 0.3 * i, 1.0 + 0.2 * i, "ABC"[i % 3], f"d{i}") for i in range(20)
    ]


class TestMemoryCheck:
    # Estimated bytes at n = 20: one n x n float array, the distance layer,
    # plus a 40-vector Lanczos basis of the system size.
    # The border model of the config: "none" prepares without a border graph.
    @pytest.mark.parametrize(
        "pipeline, border_model, needed",
        [
            ("geo", "none", 8 * 20**2 + 8 * 40 * 20),
            ("geo", "linear", 8 * 20**2 + 8 * 40 * 20),
            ("two_layer", "permeability", 8 * 20**2 + 8 * 40 * 40),
            ("three_layer", "permeability", 8 * 20**2 + 8 * 40 * 120),
        ],
    )
    def test_refuses_exactly_above_the_estimate(
        self, monkeypatch, chain_borders, pipeline, border_model, needed
    ):
        locations = twenty_locations()
        cg = None if border_model == "none" else chain_borders
        seq = directed(np.eye(20, k=1))
        monkeypatch.setattr(layers, "_available_memory", lambda: needed)
        prepare(pipeline, locations, cg, seq)
        monkeypatch.setattr(layers, "_available_memory", lambda: needed - 1)
        with pytest.raises(InsufficientMemoryError) as info:
            prepare(pipeline, locations, cg, seq)
        assert stage_of(info.value) == "assembly"

    def test_message_gives_both_figures_in_gb(self, monkeypatch, chain_borders):
        monkeypatch.setattr(layers, "_available_memory", lambda: 0)
        with pytest.raises(
            InsufficientMemoryError, match=r"^needs an estimated 0\.0 GB, 0\.0 GB available$"
        ):
            prepare("two_layer", twenty_locations(), chain_borders)
        # Figures are in units of 10^9 bytes, one decimal.
        monkeypatch.setattr(layers, "_available_memory", lambda: 2_345_000_000)
        with pytest.raises(
            InsufficientMemoryError, match=r"^needs an estimated 2\.5 GB, 2\.3 GB available$"
        ):
            layers._check_memory("geo", 17_678)

    def test_unreadable_memory_checks_nothing(self, monkeypatch, chain_borders):
        monkeypatch.setattr(layers, "_available_memory", lambda: None)
        assert prepare("two_layer", twenty_locations(), chain_borders).distances.n == 20


class TestAvailableMemory:
    @pytest.fixture
    def proc(self, tmp_path, monkeypatch):
        """Point the reader at a fake meminfo, cgroup list and cgroup tree under tmp_path."""
        monkeypatch.setattr(layers, "_MEMINFO", tmp_path / "meminfo")
        monkeypatch.setattr(layers, "_CGROUP", tmp_path / "cgroup")
        monkeypatch.setattr(layers, "_CGROUP_ROOT", tmp_path / "fs")
        (tmp_path / "fs" / "job").mkdir(parents=True)
        return tmp_path

    def write_cgroup(self, root, limit, current=1000):
        (root / "cgroup").write_text("4:memory:/old\n0::/job\n")
        (root / "fs" / "job" / "memory.max").write_text(f"{limit}\n")
        (root / "fs" / "job" / "memory.current").write_text(f"{current}\n")

    def test_mem_available_in_bytes(self, proc):
        (proc / "meminfo").write_text("MemTotal: 900 kB\nMemFree: 10 kB\nMemAvailable: 500 kB\n")
        assert layers._available_memory() == 500 * 1024

    def test_lowered_to_the_cgroup_headroom(self, proc):
        (proc / "meminfo").write_text("MemAvailable: 500 kB\n")
        self.write_cgroup(proc, 201_000)
        assert layers._available_memory() == 200_000
        self.write_cgroup(proc, 10**9)
        assert layers._available_memory() == 500 * 1024

    def test_inactive_page_cache_is_not_used_memory(self, proc):
        (proc / "meminfo").write_text("MemAvailable: 500 kB\n")
        self.write_cgroup(proc, 201_000, current=150_000)
        stat = proc / "fs" / "job" / "memory.stat"
        stat.write_text("anon 90000\nfile 60000\nactive_file 20000\ninactive_file 40000\n")
        assert layers._available_memory() == 201_000 - (150_000 - 40_000)
        # Without a readable inactive_file line, all of memory.current is used.
        for text in ("anon 90000\nactive_file 20000\n", "inactive_file many\n"):
            stat.write_text(text)
            assert layers._available_memory() == 51_000
        stat.unlink()
        assert layers._available_memory() == 51_000

    def test_unlimited_cgroup_leaves_mem_available(self, proc):
        (proc / "meminfo").write_text("MemAvailable: 500 kB\n")
        self.write_cgroup(proc, "max")
        assert layers._available_memory() == 500 * 1024

    def test_either_source_alone(self, proc):
        self.write_cgroup(proc, 201_000)
        assert layers._available_memory() == 200_000
        (proc / "cgroup").write_text("4:memory:/old\n")
        assert layers._available_memory() is None
        (proc / "meminfo").write_text("MemTotal: 900 kB\n")
        assert layers._available_memory() is None

    def test_reads_this_host_or_nothing(self):
        available = layers._available_memory()
        assert available is None or (isinstance(available, int) and available > 0)


def layout_csv(coords, pipeline, tmp_path, countries=None):
    """displacement.csv, read back as (location_id, vector, length) rows, of
    coordinates in the point layout of `pipeline`."""
    path = tmp_path / "displacement.csv"
    write_displacement_csv(displacement(fake_embedding(coords, LAYOUTS[pipeline])), path, countries)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("location_id,layer_a,layer_b,")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[1:3] == ["distance", "border"]
        rows.append((int(cells[0]), tuple(map(float, cells[3:-2])), float(cells[-2])))
    return rows


class TestDisplacement:
    def test_identical_copies_have_zero_length(self, tmp_path):
        coords = [[1.0, 2.0], [3.0, 4.0], [1.0, 2.0], [3.0, 4.0]]
        vectors = displacement(fake_embedding(coords, LAYOUTS["two_layer"]))
        assert np.array_equal(vectors, np.zeros((2, 2)))
        assert [length for _, _, length in layout_csv(coords, "two_layer", tmp_path)] == [0.0, 0.0]

    def test_hand_vectors_and_ordering(self, tmp_path):
        # Distance-layer points first, then border-layer points.
        coords = [[0.0, 0.0], [1.0, 1.0], [3.0, 4.0], [1.0, 1.0]]
        vectors = displacement(fake_embedding(coords, LAYOUTS["two_layer"]))
        assert vectors.tolist() == [[3.0, 4.0], [0.0, 0.0]]
        rows = layout_csv(coords, "two_layer", tmp_path)
        assert rows == [(0, (3.0, 4.0), 5.0), (1, (0.0, 0.0), 0.0)]

    def test_equal_lengths_sort_by_location(self, tmp_path):
        coords = [[0.0], [0.0], [0.0], [-1.0], [2.0], [1.0]]
        rows = layout_csv(coords, "two_layer", tmp_path)
        assert [lid for lid, _, _ in rows] == [1, 0, 2]
        assert [length for _, _, length in rows] == [2.0, 1.0, 1.0]

    def test_two_copies_give_their_centroid(self):
        # One location: border out/in, distance out/in, sequence out/in.
        coords = [[10.0], [20.0], [0.0], [4.0], [100.0], [-7.0]]
        vectors = displacement(fake_embedding(coords, LAYOUTS["three_layer"]))
        assert vectors.tolist() == [[13.0]]  # centroids 2 and 15

    def test_matches_loop_oracle_with_both_and_single_copies(self, tmp_path):
        rng = np.random.default_rng(41)
        for pipeline, (layer_tags, copies) in LAYOUTS.items():
            for n in (1, 2, 9, 60, 301):
                k = int(rng.integers(1, 4))
                size = len(layer_tags) * len(copies) * n
                # Coordinates over several magnitudes.
                coords = rng.standard_normal((size, k)) * 10.0 ** rng.integers(-8, 3, (size, 1))
                emb = fake_embedding(coords, (layer_tags, copies))
                points = [
                    (lid, layer, coords[i].tolist())
                    for i, (lid, layer, _) in enumerate(points_of(emb, tmp_path))
                ]
                want = displacement_rows(points, "distance", "border")
                assert report_rows(displacement(emb)) == [(lid, vec) for lid, vec, _ in want]
                rows = layout_csv(coords, pipeline, tmp_path)
                assert [(lid, vec) for lid, vec, _ in rows] == [(lid, vec) for lid, vec, _ in want]
                lengths = np.array([length for _, _, length in rows])
                assert np.allclose(lengths, [length for _, _, length in want], rtol=1e-12, atol=0)

    def test_csv_export(self, tmp_path):
        coords = [[0.0, 0.0], [3.0, 4.0]]
        vectors = displacement(fake_embedding(coords, LAYOUTS["two_layer"]))
        path = tmp_path / "displacement.csv"
        write_displacement_csv(vectors, path, countries={0: "Mali"})
        lines = path.read_text().splitlines()
        assert lines[0] == "location_id,layer_a,layer_b,dx,dy,length,country"
        assert lines[1] == "0,distance,border,3.0,4.0,5.0,Mali"


class TestCountrySeparationRatio:
    def test_hand_ratio(self):
        coords = np.array([[0.0], [1.0], [10.0], [11.0]])
        countries = {0: "A", 1: "A", 2: "B", 3: "B"}
        # intra pairs: |0-1|=1 and |10-11|=1; inter: 10, 11, 9, 10
        got = country_separation_ratio(coords, np.arange(4), countries)
        assert got == pytest.approx(10.0, rel=1e-12)

    def test_same_location_pairs_excluded(self):
        coords = np.array([[0.0], [100.0], [1.0], [10.0], [110.0], [11.0]])
        ids = [0, 0, 1, 2, 2, 3]
        countries = {0: "A", 1: "A", 2: "B", 3: "B"}
        got = country_separation_ratio(coords, np.array(ids), countries)
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
        coords = np.array([[0.0], [1.0]])
        with pytest.raises(ValueError, match="inter-country"):
            country_separation_ratio(coords, np.arange(2), {0: "A", 1: "A"})

    def test_no_intra_pairs_rejected(self):
        coords = np.array([[0.0], [1.0]])
        with pytest.raises(ValueError, match="intra-country"):
            country_separation_ratio(coords, np.arange(2), {0: "A", 1: "B"})

    def test_only_same_location_intra_pairs_rejected(self):
        # Two copies of one location per country: every intra pair is excluded.
        coords = np.array([[0.0], [1.0], [5.0], [7.0]])
        with pytest.raises(ValueError, match="intra-country"):
            country_separation_ratio(coords, np.array([0, 1, 0, 1]), {0: "A", 1: "B"})

    def test_zero_intra_distances_rejected(self):
        coords = np.array([[0.0], [0.0], [5.0], [5.0]])
        with pytest.raises(ValueError, match="all zero"):
            country_separation_ratio(coords, np.arange(4), dict(enumerate("AABB")))

    def test_memory_stays_within_two_row_chunks(self):
        # 3000 points as in a two-layer sweep over 1500 locations, k = 2. The
        # two 64-row buffers take 3.1 MB; a single (512, 3000) float array
        # would take 12.3 MB.
        rng = np.random.default_rng(70)
        location_ids = np.tile(np.arange(1500), 2)
        coords = rng.normal(size=(3000, 2))
        country_of = {lid: f"C{lid % 21}" for lid in range(1500)}
        tracemalloc.start()
        try:
            country_separation_ratio(coords, location_ids, country_of)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_blocked_accumulation_matches_direct(self):
        rng = np.random.default_rng(67)
        coords = rng.uniform(-1, 1, (600, 2))
        countries = {i: ("A" if i % 3 else "B") for i in range(600)}
        got = country_separation_ratio(coords, np.arange(600), countries)
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
        # The points are shuffled, so countries interleave and the copies of a
        # location are scattered. First 1300 points over 650 locations, two
        # copies each as in a two-layer embedding. Then 1, 2 and 6 copies,
        # where country "big" holds more than two row chunks of points,
        # "solo" a single point, and n is not a multiple of the chunk.
        rows = layers._PAIR_ROWS
        rng = np.random.default_rng(68)
        cases = [
            (
                np.concatenate([rng.permutation(650), rng.permutation(650)]),
                {lid: f"C{lid % 7}" for lid in range(650)},
            )
        ]
        for copies in (1, 2, 6):
            big = 2 * rows // copies + 5
            country_of = {0: "solo"}
            country_of.update({lid: "big" for lid in range(1, big + 1)})
            country_of.update({lid: f"C{lid % 5}" for lid in range(big + 1, big + 41)})
            location_ids = rng.permutation(
                np.concatenate([[0], np.repeat(np.arange(1, big + 41), copies)])
            )
            assert len(location_ids) % rows and copies * big > 2 * rows
            cases.append((location_ids, country_of))
        for location_ids, country_of in cases:
            countries = [country_of[lid] for lid in location_ids.tolist()]
            for k in (1, 2, 3):
                coords = rng.normal(size=(len(location_ids), k))
                got = country_separation_ratio(coords, location_ids, country_of)
                want = pairwise_separation_ratio(coords.tolist(), location_ids.tolist(), countries)
                assert got == pytest.approx(want, rel=1e-12), (len(location_ids), k)
