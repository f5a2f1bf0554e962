"""The structured Laplacian operators against the assembled reference builders.

`layers.solve` never forms a system matrix or a Laplacian array. Every
product of its operators must match the Laplacian of the assembled
builders (`build_two_layer`, `build_three_layer`, and the n x n geo
weights) applied to the same vectors.
"""

import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from conftest import benchmark_workloads, make_location
from oracles import group_blocks_laplacian_spectrum, laplacian
from permap import graphs, layers
from permap.cli import _prepare
from permap.config import load_config
from permap.errors import DisconnectedGraphError, IsolatedNodeError
from permap.geo import (
    CountryBorderGraph,
    border_blocks,
    border_permeability_matrix,
    closeness_matrix,
    country_crossings,
    country_farthest,
    crossings_matrix,
    distance_matrix,
    invert_distances,
    linear_border_distances,
    load_reference_borders,
    priced_top,
)
from permap.graphs import (
    GroupBlocks,
    WeightMatrix,
    laplacian_operator,
)
from permap.layers import (
    build_three_layer,
    build_two_layer,
    system_operator,
    three_layer_operator,
    two_layer_operator,
    walk_block,
)
from permap.spectral import eigensolve_symmetric, embed

RTOL = 1e-13
# Small enough that p ** 2 underflows to 0 while p ** 1 does not.
UNDERFLOW_P = 1e-200


def dense(blocks):
    """Block weights column by column; each product of a unit vector is exact."""
    return np.column_stack([blocks @ unit for unit in np.eye(blocks.n)])


def relative_error(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


def check_products(lap, reference, rng, columns=3):
    """lap @ X against the reference Laplacian, and the inf-norm against its rows."""
    x = rng.standard_normal((reference.shape[0], columns))
    assert relative_error(lap @ x, reference @ x) <= RTOL
    row_norms = np.asarray(abs(reference).sum(axis=1)).ravel()
    assert lap.inf_norm == pytest.approx(row_norms.max(), rel=RTOL)


def random_layer(rng, n, density=0.6, diagonal=False):
    m = rng.uniform(0.1, 3.0, (n, n)) * (rng.uniform(size=(n, n)) < density)
    m = np.triu(m, 1)
    m = m + m.T
    # A connected ring keeps every row positive.
    ring = np.arange(n)
    m[ring, (ring + 1) % n] = m[(ring + 1) % n, ring] = 1.0
    if diagonal:
        m[ring, ring] = rng.uniform(0.0, 2.0, n)
    return WeightMatrix(m)


def random_borders(rng, n, countries=4):
    """Chain-bordered countries, codes for n locations and the n x n crossings.

    Each country gets at least two locations, so every border row keeps
    its within-country weight of 1 even where p ** hops underflows.
    """
    countries = max(1, min(countries, n // 2))
    names = [f"C{i}" for i in range(countries)] + ["end"]
    cg = CountryBorderGraph.from_pairs(list(zip(names, names[1:])))
    located = [names[i] for i in rng.permutation(np.arange(n) % countries)]
    codes, hops = country_crossings(located, cg)
    return codes, hops, crossings_matrix(located, cg)


def walked(w_a, w_b):
    """two_layer_operator of the walk blocks of w_a and w_b; a dense layer is copied first."""

    def block(w, layer):
        return walk_block(w if isinstance(w.values, GroupBlocks) else WeightMatrix(w.toarray()), layer)

    return two_layer_operator(block(w_a, "distance"), block(w_b, "border"))


def random_sequence(rng, n):
    a = rng.integers(0, 3, (n, n)).astype(float) * (rng.uniform(size=(n, n)) < 0.3)
    np.fill_diagonal(a, 0.0)
    a[0, 1] = 1.0
    return WeightMatrix(sparse.csr_matrix(a))


class TestGroupBlocks:
    def test_matches_dense_form(self):
        rng = np.random.default_rng(200)
        for p in (1.0, 0.5, UNDERFLOW_P):
            codes, hops, crossings = random_borders(rng, 30)
            blocks = border_blocks(codes, hops, p)
            full = border_permeability_matrix(crossings, p).values
            assert np.array_equal(dense(blocks), full)
            x = rng.standard_normal(30)
            assert relative_error(blocks @ x, full @ x) <= RTOL
            assert np.allclose(blocks.row_sums(), full.sum(axis=1), rtol=RTOL, atol=0)
            assert blocks.nonzero_mean() == pytest.approx(full[full != 0].mean(), rel=RTOL)

    def test_nonzero_mean_skips_underflowed_blocks(self):
        # Three countries in a chain; the two ends are 2 crossings apart, so
        # their block underflows to 0 and must not count as an entry.
        table = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.5], [0.0, 0.5, 1.0]])
        blocks = WeightMatrix(GroupBlocks([0, 0, 1, 2], table))
        full = dense(blocks)
        assert np.count_nonzero(full) == 8
        assert blocks.nonzero_mean() == pytest.approx(full.sum() / 8, rel=RTOL)

    def test_any_table_order_gives_the_same_bits(self):
        # The table is stored C-ordered, so a Fortran-ordered or transposed
        # one multiplies and sums its rows exactly as a C-ordered one.
        rng = np.random.default_rng(208)
        groups = rng.integers(0, 7, 200)
        m = rng.uniform(0.1, 1.0, (7, 7))
        table = np.ascontiguousarray(m + m.T)
        x = rng.standard_normal(200)
        want = GroupBlocks(groups, table)
        for other in (np.asfortranarray(table), table.T):
            got = GroupBlocks(groups, other)
            assert got.table.flags.c_contiguous
            assert np.array_equal(got @ x, want @ x)
            assert np.array_equal(got.row_sums(), want.row_sums())

    def test_table_checks(self):
        # The WeightMatrix holding the blocks checks the table's entries.
        def blocks(table):
            return WeightMatrix(GroupBlocks([0, 1], table))

        with pytest.raises(ValueError, match="not symmetric"):
            blocks([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError, match="nonnegative"):
            blocks([[1.0, -0.5], [-0.5, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            blocks([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(ValueError, match="index rows"):
            GroupBlocks([0, 2], np.eye(2))


@pytest.fixture(scope="module")
def seed_101_inputs(tmp_path_factory):
    """The prepared seed-101 benchmark inputs of the two multilayer workloads.

    1500 locations for two layers, 800 for three layers, 21 countries up
    to 7 crossings apart.
    """
    workloads = benchmark_workloads()
    root = tmp_path_factory.mktemp("seed_101")
    prepared = {}
    for name in ("two_layer_sweep", "three_layer_embed"):
        gen = workloads.generate(workloads.WORKLOADS[name], 101, 0, root / name)
        prepared[name] = _prepare(load_config(gen.config_json))[0]
    return prepared


class TestOperatorsMatchAssembledBuilders:
    def test_single_layer_wraps_dense_and_sparse(self):
        # The two symmetric storages: a dense layer and country blocks.
        rng = np.random.default_rng(201)
        w = random_layer(rng, 25, diagonal=True)
        check_products(laplacian_operator(w), laplacian(w), rng)
        codes, hops, crossings = random_borders(rng, 25)
        full = border_permeability_matrix(crossings, 0.5)
        check_products(laplacian_operator(border_blocks(codes, hops, 0.5)), laplacian(full), rng)
        lap = laplacian_operator(w)
        assert np.array_equal(lap.toarray(), laplacian(w))

    def test_two_layer_on_random_layers(self):
        rng = np.random.default_rng(202)
        for n in (2, 9, 60):
            for p in (1.0, 0.5, UNDERFLOW_P):
                w_dist = random_layer(rng, n, diagonal=True)
                codes, hops, crossings = random_borders(rng, n)
                reference = laplacian(
                    build_two_layer(w_dist, border_permeability_matrix(crossings, p)).assembled
                )
                lap = walked(w_dist, border_blocks(codes, hops, p))
                check_products(lap, reference, rng)
                # Two dense layers, the second with a diagonal to drop.
                w_b = random_layer(rng, n, diagonal=True)
                reference = laplacian(build_two_layer(w_dist, w_b).assembled)
                check_products(walked(w_dist, w_b), reference, rng)

    def test_three_layer_on_random_layers(self):
        rng = np.random.default_rng(203)
        for n in (3, 11, 50):
            for p in (1.0, 0.5, UNDERFLOW_P):
                codes, hops, crossings = random_borders(rng, n, countries=2)
                w_dist = random_layer(rng, n, density=0.3, diagonal=True)
                seq = random_sequence(rng, n)
                reference = laplacian(
                    build_three_layer(border_permeability_matrix(crossings, p), w_dist, seq).assembled
                )
                lap = three_layer_operator(border_blocks(codes, hops, p), w_dist, seq)
                check_products(lap, reference, rng)

    def test_seed_101_benchmark_inputs(self, seed_101_inputs):
        rng = np.random.default_rng(204)
        for name, prepared in seed_101_inputs.items():
            # Dense symmetric layers multiply through one triangle.
            assert np.array_equal(prepared.distances.values, prepared.distances.values.T)
            # The layer inverted in place is the two-step one, bit for bit.
            # The two-layer pipeline keeps its walk block, made in that buffer.
            w_dist = invert_distances(distance_matrix(prepared.locations))
            closeness = closeness_matrix(prepared.locations)
            assert np.array_equal(closeness.values, w_dist.values)
            if name == "two_layer_sweep":
                closeness = walk_block(closeness, "distance")
            assert np.array_equal(prepared.distances.values, closeness.values)
            crossings = crossings_matrix(prepared.locations, load_reference_borders())
            assert np.array_equal(prepared.hops[prepared.codes[:, None], prepared.codes], crossings)
            for p in (1.0, 0.5, UNDERFLOW_P):
                border = border_permeability_matrix(crossings, p)
                lap, layout = system_operator(prepared, p)
                if name == "two_layer_sweep":
                    system = build_two_layer(w_dist, border)
                else:
                    system = build_three_layer(border, w_dist, prepared.sequence)
                assert layout == system.layout
                check_products(lap, laplacian(system.assembled), rng, 2)
        # The geo pipeline runs on the last of them, the 800 three-layer locations.
        d = distance_matrix(prepared.locations)
        geo = replace(
            prepared,
            pipeline="geo",
            distances=d,
            farthest=country_farthest(d, prepared.codes),
            sequence=None,
        )
        priced = invert_distances(linear_border_distances(d, crossings, 100.0))
        check_products(system_operator(geo, 100.0)[0], laplacian(priced), rng, 2)
        # A library caller can still embed the country blocks alone.
        for p in (1.0, 0.5, UNDERFLOW_P):
            reference = laplacian(border_permeability_matrix(crossings, p))
            lap = laplacian_operator(border_blocks(prepared.codes, prepared.hops, p))
            check_products(lap, reference, rng, 2)


def group_block_draws(seed, draws=6):
    """(GroupBlocks border layer, closed-form spectrum) of random country layouts.

    Each draw spreads 2-39 locations over each of 3-7 countries bordered
    by a random tree plus a few extra borders, so groups differ in size
    and crossings, at p = 1 (every block equal), 0.9 and 0.5.
    """
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        countries = int(rng.integers(3, 8))
        names = [f"C{i}" for i in range(countries)]
        pairs = [(names[i], names[int(rng.integers(0, i))]) for i in range(1, countries)]
        extra = [rng.choice(names, 2, replace=False) for _ in range(countries // 3)]
        pairs += [(str(a), str(b)) for a, b in extra]
        counts = rng.integers(2, 40, countries)
        located = [str(c) for c in np.repeat(names, counts)[rng.permutation(counts.sum())]]
        codes, hops = country_crossings(located, CountryBorderGraph.from_pairs(pairs))
        for p in (1.0, 0.9, 0.5):
            w = border_blocks(codes, hops, p)
            counts = np.bincount(codes).tolist()
            yield w, np.array(group_blocks_laplacian_spectrum(counts, w.values.table.tolist()))


class TestGroupBlocksSpectrum:
    """The Laplacian of a country-block border layer has a closed-form spectrum."""

    def test_dense_spectrum_matches_the_closed_form(self):
        for w, want in group_block_draws(209):
            lap = laplacian_operator(w)
            got = np.linalg.eigvalsh(lap.toarray())
            assert np.abs(got - want).max() <= 1e-12 * lap.inf_norm

    def test_eigensolver_values_are_eigenvalues_of_the_closed_form(self):
        for w, want in group_block_draws(209):
            lap = laplacian_operator(w)
            got = eigensolve_symmetric(lap, 12).values
            assert np.all(np.diff(got) >= 0)
            nearest = np.abs(got[:, None] - want[None, :]).min(axis=1)
            assert nearest.max() <= 1e-12 * lap.inf_norm

    @pytest.mark.xfail(
        reason="single-vector Lanczos can miss a copy of a repeated eigenvalue: asked for "
        "12 pairs in the second draw at p = 0.9, it returns 9 copies of 133.68 and then "
        "134.97, where the 12 smallest hold 10 copies; every residual is below 5e-13",
    )
    def test_eigensolver_finds_the_smallest_pairs_of_the_closed_form(self):
        for w, want in group_block_draws(209):
            lap = laplacian_operator(w)
            got = eigensolve_symmetric(lap, 12).values
            assert np.abs(got - want[:12]).max() <= 1e-12 * lap.inf_norm


class TestSymmetrizedOperator:
    def test_matches_dense_oracle_on_a_random_grid(self):
        # Three copies of n locations; R's blocks are a directed CSR layer,
        # country blocks, dense arrays and diagonals. Blocks on R's diagonal
        # have a zero diagonal, as in every multilayer system.
        rng = np.random.default_rng(206)
        n = 13
        codes, hops, _ = random_borders(rng, n)
        seq = random_sequence(rng, n)
        border = border_blocks(codes, hops, 0.5)
        forward = rng.uniform(0.0, 2.0, (n, n))
        hollow = rng.uniform(0.0, 2.0, (n, n))
        np.fill_diagonal(hollow, 0.0)
        d_a, d_b = rng.uniform(0.1, 1.0, (2, n))
        grid = {
            (0, 1): (seq, (seq.__matmul__, seq.transposed_product())),
            (1, 1): (dense(border), (border.__matmul__, border.__matmul__)),
            (2, 0): (forward, (forward.__matmul__, forward.T.__matmul__)),
            (0, 0): (hollow, (hollow.__matmul__, hollow.T.__matmul__)),
            (1, 2): (np.diag(d_a), (lambda x: d_a * x,) * 2),
            (2, 1): (np.diag(d_b), (lambda x: d_b * x,) * 2),
        }
        raw = np.zeros((3 * n, 3 * n))
        for (row, col), (block, _) in grid.items():
            block = block.values.toarray() if isinstance(block, WeightMatrix) else block
            raw[row * n : (row + 1) * n, col * n : (col + 1) * n] = block
        blocks = {key: pair for key, (_, pair) in grid.items()}
        lap = graphs.symmetrized_operator(n, blocks, (seq, border))
        check_products(lap, laplacian((raw + raw.T) / 2.0), rng)
        assert lap.shape == (3 * n, 3 * n)
        assert not np.any(lap @ np.ones(3 * n))

    @staticmethod
    def assert_constant_is_null(lap):
        # degrees are A @ 1, so degrees * 1 - A @ 1 is x - x: exactly +0.0.
        residual = lap @ np.ones(lap.shape[0])
        assert np.count_nonzero(residual) == 0, f"{np.count_nonzero(residual)} nonzero"

    def test_constant_vector_is_null_on_random_layers_in_every_storage(self):
        rng = np.random.default_rng(207)
        for n in (3, 9, 60):
            for p in (1.0, 0.5, UNDERFLOW_P):
                codes, hops, crossings = random_borders(rng, n, countries=2)
                w_dist = random_layer(rng, n, density=0.3, diagonal=True)
                seq = random_sequence(rng, n)
                borders = (border_blocks(codes, hops, p), border_permeability_matrix(crossings, p))
                for border in borders:
                    self.assert_constant_is_null(walked(w_dist, border))
                    self.assert_constant_is_null(three_layer_operator(border, w_dist, seq))

    def test_constant_vector_is_null_on_seed_101_inputs(self, seed_101_inputs):
        for prepared in seed_101_inputs.values():
            for p in (1.0, 0.5, UNDERFLOW_P):
                self.assert_constant_is_null(system_operator(prepared, p)[0])


def chain_sites(rng, n, countries=4):
    """n random locations spread over chain-bordered countries, and the chain."""
    names = [f"C{i}" for i in range(countries)]
    cg = CountryBorderGraph.from_pairs(list(zip(names, names[1:])))
    lats, lons = rng.uniform(5, 20, n), rng.uniform(-10, 10, n)
    located = [names[i] for i in rng.permutation(np.arange(n) % countries)]
    return [make_location(lats[i], lons[i], c) for i, c in enumerate(located)], cg


class TestLinearBorderWeights:
    # geo's linear and none layers are never formed: each product prices and
    # inverts the km matrix, whose 64-row blocks n runs around.
    SIZES = (2, 63, 64, 65, 129, 300)
    COSTS = (0.0, 50.0, 500.0, 1e6)

    def test_bit_equal_to_two_step_form(self):
        # What the operator reads is the two-step form's, bit for bit: the
        # km matrix, and the scale invert_distances reads off the priced one.
        rng = np.random.default_rng(205)
        for n in self.SIZES:
            locations, cg = chain_sites(rng, n)
            crossings = crossings_matrix(locations, cg)
            prepared = layers.prepare("geo", locations, cg)
            d = distance_matrix(locations)
            assert np.array_equal(prepared.distances.values, d.values)
            for cost in self.COSTS + (37.5,):
                priced = linear_border_distances(d, crossings, cost).values
                top = priced_top(prepared.farthest, prepared.hops, cost)
                assert top == 1.1 * float(priced.max())
        with pytest.raises(ValueError, match="nonnegative"):
            system_operator(prepared, -1.0)

    def test_products_match_the_dense_layer(self):
        rng = np.random.default_rng(208)
        for n in self.SIZES:
            locations, cg = chain_sites(rng, n)
            crossings = crossings_matrix(locations, cg)
            d = distance_matrix(locations)
            prepared = layers.prepare("geo", locations, cg)
            for cost in self.COSTS:
                lap, _ = system_operator(prepared, cost)
                priced = invert_distances(linear_border_distances(d, crossings, cost))
                check_products(lap, laplacian(priced), rng)
                assert not np.any(lap @ np.ones(n))
            plain = layers.prepare("geo", locations, None)
            assert plain.codes is plain.hops is None
            lap, _ = system_operator(plain, None)
            check_products(lap, laplacian(invert_distances(d)), rng)
            assert not np.any(lap @ np.ones(n))

    def test_zero_distances_are_refused(self):
        # Every location on one spot: nothing to invert, with or without borders.
        cg = CountryBorderGraph.from_pairs([("A", "B")])
        locations = [make_location(1.0, 1.0, "A") for _ in range(3)]
        for borders, value in ((None, None), (cg, 0.0), (cg, 9.0)):
            prepared = layers.prepare("geo", locations, borders)
            with pytest.raises(ValueError, match="all distances are zero; nothing to invert"):
                system_operator(prepared, value)


def two_clusters():
    """Six locations in two countries three crossings apart."""
    cg = CountryBorderGraph.from_pairs([("A", "X"), ("X", "Y"), ("Y", "B")])
    locations = [make_location(1.0 + i, 1.0, "A" if i < 4 else "B") for i in range(6)]
    codes, hops = country_crossings(locations, cg)
    dist = np.zeros((6, 6))
    dist[:4, :4] = dist[4:, 4:] = 1.0
    np.fill_diagonal(dist, 0.0)
    seq = np.zeros((6, 6))
    seq[0, 1] = seq[4, 5] = 1.0
    return codes, hops, WeightMatrix(dist), WeightMatrix(sparse.csr_matrix(seq))


class TestFailures:
    def test_disconnected_union_of_layer_supports(self):
        # p ** 3 underflows, so no layer has an edge between the countries.
        codes, hops, w_dist, seq = two_clusters()
        crossings = hops[codes[:, None], codes]
        blocks = border_blocks(codes, hops, UNDERFLOW_P)
        dense = border_permeability_matrix(crossings, UNDERFLOW_P)
        cases = (
            (walked(w_dist, blocks), build_two_layer(w_dist, dense), "[8, 4]"),
            (
                three_layer_operator(blocks, w_dist, seq),
                build_three_layer(dense, w_dist, seq),
                "[24, 12]",
            ),
        )
        for lap, system, sizes in cases:
            message = re.escape(f"graph has 2 components (sizes {sizes})")
            with pytest.raises(DisconnectedGraphError, match=message):
                embed(lap, 2)
            # The assembled system fails the same way.
            with pytest.raises(DisconnectedGraphError, match=message):
                embed(system.assembled, 2)

    def test_one_bridge_in_any_layer_connects(self):
        codes, hops, w_dist, seq = two_clusters()
        blocks = border_blocks(codes, hops, UNDERFLOW_P)
        bridged = seq.values.toarray()
        bridged[3, 4] = 1.0
        emb = embed(three_layer_operator(blocks, w_dist, WeightMatrix(sparse.csr_matrix(bridged))), 2)
        assert len(emb.coordinates) == 36

    def test_zero_row_names_its_layer(self):
        # A location alone in its country, with every border block to it
        # underflowed, has no border weight at all.
        cg = CountryBorderGraph.from_pairs([("A", "X"), ("X", "Y"), ("Y", "B")])
        codes, hops = country_crossings(["A", "A", "A", "B"], cg)
        blocks = border_blocks(codes, hops, UNDERFLOW_P)
        full = WeightMatrix(np.ones((4, 4)) - np.eye(4))
        seq = WeightMatrix(sparse.csr_matrix(np.eye(4, k=1)))
        with pytest.raises(IsolatedNodeError, match="node 3 in layer 'border'"):
            walked(full, blocks)
        with pytest.raises(IsolatedNodeError, match="node 3 in layer 'border'"):
            three_layer_operator(blocks, full, seq)
        hollow = full.values.copy()
        hollow[1, :] = hollow[:, 1] = 0.0
        with pytest.raises(IsolatedNodeError, match="node 1 in layer 'distance'"):
            walked(WeightMatrix(hollow), full)
        with pytest.raises(IsolatedNodeError, match="node 1 in layer 'distance'"):
            three_layer_operator(full, WeightMatrix(hollow), seq)


def test_a_two_layer_product_multiplies_by_each_layer_once(
    monkeypatch, twelve_locations, chain_borders
):
    # Each layer block is symmetrized once, in prepare or per border value,
    # so a product needs no second pass over the n x n layer.
    calls = Counter()
    product = WeightMatrix.__matmul__

    def counted(self, x):
        calls[type(self.values).__name__] += 1
        return product(self, x)

    monkeypatch.setattr(WeightMatrix, "__matmul__", counted)
    lap, _ = system_operator(layers.prepare("two_layer", twelve_locations, chain_borders), 0.5)
    calls.clear()
    lap @ np.cos(np.arange(lap.shape[0]))
    assert calls == {"ndarray": 1, "GroupBlocks": 1}


def test_solve_forms_no_system_laplacian_or_crossings(monkeypatch, twelve_locations, chain_borders):
    """Every pipeline solves with the assembled builders and n x n forms disabled."""
    import permap

    def refuse(*args, **kwargs):
        raise AssertionError("the solve path must not call this")

    disabled = [
        layers.build_two_layer,
        layers.build_three_layer,
        permap.geo.crossings_matrix,
        permap.geo.border_permeability_matrix,
        permap.geo.linear_border_distances,
    ]
    for module in (graphs, layers, permap.geo, permap.spectral, permap):
        for attr, value in list(vars(module).items()):
            if any(value is fn for fn in disabled):
                monkeypatch.setattr(module, attr, refuse)

    codes, hops = country_crossings(twelve_locations, chain_borders)
    locations = tuple(twelve_locations)
    d = distance_matrix(locations)
    closeness = invert_distances(d)
    seq = np.zeros((12, 12))
    seq[0, 1] = seq[4, 5] = seq[8, 9] = 1.0
    seq_layer = WeightMatrix(sparse.csr_matrix(seq))
    runs = [
        ("geo", None, None, d, None, None),
        ("geo", codes, hops, d, None, 100.0),
        ("two_layer", codes, hops, walk_block(invert_distances(d), "distance"), None, 0.5),
        ("three_layer", codes, hops, closeness, seq_layer, 0.5),
    ]
    for pipeline, codes, hops, distances, sequence, value in runs:
        farthest = None
        if pipeline == "geo":
            farthest = country_farthest(d, codes)
        prepared = layers.Prepared(pipeline, locations, codes, hops, distances, farthest, sequence)
        emb, vectors = layers.solve(prepared, value, 2)
        assert len(emb.coordinates) == 12 * {"geo": 1, "two_layer": 2, "three_layer": 6}[prepared.pipeline]
        assert (vectors is None) == (prepared.pipeline == "geo")
