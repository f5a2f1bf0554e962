import re

import numpy as np
import pytest
from scipy import sparse

from oracles import (
    jacobi_eigh,
    laplacian,
    matrix_operator,
    path_graph_eigenpairs,
    principal_angle_cos,
    traversal_components,
)
from permap.errors import DisconnectedGraphError
from permap.geo import (
    CountryBorderGraph,
    border_blocks,
    country_crossings,
    distance_matrix,
    invert_distances,
)
from permap.graphs import (
    WeightMatrix,
    laplacian_operator,
    symmetrized_operator,
)
from permap.spectral import (
    Embedding,
    PointRef,
    connected_components,
    eigensolve_symmetric,
    embed,
    fix_signs,
    write_eigenvalues_csv,
    write_embedding_csv,
)


def random_symmetric(rng, n):
    m = rng.uniform(-2, 2, (n, n))
    return (m + m.T) / 2.0


def ring_weights(n, rng=None):
    w = np.zeros((n, n))
    for i in range(n):
        w[i, (i + 1) % n] = w[(i + 1) % n, i] = 1.0
    if rng is not None:
        for _ in range(n // 2):
            i, j = rng.integers(0, n, 2)
            if i != j:
                w[i, j] = w[j, i] = rng.uniform(0.5, 2.0)
    return WeightMatrix(w)


class TestEigensolve:
    def test_matches_rotation_oracle_on_random_matrices(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(3, 9))
            m = random_symmetric(rng, n)
            got = eigensolve_symmetric(matrix_operator(m), n)
            want_vals, want_vecs = jacobi_eigh(m.tolist())
            scale = max(abs(v) for v in want_vals) or 1.0
            assert np.allclose(got.values, want_vals, atol=1e-10 * scale)
            for j in range(n):
                mine = got.vectors[:, j]
                theirs = np.array([row[j] for row in want_vecs])
                assert abs(float(mine @ theirs)) >= 1.0 - 1e-8

    def test_scaled_identity(self):
        got = eigensolve_symmetric(matrix_operator(3.0 * np.eye(4)), 2)
        assert np.allclose(got.values, [3.0, 3.0], atol=1e-12)

    def test_path_graph_spectrum(self):
        w = WeightMatrix(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0.0]]))
        got = eigensolve_symmetric(laplacian_operator(w), 3)
        assert np.allclose(got.values, [0.0, 1.0, 3.0], atol=1e-12)

    def test_refuses_a_weight_matrix_in_every_storage(self):
        # A layer is weights, not a Laplacian; solving it would answer the
        # wrong question. A bare matrix, even the Laplacian itself, is
        # refused too: the operator is the one input form.
        ring = ring_weights(6)
        cg = CountryBorderGraph.from_pairs([("A", "B")])
        codes, hops = country_crossings(["A", "A", "B", "B", "B", "A"], cg)
        message = (
            "eigensolve_symmetric takes a LaplacianOperator; "
            "embed a WeightMatrix or wrap it with laplacian_operator"
        )
        for w in (
            ring,
            WeightMatrix(sparse.csr_matrix(ring.values)),
            border_blocks(codes, hops, 0.5),
            laplacian(ring),
            sparse.csr_matrix(laplacian(ring)),
        ):
            with pytest.raises(ValueError, match=re.escape(message)):
                eigensolve_symmetric(w, 2)

    def test_count_bounds(self):
        m = matrix_operator(np.eye(3))
        with pytest.raises(ValueError, match="count"):
            eigensolve_symmetric(m, 0)
        with pytest.raises(ValueError, match="count"):
            eigensolve_symmetric(m, 4)

    def test_iterative_route_matches_dense(self):
        rng = np.random.default_rng(77)
        w = ring_weights(30, rng)
        lap = laplacian(w)
        iterative = eigensolve_symmetric(laplacian_operator(w), 4)
        all_vals, all_vecs = jacobi_eigh(lap.tolist())
        want_vals = np.array(all_vals[:4])
        want_vecs = np.array([row[:4] for row in all_vecs])
        scale = max(abs(want_vals).max(), 1.0)
        assert np.allclose(iterative.values, want_vals, atol=1e-9 * scale)
        assert principal_angle_cos(iterative.vectors[:, 1:], want_vecs[:, 1:]) >= 1 - 1e-6

    def test_iterative_route_is_deterministic(self):
        rng = np.random.default_rng(78)
        lap = laplacian_operator(ring_weights(25, rng))
        first = eigensolve_symmetric(lap, 3)
        second = eigensolve_symmetric(lap, 3)
        assert np.array_equal(first.values, second.values)
        assert np.array_equal(first.vectors, second.vectors)

    def test_near_full_count_falls_back_to_dense(self):
        rng = np.random.default_rng(79)
        w = ring_weights(12, rng)
        got = eigensolve_symmetric(laplacian_operator(w), 11)
        want = np.linalg.eigvalsh(laplacian(w))[:11]
        assert np.allclose(got.values, want, atol=1e-9 * max(want.max(), 1.0))

    def test_near_degenerate_pairs_match_rotation_oracle(self):
        # A ring's Laplacian eigenvalues come in equal pairs; weights of
        # 1 + 1e-3 * noise split each pair by a relative 1e-3 or less.
        rng = np.random.default_rng(81)
        n = 40
        w = np.zeros((n, n))
        for i in range(n):
            w[i, (i + 1) % n] = w[(i + 1) % n, i] = 1.0 + 1e-3 * rng.uniform(-1.0, 1.0)
        layer = WeightMatrix(w)
        lap = laplacian(layer)
        got = eigensolve_symmetric(laplacian_operator(layer), 5)
        all_vals, all_vecs = jacobi_eigh(lap.tolist())
        want_vals = np.array(all_vals[:5])
        want_vecs = np.array([row[:5] for row in all_vecs])
        assert (want_vals[2] - want_vals[1]) / want_vals[2] < 1e-2
        scale = max(abs(want_vals).max(), 1.0)
        assert np.abs(got.values - want_vals).max() <= 1e-9 * scale
        for pair in (slice(1, 3), slice(3, 5)):
            assert principal_angle_cos(got.vectors[:, pair], want_vecs[:, pair]) >= 1 - 1e-8

    def test_restarted_lanczos_matches_path_graph_closed_form(self):
        # Larger than the 40-vector Lanczos basis, so ARPACK restarts; the
        # smallest eigenvalues are 1e-4 apart at n = 400.
        for n in (120, 400):
            w = np.zeros((n, n))
            i = np.arange(n - 1)
            w[i, i + 1] = w[i + 1, i] = 1.0
            all_vals, all_vecs = path_graph_eigenpairs(n)
            want_vals = np.array(all_vals[:4])
            want_vecs = np.array(all_vecs)[:, :4]
            got = eigensolve_symmetric(laplacian_operator(WeightMatrix(w)), 4)
            assert np.abs(got.values - want_vals).max() <= 1e-12 * 4.0
            for j in range(4):
                assert abs(float(got.vectors[:, j] @ want_vecs[:, j])) >= 1 - 1e-10

    def test_sparse_input_matches_dense(self):
        # The same weights as a CSR directed block of a walk, whose average
        # with its transpose is the symmetric layer itself.
        rng = np.random.default_rng(80)
        w = ring_weights(16, rng)
        a = eigensolve_symmetric(laplacian_operator(w), 4)
        b = eigensolve_symmetric(one_block(w.values), 4)
        assert np.allclose(a.values, b.values, atol=1e-10)

    def test_residuals_reported_small(self):
        got = eigensolve_symmetric(matrix_operator(np.diag([1.0, 2.0, 3.0])), 3)
        assert got.residuals.shape == (3,)
        assert got.residuals.max() <= 1e-10


def walk(grid):
    """The operator of A = (R + R^T) / 2 for a raw walk R given as {(row, col): block}.

    Each block is a directed layer, held as CSR, so one-way entries stay one-way in R.
    """
    blocks = {key: WeightMatrix(sparse.csr_matrix(values)) for key, values in grid.items()}
    n = next(iter(blocks.values())).n
    pairs = {key: (w.__matmul__, w.transposed_product()) for key, w in blocks.items()}
    return symmetrized_operator(n, pairs, tuple(blocks.values()))


def one_block(values):
    return walk({(0, 0): values})


class TestConnectedComponents:
    def test_single_edge(self):
        count, labels = connected_components(one_block(np.array([[0.0, 1.0], [1.0, 0.0]])))
        assert count == 1 and labels.tolist() == [0, 0]

    def test_two_blocks(self):
        m = np.zeros((5, 5))
        m[0, 1] = m[1, 0] = 1.0
        m[2, 3] = m[3, 2] = m[3, 4] = m[4, 3] = 1.0
        count, labels = connected_components(one_block(m))
        assert count == 2
        assert labels.tolist() == [0, 0, 1, 1, 1]

    def test_labels_follow_first_appearance(self):
        # node 0 is isolated, nodes 1-2 form the second component
        m = np.zeros((3, 3))
        m[1, 2] = m[2, 1] = 1.0
        count, labels = connected_components(one_block(m))
        assert count == 2
        assert labels.tolist() == [0, 1, 1]

    def test_matches_traversal_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(2, 15))
            m = rng.uniform(0, 1, (n, n)) * (rng.uniform(size=(n, n)) < 0.15)
            m = (m + m.T) / 2.0
            np.fill_diagonal(m, 0.0)
            count, labels = connected_components(one_block(m))
            want_count, want_labels = traversal_components(m.tolist())
            assert count == want_count
            assert labels.tolist() == want_labels

    def test_matches_traversal_oracle_at_scale_dense_and_csr(self):
        rng = np.random.default_rng(43)
        n = 600
        for _ in range(3):
            # Nodes dealt at random into four clusters plus isolated nodes,
            # wired one way only.
            group = rng.integers(0, 5, n)
            m = rng.uniform(0.1, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.03)
            m[group[:, None] != group[None, :]] = 0.0
            m[group == 4, :] = 0.0
            m[:, group == 4] = 0.0
            m[np.tril_indices(n)] = 0.0
            csr = sparse.csr_matrix(m)
            csr.data[::5] = 0.0  # stored zeros are not edges
            for values in (m, csr, csr.toarray()):
                dense = values.toarray() if sparse.issparse(values) else values
                want_count, want_labels = traversal_components(dense.tolist())
                assert want_count >= 3 and np.bincount(want_labels).min() == 1
                count, labels = connected_components(one_block(values))
                assert count == want_count
                assert labels.tolist() == want_labels

    def test_matches_traversal_oracle_over_several_copies(self):
        rng = np.random.default_rng(44)
        n, copies = 60, 3
        for _ in range(4):
            isolated = rng.uniform(size=n) < 0.1
            # The largest copy must be listed for the operator to span it.
            grid = {(copies - 1, 0): sparse.csr_matrix((n, n))}
            raw = np.zeros((copies * n, copies * n))
            for row in range(copies):
                for col in range(copies):
                    if rng.uniform() < 0.4:
                        continue
                    block = rng.uniform(0.1, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.02)
                    block[isolated, :] = block[:, isolated] = 0.0
                    if row == col:
                        np.fill_diagonal(block, 0.0)
                    csr = sparse.csr_matrix(block)
                    csr.data[::4] = 0.0  # stored zeros are not edges
                    grid[row, col] = csr
                    raw[row * n : (row + 1) * n, col * n : (col + 1) * n] = csr.toarray()
            want_count, want_labels = traversal_components(((raw + raw.T) / 2.0).tolist())
            assert want_count > isolated.sum() * copies
            count, labels = connected_components(walk(grid))
            assert count == want_count
            assert labels.tolist() == want_labels


class TestFixSigns:
    def test_flips_negative_leader(self):
        out = fix_signs(np.array([[-0.8], [0.6]]))
        assert np.array_equal(out, [[0.8], [-0.6]])

    def test_keeps_positive_leader(self):
        v = np.array([[0.8], [-0.6]])
        assert np.array_equal(fix_signs(v), v)

    def test_tie_breaks_to_lowest_index(self):
        out = fix_signs(np.array([[-0.5], [0.5]]))
        assert np.array_equal(out, [[0.5], [-0.5]])

    def test_columns_independent(self):
        m = np.array([[-0.8, 0.6], [0.6, 0.8]])
        out = fix_signs(m)
        assert np.array_equal(out, [[0.8, 0.6], [-0.6, 0.8]])

    def test_input_not_mutated(self):
        m = np.array([[-1.0], [0.5]])
        fix_signs(m)
        assert m[0, 0] == -1.0


class TestEmbed:
    def test_two_node_graph(self):
        for w in (1.0, 2.5):
            emb = embed(WeightMatrix(np.array([[0.0, w], [w, 0.0]])), 1)
            assert emb.eigenvalues[0] == pytest.approx(2.0 * w, rel=1e-12)
            r = 1.0 / np.sqrt(2.0)
            assert emb.coordinates[:, 0] == pytest.approx([r, -r], abs=1e-12)

    def test_four_cycle_ring_distances_equal(self):
        emb = embed(ring_weights(4), 2)
        pts = emb.coordinates
        gaps = [np.linalg.norm(pts[i] - pts[(i + 1) % 4]) for i in range(4)]
        assert max(gaps) - min(gaps) <= 1e-6

    def test_dimension_bounds(self):
        w = ring_weights(4)
        with pytest.raises(ValueError, match="dimension"):
            embed(w, 0)
        with pytest.raises(ValueError, match="dimension"):
            embed(w, 4)

    def test_requires_symmetric_weight_matrix(self):
        with pytest.raises(ValueError, match="symmetric"):
            embed(WeightMatrix(sparse.csr_matrix(np.array([[0.0, 1.0], [2.0, 0.0]]))), 1)

    def test_disconnected_graph_reports_sizes(self):
        m = np.zeros((5, 5))
        m[0, 1] = m[1, 0] = 1.0
        m[2, 3] = m[3, 2] = m[3, 4] = m[4, 3] = 1.0
        with pytest.raises(DisconnectedGraphError, match=r"2 components \(sizes \[2, 3\]\)"):
            embed(WeightMatrix(m), 1)

    def test_vanishing_bridge_counts_as_disconnected(self):
        w = WeightMatrix(np.array([[0.0, 1e-30], [1e-30, 0.0]]))
        with pytest.raises(DisconnectedGraphError, match="multiplicity"):
            embed(w, 1)

    def test_invariants_on_random_connected_graph(self):
        rng = np.random.default_rng(55)
        emb = embed(ring_weights(9, rng), 3)
        gram = emb.coordinates.T @ emb.coordinates
        assert np.allclose(gram, np.eye(3), atol=1e-6)
        assert (emb.eigenvalues > 0).all()
        assert np.all(np.diff(emb.eigenvalues) >= -1e-12)
        assert emb.residuals.max() <= 1e-8 * 10
        assert len(emb.provenance) == 9 and emb.k == 3
        assert emb.provenance[0] == PointRef(0, "-", "-")

    def test_repeat_runs_bit_identical(self):
        rng = np.random.default_rng(56)
        w = ring_weights(14, rng)
        a = embed(w, 2)
        b = embed(w, 2)
        assert np.array_equal(a.coordinates, b.coordinates)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)

    def test_geodesic_fixture_matches_rotation_oracle(self, twelve_locations):
        w = invert_distances(distance_matrix(twelve_locations))
        emb = embed(w, 2)
        lap = laplacian(w)
        want_vals, want_vecs = jacobi_eigh(lap.tolist(), sweeps=200)
        scale = max(abs(v) for v in want_vals)
        assert abs(want_vals[0]) <= 1e-9 * scale
        assert np.allclose(emb.eigenvalues, want_vals[1:3], atol=1e-8 * scale)
        oracle = fix_signs(np.array([[row[1], row[2]] for row in want_vecs]))
        assert np.allclose(emb.coordinates, oracle, atol=1e-6)

    def test_custom_provenance_length_checked(self):
        w = ring_weights(4)
        with pytest.raises(ValueError, match="provenance"):
            embed(w, 1, provenance=[PointRef(0, "-", "-")])


class TestCsvExport:
    def test_embedding_rows(self, tmp_path):
        emb = embed(ring_weights(4), 2)
        path = tmp_path / "embedding.csv"
        write_embedding_csv(emb, path, countries={i: f"C{i}" for i in range(4)})
        lines = path.read_text().splitlines()
        assert lines[0] == "point_id,location_id,layer,copy,x,y,country"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0" and first[2] == "-" and first[3] == "-"
        assert first[6] == "C0"
        assert float(first[4]) == emb.coordinates[0, 0]

    def test_embedding_without_countries(self, tmp_path):
        emb = embed(ring_weights(4), 1)
        path = tmp_path / "embedding.csv"
        write_embedding_csv(emb, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "point_id,location_id,layer,copy,x,country"
        assert lines[1].endswith(",")

    def test_three_dims_use_xyz_and_more_is_rejected(self, tmp_path):
        emb = embed(ring_weights(6), 3)
        path = tmp_path / "embedding.csv"
        write_embedding_csv(emb, path)
        assert path.read_text().splitlines()[0] == "point_id,location_id,layer,copy,x,y,z,country"
        wide = Embedding(
            np.zeros((6, 4)),
            np.ones(4),
            tuple(PointRef(i, "-", "-") for i in range(6)),
            np.zeros(4),
        )
        with pytest.raises(ValueError, match="coordinate columns"):
            write_embedding_csv(wide, tmp_path / "wide.csv")

    def test_eigenvalue_sidecar(self, tmp_path):
        emb = embed(ring_weights(5), 2)
        path = tmp_path / "eigenvalues.csv"
        write_eigenvalues_csv(emb, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "dimension,eigenvalue"
        assert lines[1].startswith("1,") and lines[2].startswith("2,")
        assert float(lines[1].split(",")[1]) == emb.eigenvalues[0]

    def test_round_trip_precision(self, tmp_path):
        emb = embed(ring_weights(7, np.random.default_rng(3)), 2)
        path = tmp_path / "embedding.csv"
        write_embedding_csv(emb, path)
        lines = path.read_text().splitlines()[1:]
        got = np.array([[float(v) for v in line.split(",")[4:6]] for line in lines])
        assert np.array_equal(got, emb.coordinates)
