import numpy as np
import pytest
from scipy import sparse

from oracles import laplacian, symmetric_product, traversal_components
from permap.geo import invert_distances
from permap.graphs import (
    GroupBlocks,
    WeightMatrix,
    asymmetry,
    laplacian_operator,
    symmetric_scaling,
    symmetrized_operator,
)
from permap.layers import two_layer_operator
from permap.spectral import embed

PRODUCT_RTOL = 1e-13


def wm(values):
    return WeightMatrix(np.asarray(values, dtype=float))


class TestWeightMatrix:
    def test_the_storage_fixes_the_kind(self):
        assert wm([[0.0, 1.0], [1.0, 0.0]]).is_symmetric
        assert WeightMatrix(GroupBlocks([0, 1], np.eye(2))).is_symmetric
        coo = sparse.coo_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        held = WeightMatrix(coo)
        assert held.values.format == "csr" and not held.is_symmetric
        assert np.array_equal(held.toarray(), coo.toarray())
        # A sparse layer is directed, even with equal triangles.
        refusals = (
            (embed, (held, 1), "embed requires a symmetric WeightMatrix or a LaplacianOperator"),
            (two_layer_operator, (held, wm(coo.toarray())), "both layers must be symmetric"),
            (invert_distances, (held,), "invert_distances expects a symmetric distance matrix"),
        )
        for refuse, args, message in refusals:
            with pytest.raises(ValueError, match=message):
                refuse(*args)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            wm(np.zeros((2, 3)))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="nonnegative"):
            wm([[0.0, -1.0], [-1.0, 0.0]])

    def test_rejects_non_finite_entries_dense_and_sparse(self):
        for bad in (np.nan, np.inf, -np.inf):
            values = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
            values[0, 2] = values[2, 0] = bad
            for stored in (values, sparse.csr_matrix(values)):
                with pytest.raises(ValueError, match="entries must be finite"):
                    WeightMatrix(stored)

    def test_rejects_asymmetric_flagged_symmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            wm([[0.0, 1.0], [2.0, 0.0]])

    def test_directed_kind_allows_asymmetry(self):
        m = WeightMatrix(sparse.csr_matrix(np.array([[0.0, 1.0], [2.0, 0.0]])))
        assert m.n == 2 and not m.is_symmetric

    def test_accepts_sparse(self):
        m = WeightMatrix(sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
        assert m.n == 2


def assert_close(got, want):
    want = np.asarray(want)
    assert np.abs(got - want).max() <= PRODUCT_RTOL * np.abs(want).max()


class TestDenseSymmetricProduct:
    @pytest.mark.parametrize("n", [1, 2, 3, 255, 256, 257, 700])
    @pytest.mark.parametrize("diagonal", [False, True])
    def test_matches_the_oracle_from_every_memory_order(self, n, diagonal):
        rng = np.random.default_rng(n)
        upper = np.triu(rng.uniform(0.0, 3.0, (n, n)), 0 if diagonal else 1)
        values = upper + np.triu(upper, 1).T
        x = rng.standard_normal(n)
        want = symmetric_product(values, x)
        want_lap = symmetric_product(laplacian(values), x)
        big = np.zeros((2 * n, 2 * n))
        big[::2, ::2] = values
        for stored in (values.copy(), np.asfortranarray(values), big[::2, ::2]):
            w = WeightMatrix(stored)
            assert w.values.flags.c_contiguous
            # A C-ordered array is kept, not copied.
            assert (w.values is stored) == stored.flags.c_contiguous
            assert_close(w @ x, want)
            assert_close(w.transposed_product()(x), want)
            assert_close(laplacian_operator(w) @ x, want_lap)

    def test_layer_symmetric_within_tolerance_multiplies_as_its_upper_triangle(self):
        # The lower triangle sits about 1e-12 above the upper one: inside
        # SYMMETRY_RTOL, but the two mirrored triangles differ by far more
        # than PRODUCT_RTOL, so reading the wrong one fails.
        rng = np.random.default_rng(11)
        n = 300
        upper = np.triu(rng.uniform(0.5, 1.0, (n, n)), 1)
        values = upper + upper.T
        values[np.tril_indices(n, -1)] *= 1.0 + 1e-12
        np.fill_diagonal(values, rng.uniform(0.5, 1.0, n))
        w = WeightMatrix(values)
        x = rng.uniform(0.5, 1.0, n)
        want = symmetric_product(values, x)
        lower = np.array(symmetric_product(values.T, x))
        assert np.abs(lower - want).max() > 5 * PRODUCT_RTOL * np.abs(want).max()
        assert_close(w @ x, want)
        assert_close(w.transposed_product()(x), want)

    def test_refuses_anything_but_one_vector_of_length_n(self):
        # BLAS would read the first n entries of a longer or flattened x.
        w = wm(np.ones((3, 3)))
        for x in (np.ones(4), np.ones((3, 2)), np.ones(2), np.ones((1, 3))):
            with pytest.raises(ValueError, match="one vector of length 3"):
                w @ x
            with pytest.raises(ValueError, match="one vector of length 3"):
                w.transposed_product()(x)


class TestLaplacian:
    def test_single_edge_two_nodes(self):
        for w in (1.0, 2.5, 7.0):
            lap = laplacian(wm([[0.0, w], [w, 0.0]]))
            assert np.array_equal(lap, [[w, -w], [-w, w]])

    def test_path_graph_rows_sum_zero_and_spectrum(self):
        # 3-node path, unit weights: characteristic polynomial
        # det(L - x I) = -x (x^2 - 4x + 3) has roots {0, 1, 3}.
        lap = laplacian(wm([[0, 1, 0], [1, 0, 1], [0, 1, 0]]))
        assert np.allclose(lap.sum(axis=1), 0.0, atol=1e-15)
        values = np.sort(np.linalg.eigvalsh(lap))
        assert np.allclose(values, [0.0, 1.0, 3.0], atol=1e-12)

    def test_random_rows_sum_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = rng.integers(2, 12)
            m = rng.uniform(0, 3, (n, n))
            m = (m + m.T) / 2
            np.fill_diagonal(m, 0.0)
            lap = laplacian(wm(m))
            scale = max(np.abs(lap).max(), 1.0)
            assert np.abs(lap.sum(axis=1)).max() <= 1e-9 * scale
            assert np.array_equal(lap, lap.T)

    def test_rejects_directed_input(self):
        with pytest.raises(ValueError, match="symmetr"):
            laplacian(WeightMatrix(sparse.csr_matrix(np.array([[0, 1], [2, 0.0]]))))

    def test_sparse_input_matches_dense(self):
        # A sparse layer is directed; as the one block of a walk it is
        # averaged with its transpose, which leaves equal triangles as they are.
        m = np.array([[0, 2, 0], [2, 0, 1], [0, 1, 0.0]])
        w = WeightMatrix(sparse.csr_matrix(m))
        sp = symmetrized_operator(3, {(0, 0): (w.__matmul__, w.transposed_product())}, (w,))
        assert np.array_equal(sp.toarray(), laplacian(wm(m)))

    def test_zero_eigenvalues_count_components(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            sizes = rng.integers(1, 5, size=rng.integers(1, 4))
            blocks = []
            for s in sizes:
                b = rng.uniform(0.5, 2.0, (s, s))
                b = (b + b.T) / 2
                np.fill_diagonal(b, 0.0)
                blocks.append(b)
            m = np.zeros((sum(sizes), sum(sizes)))
            at = 0
            for b in blocks:
                m[at : at + len(b), at : at + len(b)] = b
                at += len(b)
            lap = laplacian(wm(m))
            values = np.linalg.eigvalsh(lap)
            top = max(values.max(), 1.0)
            near_zero = int((np.abs(values) <= 1e-8 * top).sum())
            want, _ = traversal_components(m.tolist())
            assert near_zero == want


# Sizes around the 256-wide tiles of the dense kernels.
TILE_EDGE_SIZES = (1, 2, 255, 256, 257, 600)


def weights_with_zeros(rng, n):
    """Nonnegative n x n weights, about half zeros, over a wide range of scales."""
    m = rng.uniform(0, 1, (n, n)) * 10.0 ** rng.uniform(-6, 6, (n, n))
    m[rng.uniform(size=(n, n)) < 0.5] = 0.0
    return m


class TestTiledKernelsMatchPlainFormulas:
    def test_asymmetry_matches_the_plain_formula(self):
        rng = np.random.default_rng(72)
        for n in TILE_EDGE_SIZES:
            v = weights_with_zeros(rng, n) - weights_with_zeros(rng, n)
            want = np.abs(v - v.T).max()
            assert asymmetry(v) == asymmetry(-v) == want
            sym = (v + v.T) / 2.0
            assert asymmetry(sym) == np.abs(sym - sym.T).max() == 0.0

    def test_laplacian_values_and_zero_signs(self):
        rng = np.random.default_rng(73)
        for n in TILE_EDGE_SIZES:
            v = weights_with_zeros(rng, n)
            w = WeightMatrix((v + v.T) / 2.0)
            got = laplacian(w)
            want = np.diag(w.values.sum(axis=1)) - w.values
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            assert got.flags.c_contiguous and got.dtype == np.float64


def test_symmetric_scaling_rewrites_a_dense_layer_in_its_buffer():
    rng = np.random.default_rng(74)
    for n in (1, 2, 9, 300):
        v = weights_with_zeros(rng, n)
        v = (v + v.T) / 2.0
        scale = rng.uniform(0.1, 2.0, n)
        want = v * ((scale[:, None] + scale[None, :]) * 0.5)
        np.fill_diagonal(want, 0.0)
        w = WeightMatrix(v)
        got = symmetric_scaling(w, scale)
        assert got.values is w.values
        assert np.array_equal(got.values, want)
        assert asymmetry(got.values) == 0.0


def test_symmetric_scaling_of_group_blocks_is_that_of_their_dense_form():
    # Group 5 holds no node; its scale is never read.
    rng = np.random.default_rng(75)
    groups = rng.integers(0, 5, 40)
    m = rng.uniform(0.1, 1.0, (6, 6))
    blocks = WeightMatrix(GroupBlocks(groups, m + m.T))
    scale = rng.uniform(0.1, 2.0, 6)[groups]
    got = symmetric_scaling(blocks, scale)
    assert isinstance(got.values, GroupBlocks)
    want = symmetric_scaling(WeightMatrix(blocks.toarray()), scale)
    assert np.array_equal(got.toarray(), want.values)
    with pytest.raises(ValueError, match="requires a symmetric weight matrix"):
        symmetric_scaling(WeightMatrix(sparse.csr_matrix(blocks.toarray())), scale)


def test_laplacian_type_exposes_n():
    lap = laplacian(wm([[0, 1], [1, 0.0]]))
    assert isinstance(lap, np.ndarray)
    assert lap.shape == (2, 2)
