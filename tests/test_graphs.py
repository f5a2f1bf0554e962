import numpy as np
import pytest
from scipy import sparse

from oracles import traversal_components
from permap.graphs import (
    DIRECTED,
    SYMMETRIC,
    WeightMatrix,
    asymmetry,
    laplacian,
    mean_nonzero_normalize,
    symmetrize,
)


def wm(values, kind=SYMMETRIC):
    return WeightMatrix(np.asarray(values, dtype=float), kind)


class TestWeightMatrix:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            WeightMatrix(np.zeros((2, 2)), "sideways")

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
                for kind in (SYMMETRIC, DIRECTED):
                    with pytest.raises(ValueError, match="entries must be finite"):
                        WeightMatrix(stored, kind)

    def test_rejects_asymmetric_flagged_symmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            wm([[0.0, 1.0], [2.0, 0.0]])

    def test_directed_kind_allows_asymmetry(self):
        m = wm([[0.0, 1.0], [2.0, 0.0]], DIRECTED)
        assert m.n == 2 and not m.is_symmetric

    def test_accepts_sparse(self):
        m = WeightMatrix(sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])), SYMMETRIC)
        assert m.n == 2


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
            laplacian(wm([[0, 1], [2, 0]], DIRECTED))

    def test_sparse_input_matches_dense(self):
        m = np.array([[0, 2, 0], [2, 0, 1], [0, 1, 0.0]])
        dense = laplacian(wm(m))
        sp = laplacian(WeightMatrix(sparse.csr_matrix(m), SYMMETRIC))
        assert np.array_equal(sp.toarray(), dense)

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


class TestSymmetrize:
    def test_symmetric_unchanged(self):
        m = np.array([[0.0, 2.0], [2.0, 0.0]])
        assert np.array_equal(symmetrize(m).values, m)

    def test_single_directed_edge(self):
        out = symmetrize(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.array_equal(out.values, [[0.0, 0.5], [0.5, 0.0]])

    def test_result_equals_own_transpose_and_idempotent(self):
        rng = np.random.default_rng(9)
        m = rng.uniform(0, 1, (5, 5))
        once = symmetrize(m).values
        assert np.array_equal(once, once.T)
        assert np.array_equal(symmetrize(once).values, once)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            symmetrize(np.zeros((2, 3)))


# Sizes around the 256-wide tiles of the dense kernels.
TILE_EDGE_SIZES = (1, 2, 255, 256, 257, 600)


def weights_with_zeros(rng, n):
    """Nonnegative n x n weights, about half zeros, over a wide range of scales."""
    m = rng.uniform(0, 1, (n, n)) * 10.0 ** rng.uniform(-6, 6, (n, n))
    m[rng.uniform(size=(n, n)) < 0.5] = 0.0
    return m


class TestTiledKernelsMatchPlainFormulas:
    def test_symmetrize(self):
        rng = np.random.default_rng(71)
        for n in TILE_EDGE_SIZES:
            v = weights_with_zeros(rng, n)
            assert np.array_equal(symmetrize(v).values, (v + v.T) / 2.0)

    def test_asymmetry_dense_and_sparse(self):
        rng = np.random.default_rng(72)
        for n in TILE_EDGE_SIZES:
            v = weights_with_zeros(rng, n) - weights_with_zeros(rng, n)
            want = np.abs(v - v.T).max()
            assert asymmetry(v) == asymmetry(-v) == want
            assert asymmetry(sparse.csr_matrix(v)) == want
            sym = (v + v.T) / 2.0
            assert asymmetry(sym) == np.abs(sym - sym.T).max() == 0.0

    def test_laplacian_values_and_zero_signs(self):
        rng = np.random.default_rng(73)
        for n in TILE_EDGE_SIZES:
            w = symmetrize(weights_with_zeros(rng, n))
            got = laplacian(w)
            want = np.diag(w.values.sum(axis=1)) - w.values
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            assert got.flags.c_contiguous and got.dtype == np.float64


class TestMeanNonzeroNormalize:
    def test_two_entry_example(self):
        w = wm([[0.0, 2.0], [2.0, 0.0]], SYMMETRIC)
        # nonzero entries {2, 2} have mean 2
        assert np.array_equal(mean_nonzero_normalize(w).values, [[0.0, 1.0], [1.0, 0.0]])
        w = wm([[0, 2, 0], [2, 0, 4], [0, 4, 0.0]])
        out = mean_nonzero_normalize(w).values
        assert np.allclose(out[0, 1], 2 / 3, atol=1e-15)
        assert np.allclose(out[1, 2], 4 / 3, atol=1e-15)

    def test_constant_entries_become_one(self):
        w = wm([[0, 7, 7], [7, 0, 0], [7, 0, 0.0]])
        out = mean_nonzero_normalize(w).values
        assert np.array_equal(out != 0, w.values != 0)
        assert np.allclose(out[out != 0], 1.0, atol=0)

    def test_result_mean_is_one_and_ratios_kept(self):
        rng = np.random.default_rng(21)
        m = rng.uniform(0, 5, (8, 8)) * (rng.uniform(size=(8, 8)) < 0.6)
        w = WeightMatrix(m, DIRECTED)
        out = mean_nonzero_normalize(w).values
        nz = out[out != 0]
        assert abs(nz.mean() - 1.0) <= 1e-12
        src = m[m != 0]
        assert np.allclose(src / src[0], nz / nz[0], rtol=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            mean_nonzero_normalize(wm(np.zeros((3, 3))))


def test_laplacian_type_exposes_n():
    lap = laplacian(wm([[0, 1], [1, 0.0]]))
    assert isinstance(lap, np.ndarray)
    assert lap.shape == (2, 2)
