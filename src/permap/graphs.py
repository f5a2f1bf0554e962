"""Weighted-graph layers and the Laplacian operator built from them.

A layer is a `WeightMatrix`: n x n nonnegative edge weights in one of
three storages, and the storage is the kind of layer:

- a dense numpy array is symmetric (the distance layer);
- a `GroupBlocks` is symmetric: weights that are constant on the blocks
  of a grouping of the nodes (the border layer: one value per pair of
  countries), stored as the group of each node plus a small table;
- a scipy.sparse matrix, held as CSR, is directed (the sequence layer).

`WeightMatrix` validates its entries once and answers every question the
operators ask of a layer: products with it and its transpose, row and
column sums, the diagonal, the mean nonzero entry and the numbers it
stores.
`toarray` gives a dense copy in every storage, which the reference
builders in `layers` assemble from. Only this module looks at the storage.

A dense layer is stored C-contiguous and multiplies through one
triangle: the BLAS symmetric product `dsymv` reads only the row-major
upper triangle, half the memory a full matrix product reads, in about
half its time (0.81 -> 0.38 ms at n = 3000 on a 2-CPU host with
OpenBLAS 0.3.31). A dense layer whose triangles differ within
SYMMETRY_RTOL multiplies, in either direction, as its upper triangle
mirrored. The distance layers the pipelines build are exactly
symmetric.

`LaplacianOperator` is the Laplacian diag(degrees) - A of a symmetric
weight operator A, applied as degrees * x - A x, so no pipeline forms an
n x n or larger array it only multiplies by. `laplacian_operator` wraps
one layer; the multilayer operators, in `layers`, write their A over the
copies of each location directly. `symmetric_scaling` symmetrizes a
scaled layer once, (diag(r) W + W diag(r)) / 2, so a system that keeps
such a block multiplies by the layer once per product, not twice; a
dense layer is scaled in its own buffer, row by row.

`asymmetry` runs over square tiles of a dense matrix, on and above the
diagonal, so it reads memory in cache-sized pieces and allocates no
n x n temporary; its result is bit-equal to `abs(v - v.T).max()`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.linalg.blas import dsymv

SYMMETRY_RTOL = 1e-10

# Side of the square tiles `asymmetry` works on.
_TILE = 256


def _is_sparse(values):
    return sparse.issparse(values)


def _max_abs(values: np.ndarray) -> float:
    return float(max(values.max(), -values.min())) if values.size else 0.0


def _extremes(values) -> tuple:
    """Smallest and largest entry, or (0.0, 0.0) when nothing is stored."""
    if not (values.nnz if _is_sparse(values) else values.size):
        return 0.0, 0.0
    return float(values.min()), float(values.max())


def _upper_tiles(n: int):
    """Slices (rows, cols) of the square tiles on and above the diagonal of an n x n matrix."""
    starts = range(0, n, _TILE)
    for i in starts:
        for j in starts:
            if j >= i:
                yield slice(i, i + _TILE), slice(j, j + _TILE)


def asymmetry(values: np.ndarray) -> float:
    """Largest absolute difference between a dense matrix and its transpose."""
    # |a - b| == |b - a| exactly, so the tiles on and above the diagonal
    # see every difference; np.max keeps a NaN, as abs(diff).max() does.
    worst = [
        _max_abs(values[rows, cols] - values[cols, rows].T)
        for rows, cols in _upper_tiles(values.shape[0])
    ]
    return float(np.max(worst)) if worst else 0.0


@dataclass(frozen=True)
class GroupBlocks:
    """n x n weights that are constant on the blocks of a grouping.

    Entry (i, j) is table[groups[i], groups[j]] off the diagonal and zero
    on it: with locations grouped by country and a table of p ** hops,
    this is the border layer E P E^T - I, where E is the n x C
    location-to-country indicator. Only the n groups and the C x C table
    are stored, and a product costs O(n + C^2). It is a symmetric layer:
    the WeightMatrix that holds it checks that its table is symmetric.
    """

    groups: np.ndarray
    table: np.ndarray
    _counts: np.ndarray = field(init=False, repr=False, compare=False)
    _loops: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        groups = np.asarray(self.groups, dtype=np.intp)
        # C order: products with a table in another order round differently.
        table = np.ascontiguousarray(self.table, dtype=float)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise ValueError(f"group table must be square, got shape {table.shape}")
        if groups.ndim != 1 or (groups.size and not 0 <= groups.min() <= groups.max() < len(table)):
            raise ValueError("groups must index rows of the group table")
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "table", table)
        counts = np.bincount(groups, minlength=len(table)).astype(float)
        object.__setattr__(self, "_counts", counts)
        # The block value each node's zero diagonal entry leaves out.
        object.__setattr__(self, "_loops", table.diagonal()[groups])

    @property
    def shape(self) -> tuple:
        return (self.groups.size, self.groups.size)

    def __matmul__(self, x):
        totals = np.bincount(self.groups, weights=x, minlength=len(self.table))
        return (self.table @ totals)[self.groups] - self._loops * x

    def row_sums(self) -> np.ndarray:
        return (self.table @ self._counts)[self.groups] - self._loops

    def nonzero_mean(self) -> float:
        """Mean of the nonzero entries, counted block by block; a zero block counts none."""
        counts, loops = self._counts, self._loops
        total = counts @ self.table @ counts - loops.sum()
        nonzero = counts @ (self.table != 0) @ counts - np.count_nonzero(loops)
        if nonzero == 0:
            raise ValueError("cannot normalize an all-zero matrix")
        return float(total / nonzero)

    def toarray(self) -> np.ndarray:
        """The n x n weights as a new dense array."""
        dense = self.table[np.ix_(self.groups, self.groups)]
        np.fill_diagonal(dense, 0.0)
        return dense


@dataclass(frozen=True)
class WeightMatrix:
    """n x n nonnegative edge weights; the storage fixes the kind.

    `values` is a dense array, stored C-contiguous, or a GroupBlocks
    (whose table is what gets checked here): a symmetric layer, which
    must equal its transpose to SYMMETRY_RTOL. A dense layer multiplies
    as its upper triangle mirrored, which is itself when it is exactly
    symmetric. A scipy.sparse matrix, stored CSR, is a directed layer.
    Entries must be finite and nonnegative.
    """

    values: object

    def __post_init__(self):
        v = self.values
        if _is_sparse(v):
            v = v.tocsr()
        elif not isinstance(v, GroupBlocks):
            v = np.ascontiguousarray(v, dtype=float)
        object.__setattr__(self, "values", v)
        if len(v.shape) != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"weight matrix must be square, got shape {v.shape}")
        entries = v.table if isinstance(v, GroupBlocks) else v
        # A NaN shows in both extremes and an infinity in one of them.
        low, high = _extremes(entries)
        if not (np.isfinite(low) and np.isfinite(high)):
            raise ValueError("weight matrix entries must be finite")
        if low < 0:
            raise ValueError("weight matrix entries must be nonnegative")
        # Entries are nonnegative, so the largest is the largest magnitude.
        if self.is_symmetric and asymmetry(entries) > SYMMETRY_RTOL * max(high, 1.0):
            raise ValueError("a dense or group-block layer is not symmetric")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def shape(self) -> tuple:
        return self.values.shape

    @property
    def is_symmetric(self) -> bool:
        """Dense and group-block layers are symmetric, sparse ones directed."""
        return not _is_sparse(self.values)

    def __matmul__(self, x):
        v = self.values
        if isinstance(v, np.ndarray):
            # dsymv reads a longer or a flattened x without complaint.
            if np.shape(x) != (self.n,):
                raise ValueError(
                    f"a dense symmetric layer multiplies one vector of length {self.n}, "
                    f"got shape {np.shape(x)}"
                )
            # v.T is the column-major view of the same memory; its lower
            # triangle is v's upper one.
            return dsymv(1.0, v.T, x, lower=1)
        return v @ x

    def toarray(self) -> np.ndarray:
        """The weights as a new dense n x n array, whatever the storage."""
        v = self.values
        return v.copy() if isinstance(v, np.ndarray) else v.toarray()

    def transposed_product(self) -> Callable:
        """x -> W^T x. The transpose of a directed layer is made here, once.

        A symmetric layer multiplies as itself, a dense one through its
        upper triangle; a directed layer's CSR transpose is turned back
        into CSR, whose products are several times faster.
        """
        if self.is_symmetric:
            return self.__matmul__
        return self.values.T.tocsr().__matmul__

    def row_sums(self) -> np.ndarray:
        v = self.values
        if isinstance(v, GroupBlocks):
            return v.row_sums()
        return np.asarray(v.sum(axis=1)).ravel()

    def col_sums(self) -> np.ndarray:
        v = self.values
        if isinstance(v, GroupBlocks):
            return v.row_sums()
        return np.asarray(v.sum(axis=0)).ravel()

    def diagonal(self):
        """The main diagonal; a GroupBlocks has a zero one, given as 0.0."""
        return 0.0 if isinstance(self.values, GroupBlocks) else self.values.diagonal()

    @property
    def stored(self) -> int:
        """Numbers the layer keeps in memory."""
        v = self.values
        if isinstance(v, GroupBlocks):
            return v.groups.size + v.table.size
        return v.nnz if _is_sparse(v) else v.size

    def nonzero_mean(self) -> float:
        """Mean of the nonzero entries, with no copy of them.

        Zeros add nothing to a sum, so the sum of every entry over the
        count of nonzero ones is that mean, up to the order of the additions.
        """
        v = self.values
        if isinstance(v, GroupBlocks):
            return v.nonzero_mean()
        data = v.data if _is_sparse(v) else v
        nonzero = np.count_nonzero(data)
        if nonzero == 0:
            raise ValueError("cannot normalize an all-zero matrix")
        return float(data.sum() / nonzero)


@dataclass(frozen=True)
class LaplacianOperator:
    """The Laplacian diag(degrees) - A of a symmetric weight operator A, never formed.

    `adjacency` maps one vector x to A x. `layers` are the n x n location
    WeightMatrix layers A is built from; they give `nnz`. `loops` is A's
    diagonal, zero in every multilayer system. `laplacian_operator` takes
    the degrees from its layer's row sums; every operator in `layers` sets
    them to A @ 1, so L @ 1 is exactly zero there.
    """

    degrees: np.ndarray
    adjacency: Callable
    layers: tuple
    loops: object = 0.0

    @property
    def shape(self) -> tuple:
        return (self.degrees.size, self.degrees.size)

    @property
    def nnz(self) -> int:
        """Numbers the layers store."""
        return sum(w.stored for w in self.layers)

    @property
    def inf_norm(self) -> float:
        """Largest absolute row sum of L: twice the largest degree without self-loops."""
        return 2.0 * float(np.max(self.degrees - self.loops))

    def __matmul__(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            # One product per column: on OpenBLAS two matrix-vector
            # products are faster than one n x 2 product.
            out = np.empty(x.shape)
            for j in range(x.shape[1]):
                out[:, j] = self @ x[:, j]
            return out
        return self.degrees * x - self.adjacency(x)

    def toarray(self) -> np.ndarray:
        """L as a dense array, one product per column; for small systems only."""
        return self @ np.eye(self.shape[0])


def symmetric_scaling(w: WeightMatrix, scale: np.ndarray) -> WeightMatrix:
    """(diag(scale) W + W diag(scale)) / 2 of a symmetric layer, with a zero diagonal.

    Entry (i, j) is W_ij * ((scale_i + scale_j) / 2), so the result is
    exactly symmetric where W is. A GroupBlocks layer gives a GroupBlocks,
    which needs `scale` equal across each group, as any function of its
    row sums is. A dense layer is rewritten in its own buffer, row by
    row through one n-vector, so no second n x n array is made: the
    result holds that buffer, and `w` must not be used again.
    """
    if not (isinstance(w, WeightMatrix) and w.is_symmetric):
        raise ValueError("symmetric_scaling requires a symmetric weight matrix")
    v = w.values
    if isinstance(v, GroupBlocks):
        per_group = np.zeros(len(v.table))
        per_group[v.groups] = scale
        pairs = (per_group[:, None] + per_group[None, :]) * 0.5
        return WeightMatrix(GroupBlocks(v.groups, v.table * pairs))
    pairs = np.empty(w.n)
    for i, row in enumerate(v):
        np.add(scale[i], scale, out=pairs)
        pairs *= 0.5
        row *= pairs
    np.fill_diagonal(v, 0.0)
    return WeightMatrix(v)


def laplacian_operator(w: WeightMatrix) -> LaplacianOperator:
    """The Laplacian diag(row sums) - W of one symmetric layer, as an operator.

    No n x n array is made, whatever the layer's storage.
    """
    if not (isinstance(w, WeightMatrix) and w.is_symmetric):
        raise ValueError("laplacian requires a symmetric weight matrix")
    return LaplacianOperator(
        degrees=w.row_sums(), adjacency=w.__matmul__, layers=(w,), loops=w.diagonal()
    )

