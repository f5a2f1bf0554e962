"""Weighted-graph matrix algebra: Laplacians, symmetrization, normalization.

Edge weights are float64 matrices wrapped in a thin typed container,
dense numpy arrays or scipy.sparse matrices alike; `laplacian` returns
the Laplacian bare, in the storage format of its weights. Two pieces
exist so that a pipeline never forms an n x n or larger array it only
multiplies by:

- `GroupBlocks` holds weights that are constant on the blocks of a
  grouping of the nodes (the border layer: one value per pair of
  countries) as the group of each node plus a small table.
- `LaplacianOperator` is the Laplacian diag(degrees) - A of a symmetric
  weight operator A, applied as degrees * x - A x. `laplacian_operator`
  wraps one layer; the multilayer systems build theirs in `layers`.

Dense transpose-pairing operations (`asymmetry`, `symmetrize`) run
tile-wise over square tiles of the matrix, so each pass reads memory in
cache-sized pieces and allocates no n x n temporaries beyond its result.
Every entry still goes through the same floating-point operations as the
plain formulas `abs(v - v.T).max()` and `(v + v.T) / 2.0`, so results are
bit-equal to them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import sparse

from .errors import IsolatedNodeError

SYMMETRY_RTOL = 1e-10

SYMMETRIC = "symmetric"
DIRECTED = "directed"

# Side of the square tiles, and height of the row blocks, that dense
# whole-matrix passes work on.
_TILE = 256


def _is_sparse(values):
    return sparse.issparse(values)


def _max_abs(values) -> float:
    if _is_sparse(values):
        return float(abs(values).max()) if values.nnz else 0.0
    return float(max(values.max(), -values.min())) if values.size else 0.0


def _extremes(values) -> tuple:
    """Smallest and largest entry, or (0.0, 0.0) when nothing is stored."""
    if not (values.nnz if _is_sparse(values) else values.size):
        return 0.0, 0.0
    return float(values.min()), float(values.max())


def _tile_pairs(n: int, upper: bool):
    """Slices (rows, cols) of the square tiles covering an n x n matrix.

    With `upper`, only tiles on or above the diagonal are listed.
    """
    starts = range(0, n, _TILE)
    for i in starts:
        for j in starts:
            if not upper or j >= i:
                yield slice(i, i + _TILE), slice(j, j + _TILE)


def asymmetry(values) -> float:
    """Largest absolute difference between a matrix and its transpose."""
    if _is_sparse(values):
        return _max_abs(values - values.T)
    # |a - b| == |b - a| exactly, so the tiles on and above the diagonal
    # see every difference; np.max keeps a NaN, as abs(diff).max() does.
    worst = [
        _max_abs(values[rows, cols] - values[cols, rows].T)
        for rows, cols in _tile_pairs(values.shape[0], upper=True)
    ]
    return float(np.max(worst)) if worst else 0.0


@dataclass(frozen=True)
class WeightMatrix:
    """n x n nonnegative edge weights, flagged symmetric or directed."""

    values: object  # numpy ndarray or scipy sparse matrix
    kind: str

    def __post_init__(self):
        if self.kind not in (SYMMETRIC, DIRECTED):
            raise ValueError(f"unknown weight-matrix kind {self.kind!r}")
        if not _is_sparse(self.values):
            object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        v = self.values
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"weight matrix must be square, got shape {v.shape}")
        # A NaN shows in both extremes and an infinity in one of them.
        low, high = _extremes(v)
        if not (np.isfinite(low) and np.isfinite(high)):
            raise ValueError("weight matrix entries must be finite")
        if low < 0:
            raise ValueError("weight matrix entries must be nonnegative")
        if self.kind == SYMMETRIC:
            # Entries are nonnegative, so the largest is the largest magnitude.
            if asymmetry(v) > SYMMETRY_RTOL * max(high, 1.0):
                raise ValueError("matrix flagged symmetric is not symmetric")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def is_symmetric(self) -> bool:
        return self.kind == SYMMETRIC


@dataclass(frozen=True)
class GroupBlocks:
    """Symmetric n x n weights that are constant on the blocks of a grouping.

    Entry (i, j) is table[groups[i], groups[j]] off the diagonal and zero
    on it: with locations grouped by country and a table of p ** hops,
    this is the border layer E P E^T - I, where E is the n x C
    location-to-country indicator. Only the n groups and the C x C table
    are stored, and a product costs O(n + C^2).
    """

    groups: np.ndarray
    table: np.ndarray
    _counts: np.ndarray = field(init=False, repr=False, compare=False)
    _loops: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        groups = np.asarray(self.groups, dtype=np.intp)
        table = np.asarray(self.table, dtype=float)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise ValueError(f"group table must be square, got shape {table.shape}")
        if groups.ndim != 1 or (groups.size and not 0 <= groups.min() <= groups.max() < len(table)):
            raise ValueError("groups must index rows of the group table")
        low, high = _extremes(table)
        if not (np.isfinite(low) and np.isfinite(high)):
            raise ValueError("weight matrix entries must be finite")
        if low < 0:
            raise ValueError("weight matrix entries must be nonnegative")
        if asymmetry(table) > SYMMETRY_RTOL * max(high, 1.0):
            raise ValueError("group table is not symmetric")
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "table", table)
        counts = np.bincount(groups, minlength=len(table)).astype(float)
        object.__setattr__(self, "_counts", counts)
        # The block value each node's zero diagonal entry leaves out.
        object.__setattr__(self, "_loops", table.diagonal()[groups])

    @property
    def n(self) -> int:
        return self.groups.size

    @property
    def shape(self) -> tuple:
        return (self.n, self.n)

    @property
    def is_symmetric(self) -> bool:
        return True

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

    def reach(self, rows) -> np.ndarray:
        """Nodes that share a nonzero entry with any of `rows`, as a mask.

        A row may reach itself; the caller has labelled it already.
        """
        return (self.table[self.groups[rows]] > 0).any(axis=0)[self.groups]


def _row_sums(values) -> np.ndarray:
    if isinstance(values, GroupBlocks):
        return values.row_sums()
    if _is_sparse(values):
        return np.asarray(values.sum(axis=1)).ravel()
    return values.sum(axis=1)


def _col_sums(values) -> np.ndarray:
    if isinstance(values, GroupBlocks):
        return values.row_sums()
    if _is_sparse(values):
        return np.asarray(values.sum(axis=0)).ravel()
    return values.sum(axis=0)


def _diagonal(values):
    """The main diagonal of a layer; a GroupBlocks has none."""
    return 0.0 if isinstance(values, GroupBlocks) else values.diagonal()


def _stored(values) -> int:
    """Numbers a layer keeps in memory."""
    if isinstance(values, GroupBlocks):
        return values.groups.size + values.table.size
    return values.nnz if _is_sparse(values) else values.size


def _nonzero_mean(values) -> float:
    """Mean of the nonzero entries of a layer, with no copy of them.

    Zeros add nothing to a sum, so the sum of every entry over the count
    of nonzero ones is that mean, up to the order of the additions.
    """
    if isinstance(values, GroupBlocks):
        return values.nonzero_mean()
    data = values.data if _is_sparse(values) else values
    nonzero = np.count_nonzero(data)
    if nonzero == 0:
        raise ValueError("cannot normalize an all-zero matrix")
    return float(data.sum() / nonzero)


def laplacian(w: WeightMatrix):
    """Combinatorial Laplacian of a symmetric weight matrix, in its storage format.

    Total incident weight sits on the diagonal, minus the weights off it.
    The input must be flagged symmetric; directed matrices have to be
    symmetrized first.
    """
    if not w.is_symmetric:
        raise ValueError("laplacian requires a symmetric weight matrix; symmetrize first")
    degrees = _row_sums(w.values)
    if _is_sparse(w.values):
        lap = sparse.diags(degrees) - w.values
        return lap.tocsr()
    # 0.0 - w, not -w, so zero weights give +0.0 as in diag(degrees) - w;
    # then degree + (0.0 - w_ii) equals degree - w_ii exactly. C order
    # whatever the input's, as diag(degrees) - w gives.
    lap = np.subtract(0.0, w.values, order="C")
    diagonal = np.arange(w.n)
    lap[diagonal, diagonal] += degrees
    return lap


@dataclass(frozen=True)
class LaplacianOperator:
    """The Laplacian diag(degrees) - A of a symmetric weight operator A, never formed.

    `adjacency` maps one vector x to A x. `layers` are n x n location
    layers whose union of supports is connected exactly when A's graph
    is, with `copies` points of A per location, so components can be
    counted without A. `loops` is A's diagonal, zero in every pipeline.
    `nnz` counts the numbers the layers store.
    """

    degrees: np.ndarray
    adjacency: Callable
    layers: tuple
    copies: int = 1
    nnz: int = 0
    loops: object = 0.0

    @property
    def shape(self) -> tuple:
        return (self.degrees.size, self.degrees.size)

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


def laplacian_operator(w) -> LaplacianOperator:
    """The Laplacian of one symmetric layer as an operator.

    `w` is a WeightMatrix flagged symmetric or a GroupBlocks. Products
    equal `laplacian(w) @ x` up to rounding; no n x n array is made.
    """
    if isinstance(w, WeightMatrix):
        if not w.is_symmetric:
            raise ValueError("laplacian requires a symmetric weight matrix; symmetrize first")
        values = w.values
    elif isinstance(w, GroupBlocks):
        values = w
    else:
        raise ValueError("laplacian_operator expects a WeightMatrix or GroupBlocks")
    return LaplacianOperator(
        degrees=_row_sums(values),
        adjacency=values.__matmul__,
        layers=(values,),
        nnz=_stored(values),
        loops=_diagonal(values),
    )


def _check_positive_rows(values, layer: str) -> np.ndarray:
    """Row sums of one layer's weights; raises if any node has none."""
    return _check_positive(_row_sums(values), layer)


def _check_positive(sums: np.ndarray, layer: str) -> np.ndarray:
    bad = np.flatnonzero(sums <= 0)
    if bad.size:
        raise IsolatedNodeError(f"node {bad[0]} in layer {layer!r} has zero total edge weight")
    return sums


def symmetrize(m) -> WeightMatrix:
    """Average a square matrix with its transpose."""
    values = m.values if isinstance(m, WeightMatrix) else m
    if not _is_sparse(values):
        values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValueError("symmetrize requires a square matrix")
    if _is_sparse(values):
        return WeightMatrix(((values + values.T) / 2.0).tocsr(), SYMMETRIC)
    sym = np.empty(values.shape)
    _symmetrize_into(values, sym)
    return WeightMatrix(sym, SYMMETRIC)


def _symmetrize_into(values: np.ndarray, out: np.ndarray) -> None:
    """Write (values + values.T) / 2.0 into `out`, a same-shape array or view."""
    for rows, cols in _tile_pairs(values.shape[0], upper=False):
        np.add(values[rows, cols], values[cols, rows].T, out=out[rows, cols])
    out /= 2.0


def mean_nonzero_normalize(w: WeightMatrix) -> WeightMatrix:
    """Divide every entry by the mean of the strictly nonzero entries.

    Brings edge-weight magnitudes of differently scaled layers onto a
    common footing: the nonzero entries of the result average to 1.
    """
    values = w.values
    nz = values.data[values.data != 0] if _is_sparse(values) else values[values != 0]
    if nz.size == 0:
        raise ValueError("cannot normalize an all-zero matrix")
    return WeightMatrix(values / nz.mean(), w.kind)
