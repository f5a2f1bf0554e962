"""Weighted-graph matrix algebra: Laplacians, symmetrization, normalization.

Edge weights are float64 matrices wrapped in a thin typed container;
Laplacians are returned bare, in the storage format of their weights.
Single layers and the two-layer system are dense numpy arrays; the
assembled three-layer system is always a scipy.sparse matrix. The
operations here accept both.

Dense transpose-pairing operations (`asymmetry`, `symmetrize`) run
tile-wise over square tiles of the matrix, so each pass reads memory in
cache-sized pieces and allocates no n x n temporaries beyond its result.
Every entry still goes through the same floating-point operations as the
plain formulas `abs(v - v.T).max()` and `(v + v.T) / 2.0`, so results are
bit-equal to them.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _min_entry(values) -> float:
    if _is_sparse(values):
        return float(values.min()) if values.nnz else 0.0
    return float(values.min()) if values.size else 0.0


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
        if _min_entry(v) < 0:
            raise ValueError("weight matrix entries must be nonnegative")
        if self.kind == SYMMETRIC:
            scale = _max_abs(v)
            if asymmetry(v) > SYMMETRY_RTOL * max(scale, 1.0):
                raise ValueError("matrix flagged symmetric is not symmetric")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def is_symmetric(self) -> bool:
        return self.kind == SYMMETRIC


def _row_sums(values) -> np.ndarray:
    if _is_sparse(values):
        return np.asarray(values.sum(axis=1)).ravel()
    return values.sum(axis=1)


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


def _check_positive_rows(values, layer: str) -> np.ndarray:
    """Row sums of one layer's weights; raises if any node has none."""
    sums = _row_sums(values)
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
