"""Weighted-graph matrix algebra: Laplacians, symmetrization, normalization.

Edge weights are float64 matrices wrapped in a thin typed container;
Laplacians are returned bare, in the storage format of their weights.
Single layers and the two-layer system are dense numpy arrays; the
assembled three-layer system is always a scipy.sparse matrix. The
operations here accept both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import IsolatedNodeError

SYMMETRY_RTOL = 1e-10

SYMMETRIC = "symmetric"
DIRECTED = "directed"


def _is_sparse(values):
    return sparse.issparse(values)


def _max_abs(values) -> float:
    if _is_sparse(values):
        return float(abs(values).max()) if values.nnz else 0.0
    return float(np.abs(values).max()) if values.size else 0.0


def _min_entry(values) -> float:
    if _is_sparse(values):
        return float(values.min()) if values.nnz else 0.0
    return float(values.min()) if values.size else 0.0


def asymmetry(values) -> float:
    """Largest absolute difference between a matrix and its transpose."""
    diff = values - values.T
    return _max_abs(diff)


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
    return np.diag(degrees) - w.values


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
    sym = (values + values.T) / 2.0
    if _is_sparse(sym):
        sym = sym.tocsr()
    return WeightMatrix(sym, SYMMETRIC)


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
