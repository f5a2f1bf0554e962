"""Symmetric eigensolving and Laplacian spectral embeddings.

The embedding of a connected weighted graph is read off the eigenvectors
of its Laplacian: the k eigenvectors with the smallest nonzero eigenvalues
become the k coordinate columns. They are found by implicitly restarted
Lanczos (ARPACK) on the flipped operator sigma*I - L, whose largest
eigenpairs are the smallest of L, using matrix-vector products only. The
start vector is fixed, and a sign convention settles each column, so
repeated runs are bit-identical.

The Lanczos basis holds at least 40 vectors, twice scipy's default. The
kept eigenvalues of a multilayer system sit in a tight cluster far below
the top of the spectrum (about 57 against an inf-norm near 1400 on a
4800-row three-layer system), so a 20-vector basis throws away most of
its Krylov space at every restart. 40 vectors need about 40% fewer
products there, for 40 * n * 8 bytes of workspace. A 30-vector basis
needs more products than 40 on the three-layer, two-layer and geodesic
systems alike; a 60-vector one needs fewer on the three-layer system but
more on the other two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh

from .errors import DisconnectedGraphError, SolverError
from .fileio import atomic_write
from .graphs import _TILE, WeightMatrix, _is_sparse, asymmetry, laplacian

RESIDUAL_RTOL = 1e-8
ZERO_EIGENVALUE_RTOL = 1e-8
MAX_ITERATIONS = 10_000
# Smallest Lanczos basis; see the module docstring for the choice.
_MIN_BASIS = 40

COORD_NAMES = ("x", "y", "z")


class PointRef(NamedTuple):
    """Identifies what an embedded point stands for."""

    location_id: int
    layer: str
    copy: str


class EigenPairs(NamedTuple):
    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray


def _inf_norm(m) -> float:
    if _is_sparse(m):
        return float(abs(m).sum(axis=1).max())
    # Row blocks avoid an n x n |m| temporary; each row sums as before.
    rows = range(0, m.shape[0], _TILE)
    return float(np.max([np.abs(m[i : i + _TILE]).sum(axis=1).max() for i in rows]))


def _matrix_of(m):
    if isinstance(m, WeightMatrix):
        return m.values
    if _is_sparse(m):
        return m
    return np.asarray(m, dtype=float)


def eigensolve_symmetric(m, count: int) -> EigenPairs:
    """Compute the `count` smallest eigenpairs of a symmetric matrix.

    With sigma = 2 * max(||m||_inf, 1) above the whole spectrum, the
    smallest eigenpairs of m are the largest of sigma*I - m, which
    implicitly restarted Lanczos finds from products with m alone, in a
    basis of min(n, max(2 * count + 1, 40)) vectors. ARPACK cannot return
    n - 1 or more pairs, so those counts take a full dense decomposition.
    Every returned pair is residual-checked.
    """
    values = _matrix_of(m)
    n = values.shape[0]
    if values.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {values.shape}")
    if not 1 <= count <= n:
        raise ValueError(f"eigenpair count must be in [1, {n}], got {count}")
    scale = _inf_norm(values)
    if asymmetry(values) > 1e-10 * max(scale, 1.0):
        raise ValueError("eigensolve_symmetric requires a symmetric matrix")

    if count >= n - 1:
        dense = values.toarray() if _is_sparse(values) else values
        all_vals, all_vecs = np.linalg.eigh(dense)
        vals, vecs = all_vals[:count], all_vecs[:, :count]
    else:
        sigma = 2.0 * max(scale, 1.0)
        flipped = LinearOperator((n, n), matvec=lambda x: sigma * x - values @ x, dtype=float)
        # Fixed and not constant: the constant vector spans a Laplacian's
        # null space, so it is an exact eigenvector of the flipped operator.
        v0 = np.cos(np.arange(n, dtype=float))
        ncv = min(n, max(2 * count + 1, _MIN_BASIS))
        try:
            theta, vecs = eigsh(
                flipped, k=count, which="LA", v0=v0, ncv=ncv, maxiter=MAX_ITERATIONS
            )
        except ArpackNoConvergence as exc:
            raise SolverError(
                f"eigensolver did not converge within {MAX_ITERATIONS} iterations: "
                f"{len(exc.eigenvalues)} of {count} pairs found"
            ) from exc
        except ArpackError as exc:
            raise SolverError(f"eigensolver failed: {exc}") from exc
        vals = sigma - theta
        order = np.argsort(vals, kind="stable")
        vals, vecs = vals[order], vecs[:, order]

    residuals = _residuals(values, vals, vecs)
    bad = np.flatnonzero(residuals > RESIDUAL_RTOL * max(scale, 1.0))
    if bad.size:
        raise SolverError(
            f"eigenpair {bad[0]} failed the residual check: "
            f"{residuals[bad[0]]:.3e} > {RESIDUAL_RTOL * max(scale, 1.0):.3e}"
        )
    return EigenPairs(vals, vecs, residuals)


def _residuals(values, vals, vecs) -> np.ndarray:
    prod = values @ vecs
    return np.linalg.norm(prod - vecs * vals[None, :], axis=0)


def connected_components(w):
    """Count components of the positive-entry support, with canonical labels.

    An edge joins i and j where either w[i, j] or w[j, i] is positive, so
    one-way entries connect too. Each component is found by a frontier
    traversal from its smallest unlabelled node: every round reads the
    support rows of the current frontier, dense or CSR alike, and the
    newly reached nodes become the next frontier. Components are thus
    numbered in order of their smallest node index, so the component
    containing node 0 is always component 0.
    """
    values = _matrix_of(w)
    n = values.shape[0]
    support = values > 0
    if _is_sparse(support):
        support = (support + support.T).tocsr()
    else:
        support |= support.T
    labels = np.full(n, -1, dtype=np.int32)
    count = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        labels[start] = count
        frontier = np.array([start])
        while frontier.size:
            rows = support[frontier]
            if _is_sparse(rows):
                reached = np.zeros(n, dtype=bool)
                reached[rows.indices] = True
            else:
                reached = rows.any(axis=0)
            frontier = np.flatnonzero(reached & (labels < 0))
            labels[frontier] = count
        count += 1
    return count, labels


def fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive.

    Ties on magnitude are broken by the lowest row index. Removes the
    per-eigenvector sign ambiguity so embeddings are reproducible.
    """
    fixed = np.array(vectors, dtype=float)
    for j in range(fixed.shape[1]):
        col = fixed[:, j]
        lead = int(np.argmax(np.abs(col)))
        if col[lead] < 0:
            fixed[:, j] = -col
    return fixed


@dataclass(frozen=True)
class Embedding:
    """Spectral coordinates plus the bookkeeping needed to export them."""

    coordinates: np.ndarray
    eigenvalues: np.ndarray
    provenance: tuple
    residuals: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coordinates, dtype=float)
        object.__setattr__(self, "coordinates", coords)
        object.__setattr__(self, "eigenvalues", np.asarray(self.eigenvalues, dtype=float))
        object.__setattr__(self, "provenance", tuple(self.provenance))
        if len(self.provenance) != coords.shape[0]:
            raise ValueError("provenance must name every embedded point")

    @property
    def n_points(self) -> int:
        return self.coordinates.shape[0]

    @property
    def k(self) -> int:
        return self.coordinates.shape[1]


def embed(w: WeightMatrix, k: int, provenance=None) -> Embedding:
    """Spectral embedding of a connected symmetric weighted graph.

    Solves for the k+1 smallest Laplacian eigenpairs, discards the zero
    pair belonging to the constant eigenvector, and returns the next k
    eigenvectors as coordinate columns under the deterministic sign
    convention.
    """
    if not isinstance(w, WeightMatrix) or not w.is_symmetric:
        raise ValueError("embed requires a symmetric WeightMatrix")
    n = w.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"embedding dimension must be in [1, {n - 1}], got {k}")
    count, labels = connected_components(w)
    if count > 1:
        sizes = np.bincount(labels)
        raise DisconnectedGraphError(
            f"graph has {count} components (sizes {sizes.tolist()}); embedding "
            "requires a connected graph"
        )

    lap = laplacian(w)
    pairs = eigensolve_symmetric(lap, k + 1)
    zero_tol = ZERO_EIGENVALUE_RTOL * max(_inf_norm(lap), 1.0)
    if pairs.values[0] > zero_tol:
        raise SolverError(
            f"smallest Laplacian eigenvalue {pairs.values[0]:.3e} is not zero "
            f"(tolerance {zero_tol:.3e})"
        )
    if pairs.values[1] <= zero_tol:
        raise DisconnectedGraphError(
            "zero eigenvalue has multiplicity > 1; the graph is effectively "
            "disconnected"
        )

    coords = fix_signs(pairs.vectors[:, 1:])
    if provenance is None:
        provenance = [PointRef(i, "-", "-") for i in range(n)]
    return Embedding(coords, pairs.values[1:], tuple(provenance), pairs.residuals[1:])


def write_embedding_csv(emb: Embedding, path, countries=None) -> None:
    """Export one row per embedded point: ids, tags, coordinates, country."""
    if emb.k > len(COORD_NAMES):
        raise ValueError(f"cannot export more than {len(COORD_NAMES)} coordinate columns")
    header = ["point_id", "location_id", "layer", "copy"]
    header += list(COORD_NAMES[: emb.k]) + ["country"]
    with atomic_write(path) as fh:
        fh.write(",".join(header) + "\n")
        for idx, ref in enumerate(emb.provenance):
            country = "" if countries is None else str(countries[ref.location_id])
            cells = [str(idx), str(ref.location_id), ref.layer, ref.copy]
            cells += [repr(float(v)) for v in emb.coordinates[idx]]
            cells.append(country)
            fh.write(",".join(cells) + "\n")


def write_eigenvalues_csv(emb: Embedding, path) -> None:
    """Export the nonzero eigenvalues backing each coordinate dimension."""
    with atomic_write(path) as fh:
        fh.write("dimension,eigenvalue\n")
        for j, value in enumerate(emb.eigenvalues, start=1):
            fh.write(f"{j},{float(value)!r}\n")
