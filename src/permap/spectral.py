"""Symmetric eigensolving and Laplacian spectral embeddings.

The embedding of a connected weighted graph is read off the eigenvectors
of its Laplacian: the k eigenvectors with the smallest nonzero eigenvalues
become the k coordinate columns. They are found by implicitly restarted
Lanczos (ARPACK) on the flipped operator sigma*I - L, whose largest
eigenpairs are the smallest of L, using matrix-vector products only. The
start vector is fixed, and a sign convention settles each column, so
repeated runs are bit-identical.

`embed` works on a `LaplacianOperator`: L x = degrees * x - A x, with A
applied from its layers, so neither A nor L is ever formed. A
WeightMatrix is wrapped into one. The operator also supplies the scale
||L||_inf = 2 max(degrees) (A has a zero diagonal). The component check
walks the same A, so it sees exactly the graph the eigensolver multiplies.
`eigensolve_symmetric` takes only such an operator, so every caller
solves through the one path the CLI uses.

An `Embedding` records its point order once, as a `layout` from layers.LAYOUTS.

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

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh

from .errors import DisconnectedGraphError, SolverError
from .fileio import write_csv
from .graphs import LaplacianOperator, WeightMatrix, laplacian_operator

RESIDUAL_RTOL = 1e-8
ZERO_EIGENVALUE_RTOL = 1e-8
MAX_ITERATIONS = 10_000
# Smallest Lanczos basis; see the module docstring for the choice.
MIN_BASIS = 40

COORD_NAMES = ("x", "y", "z")


class EigenPairs(NamedTuple):
    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray


def eigensolve_symmetric(lap: LaplacianOperator, count: int) -> EigenPairs:
    """Compute the `count` smallest eigenpairs of a Laplacian operator.

    `lap` is a LaplacianOperator, symmetric by construction and carrying
    its own inf-norm; a WeightMatrix is embedded or wrapped with
    laplacian_operator first. With sigma = 2 * max(||L||_inf, 1) above
    the whole spectrum, the smallest eigenpairs of L are the largest of
    sigma*I - L, which implicitly restarted Lanczos finds from products
    with L alone, in a basis of min(n, max(2 * count + 1, 40)) vectors.
    ARPACK cannot return n - 1 or more pairs, so those counts take a full
    dense decomposition of L. Every returned pair is residual-checked.
    """
    if not isinstance(lap, LaplacianOperator):
        raise ValueError(
            "eigensolve_symmetric takes a LaplacianOperator; "
            "embed a WeightMatrix or wrap it with laplacian_operator"
        )
    n = lap.shape[0]
    if not 1 <= count <= n:
        raise ValueError(f"eigenpair count must be in [1, {n}], got {count}")
    scale = max(lap.inf_norm, 1.0)

    if count >= n - 1:
        all_vals, all_vecs = np.linalg.eigh(lap.toarray())
        vals, vecs = all_vals[:count], all_vecs[:, :count]
    else:
        sigma = 2.0 * scale
        flipped = LinearOperator((n, n), matvec=lambda x: sigma * x - lap @ x, dtype=float)
        # Fixed and not constant: the constant vector spans a Laplacian's
        # null space, so it is an exact eigenvector of the flipped operator.
        v0 = np.cos(np.arange(n, dtype=float))
        ncv = min(n, max(2 * count + 1, MIN_BASIS))
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

    residuals = np.linalg.norm(lap @ vecs - vecs * vals[None, :], axis=0)
    bad = np.flatnonzero(residuals > RESIDUAL_RTOL * scale)
    if bad.size:
        raise SolverError(
            f"eigenpair {bad[0]} failed the residual check: "
            f"{residuals[bad[0]]:.3e} > {RESIDUAL_RTOL * scale:.3e}"
        )
    return EigenPairs(vals, vecs, residuals)


def connected_components(lap: LaplacianOperator):
    """Count the components of A's graph, the graph Lanczos multiplies, with canonical labels.

    Points i and j are joined where A has a positive entry (i, j). Each
    component is walked from its smallest unlabelled point: a round
    multiplies A by the indicator of the frontier, and the unlabelled
    points where the product is positive are the next frontier. A is
    symmetric and nonnegative, so a zero entry adds an exact 0; the only
    negative terms (a dropped diagonal) fall on the frontier, labelled
    already. Components are numbered in order of their smallest point.
    """
    n = lap.shape[0]
    labels = np.full(n, -1, dtype=np.int32)
    count = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        frontier = [start]
        while len(frontier):
            labels[frontier] = count
            x = np.zeros(n)
            x[frontier] = 1.0
            frontier = np.flatnonzero((lap.adjacency(x) > 0) & (labels < 0))
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
    """Coordinates and eigenpairs; points run layer by layer, copy by copy, as `layout` lists."""

    coordinates: np.ndarray
    eigenvalues: np.ndarray
    layout: tuple
    residuals: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coordinates, dtype=float)
        object.__setattr__(self, "coordinates", coords)
        object.__setattr__(self, "eigenvalues", np.asarray(self.eigenvalues, dtype=float))
        layer_tags, copies = self.layout
        if coords.shape[0] % (len(layer_tags) * len(copies)):
            raise ValueError(f"{coords.shape[0]} points do not fit the layout {self.layout}")

    @property
    def k(self) -> int:
        return self.coordinates.shape[1]

    def location_ids(self) -> np.ndarray:
        """Each point's location id: 0..n-1 once per layer copy."""
        layer_tags, copies = self.layout
        blocks = len(layer_tags) * len(copies)
        return np.tile(np.arange(len(self.coordinates) // blocks), blocks)


def embed(w, k: int, layout=(("-",), ("-",))) -> Embedding:
    """Spectral embedding of a connected symmetric weighted graph.

    `w` is a LaplacianOperator or a symmetric WeightMatrix, which is
    wrapped into one. Connectivity is checked on the operator's A.
    Solves for the k+1 smallest Laplacian eigenpairs, discards the zero
    pair belonging to the constant eigenvector, and returns the next k
    eigenvectors as coordinate columns under the deterministic sign
    convention. `layout` is the point layout of the Embedding.
    """
    if isinstance(w, LaplacianOperator):
        lap = w
    elif isinstance(w, WeightMatrix) and w.is_symmetric:
        lap = laplacian_operator(w)
    else:
        raise ValueError("embed requires a symmetric WeightMatrix or a LaplacianOperator")
    n = lap.shape[0]
    if not 1 <= k <= n - 1:
        raise ValueError(f"embedding dimension must be in [1, {n - 1}], got {k}")
    count, labels = connected_components(lap)
    if count > 1:
        sizes = np.bincount(labels)
        raise DisconnectedGraphError(
            f"graph has {count} components (sizes {sizes.tolist()}); embedding "
            "requires a connected graph"
        )

    pairs = eigensolve_symmetric(lap, k + 1)
    zero_tol = ZERO_EIGENVALUE_RTOL * max(lap.inf_norm, 1.0)
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
    return Embedding(coords, pairs.values[1:], layout, pairs.residuals[1:])


def write_embedding_csv(emb: Embedding, path, countries=None) -> None:
    """Export one row per embedded point: ids and tags from the layout, coordinates, country."""
    if emb.k > len(COORD_NAMES):
        raise ValueError(f"cannot export more than {len(COORD_NAMES)} coordinate columns")
    header = ["point_id", "location_id", "layer", "copy"]
    header += list(COORD_NAMES[: emb.k]) + ["country"]
    layer_tags, copies = emb.layout
    n = len(emb.coordinates) // (len(layer_tags) * len(copies))
    points = itertools.product(layer_tags, copies, range(n))
    rows = (
        [idx, lid, tag, copy, *coords] + ["" if countries is None else countries[lid]]
        for idx, ((tag, copy, lid), coords) in enumerate(zip(points, emb.coordinates.tolist()))
    )
    write_csv(path, header, rows)


def write_eigenvalues_csv(emb: Embedding, path) -> None:
    """Export the nonzero eigenvalues backing each coordinate dimension."""
    write_csv(path, ["dimension", "eigenvalue"], enumerate(emb.eigenvalues.tolist(), start=1))
