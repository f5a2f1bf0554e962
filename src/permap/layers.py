"""Multilayer network assembly, the embedding pipeline, and displacement diagnostics.

Two-layer systems couple a geodesic-closeness layer with a border
permeability layer through fixed-weight inter-layer edges, following a
lazy-walk budget: half of each node's transition mass stays in its layer
and half crosses to its twin. Three-layer systems add a directed attack
sequence layer and replicate every node into outgoing/incoming copies so
the direction survives symmetric eigensolving.

Every pipeline runs in two steps. `prepare` does the work that does not
depend on the border value (locations, crossings, distance and sequence
layers); `solve` weights the borders at one value, assembles the system
and embeds it. A sweep prepares once and solves once per value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse

from .errors import stage
from .fileio import atomic_write
from .geo import (
    border_permeability_matrix,
    crossings_matrix,
    distance_matrix,
    invert_distances,
    linear_border_distances,
)
from .graphs import (
    DIRECTED,
    SYMMETRIC,
    WeightMatrix,
    _check_positive_rows,
    _symmetrize_into,
    mean_nonzero_normalize,
    symmetrize,
)
from .ingest import build_locations
from .sequence import sequence_adjacency
from .spectral import COORD_NAMES, Embedding, PointRef, embed

TWO_LAYER_TAGS = ("distance", "border")
THREE_LAYER_TAGS = ("border", "distance", "sequence")
OUT = "out"
IN = "in"
NO_COPY = "-"

DEFAULT_BORDER_P = 0.95


@dataclass(frozen=True)
class MultiLayerSystem:
    """An assembled multilayer weight matrix plus row bookkeeping."""

    n: int
    layer_tags: tuple
    copies_per_layer: int
    assembled: WeightMatrix
    provenance: tuple

    def __post_init__(self):
        object.__setattr__(self, "layer_tags", tuple(self.layer_tags))
        object.__setattr__(self, "provenance", tuple(self.provenance))
        size = self.n * len(self.layer_tags) * self.copies_per_layer
        if self.assembled.n != size:
            raise ValueError(
                f"assembled matrix is {self.assembled.n}x{self.assembled.n}, expected {size}"
            )
        if len(self.provenance) != size or len(set(self.provenance)) != size:
            raise ValueError("provenance must map rows one-to-one")

    @property
    def size(self) -> int:
        return self.assembled.n


def _walk_blocks(w_a: WeightMatrix, w_b: WeightMatrix, layer_tags):
    """The two within-layer blocks of the two-layer walk, rows summing to 0.5."""
    if not (isinstance(w_a, WeightMatrix) and isinstance(w_b, WeightMatrix)):
        raise ValueError("two-layer assembly expects WeightMatrix layers")
    if not (w_a.is_symmetric and w_b.is_symmetric):
        raise ValueError("both layers must be symmetric")
    n = w_a.n
    if w_b.n != n:
        raise ValueError(f"layer sizes differ: {n} vs {w_b.n}")
    if n < 2:
        raise ValueError("a layer needs at least 2 locations to carry edges")
    blocks = []
    for w, tag in zip((w_a, w_b), layer_tags):
        values = np.array(w.values, dtype=float)
        np.fill_diagonal(values, 0.0)
        values /= 2.0 * _check_positive_rows(values, tag)[:, None]
        blocks.append(values)
    return blocks


def _cross_links(m: np.ndarray, n: int) -> None:
    """Put 0.5 on the diagonals of both inter-layer blocks of a 2n x 2n matrix."""
    cross = np.arange(n)
    m[cross, n + cross] = 0.5
    m[n + cross, cross] = 0.5


def two_layer_walk_matrix(w_a: WeightMatrix, w_b: WeightMatrix, layer_tags=TWO_LAYER_TAGS):
    """Pre-symmetrization 2n x 2n lazy-walk matrix of the two-layer system.

    Within-layer rows are scaled to sum 0.5; the remaining probability
    rides the diagonal inter-layer blocks, so every row sums to 1. The
    main diagonal stays zero.
    """
    blocks = _walk_blocks(w_a, w_b, layer_tags)
    n = w_a.n
    walk = np.zeros((2 * n, 2 * n))
    for block, values in zip((slice(0, n), slice(n, None)), blocks):
        walk[block, block] = values
    _cross_links(walk, n)
    return walk


def build_two_layer(
    w_a: WeightMatrix, w_b: WeightMatrix, layer_tags=TWO_LAYER_TAGS
) -> MultiLayerSystem:
    """Couple two undirected layers over the same nodes into one system.

    The assembled matrix is the symmetrized walk matrix. Its inter-layer
    blocks are already symmetric, so only the within-layer blocks are
    averaged with their transposes; the result is bit-equal to
    symmetrize(two_layer_walk_matrix(...)).
    """
    blocks = _walk_blocks(w_a, w_b, layer_tags)
    n = w_a.n
    assembled = np.zeros((2 * n, 2 * n))
    for block, values in zip((slice(0, n), slice(n, None)), blocks):
        _symmetrize_into(values, assembled[block, block])
    _cross_links(assembled, n)
    provenance = [
        PointRef(i, tag, NO_COPY) for tag in tuple(layer_tags) for i in range(n)
    ]
    return MultiLayerSystem(
        n=n,
        layer_tags=tuple(layer_tags),
        copies_per_layer=1,
        assembled=WeightMatrix(assembled, SYMMETRIC),
        provenance=tuple(provenance),
    )


def normalize_sequence_layer(a) -> WeightMatrix:
    """Normalize the sequence layer and pad rows to a constant sum.

    After dividing by the mean nonzero weight, every row gets a self-loop
    sized to lift its sum to the maximum row sum S; nodes with no sequence
    edges end up with a self-loop of weight S.
    """
    w = a if isinstance(a, WeightMatrix) else WeightMatrix(a, DIRECTED)
    try:
        scaled = mean_nonzero_normalize(w)
    except ValueError:
        raise ValueError("sequence layer has no edges; nothing to normalize") from None
    values = np.array(scaled.values, dtype=float)
    sums = values.sum(axis=1)
    top = float(sums.max())
    np.fill_diagonal(values, values.diagonal() + (top - sums))
    return WeightMatrix(values, DIRECTED)


def build_three_layer(
    w_border: WeightMatrix,
    w_dist: WeightMatrix,
    a_seq: WeightMatrix,
    layer_tags=THREE_LAYER_TAGS,
) -> MultiLayerSystem:
    """Assemble border, distance, and sequence layers into a 6n x 6n system.

    Every layer is normalized to unit mean nonzero weight (the sequence
    layer additionally padded to constant row sums), budget-split half
    within-layer and a quarter toward each other layer, and replicated
    into out/in copies. Out/in copies of one node in one layer are joined
    by an edge worth half the node's incident weight there. The result is
    symmetrized and held as a sparse CSR matrix.
    """
    if not (isinstance(w_border, WeightMatrix) and isinstance(w_dist, WeightMatrix)):
        raise ValueError("three-layer assembly expects WeightMatrix layers")
    if not (w_border.is_symmetric and w_dist.is_symmetric):
        raise ValueError("border and distance layers must be symmetric")
    if not isinstance(a_seq, WeightMatrix) or a_seq.is_symmetric:
        raise ValueError("sequence layer must be a directed WeightMatrix")
    n = w_border.n
    if w_dist.n != n or a_seq.n != n:
        raise ValueError(
            f"layer sizes differ: {n}, {w_dist.n}, {a_seq.n}"
        )

    normalized = [
        np.array(mean_nonzero_normalize(w_border).values, dtype=float),
        np.array(mean_nonzero_normalize(w_dist).values, dtype=float),
        np.array(normalize_sequence_layer(a_seq).values, dtype=float),
    ]
    tags = tuple(layer_tags)
    budgets = [_check_positive_rows(layer, tag) for tag, layer in zip(tags, normalized)]
    links = [(budget + layer.sum(axis=0)) / 4.0 for budget, layer in zip(budgets, normalized)]

    # Row block 2*l holds layer l's out-copies, row block 2*l+1 its
    # in-copies; pre-symmetrization weight flows out-rows -> in-columns.
    grid = [[None] * 6 for _ in range(6)]
    for li in range(3):
        for lj in range(3):
            if li == lj:
                block = sparse.csr_matrix(normalized[li] / 2.0 + np.diag(links[li]))
            else:
                block = sparse.diags(budgets[li] / 4.0, format="csr")
            grid[2 * li][2 * lj + 1] = block
        # bmat cannot size fully-empty block rows/columns; the in-copy
        # rows and out-copy columns carry no pre-symmetrization weight.
        grid[2 * li + 1][2 * li] = sparse.csr_matrix((n, n))
    raw = sparse.bmat(grid, format="csr")

    provenance = [
        PointRef(i, tag, copy)
        for tag in tags
        for copy in (OUT, IN)
        for i in range(n)
    ]
    return MultiLayerSystem(
        n=n,
        layer_tags=tags,
        copies_per_layer=2,
        assembled=symmetrize(raw),
        provenance=tuple(provenance),
    )


@dataclass(frozen=True)
class Prepared:
    """The border-value-independent state of one pipeline, per location only.

    `distances` is the raw km matrix for `geo` (priced per border before
    inversion) and the inverted distance layer for the multilayer
    pipelines; it is None where the pipeline never reads it.
    """

    pipeline: str
    border_kind: str
    locations: tuple
    crossings: np.ndarray | None
    distances: WeightMatrix | None
    sequence: WeightMatrix | None


def prepare(cfg, events, cg) -> Prepared:
    """Locations, crossings, distance and sequence layers for a run config.

    `events` are the filtered events of the run and `cg` its border graph,
    or None when the config prices no borders. Nothing here depends on the
    swept border value, and the events are not kept.
    """
    kind = cfg.border_model.kind
    with stage("ingest"):
        locations, mapping = build_locations(events, cfg.rounding)
    with stage("borders"):
        crossings = None if cg is None else crossings_matrix(locations, cg)
    with stage("assembly"):
        seq = None
        if cfg.pipeline == "three_layer":
            location_of = {e.source_row: lid for e, lid in zip(events, mapping)}
            seq = sequence_adjacency(events, location_of, cfg.groups, len(locations))
        distances = None
        if cfg.pipeline != "geo":
            distances = invert_distances(distance_matrix(locations))
        elif kind != "permeability":
            distances = distance_matrix(locations)
    return Prepared(cfg.pipeline, kind, tuple(locations), crossings, distances, seq)


def solve(prepared: Prepared, value: float | None, k: int):
    """Weight the borders at `value`, assemble, and embed in k dimensions.

    `value` is the border cost in km for the linear model, the
    permeability p for the permeability model, and ignored for none.
    Returns (Embedding, DisplacementReport); the report is None for `geo`.
    """
    with stage("assembly"):
        if prepared.pipeline == "geo":
            if prepared.border_kind == "permeability":
                weights, tag = border_permeability_matrix(prepared.crossings, value), "border"
            elif prepared.border_kind == "linear":
                # Unnamed, so the priced n x n distances are freed before the solve.
                weights = invert_distances(
                    linear_border_distances(prepared.distances, prepared.crossings, value)
                )
                tag = "distance"
            else:
                weights, tag = invert_distances(prepared.distances), "distance"
            provenance = [PointRef(i, tag, NO_COPY) for i in range(len(prepared.locations))]
        else:
            w_border = border_permeability_matrix(prepared.crossings, value)
            if prepared.pipeline == "two_layer":
                system = build_two_layer(prepared.distances, w_border, TWO_LAYER_TAGS)
            else:
                system = build_three_layer(w_border, prepared.distances, prepared.sequence)
            weights, provenance = system.assembled, system.provenance
    with stage("solver"):
        emb = embed(weights, k, provenance=provenance)
        if prepared.pipeline == "geo":
            return emb, None
        return emb, displacement(emb, TWO_LAYER_TAGS)


def _located(pipeline: str, locations, cg, seq=None) -> Prepared:
    """The multilayer preparation for locations that are already built."""
    locations = tuple(locations)
    crossings = crossings_matrix(locations, cg)
    distances = invert_distances(distance_matrix(locations))
    return Prepared(pipeline, "permeability", locations, crossings, distances, seq)


def embed_two_layer(locations, cg, p: float = DEFAULT_BORDER_P, k: int = 2):
    """Distance layer + border permeability layer, embedded together.

    Returns (Embedding, DisplacementReport); the report measures how far
    each location's two copies land apart.
    """
    return solve(_located("two_layer", locations, cg), p, k)


def embed_three_layer(
    locations,
    cg,
    seq: WeightMatrix,
    p: float = DEFAULT_BORDER_P,
    k: int = 2,
):
    """Embed the full border/distance/sequence system for given locations.

    Returns (Embedding, DisplacementReport); the report compares each
    location's distance-layer and border-layer centroids.
    """
    return solve(_located("three_layer", locations, cg, seq), p, k)


class DisplacementRow(NamedTuple):
    location_id: int
    vector: tuple
    length: float


@dataclass(frozen=True)
class DisplacementReport:
    """Per-location separation between two layer copies, longest first."""

    layer_a: str
    layer_b: str
    k: int
    rows: tuple


def _centroids(emb: Embedding, refs: np.ndarray, spec: str):
    """Sorted location ids under one selector, and the centroid of each one's points."""
    layer, _, copy = spec.partition(":")
    match = refs[:, 1] == layer
    if copy:
        match &= refs[:, 2] == copy
    rows = np.flatnonzero(match)
    if not rows.size:
        raise RuntimeError(f"no embedded points match layer selector {spec!r}")
    lids = refs[rows, 0].astype(np.int64)
    # Stable, so each location's points stay in embedding order.
    order = np.argsort(lids, kind="stable")
    rows = rows[order]
    ids, starts, counts = np.unique(lids[order], return_index=True, return_counts=True)
    centroids = np.empty((ids.size, emb.k))
    for count in np.unique(counts):
        group = counts == count
        points = rows[starts[group][:, None] + np.arange(count)]
        centroids[group] = emb.coordinates[points].mean(axis=1)
    return ids, centroids


def displacement(emb: Embedding, layer_pair) -> DisplacementReport:
    """Vector and length from each location's first-layer point to its second.

    Selectors are layer tags, optionally narrowed to one copy as
    "layer:copy"; a selector matching both copies of a location uses their
    centroid. Every location must appear under both selectors.
    """
    sel_a, sel_b = layer_pair
    refs = np.array(emb.provenance, dtype=object).reshape(-1, 3)
    ids_a, centroids_a = _centroids(emb, refs, sel_a)
    ids_b, centroids_b = _centroids(emb, refs, sel_b)
    missing = np.setxor1d(ids_a, ids_b)
    if missing.size:
        raise RuntimeError(
            f"location {int(missing[0])} is missing a copy for pair ({sel_a!r}, {sel_b!r})"
        )
    # One norm per vector, not one over axis 1, whose sums can round differently.
    rows = [
        DisplacementRow(lid, tuple(vec.tolist()), float(np.linalg.norm(vec)))
        for lid, vec in zip(ids_a.tolist(), centroids_b - centroids_a)
    ]
    rows.sort(key=lambda r: (-r.length, r.location_id))
    return DisplacementReport(layer_a=sel_a, layer_b=sel_b, k=emb.k, rows=tuple(rows))


def write_displacement_csv(report: DisplacementReport, path, countries=None) -> None:
    """Export displacement rows with the layer pair spelled out per row."""
    delta_cols = [f"d{name}" for name in COORD_NAMES[: report.k]]
    header = ["location_id", "layer_a", "layer_b"] + delta_cols + ["length", "country"]
    with atomic_write(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in report.rows:
            country = "" if countries is None else str(countries[row.location_id])
            cells = [str(row.location_id), report.layer_a, report.layer_b]
            cells += [repr(float(v)) for v in row.vector]
            cells += [repr(row.length), country]
            fh.write(",".join(cells) + "\n")


def country_separation_ratio(emb: Embedding, countries) -> float:
    """Mean inter-country embedded distance over mean intra-country distance.

    Pairs of points backed by the same location are excluded, so the fixed
    inter-layer geometry of a location's own copies does not dilute the
    between-country signal.
    """
    coords = emb.coordinates
    n = coords.shape[0]
    loc_ids = np.array([ref.location_id for ref in emb.provenance])
    _, tags = np.unique(
        [str(countries[ref.location_id]) for ref in emb.provenance], return_inverse=True
    )

    # Each row block pairs its rows with columns from the block start on;
    # the masked distances come out in the same order as over all columns.
    inter_sum = intra_sum = 0.0
    inter_count = intra_count = 0
    block = 512
    for start in range(0, n, block):
        stop = min(start + block, n)
        diff = coords[start:stop, None, :] - coords[None, start:, :]
        dist = np.sqrt((diff * diff).sum(axis=2))
        upper = np.arange(stop - start)[:, None] < np.arange(n - start)[None, :]
        distinct = loc_ids[start:stop][:, None] != loc_ids[None, start:]
        same_country = tags[start:stop][:, None] == tags[None, start:]
        intra = upper & distinct & same_country
        inter = upper & distinct & ~same_country
        intra_sum += float(dist[intra].sum())
        intra_count += int(intra.sum())
        inter_sum += float(dist[inter].sum())
        inter_count += int(inter.sum())
    if not inter_count:
        raise ValueError("no inter-country point pairs; ratio undefined")
    if not intra_count:
        raise ValueError("no intra-country point pairs; ratio undefined")
    if intra_sum == 0.0:
        raise ValueError("intra-country distances are all zero; ratio undefined")
    return (inter_sum / inter_count) / (intra_sum / intra_count)
