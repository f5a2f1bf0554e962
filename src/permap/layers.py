"""Multilayer network assembly, the embedding pipeline, and displacement diagnostics.

Two-layer systems couple a geodesic-closeness layer with a border
permeability layer: half of each node's lazy-walk mass stays in its
layer and half crosses to its twin. Three-layer systems add a directed
attack sequence layer and copy every node into out- and in-copies, so
the direction survives symmetric eigensolving.

Every pipeline runs in two steps. `prepare` takes the locations, the
border graph and (for three layers) the sequence layer the caller has
read, and does the work that does not depend on the border value
(country codes and crossings, the distance layer); `solve` weights the
borders at one value and embeds the system, so a sweep prepares once.
They are the only way into an embedding: a two-layer map at
permeability p is `solve(prepare("two_layer", locations, cg), p, k)`.
This module weights layers; it reads no events.

`two_layer_operator` and `three_layer_operator` only list the blocks of
their raw walk over the copies, each a product with one layer or a
diagonal; `graphs.symmetrized_operator` turns them into the Laplacian.
`build_two_layer` and `build_three_layer` write the 2n x 2n and 6n x 6n
systems as dense arrays, from a dense copy of each layer in any storage.
The operators are tested against them, and the benchmark's dense
reference solve is built from them.

`LAYOUTS` fixes the order of every multilayer system's points once:
its layer tags, then the copies of each layer, then the locations.
The provenance of the embedded points comes from it, and so does
`displacement`, which reshapes the coordinates by it and reports each
location's border-layer point minus its distance-layer point (in the
three-layer system, each point is the centroid of the out and in copies).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import InsufficientMemoryError, IsolatedNodeError, stage
from .fileio import write_csv
from .geo import (
    border_blocks,
    closeness_matrix,
    country_crossings,
    country_farthest,
    distance_matrix,
    priced_top,
)
from .graphs import (
    GroupBlocks,
    LaplacianOperator,
    WeightMatrix,
    laplacian_operator,
    symmetrized_operator,
)
from .spectral import COORD_NAMES, MIN_BASIS, Embedding, PointRef, embed

TWO_LAYER_TAGS = ("distance", "border")
THREE_LAYER_TAGS = ("border", "distance", "sequence")
OUT = "out"
IN = "in"
NO_COPY = "-"

# The point layout of each multilayer pipeline: its layer tags and the
# copies of every layer. Points run layer-major, so copy c of layer l
# holds the n rows from (l * len(copies) + c) * n, the block that
# graphs.symmetrized_operator numbers l * len(copies) + c.
LAYOUTS = {
    "two_layer": (TWO_LAYER_TAGS, (NO_COPY,)),
    "three_layer": (THREE_LAYER_TAGS, (OUT, IN)),
}

# The border models each pipeline prices; the multilayer pipelines weight
# their border layer by permeability only.
BORDER_KINDS = {
    "geo": ("none", "linear", "permeability"),
    "two_layer": ("permeability",),
    "three_layer": ("permeability",),
}

# Rows per step of country_separation_ratio: its two buffers hold this many
# rows of pair distances. Unlike geo's blocks it is a row count, not a byte
# bound: the ratio sums block by block, so the row count sets the rounding
# of separation_ratios.csv, and changing it would change those bytes.
_PAIR_ROWS = 64

# Where the memory check reads the available memory: the host's
# MemAvailable, and the limit, usage and page cache of the process's cgroup v2.
_MEMINFO = Path("/proc/meminfo")
_CGROUP = Path("/proc/self/cgroup")
_CGROUP_ROOT = Path("/sys/fs/cgroup")


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


def _provenance(n: int, layer_tags, copies) -> tuple:
    """Layer-major point order: every location's point of one layer copy, then the next."""
    return tuple(PointRef(i, tag, copy) for tag in layer_tags for copy in copies for i in range(n))


def _system(pipeline: str, n: int, assembled: WeightMatrix) -> MultiLayerSystem:
    """An assembled system with the point layout of `pipeline`."""
    layer_tags, copies = LAYOUTS[pipeline]
    provenance = _provenance(n, layer_tags, copies)
    return MultiLayerSystem(n, layer_tags, len(copies), assembled, provenance)


def _check_positive(sums: np.ndarray, layer: str) -> np.ndarray:
    """`sums`, the total edge weight of each node in one layer; raises if any node has none."""
    bad = np.flatnonzero(sums <= 0)
    if bad.size:
        raise IsolatedNodeError(f"node {bad[0]} in layer {layer!r} has zero total edge weight")
    return sums


def _check_two_layers(w_a, w_b) -> int:
    """Types, symmetry and sizes of a two-layer pair; returns n."""
    if not (isinstance(w_a, WeightMatrix) and isinstance(w_b, WeightMatrix)):
        raise ValueError("two-layer assembly expects WeightMatrix layers")
    if not (w_a.is_symmetric and w_b.is_symmetric):
        raise ValueError("both layers must be symmetric")
    n = w_a.n
    if w_b.n != n:
        raise ValueError(f"layer sizes differ: {n} vs {w_b.n}")
    if n < 2:
        raise ValueError("a layer needs at least 2 locations to carry edges")
    return n


def build_two_layer(w_a: WeightMatrix, w_b: WeightMatrix) -> MultiLayerSystem:
    """Couple two undirected layers over the same nodes into one assembled system.

    Each layer, with its diagonal dropped and its rows scaled to sum 0.5,
    is one within-layer block of a lazy walk; the other half of every
    row's mass crosses to the location's twin through inter-layer blocks
    of 0.5 * I. The assembled matrix is that walk averaged with its
    transpose; the inter-layer blocks are already symmetric, so only the
    within-layer blocks are averaged. The pipelines solve through
    `two_layer_operator` instead; this dense 2n x 2n form is the
    reference it is tested against.
    """
    n = _check_two_layers(w_a, w_b)
    assembled = np.zeros((2 * n, 2 * n))
    for block, w, tag in zip((slice(0, n), slice(n, None)), (w_a, w_b), TWO_LAYER_TAGS):
        values = w.toarray()
        np.fill_diagonal(values, 0.0)
        values /= 2.0 * _check_positive(values.sum(axis=1), tag)[:, None]
        assembled[block, block] = (values + values.T) / 2.0
    cross = np.arange(n)
    assembled[cross, n + cross] = 0.5
    assembled[n + cross, cross] = 0.5
    return _system("two_layer", n, WeightMatrix(assembled))


def two_layer_operator(w_a, w_b) -> LaplacianOperator:
    """The Laplacian of build_two_layer(w_a, w_b).assembled, from the two layers alone.

    Layers are symmetric WeightMatrix objects, dense or group blocks,
    checked as in build_two_layer. The raw walk has one block per layer on that
    layer's copy: W without its diagonal, rows scaled by D^-1 / 2, where D
    are its row sums. One identity block leads from copy 0 to copy 1;
    symmetrized, it is the I / 2 coupling both ways.
    """
    n = _check_two_layers(w_a, w_b)
    blocks = {}
    for copy, (w, tag) in enumerate(zip((w_a, w_b), TWO_LAYER_TAGS)):
        loops = w.diagonal()
        rows = 0.5 / _check_positive(w.row_sums() - loops, tag)
        blocks[copy, copy] = _layer_block(w, rows, -loops * rows)
    blocks[0, 1] = (lambda x: x,) * 2
    return symmetrized_operator(n, blocks, (w_a, w_b))


def _layer_block(w: WeightMatrix, rows, diagonal):
    """One raw-walk block diag(rows) W + diag(diagonal), as x -> B x and x -> B^T x."""
    transposed = w.transposed_product()
    return (
        lambda x: rows * (w @ x) + diagonal * x,
        lambda x: transposed(rows * x) + diagonal * x,
    )


def build_three_layer(
    w_border: WeightMatrix, w_dist: WeightMatrix, a_seq: WeightMatrix
) -> MultiLayerSystem:
    """Assemble border, distance, and sequence layers into a 6n x 6n system.

    Each layer is divided by the mean of its nonzero entries; the sequence
    layer then gets self-loops that lift every row to the largest row sum.
    With N that normalized layer and b its row sums (its budgets), the raw
    walk runs from the layer's out-copies to in-copies: N / 2 + diag((b +
    column sums of N) / 4) to its own in-copy, so each node's out/in pair
    is joined by half its incident weight, and diag(b / 4) to the in-copy
    of each other layer. The system is that walk averaged with its
    transpose, held dense. The pipelines solve through
    `three_layer_operator` instead; this assembled form is the reference
    it is tested against.
    """
    n = _check_three_layers(w_border, w_dist, a_seq)
    raw = np.zeros((6 * n, 6 * n))
    diagonal = np.arange(n)
    for li, (w, tag) in enumerate(zip((w_border, w_dist, a_seq), THREE_LAYER_TAGS)):
        values = w.toarray()
        nonzero = values[values != 0]
        if not nonzero.size:
            if li == 2:
                raise ValueError("sequence layer has no edges; nothing to normalize")
            raise ValueError("cannot normalize an all-zero matrix")
        values /= nonzero.mean()
        sums = values.sum(axis=1)
        if li == 2:
            values[diagonal, diagonal] += sums.max() - sums
            sums = values.sum(axis=1)
        budget = _check_positive(sums, tag)
        # Row block 2*l holds layer l's out-copies, column block 2*l+1 its in-copies.
        out = raw[2 * li * n : (2 * li + 1) * n]
        for lj in range(3):
            block = out[:, (2 * lj + 1) * n : (2 * lj + 2) * n]
            if lj == li:
                block[...] = values / 2.0
                block[diagonal, diagonal] += (budget + values.sum(axis=0)) / 4.0
            else:
                block[diagonal, diagonal] = budget / 4.0
    # The average (raw + raw.T) / 2, with one 6n x 6n temporary, not two.
    raw += raw.T
    raw /= 2.0
    return _system("three_layer", n, WeightMatrix(raw))


def _check_three_layers(w_border, w_dist, a_seq) -> int:
    """Types, symmetry and sizes of the three layers; returns n."""
    if not (isinstance(w_border, WeightMatrix) and isinstance(w_dist, WeightMatrix)):
        raise ValueError("three-layer assembly expects WeightMatrix layers")
    if not (w_border.is_symmetric and w_dist.is_symmetric):
        raise ValueError("border and distance layers must be symmetric")
    if not isinstance(a_seq, WeightMatrix) or a_seq.is_symmetric:
        raise ValueError("sequence layer must be a directed WeightMatrix")
    n = w_border.n
    if w_dist.n != n or a_seq.n != n:
        raise ValueError(f"layer sizes differ: {n}, {w_dist.n}, {a_seq.n}")
    return n


def three_layer_operator(w_border, w_dist, a_seq: WeightMatrix) -> LaplacianOperator:
    """The Laplacian of build_three_layer(...).assembled, from the three layers alone.

    The border and distance layers are symmetric (dense or group blocks)
    and the sequence layer is directed (CSR); the checks are those of
    build_three_layer. Layer l, normalized to N_l with budgets b_l (its
    row sums), has two kinds of raw-walk block, both from its out-copy:
    N_l / 2 + diag((b_l + column sums of N_l) / 4) to its own in-copy,
    and diag(b_l / 4) to the in-copy of each other layer.
    """
    n = _check_three_layers(w_border, w_dist, a_seq)
    layers = (w_border, w_dist, a_seq)
    blocks = {}
    for li, (w, tag) in enumerate(zip(layers, THREE_LAYER_TAGS)):
        try:
            mean = w.nonzero_mean()
        except ValueError:
            if li < 2:
                raise
            raise ValueError("sequence layer has no edges; nothing to normalize") from None
        rows, cols = w.row_sums() / mean, w.col_sums() / mean
        pad = 0.0
        if li == 2:
            # Self-loops lift every sequence row to the largest row sum.
            pad = rows.max() - rows
            rows, cols = rows + pad, cols + pad
        budget = _check_positive(rows, tag)
        diagonal = pad / 2.0 + (budget + cols) / 4.0
        blocks[2 * li, 2 * li + 1] = _layer_block(w, 0.5 / mean, diagonal)
        quarter = functools.partial(np.multiply, budget / 4.0)
        for lj in range(3):
            if lj != li:
                blocks[2 * li, 2 * lj + 1] = (quarter, quarter)
    return symmetrized_operator(n, blocks, layers)


@dataclass(frozen=True)
class Prepared:
    """The border-value-independent state of one pipeline, per location only.

    `codes` and `hops` are each location's country code and the
    country-by-country crossings, or None when the config prices no
    borders. `distances` is the raw km matrix for `geo` (priced per
    border and inverted implicitly, in each product) and the inverted
    distance layer for the multilayer pipelines; it is None where the
    pipeline never reads it. `farthest` is the km matrix's
    `geo.country_farthest` table for `geo`, which gives each priced
    layer's scale, and None elsewhere. `sequence` is the three-layer
    sequence layer, CSR as `sequence.sequence_adjacency` builds it.
    """

    pipeline: str
    border_kind: str
    locations: tuple
    codes: np.ndarray | None
    hops: np.ndarray | None
    distances: WeightMatrix | None
    farthest: np.ndarray | None
    sequence: WeightMatrix | None


def prepare(pipeline: str, locations, cg, seq=None, border_kind="permeability") -> Prepared:
    """The border-value-independent state of one pipeline; see Prepared.

    `cg` is the border graph, or None when no borders are priced, and
    `seq` the three-layer sequence layer as `sequence.sequence_adjacency`
    builds it. Nothing here depends on the swept border value. Raises
    ValueError for a pipeline or border kind outside BORDER_KINDS, and
    InsufficientMemoryError, before the distance layer is built, when the
    run's estimated peak memory exceeds the memory available.
    """
    if pipeline not in BORDER_KINDS:
        raise ValueError(f"pipeline must be one of {tuple(BORDER_KINDS)}, got {pipeline!r}")
    if border_kind not in BORDER_KINDS[pipeline]:
        raise ValueError(
            f"pipeline {pipeline!r} takes border_kind in {BORDER_KINDS[pipeline]}, "
            f"got {border_kind!r}"
        )
    locations = tuple(locations)
    with stage("borders"):
        codes, hops = (None, None) if cg is None else country_crossings(locations, cg)
    with stage("assembly"):
        builds_distances = pipeline != "geo" or border_kind != "permeability"
        _check_memory(pipeline, len(locations), builds_distances)
        distances = farthest = None
        if pipeline != "geo":
            distances = closeness_matrix(locations)
        elif builds_distances:
            distances = distance_matrix(locations)
            farthest = country_farthest(distances, codes)
    return Prepared(pipeline, border_kind, locations, codes, hops, distances, farthest, seq)


def _check_memory(pipeline: str, n: int, builds_distances: bool) -> None:
    """Refuse a run whose estimated peak memory exceeds the memory available.

    A distance layer is one n x n float array: the km matrix, which the
    multilayer pipelines invert in place and `geo` prices and inverts in
    each product, so no copy of it is made. The Lanczos basis
    holds MIN_BASIS vectors of the system size. The distance builders'
    row-block temporaries are left out: each is bounded in bytes
    (geo._BLOCK_BYTES), not in n, and a few of them are small next to
    either term. Raises InsufficientMemoryError; checks nothing when the
    available memory cannot be read.
    """
    available = _available_memory()
    if available is None:
        return
    size = n
    if pipeline in LAYOUTS:
        layer_tags, copies = LAYOUTS[pipeline]
        size *= len(layer_tags) * len(copies)
    needed = 8 * MIN_BASIS * size + (8 * n * n if builds_distances else 0)
    if needed > available:
        raise InsufficientMemoryError(
            f"needs an estimated {needed / 1e9:.1f} GB, {available / 1e9:.1f} GB available"
        )


def _available_memory() -> int | None:
    """Bytes this process may still allocate, or None when nothing can be read.

    MemAvailable of the host, lowered to memory.max - memory.current of
    the process's cgroup v2 where memory.max is a number. The cgroup's
    inactive_file page cache, which the kernel drops before it refuses an
    allocation, is not counted as used; without a readable memory.stat
    line for it, all of memory.current is.
    """
    available = None
    try:
        with open(_MEMINFO, encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    available = int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        with open(_CGROUP, encoding="utf-8") as fh:
            # The cgroup v2 line is "0::<path>"; v1 lines name a controller.
            group = next(line[3:].strip() for line in fh if line.startswith("0::"))
        group = _CGROUP_ROOT / group.lstrip("/")
        limit = (group / "memory.max").read_text(encoding="ascii").strip()
        if limit != "max":
            used = int((group / "memory.current").read_text(encoding="ascii"))
            try:
                stat = (group / "memory.stat").read_text(encoding="ascii").splitlines()
                cache = next(line for line in stat if line.startswith("inactive_file "))
                used -= int(cache.split()[-1])
            except (OSError, ValueError, StopIteration):
                pass
            headroom = int(limit) - used
            available = headroom if available is None else min(available, headroom)
    except (OSError, ValueError, StopIteration):
        pass
    return available


def system_operator(prepared: Prepared, value: float | None):
    """The Laplacian operator of one border value and the provenance of its points.

    `value` is the border cost in km for the linear model, the
    permeability p for the permeability model, and ignored for none.
    """
    n = len(prepared.locations)
    if prepared.pipeline == "geo":
        if prepared.border_kind == "permeability":
            lap = laplacian_operator(border_blocks(prepared.codes, prepared.hops, value))
            tag = "border"
        else:  # "linear", or "none", which prices borders at no cost
            cost = value if prepared.border_kind == "linear" else 0.0
            lap, tag = _priced_operator(prepared, cost), "distance"
        return lap, _provenance(n, (tag,), (NO_COPY,))
    w_border = border_blocks(prepared.codes, prepared.hops, value)
    if prepared.pipeline == "two_layer":
        lap = two_layer_operator(prepared.distances, w_border)
    else:  # "three_layer"
        lap = three_layer_operator(w_border, prepared.distances, prepared.sequence)
    return lap, _provenance(n, *LAYOUTS[prepared.pipeline])


def _priced_operator(prepared: Prepared, cost_km: float) -> LaplacianOperator:
    """The Laplacian of geo's priced layer, with no n x n array of it made.

    The layer is invert_distances(linear_border_distances(D, crossings,
    cost_km)). Off its diagonal it is M - cost_km * H_ij - D_ij, with D the
    km matrix, H the crossings and M from geo.priced_top. The first two
    terms are constant on each pair of countries, so they are a
    GroupBlocks of the table M - cost_km * hops, and a product is one
    with that table and one with D, through its upper triangle. Where no
    crossing is priced, all locations form one group, so a zero cost
    gives the same bytes as no borders. The degrees are W @ 1, so L @ 1
    is exactly zero.
    """
    d, codes, hops = prepared.distances, prepared.codes, prepared.hops
    top = priced_top(prepared.farthest, hops, cost_km)
    if hops is None or cost_km == 0.0:
        codes, hops = np.zeros(d.n, dtype=np.intp), np.zeros((1, 1))
    priced = WeightMatrix(GroupBlocks(codes, top - cost_km * hops))

    def adjacency(x):
        return priced @ x - d @ x

    degrees = adjacency(np.ones(d.n))
    return LaplacianOperator(degrees=degrees, adjacency=adjacency, layers=(d, priced))


def solve(prepared: Prepared, value: float | None, k: int):
    """Weight the borders at `value`, build the system operator, and embed in k dimensions.

    No system matrix, Laplacian or n x n crossings array is formed.
    Returns (Embedding, DisplacementReport); the report is None for `geo`.
    """
    with stage("assembly"):
        lap, provenance = system_operator(prepared, value)
    with stage("solver"):
        emb = embed(lap, k, provenance=provenance)
        if prepared.pipeline == "geo":
            return emb, None
        return emb, displacement(emb, *LAYOUTS[prepared.pipeline])


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


def displacement(emb: Embedding, layer_tags, copies) -> DisplacementReport:
    """Vector and length from each location's distance-layer point to its border-layer point.

    The points are in the layout `layer_tags` x `copies` of LAYOUTS, so
    the coordinates reshape to (layers, copies, locations, k); a layer
    with two copies contributes the centroid of each location's pair.
    """
    points = emb.coordinates.reshape(len(layer_tags), len(copies), -1, emb.k).mean(axis=1)
    distance, border = TWO_LAYER_TAGS
    vectors = points[layer_tags.index(border)] - points[layer_tags.index(distance)]
    # One norm per vector, not one over axis 1, whose sums can round differently.
    rows = [
        DisplacementRow(lid, tuple(vec.tolist()), float(np.linalg.norm(vec)))
        for lid, vec in enumerate(vectors)
    ]
    rows.sort(key=lambda r: (-r.length, r.location_id))
    return DisplacementReport(layer_a=distance, layer_b=border, k=emb.k, rows=tuple(rows))


def write_displacement_csv(report: DisplacementReport, path, countries=None) -> None:
    """Export displacement rows with the layer pair spelled out per row."""
    delta_cols = [f"d{name}" for name in COORD_NAMES[: report.k]]
    header = ["location_id", "layer_a", "layer_b"] + delta_cols + ["length", "country"]
    rows = (
        [row.location_id, report.layer_a, report.layer_b, *row.vector, row.length]
        + ["" if countries is None else countries[row.location_id]]
        for row in report.rows
    )
    write_csv(path, header, rows)


def country_separation_ratio(emb: Embedding, countries) -> float:
    """Mean inter-country embedded distance over mean intra-country distance.

    Pairs of points backed by the same location are excluded, so the fixed
    inter-layer geometry of a location's own copies does not dilute the
    between-country signal.

    The points are ordered once by country, with a stable sort, so every
    pair runs from a point to a later one and the pairs between two
    countries fill off-diagonal blocks. A location has one country, so
    none of those pairs shares a location and they need no mask. Rows go
    _PAIR_ROWS at a time against every later point, into two buffers
    allocated once; only the block of the rows' own country is masked, to
    its upper triangle and to pairs of different locations. Each distance
    is the same float as in a pair-by-pair loop (squares added axis by
    axis from the first); the sums run block by block, so the ratio
    depends on the point order only at rounding level. Counts are exact.
    """
    coords = emb.coordinates
    n, k = coords.shape
    _, tags = np.unique(
        [str(countries[ref.location_id]) for ref in emb.provenance], return_inverse=True
    )
    order = np.argsort(tags, kind="stable")
    coords = coords[order]
    loc_ids = np.array([ref.location_id for ref in emb.provenance])[order]

    dist = np.empty(min(_PAIR_ROWS, n) * n)
    squares = np.empty_like(dist)
    inter_sum = intra_sum = 0.0
    inter_count = intra_count = 0
    start = 0
    for end in np.cumsum(np.bincount(tags)).tolist():
        for lo in range(start, end, _PAIR_ROWS):
            hi = min(lo + _PAIR_ROWS, end)
            shape = (hi - lo, n - lo)
            d = dist[: shape[0] * shape[1]].reshape(shape)
            sq = squares[: d.size].reshape(shape)
            np.subtract(coords[lo:hi, 0, None], coords[None, lo:, 0], out=d)
            np.multiply(d, d, out=d)
            for axis in range(1, k):
                np.subtract(coords[lo:hi, axis, None], coords[None, lo:, axis], out=sq)
                np.multiply(sq, sq, out=sq)
                d += sq
            np.sqrt(d, out=d)
            # Columns from `end` on are later countries: every pair counts.
            inter_sum += float(d[:, end - lo :].sum())
            inter_count += shape[0] * (n - end)
            keep = np.arange(lo, end)[None, :] > np.arange(lo, hi)[:, None]
            keep &= loc_ids[lo:hi, None] != loc_ids[None, lo:end]
            intra = d[:, : end - lo]
            intra *= keep
            intra_sum += float(intra.sum())
            intra_count += int(np.count_nonzero(keep))
        start = end
    if not inter_count:
        raise ValueError("no inter-country point pairs; ratio undefined")
    if not intra_count:
        raise ValueError("no intra-country point pairs; ratio undefined")
    if intra_sum == 0.0:
        raise ValueError("intra-country distances are all zero; ratio undefined")
    return (inter_sum / inter_count) / (intra_sum / intra_count)
