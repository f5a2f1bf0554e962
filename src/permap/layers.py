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

Every system operator is one function x -> A x over the stacked copies
of the locations, and `_system_laplacian` gives it the degrees A @ 1.
`two_layer_operator` takes each layer's block of the symmetrized walk,
made once by `walk_block`: the distance layer's in `prepare`, in its own
buffer (`Prepared.distances` for `two_layer`), the border layer's per
border value. `three_layer_operator` multiplies by each layer once per
direction and adds the couplings between copies as diagonals.
`build_two_layer` and `build_three_layer` write the 2n x 2n and 6n x 6n
systems as dense arrays, from a dense copy of each layer in any storage.
The operators are tested against them, and the benchmark's dense
reference solve is built from them.

`LAYOUTS` fixes the order of every pipeline's points once: its layer
tags, then the copies of each layer, then the locations. An embedding
and a multilayer system carry that entry as their `layout`, the one
record of the order. `displacement` reshapes the coordinates by it into
each location's border-layer point minus its distance-layer point (in
the three-layer system, each is the centroid of the out and in copies).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

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
    symmetric_scaling,
)
from .spectral import COORD_NAMES, MIN_BASIS, Embedding, embed

TWO_LAYER_TAGS = ("distance", "border")
THREE_LAYER_TAGS = ("border", "distance", "sequence")
OUT = "out"
IN = "in"
NO_COPY = "-"

# The point layout of each pipeline: its layer tags and the copies of
# every layer. Points run layer-major, so copy c of layer l holds the n
# rows from (l * len(copies) + c) * n, and the operators read a vector
# over the points as an array of shape (layers, copies, n).
LAYOUTS = {
    "geo": (("distance",), (NO_COPY,)),
    "two_layer": (TWO_LAYER_TAGS, (NO_COPY,)),
    "three_layer": (THREE_LAYER_TAGS, (OUT, IN)),
}

# Rows per step of country_separation_ratio: its buffer holds this many
# rows of pair distances. Unlike geo's blocks it is a row count, not a byte
# bound: the ratio sums block by block, so the row count sets the rounding
# of separation_ratios.csv, and changing it would change those bytes.
_PAIR_ROWS = 64
# Bytes of the ratio's scratch for one axis's squared differences, the
# bound of geo's row-block temporaries. It only splits the adding of the
# squares into row chunks, which rounds no differently.
_SCRATCH_BYTES = 192 * 1024

# Where the memory check reads the available memory: the host's
# MemAvailable, and the limit, usage and page cache of the process's cgroup v2.
_MEMINFO = Path("/proc/meminfo")
_CGROUP = Path("/proc/self/cgroup")
_CGROUP_ROOT = Path("/sys/fs/cgroup")


@dataclass(frozen=True)
class MultiLayerSystem:
    """An assembled multilayer weight matrix and the LAYOUTS entry its rows follow."""

    assembled: WeightMatrix
    layout: tuple

    def __post_init__(self):
        layer_tags, copies = self.layout
        if self.assembled.n % (len(layer_tags) * len(copies)):
            raise ValueError(f"{self.assembled.n} rows do not fit the layout {self.layout}")


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
    return MultiLayerSystem(WeightMatrix(assembled), LAYOUTS["two_layer"])


def walk_block(w: WeightMatrix, layer: str) -> WeightMatrix:
    """One layer's block of the symmetrized two-layer walk, as build_two_layer forms it.

    The raw walk scales the layer W, without its diagonal, by r = 0.5 /
    its row sums; the block is (diag(r) W + W diag(r)) / 2, made by
    graphs.symmetric_scaling. A dense `w` is rewritten in its own buffer
    and must not be used again; a GroupBlocks layer gives a new one.
    `layer` names the layer in the IsolatedNodeError raised for a node
    whose row has no weight.
    """
    return symmetric_scaling(w, 0.5 / _check_positive(w.row_sums() - w.diagonal(), layer))


def two_layer_operator(s_a, s_b) -> LaplacianOperator:
    """The Laplacian of the two-layer system whose within-layer blocks are s_a and s_b.

    s_a and s_b are the layers' walk blocks, symmetric WeightMatrix
    objects, dense or group blocks, checked as in build_two_layer. With
    s_a = walk_block(w_a) and s_b = walk_block(w_b) this is the
    Laplacian of build_two_layer(w_a, w_b).assembled. Each copy is
    coupled to its twin by I / 2, so a product is one product with each
    block.
    """
    n = _check_two_layers(s_a, s_b)

    def adjacency(x):
        xs = x.reshape(2, n)
        y = np.stack((s_a @ xs[0], s_b @ xs[1]))
        y += 0.5 * xs[::-1]
        return y.ravel()

    return _system_laplacian(adjacency, 2 * n, (s_a, s_b))


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
    return MultiLayerSystem(WeightMatrix(raw), LAYOUTS["three_layer"])


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
    build_three_layer. For layer l there, with s_l = 0.5 / mean_l, b_l
    its budgets, c_l its column sums and pad_l its self-loops (sequence
    only), a product of A = (R + R^T) / 2 is, halved,
    y_out[l] = b_l / 4 * sum_m x_in[m] + own_l * x_in[l] + s_l * W_l x_in[l],
    y_in[l] = sum_m b_m / 4 * x_out[m] + own_l * x_out[l] + s_l * W_l^T x_out[l],
    with own_l = pad_l / 2 + c_l / 4: the diagonal (b_l + c_l) / 4 of R's
    own block, split so that b_l / 4 joins the sum over every layer.
    """
    n = _check_three_layers(w_border, w_dist, a_seq)
    layers = (w_border, w_dist, a_seq)
    scale, quarter, own = np.empty(3), np.empty((3, n)), np.empty((3, n))
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
        scale[li] = 0.5 / mean
        quarter[li] = _check_positive(rows, tag) / 4.0
        own[li] = pad / 2.0 + cols / 4.0
    products = [(w.__matmul__, w.transposed_product()) for w in layers]

    def adjacency(x):
        x_out, x_in = x.reshape(3, 2, n).transpose(1, 0, 2)
        y_out = quarter * x_in.sum(axis=0) + own * x_in
        y_in = (quarter * x_out).sum(axis=0) + own * x_out
        for li, (forward, backward) in enumerate(products):
            y_out[li] += scale[li] * forward(x_in[li])
            y_in[li] += scale[li] * backward(x_out[li])
        return np.stack((y_out, y_in), axis=1).ravel() / 2.0

    return _system_laplacian(adjacency, 6 * n, layers)


def _system_laplacian(adjacency, size: int, layers: tuple) -> LaplacianOperator:
    """The Laplacian of x -> A x over `size` points with degrees A @ 1, so L @ 1 is exactly 0."""
    return LaplacianOperator(degrees=adjacency(np.ones(size)), adjacency=adjacency, layers=layers)


@dataclass(frozen=True)
class Prepared:
    """The border-value-independent state of one pipeline, per location only.

    `codes` and `hops` are each location's country code and the
    country-by-country crossings, or None when no border graph was given,
    which leaves borders unpriced; only `geo` has none. `distances` is the
    raw km matrix for `geo` (priced per border and inverted implicitly, in
    each product), the inverted distance layer for `three_layer`, and
    that layer's walk block (`walk_block`) for `two_layer`. `farthest` is
    the km matrix's `geo.country_farthest` table for `geo`, which gives
    each priced layer's scale, and None elsewhere.
    `sequence` is the three-layer sequence layer, CSR as
    `sequence.sequence_adjacency` builds it.
    """

    pipeline: str
    locations: tuple
    codes: np.ndarray | None
    hops: np.ndarray | None
    distances: WeightMatrix
    farthest: np.ndarray | None
    sequence: WeightMatrix | None


def prepare(pipeline: str, locations, cg, seq=None) -> Prepared:
    """The border-value-independent state of one pipeline; see Prepared.

    `cg` is the border graph, or None to leave borders unpriced (`geo`
    only), and `seq` the three-layer sequence layer as
    `sequence.sequence_adjacency` builds it. Nothing here depends on the
    swept border value; every pipeline builds its n x n distance layer
    here, and `two_layer` turns it into its walk block in place. Raises
    ValueError for an unknown pipeline, a multilayer one without `cg` or
    a three-layer one without `seq`, and InsufficientMemoryError, before
    the distance layer is built, when the run's estimated peak memory
    exceeds what is free.
    """
    if pipeline not in LAYOUTS:
        raise ValueError(f"pipeline must be one of {tuple(LAYOUTS)}, got {pipeline!r}")
    if cg is None and pipeline != "geo":
        raise ValueError(f"pipeline {pipeline!r} needs a border graph")
    if seq is None and pipeline == "three_layer":
        raise ValueError("pipeline 'three_layer' needs a sequence layer")
    locations = tuple(locations)
    with stage("borders"):
        codes, hops = (None, None) if cg is None else country_crossings(locations, cg)
    with stage("assembly"):
        _check_memory(pipeline, len(locations))
        if pipeline == "geo":
            distances = distance_matrix(locations)
            farthest = country_farthest(distances, codes)
        else:
            distances, farthest = closeness_matrix(locations), None
            if pipeline == "two_layer":
                distances = walk_block(distances, TWO_LAYER_TAGS[0])
    return Prepared(pipeline, locations, codes, hops, distances, farthest, seq)


def _check_memory(pipeline: str, n: int) -> None:
    """Refuse a run whose estimated peak memory exceeds the memory available.

    Every pipeline builds one distance layer, one n x n float array: the
    km matrix, which the multilayer pipelines invert in place (and
    `two_layer` scales into its walk block, also in place) and `geo`
    prices and inverts in each product, so no copy of it is made. The
    Lanczos basis holds MIN_BASIS vectors of the system size. The
    distance builders' row-block temporaries are left out: each is
    bounded in bytes (geo._BLOCK_BYTES), not in n, and a few of them are
    small next to either term; the walk block needs one n-vector. Raises
    InsufficientMemoryError; checks nothing when the available memory
    cannot be read.
    """
    available = _available_memory()
    if available is None:
        return
    layer_tags, copies = LAYOUTS[pipeline]
    needed = 8 * MIN_BASIS * n * len(layer_tags) * len(copies) + 8 * n * n
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
    """The Laplacian operator of one border value and the layout of its points.

    `value` is the border cost in km for `geo` and the permeability p of
    the multilayer pipelines' border layer. It must be None exactly when
    `prepare` had no border graph, so `geo` prices no border; raises
    ValueError otherwise.
    """
    if (value is None) != (prepared.hops is None):
        graph = "without" if prepared.hops is None else "with"
        raise ValueError(f"border value {value!r} given {graph} a border graph")
    if prepared.pipeline == "geo":
        lap = _priced_operator(prepared, value or 0.0)
    else:
        w_border = border_blocks(prepared.codes, prepared.hops, value)
        if prepared.pipeline == "two_layer":
            lap = two_layer_operator(prepared.distances, walk_block(w_border, TWO_LAYER_TAGS[1]))
        else:  # "three_layer"
            lap = three_layer_operator(w_border, prepared.distances, prepared.sequence)
    return lap, LAYOUTS[prepared.pipeline]


def _priced_operator(prepared: Prepared, cost_km: float) -> LaplacianOperator:
    """The Laplacian of geo's priced layer, with no n x n array of it made.

    The layer is invert_distances(linear_border_distances(D, crossings,
    cost_km)). Off its diagonal it is M - cost_km * H_ij - D_ij, with D the
    km matrix, H the crossings and M from geo.priced_top. The first two
    terms are constant on each pair of countries, so they are a
    GroupBlocks of the table M - cost_km * hops, and a product is one
    with that table and one with D, through its upper triangle. Where no
    crossing is priced, all locations form one group, so a zero cost
    gives the same bytes as no borders.
    """
    d, codes, hops = prepared.distances, prepared.codes, prepared.hops
    top = priced_top(prepared.farthest, hops, cost_km)
    if hops is None or cost_km == 0.0:
        codes, hops = np.zeros(d.n, dtype=np.intp), np.zeros((1, 1))
    priced = WeightMatrix(GroupBlocks(codes, top - cost_km * hops))

    def adjacency(x):
        return priced @ x - d @ x

    return _system_laplacian(adjacency, d.n, (d, priced))


def solve(prepared: Prepared, value: float | None, k: int):
    """Weight the borders at `value`, build the system operator, and embed in k dimensions.

    No system matrix, Laplacian or n x n crossings array is formed.
    Returns (Embedding, displacement vectors); the vectors are None for `geo`.
    """
    with stage("assembly"):
        lap, layout = system_operator(prepared, value)
    with stage("solver"):
        emb = embed(lap, k, layout=layout)
        return emb, None if prepared.pipeline == "geo" else displacement(emb)


def displacement(emb: Embedding) -> np.ndarray:
    """Row i: location i's border-layer point minus its distance-layer point.

    A layer's point is the centroid of its copies, found by the layout.
    """
    layer_tags, copies = emb.layout
    points = emb.coordinates.reshape(len(layer_tags), len(copies), -1, emb.k).mean(axis=1)
    distance, border = TWO_LAYER_TAGS
    return points[layer_tags.index(border)] - points[layer_tags.index(distance)]


def write_displacement_csv(vectors: np.ndarray, path, countries=None) -> None:
    """Export each location's vector (distance to border layer) and length, longest first."""
    delta_cols = [f"d{name}" for name in COORD_NAMES[: vectors.shape[1]]]
    header = ["location_id", "layer_a", "layer_b"] + delta_cols + ["length", "country"]
    # One norm per vector, not one over axis 1, whose sums can round differently.
    lengths = [float(np.linalg.norm(vec)) for vec in vectors]
    order = sorted(range(len(lengths)), key=lambda lid: (-lengths[lid], lid))
    rows = (
        [lid, *TWO_LAYER_TAGS, *vectors[lid].tolist(), lengths[lid]]
        + ["" if countries is None else countries[lid]]
        for lid in order
    )
    write_csv(path, header, rows)


def country_separation_ratio(coords: np.ndarray, location_ids, countries) -> float:
    """Mean inter-country embedded distance over mean intra-country distance.

    `location_ids` gives each row of `coords` its location; `countries[i]` is location i's country.
    Pairs of points backed by the same location are excluded, so the fixed
    inter-layer geometry of a location's own copies does not dilute the
    between-country signal.

    The points are ordered once by country, with a stable sort, so every
    pair runs from a point to a later one and the pairs between two
    countries fill off-diagonal blocks. A location has one country, so
    none of those pairs shares a location and they need no mask. Rows go
    _PAIR_ROWS at a time against every later point, into one buffer
    allocated once; each further axis's squares are added into it a row
    chunk at a time, through a scratch of at most _SCRATCH_BYTES. Only the
    block of the rows' own country is masked, to its upper triangle and
    to pairs of different locations. Each distance is the same float as
    in a pair-by-pair loop (squares added axis by axis from the first);
    the sums run block by block, so the ratio depends on the point order
    only at rounding level. Counts are exact.
    """
    n, k = coords.shape
    _, tags = np.unique([str(countries[lid]) for lid in location_ids.tolist()], return_inverse=True)
    order = np.argsort(tags, kind="stable")
    coords = coords[order]
    loc_ids = location_ids[order]

    dist = np.empty(min(_PAIR_ROWS, n) * n)
    chunk = max(1, _SCRATCH_BYTES // (8 * n))
    scratch = np.empty(min(chunk, _PAIR_ROWS, n) * n)
    inter_sum = intra_sum = 0.0
    inter_count = intra_count = 0
    start = 0
    for end in np.cumsum(np.bincount(tags)).tolist():
        for lo in range(start, end, _PAIR_ROWS):
            hi = min(lo + _PAIR_ROWS, end)
            shape = (hi - lo, n - lo)
            d = dist[: shape[0] * shape[1]].reshape(shape)
            np.subtract(coords[lo:hi, 0, None], coords[None, lo:, 0], out=d)
            np.multiply(d, d, out=d)
            for axis in range(1, k):
                for top in range(lo, hi, chunk):
                    part = d[top - lo : top - lo + chunk]
                    sq = scratch[: part.size].reshape(part.shape)
                    rows = coords[top : top + len(part), axis, None]
                    np.subtract(rows, coords[None, lo:, axis], out=sq)
                    np.multiply(sq, sq, out=sq)
                    part += sq
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
