"""Geodesic distances and the two border-cost models.

Distances are great-circle kilometers on a sphere of radius
EARTH_RADIUS_KM. Border effects come in a linear flavor (a fixed extra
distance per crossing, added before distance inversion) and a non-linear
flavor (a per-border success probability raised to the number of
crossings, used directly as an edge weight).

Crossings depend only on the two locations' countries, so the pipelines
keep them as a country code per location and a country-by-country hop
table (`country_crossings`), read off scipy's unweighted shortest paths
over the border graph. The permeability weights then stay per pair
of countries (`border_blocks`, a WeightMatrix over a GroupBlocks). Every
layer made here is undirected, and a WeightMatrix reads that off its
storage: a dense array or a GroupBlocks is symmetric. The
linear model keeps only the km matrix: its priced, inverted weights
1.1 * max(d + cost * crossings) - (d + cost * crossings) are never
formed, and their scale comes from the farthest pair of each two
countries (`country_farthest`, `priced_top`). The multilayer pipelines
invert the km matrix in its own buffer (`closeness_matrix`). The n x n builders (`crossings_matrix`,
`border_permeability_matrix`, `linear_border_distances`) give the same
values as full matrices.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.csgraph import shortest_path

from .errors import ConfigError, DisconnectedGraphError
from .fileio import open_input
from .graphs import GroupBlocks, WeightMatrix

EARTH_RADIUS_KM = 6371.0

_REFERENCE_BORDERS = "country_borders_west_africa.csv"

# Bytes of one row-block temporary in distance_matrix and country_farthest.
_BLOCK_BYTES = 192 * 1024
# invert_distances' scale: the farthest pair keeps a tenth of the top weight.
_MULTIPLIER = 1.1


def _latlon(point):
    lat = getattr(point, "latitude", None)
    if lat is not None:
        return float(lat), float(point.longitude)
    lat, lon = point
    return float(lat), float(lon)


def _check_bounds(lat: float, lon: float):
    if not -90.0 <= lat <= 90.0:
        raise ValueError(f"latitude {lat} out of range [-90, 90]")
    if not -180.0 <= lon <= 180.0:
        raise ValueError(f"longitude {lon} out of range [-180, 180]")


def _block_rows(n: int) -> int:
    """Rows of n float64 columns that fit in _BLOCK_BYTES, and at least one."""
    return max(1, _BLOCK_BYTES // (8 * n))


def distance_matrix(locations) -> WeightMatrix:
    """All-pairs great-circle (haversine) distances for >= 2 locations (zero diagonal).

    Each block of _block_rows(n) rows is computed only from its diagonal
    column on, into one n x n result, and the tile right of its diagonal
    block is written transposed below it. So each temporary holds at most
    _BLOCK_BYTES while one row fits in it, at any n, and each pair is
    computed once. Every computed entry
    goes through the same operations as in the whole-matrix formula, and
    the formula is exactly symmetric, so the result is bit-equal to it.
    """
    pts = [_latlon(p) for p in locations]
    if len(pts) < 2:
        raise ValueError("distance_matrix needs at least 2 locations")
    for lat, lon in pts:
        _check_bounds(lat, lon)
    lat = np.radians([p[0] for p in pts])
    lon = np.radians([p[1] for p in pts])
    cos_lat = np.cos(lat)
    d = np.empty((lat.size, lat.size))
    block = _block_rows(lat.size)
    for start in range(0, lat.size, block):
        stop = start + block
        rows, cols = slice(start, stop), slice(start, None)
        dp = lat[rows, None] - lat[None, cols]
        dl = lon[rows, None] - lon[None, cols]
        cos_pair = cos_lat[rows, None] * cos_lat[None, cols]
        h = np.sin(dp / 2.0) ** 2 + cos_pair * np.sin(dl / 2.0) ** 2
        d[rows, cols] = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))
        d[stop:, rows] = d[rows, stop:].T
    np.fill_diagonal(d, 0.0)
    return WeightMatrix(d)


def invert_distances(d: WeightMatrix) -> WeightMatrix:
    """Turn distances into similarities: 1.1 * max(d) minus each entry.

    Every off-diagonal weight stays strictly positive, so near locations
    get large weights and far ones small. The diagonal is forced back to
    zero.
    """
    if not d.is_symmetric:
        raise ValueError("invert_distances expects a symmetric distance matrix")
    return WeightMatrix(_invert(d.values, np.empty(d.values.shape)))


def closeness_matrix(locations) -> WeightMatrix:
    """invert_distances(distance_matrix(locations)), inverted in the km matrix's own buffer.

    Every entry goes through the same operations as in the two-step form,
    so the result is bit-equal to it, and only one n x n array is held.
    """
    values = distance_matrix(locations).values
    return WeightMatrix(_invert(values, values))


def _invert(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write _MULTIPLIER * max(values) - values, zero diagonal, into `out` (may be `values`)."""
    np.subtract(_scaled(float(values.max())), values, out=out)
    np.fill_diagonal(out, 0.0)
    return out


def _scaled(top: float) -> float:
    """The value distances are subtracted from when their largest is `top`."""
    if top <= 0.0:
        raise ValueError("all distances are zero; nothing to invert")
    return _MULTIPLIER * top


@dataclass(frozen=True)
class CountryBorderGraph:
    """Country-level land-border adjacency (symmetric, no self-borders)."""

    countries: tuple
    adjacency: np.ndarray
    _index: dict = field(repr=False, default_factory=dict)

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=bool)
        object.__setattr__(self, "adjacency", adj)
        if adj.shape != (len(self.countries), len(self.countries)):
            raise ValueError("adjacency shape does not match country count")
        if not np.array_equal(adj, adj.T):
            raise ValueError("border adjacency must be symmetric")
        if adj.diagonal().any():
            raise ValueError("a country cannot border itself")
        index = {c.strip().casefold(): i for i, c in enumerate(self.countries)}
        if len(index) != len(self.countries):
            raise ValueError("duplicate country names in border graph")
        object.__setattr__(self, "_index", index)

    def index(self, country: str) -> int:
        try:
            return self._index[country.strip().casefold()]
        except KeyError:
            raise ValueError(f"unknown country {country!r} in border graph") from None

    @classmethod
    def from_pairs(cls, pairs) -> "CountryBorderGraph":
        names: list[str] = []
        seen: dict[str, int] = {}

        def idx(name: str) -> int:
            key = name.strip().casefold()
            if not key:
                raise ConfigError("empty country name in border pair")
            if key not in seen:
                seen[key] = len(names)
                names.append(name.strip())
            return seen[key]

        edges = [(idx(a), idx(b)) for a, b in pairs]
        adj = np.zeros((len(names), len(names)), dtype=bool)
        for i, j in edges:
            if i == j:
                raise ConfigError(f"self-border for country {names[i]!r}")
            adj[i, j] = adj[j, i] = True
        return cls(tuple(names), adj)

    @classmethod
    def load_csv(cls, path) -> "CountryBorderGraph":
        pairs = []
        with open_input(path) as fh:
            for row in csv.reader(fh):
                if not row or not any(cell.strip() for cell in row):
                    continue
                if len(row) != 2:
                    raise ConfigError(f"border file row must be `countryA,countryB`, got {row!r}")
                pairs.append((row[0], row[1]))
        return cls.from_pairs(pairs)


def load_reference_borders() -> CountryBorderGraph:
    """Land-border adjacency for the 21 North and West African countries shipped with the package."""
    from importlib import resources

    ref = resources.files("permap.data").joinpath(_REFERENCE_BORDERS)
    with resources.as_file(ref) as path:
        return CountryBorderGraph.load_csv(path)


def country_crossings(locations, cg: CountryBorderGraph) -> tuple:
    """Each location's country code and the fewest crossings between those countries.

    Codes number the countries that occur, in border-graph order; `hops`
    is the C x C integer table of minimal crossings between them, so the
    n x n crossings are hops[codes[i], codes[j]] and are never formed here.
    Raises DisconnectedGraphError where no border path joins two locations.
    """
    countries = [loc if isinstance(loc, str) else loc.country for loc in locations]
    present, codes = np.unique(
        np.array([cg.index(c) for c in countries], dtype=int), return_inverse=True
    )
    hops = shortest_path(cg.adjacency, unweighted=True, indices=present)[:, present]
    if np.isinf(hops).any():
        # The first unreachable pair of locations in row-major order.
        cut = np.isinf(hops[codes])
        i = int(np.flatnonzero(cut.any(axis=1))[0])
        j = int(np.flatnonzero(cut[i][codes])[0])
        raise DisconnectedGraphError(
            f"no border path between {countries[i]!r} and {countries[j]!r}"
        )
    return codes.ravel(), hops.astype(int)


def crossings_matrix(locations, cg: CountryBorderGraph) -> np.ndarray:
    """Minimal border-crossing counts between every pair of locations."""
    codes, hops = country_crossings(locations, cg)
    return hops[codes[:, None], codes[None, :]]


def _check_cost(cost_km: float) -> None:
    if cost_km < 0:
        raise ValueError(f"border cost must be nonnegative, got {cost_km}")


def _check_probability(p: float) -> None:
    if not 0.0 < p <= 1.0:
        raise ValueError(f"border success probability must be in (0, 1], got {p}")


def linear_border_distances(d: WeightMatrix, b: np.ndarray, cost_km: float) -> WeightMatrix:
    """Add a fixed cost per border crossing to every pairwise distance."""
    _check_cost(cost_km)
    if d.values.shape != np.asarray(b).shape:
        raise ValueError("distance and crossing matrices must have the same shape")
    return WeightMatrix(d.values + cost_km * np.asarray(b, dtype=float))


def border_permeability_matrix(b: np.ndarray, p: float) -> WeightMatrix:
    """Edge weights p**crossings: 1 within a country, shrinking per border.

    p is the modeled per-border success probability in (0, 1]; the diagonal
    is zeroed so the matrix can be used directly as a graph.
    """
    _check_probability(p)
    w = np.power(float(p), np.asarray(b, dtype=float))
    np.fill_diagonal(w, 0.0)
    return WeightMatrix(w)


def border_blocks(codes: np.ndarray, hops: np.ndarray, p: float) -> WeightMatrix:
    """The weights of border_permeability_matrix held per pair of countries.

    Entry (i, j) is p ** hops[codes[i], codes[j]] off the diagonal, as in
    the n x n matrix, which is never formed.
    """
    _check_probability(p)
    return WeightMatrix(GroupBlocks(codes, np.power(float(p), hops.astype(float))))


def country_farthest(d: WeightMatrix, codes=None) -> np.ndarray:
    """The largest entry of d between each pair of countries.

    Entry (a, b) of the table is the largest d[i, j] with codes[i] == a
    and codes[j] == b, and -inf for a code no location has; codes are
    indexes into a hop table, as country_crossings gives them. Without
    codes every location is in one country, and the table is 1 x 1.
    Rows go _block_rows(n) at a time, so no temporary outgrows
    _BLOCK_BYTES while one row fits in it.
    """
    n = d.n
    codes = np.zeros(n, dtype=np.intp) if codes is None else np.asarray(codes, dtype=np.intp)
    order = np.argsort(codes, kind="stable")
    ordered = codes[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    rows_max = np.empty((n, starts.size))
    block = _block_rows(n)
    for start in range(0, n, block):
        rows = slice(start, start + block)
        rows_max[rows] = np.maximum.reduceat(d.values[rows][:, order], starts, axis=1)
    present = ordered[starts]
    table = np.full((int(codes.max()) + 1,) * 2, -np.inf)
    table[np.ix_(present, present)] = np.maximum.reduceat(rows_max[order], starts, axis=0)
    return table


def priced_top(farthest: np.ndarray, hops, cost_km: float) -> float:
    """1.1 * max(d + cost_km * crossings), read off country_farthest's table of d.

    This is the value invert_distances(linear_border_distances(d,
    crossings, cost_km)) subtracts each priced distance from. Adding the
    cost rounds monotonically in the distance, so the largest priced
    distance between two countries is their farthest pair priced, and the
    result is bit-equal to the n x n form. `hops` is None where no border
    is priced. Raises ValueError for a negative cost or when every
    priced distance is zero.
    """
    _check_cost(cost_km)
    priced = farthest if hops is None else farthest + cost_km * hops.astype(float)
    return _scaled(float(priced.max()))
