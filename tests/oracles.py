"""Independent reference implementations used only by the test suite.

Everything here is deliberately written without the library under test
(and without numpy's eigensolvers where that is the thing being checked),
trading speed for obviousness.
"""

import math
import warnings


def jacobi_eigh(matrix, sweeps=100, tol=1e-13):
    """Full symmetric eigendecomposition by the cyclic Jacobi rotation method.

    Returns (eigenvalues ascending, eigenvectors as columns) as plain
    nested lists. Suitable for small n only.
    """
    n = len(matrix)
    a = [[float(matrix[i][j]) for j in range(n)] for i in range(n)]
    v = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    scale = max(abs(a[i][j]) for i in range(n) for j in range(n)) or 1.0

    for _ in range(sweeps):
        off = math.sqrt(sum(a[i][j] ** 2 for i in range(n) for j in range(n) if i != j))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p][q]) <= 1e-300:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q])
                t = (1.0 if theta >= 0 else -1.0) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for k in range(n):
                    akp, akq = a[k][p], a[k][q]
                    a[k][p] = c * akp - s * akq
                    a[k][q] = s * akp + c * akq
                for k in range(n):
                    apk, aqk = a[p][k], a[q][k]
                    a[p][k] = c * apk - s * aqk
                    a[q][k] = s * apk + c * aqk
                for k in range(n):
                    vkp, vkq = v[k][p], v[k][q]
                    v[k][p] = c * vkp - s * vkq
                    v[k][q] = s * vkp + c * vkq

    pairs = sorted(range(n), key=lambda i: a[i][i])
    values = [a[i][i] for i in pairs]
    vectors = [[v[r][i] for i in pairs] for r in range(n)]
    return values, vectors


def traversal_components(adjacency):
    """Connected-component labels by explicit stack traversal.

    Edges exist where the (symmetrized) entry is positive. Components are
    numbered in order of their smallest member.
    """
    n = len(adjacency)
    labels = [-1] * n
    current = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        stack = [start]
        labels[start] = current
        while stack:
            u = stack.pop()
            for w in range(n):
                if labels[w] < 0 and (adjacency[u][w] > 0 or adjacency[w][u] > 0):
                    labels[w] = current
                    stack.append(w)
        current += 1
    return current, labels


def pairwise_separation_ratio(coords, location_ids, countries):
    """Mean inter-country over mean intra-country distance, pair by pair.

    `countries[i]` names the country of point i; pairs of points that share
    a location id are skipped. Sums are exactly rounded (math.fsum).
    """
    intra, inter = [], []
    n = len(coords)
    for i in range(n):
        for j in range(i + 1, n):
            if location_ids[i] == location_ids[j]:
                continue
            gap = math.dist(coords[i], coords[j])
            (intra if countries[i] == countries[j] else inter).append(gap)
    return (math.fsum(inter) / len(inter)) / (math.fsum(intra) / len(intra))


def bfs_crossings(pairs, start, goal):
    """Fewest hops between two countries over an explicit pair list."""
    if start == goal:
        return 0
    neighbors = {}
    for a, b in pairs:
        neighbors.setdefault(a, set()).add(b)
        neighbors.setdefault(b, set()).add(a)
    frontier = [start]
    seen = {start}
    hops = 0
    while frontier:
        hops += 1
        nxt = []
        for node in frontier:
            for other in neighbors.get(node, ()):
                if other == goal:
                    return hops
                if other not in seen:
                    seen.add(other)
                    nxt.append(other)
        frontier = nxt
    return None


def principal_angle_cos(basis_a, basis_b):
    """Smallest singular value of A^T B for two orthonormal column bases.

    Equals cos of the largest principal angle between the subspaces; 1.0
    means the subspaces coincide.
    """
    import numpy as np

    a = np.asarray(basis_a, dtype=float)
    b = np.asarray(basis_b, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if b.ndim == 1:
        b = b[:, None]
    s = np.linalg.svd(a.T @ b, compute_uv=False)
    return float(s.min())


def brute_force_sequence(events, location_ids, groups, n):
    """Literal restatement of the sequence-layer counting rule.

    `location_ids` holds each event's location id, aligned with `events`.
    A group listed more than once is refused.
    """
    for i, group in enumerate(groups):
        if group in groups[:i]:
            raise ValueError(f"group {group!r} is listed more than once")
    counts = [[0 for _ in range(n)] for _ in range(n)]
    for group in groups:
        mine = [(e, lid) for e, lid in zip(events, location_ids) if e.group_id == group]
        mine = sorted(mine, key=lambda pair: (pair[0].event_date, pair[0].source_row))
        for (_, a), (_, b) in zip(mine, mine[1:]):
            if a != b:
                counts[a][b] += 1
    return counts


def haversine_reference(lat1, lon1, lat2, lon2, radius=6371.0):
    """Textbook haversine in pure math calls."""
    p1 = math.radians(lat1)
    p2 = math.radians(lat2)
    dp = math.radians(lat2 - lat1)
    dl = math.radians(lon2 - lon1)
    h = math.sin(dp / 2.0) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2.0) ** 2
    return 2.0 * radius * math.asin(min(1.0, math.sqrt(h)))


def displacement_rows(points, layer_a, layer_b):
    """Displacement rows by a plain loop over every point for every location.

    `points` lists (location_id, layer, coordinates); a location's points
    in one layer are averaged coordinate by coordinate, and each row runs
    from its `layer_a` average to its `layer_b` one. Returns
    (location_id, vector, length) tuples, longest first, ties by id.
    """
    rows = []
    for lid in sorted({point[0] for point in points}):
        ends = []
        for want in (layer_a, layer_b):
            mine = [xy for pid, layer, xy in points if pid == lid and layer == want]
            ends.append([math.fsum(axis) / len(mine) for axis in zip(*mine)])
        vector = tuple(b - a for a, b in zip(*ends))
        rows.append((lid, vector, math.sqrt(math.fsum(v * v for v in vector))))
    rows.sort(key=lambda row: (-row[2], row[0]))
    return rows


def path_graph_eigenpairs(n):
    """Laplacian spectrum of the unit-weight path on n nodes, in closed form.

    Eigenvalue j is 2(1 - cos(pi j / n)), ascending in j, and its
    eigenvector has entries cos(pi j (i + 1/2) / n), i = 0..n-1, returned
    here normalized to unit length as columns.
    """
    values = [2.0 * (1.0 - math.cos(math.pi * j / n)) for j in range(n)]
    columns = []
    for j in range(n):
        col = [math.cos(math.pi * j * (i + 0.5) / n) for i in range(n)]
        norm = math.sqrt(math.fsum(c * c for c in col))
        columns.append([c / norm for c in col])
    vectors = [[columns[j][i] for j in range(n)] for i in range(n)]
    return values, vectors


def group_blocks_laplacian_spectrum(counts, table):
    """Every Laplacian eigenvalue, ascending, of weights constant on group blocks.

    Group g holds counts[g] >= 1 nodes, and nodes of groups g and h are
    joined by table[g][h] (no node by itself). With t = T c, a vector that
    sums to zero inside group g and is zero elsewhere has eigenvalue t_g,
    which gives c_g - 1 eigenvalues per group. The other C, of the vectors
    constant on each group, are those of the C x C symmetric matrix
    diag(t) - diag(sqrt c) T diag(sqrt c), found here by Jacobi rotations.
    """
    size = len(counts)
    t = [math.fsum(table[g][h] * counts[h] for h in range(size)) for g in range(size)]
    roots = [math.sqrt(c) for c in counts]
    quotient = [
        [(t[g] if g == h else 0.0) - roots[g] * table[g][h] * roots[h] for h in range(size)]
        for g in range(size)
    ]
    values, _ = jacobi_eigh(quotient)
    for g in range(size):
        values += [t[g]] * (counts[g] - 1)
    return sorted(values)


def two_layer_walk_matrix(w_a, w_b):
    """Pre-symmetrization 2n x 2n lazy-walk matrix of two symmetric layers.

    Each layer's diagonal is dropped and its rows scaled to sum 0.5; the
    remaining probability rides the diagonal inter-layer blocks, so every
    row sums to 1. Layers are WeightMatrix objects or plain arrays.
    """
    import numpy as np

    blocks = []
    for w in (w_a, w_b):
        values = np.array(getattr(w, "values", w), dtype=float)
        np.fill_diagonal(values, 0.0)
        values /= 2.0 * values.sum(axis=1)[:, None]
        blocks.append(values)
    n = blocks[0].shape[0]
    walk = np.zeros((2 * n, 2 * n))
    walk[:n, :n], walk[n:, n:] = blocks
    walk[np.arange(n), n + np.arange(n)] = 0.5
    walk[n + np.arange(n), np.arange(n)] = 0.5
    return walk


def three_layer_system(w_border, w_dist, a_seq):
    """Symmetrized 6n x 6n three-layer system, reassembled entry by entry.

    Each layer (a plain n x n array) is divided by the mean of its nonzero
    entries, and the sequence layer padded with self-loops to the largest
    row sum. Every out-copy row then spends half its budget inside its
    layer and a quarter on its in-copy in each other layer; the out/in
    pair of one node in one layer is joined by (out budget + in budget) / 4.
    The raw walk averaged with its transpose is returned.
    """
    import numpy as np

    n = len(w_border)
    layers = []
    for m in (w_border, w_dist, a_seq):
        m = np.array(m, dtype=float)
        nonzero = m[m != 0]
        layers.append(m / nonzero.mean())
    seq = layers[2]
    row_sums = seq.sum(axis=1)
    top = row_sums.max()
    for i in range(n):
        seq[i, i] += top - row_sums[i]

    raw = np.zeros((6 * n, 6 * n))
    for li, layer in enumerate(layers):
        out_budget = layer.sum(axis=1)
        in_budget = layer.sum(axis=0)
        for i in range(n):
            out_row = 2 * li * n + i
            for lj in range(3):
                for j in range(n):
                    in_col = (2 * lj + 1) * n + j
                    if li == lj:
                        raw[out_row, in_col] += layer[i, j] / 2.0
                    elif i == j:
                        raw[out_row, in_col] += out_budget[i] / 4.0
            raw[out_row, (2 * li + 1) * n + i] += (out_budget[i] + in_budget[i]) / 4.0
    return (raw + raw.T) / 2.0


def laplacian(w):
    """Combinatorial Laplacian diag(row sums) - W, as a dense array.

    `w` is a dense symmetric WeightMatrix or a bare array. The result is
    C-ordered, and zero weights give +0.0 off the diagonal, exactly as
    np.diag(w.sum(axis=1)) - w does.
    """
    import numpy as np

    if not getattr(w, "is_symmetric", True):
        raise ValueError("laplacian requires a symmetric weight matrix")
    values = np.asarray(getattr(w, "values", w), dtype=float)
    # 0.0 - w, not -w, so zero weights give +0.0; then degree + (0.0 - w_ii)
    # equals degree - w_ii exactly.
    lap = np.subtract(0.0, values, order="C")
    diagonal = np.arange(values.shape[0])
    lap[diagonal, diagonal] += values.sum(axis=1)
    return lap


def matrix_operator(m):
    """A general symmetric matrix m as the LaplacianOperator the eigensolver takes.

    The operator applies degrees * x - A x. With degrees c * 1 and
    A x = c x - m x, that is m x, up to rounding at the scale of c. With
    c = ||m||_inf / 2, the operator's inf_norm, twice the largest degree,
    is ||m||_inf, so the eigensolver's sigma and residual gate are those
    of m itself.
    """
    import numpy as np

    from permap.graphs import LaplacianOperator

    m = np.asarray(m, dtype=float)
    c = float(np.abs(m).sum(axis=1).max()) / 2.0
    return LaplacianOperator(
        degrees=np.full(m.shape[0], c), adjacency=lambda x: c * x - m @ x, layers=()
    )


def symmetric_product(values, x):
    """W x for a symmetric W read from its upper triangle, one exactly rounded sum per row.

    Entry (i, j) is values[min(i, j)][max(i, j)], so a matrix whose
    triangles differ multiplies as its upper triangle mirrored. Each
    product is rounded once and each row summed with math.fsum.
    """
    rows = [[float(v) for v in row] for row in values]
    x = [float(v) for v in x]
    n = len(rows)
    return [
        math.fsum(rows[min(i, j)][max(i, j)] * x[j] for j in range(n)) for i in range(n)
    ]


def haversine_matrix(points, radius=6371.0):
    """All-pairs haversine as one whole-matrix numpy formula, diagonal zeroed.

    The same operations per entry as distance_matrix's row-blocked tiles;
    the formula is exactly symmetric, so the tiles it mirrors below the
    diagonal agree too, bit for bit. haversine_reference checks the values.
    """
    import numpy as np

    lat = np.radians([p[0] for p in points])
    lon = np.radians([p[1] for p in points])
    dp = lat[:, None] - lat[None, :]
    dl = lon[:, None] - lon[None, :]
    h = np.sin(dp / 2.0) ** 2 + np.cos(lat)[:, None] * np.cos(lat)[None, :] * np.sin(dl / 2.0) ** 2
    d = 2.0 * radius * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))
    np.fill_diagonal(d, 0.0)
    return d


INGEST_COLUMNS = (
    "event_date",
    "actor1",
    "latitude",
    "longitude",
    "country",
    "admin1",
    "event_type",
    "fatalities",
)


def _without_separators(text):
    """text itself; raises ValueError where it holds a digit separator, which no export means."""
    if "_" in text:
        raise ValueError(f"digit separator in {text!r}")
    return text


def strptime_date(text, date_formats):
    """The date of the first format datetime.strptime reads the stripped text with, or None."""
    from datetime import datetime

    for fmt in date_formats:
        try:
            return datetime.strptime(text.strip(), fmt).date()
        except ValueError:
            pass
    return None


def _reference_event(cell, date_formats):
    """One row's cells as an event tuple without its line number, or why the row is rejected."""
    when = strptime_date(cell["event_date"], date_formats)
    if when is None:
        return "unparseable date"
    if cell["actor1"].strip() == "":
        return "empty group id"
    try:
        lat = float(_without_separators(cell["latitude"]))
    except ValueError:
        return "unparseable latitude"
    try:
        lon = float(_without_separators(cell["longitude"]))
    except ValueError:
        return "unparseable longitude"
    if not -90.0 <= lat <= 90.0:
        return "latitude out of range"
    if not -180.0 <= lon <= 180.0:
        return "longitude out of range"
    if cell["country"].strip() == "":
        return "empty country"
    fatalities = 0
    if cell["fatalities"].strip() != "":
        try:
            fatalities = int(_without_separators(cell["fatalities"].strip()))
        except ValueError:
            return "unparseable fatalities"
        if fatalities < 0:
            return "negative fatalities"
    return (
        when,
        cell["actor1"].strip(),
        lat,
        lon,
        cell["country"].strip(),
        cell["admin1"].strip(),
        cell["event_type"].strip(),
        fatalities,
    )


def reference_ingest(text, date_formats, categories, rounding):
    """Row-by-row restatement of parsing, violence filtering and location dedup.

    Reads the default column names. Each row becomes a dict of its mapped
    cells; every date is parsed afresh, every event type normalized on its
    own and every event's coordinates rounded on their own. Returns
    (events, rejections, kept, locations, mapping): events and kept as
    tuples in EventRecord field order, rejections as (line, reason),
    locations as (id, latitude, longitude, country, admin1), and the
    location id of each kept event.
    """
    import csv
    import io

    reader = csv.reader(io.StringIO(text))
    header = [name.strip().casefold() for name in next(reader)]
    position = {name: header.index(name) for name in INGEST_COLUMNS}

    events, rejections = [], []
    while True:
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error:
            rejections.append((reader.line_num, "malformed csv row"))
            continue
        line = reader.line_num
        if all(cell.strip() == "" for cell in row):
            continue
        if any(pos >= len(row) for pos in position.values()):
            rejections.append((line, "missing fields"))
            continue
        event = _reference_event({name: row[pos] for name, pos in position.items()}, date_formats)
        if isinstance(event, str):
            rejections.append((line, event))
        else:
            events.append(event + (line,))

    wanted = [c.strip().casefold() for c in categories]
    battles = "battle" in wanted or "battles" in wanted
    kept = []
    for event in events:
        kind = event[6].strip().casefold()
        if kind in wanted or (battles and kind.startswith("battle")):
            kept.append(event)

    keys, locations, mapping = [], [], []
    for _, _, lat, lon, country, admin1, _, _, _ in kept:
        key = (country, admin1, round(lat, rounding), round(lon, rounding))
        if key not in keys:
            keys.append(key)
            locations.append((len(locations), lat, lon, country, admin1))
        mapping.append(keys.index(key))
    return events, rejections, kept, locations, mapping


def record_split_groups(events, rules):
    """Split rules applied one event record at a time: the first matching rule renames the group."""
    rules = list(rules)
    known = {e.group_id for e in events}
    for rule in rules:
        if rule.group_id not in known:
            warnings.warn(f"split rule references unknown group {rule.group_id!r}", stacklevel=2)
    out = []
    for event in events:
        for rule in rules:
            value = getattr(event, rule.attribute)
            inside = value < rule.threshold if rule.comparator == "<" else value >= rule.threshold
            if event.group_id == rule.group_id and inside:
                event = event._replace(group_id=event.group_id + rule.virtual_suffix)
                break
        out.append(event)
    return out


def record_summarize(events, n_locations, mapping):
    """(attacks per location, groups per location, fatalities by (country, year), totals).

    Tallied one event record at a time; groups count by stripped name.
    """
    attacks = [0] * n_locations
    group_sets = [set() for _ in range(n_locations)]
    fatalities = {}
    for event, lid in zip(events, mapping):
        attacks[lid] += 1
        group_sets[lid].add(event.group_id.strip())
        key = (event.country, event.event_date.year)
        fatalities[key] = fatalities.get(key, 0) + event.fatalities
    totals = (len(events), len({e.group_id.strip() for e in events}), n_locations)
    return tuple(attacks), tuple(len(s) for s in group_sets), fatalities, totals
