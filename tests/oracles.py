"""Independent reference implementations used only by the test suite.

Everything here is deliberately written without the library under test
(and without numpy's eigensolvers where that is the thing being checked),
trading speed for obviousness.
"""

import math


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


def brute_force_sequence(events, location_of, groups, n):
    """Literal restatement of the sequence-layer counting rule."""
    counts = [[0 for _ in range(n)] for _ in range(n)]
    for group in groups:
        mine = [e for e in events if e.group_id == group]
        mine = sorted(mine, key=lambda e: (e.event_date, e.source_row))
        for earlier, later in zip(mine, mine[1:]):
            a = location_of[earlier.source_row]
            b = location_of[later.source_row]
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


def three_layer_budget_assembly(normalized):
    """Directed 3n x 3n node-layer assembly under the 0.5/0.25/0.25 split.

    Within-layer blocks carry half of each node's normalized edge weight;
    the node's copy in each other layer receives a quarter of its budget
    on the corresponding cross-block diagonal.
    """
    import numpy as np

    normalized = [np.asarray(m, dtype=float) for m in normalized]
    n = normalized[0].shape[0]
    m = len(normalized)
    out = np.zeros((m * n, m * n))
    for li, layer in enumerate(normalized):
        budget = layer.sum(axis=1)
        for i in range(n):
            for lj in range(m):
                for j in range(n):
                    if li == lj:
                        out[li * n + i, lj * n + j] = layer[i, j] / 2.0
                    elif i == j:
                        out[li * n + i, lj * n + j] = budget[i] / 4.0
    return out


def displacement_rows(points, sel_a, sel_b):
    """Displacement rows by a plain loop over every point for every location.

    `points` lists (location_id, layer, copy, coordinates). A selector is
    a layer tag, optionally narrowed as "layer:copy"; a location's points
    under one selector are averaged coordinate by coordinate. Returns
    (location_id, vector, length) tuples, longest first, ties by id.
    """

    def matches(spec, layer, copy):
        want_layer, _, want_copy = spec.partition(":")
        return layer == want_layer and (not want_copy or copy == want_copy)

    rows = []
    for lid in sorted({point[0] for point in points}):
        ends = []
        for spec in (sel_a, sel_b):
            mine = [xy for pid, layer, copy, xy in points if pid == lid and matches(spec, layer, copy)]
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
