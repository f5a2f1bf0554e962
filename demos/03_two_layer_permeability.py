"""Couple a distance layer with a border-permeability layer and measure drift.

Run with:  python3 demos/03_two_layer_permeability.py

Every location appears twice: once in a layer weighted by inverted
geodesic distance, once in a layer weighted by p^(border crossings).
The two copies are tied together with a fixed coupling, the combined
walk matrix is embedded, and the vector between a location's two copies
("displacement") says how much the border story disagrees with the
distance story at that location.

At p = 1.0 the permeability layer is featureless (every pair weighs 1),
so its displacements are a baseline of pure layer-coupling geometry.
Lowering p suppresses cross-border weight, and the towns whose drift
grows fastest relative to that baseline are the ones living off their
cross-border ties: here the frontier pair Kidal and Niamey.
"""

import numpy as np

from permap import CountryBorderGraph
from permap.ingest import Location
from permap.layers import prepare, solve

TOWNS = [
    ("Bamako", 12.64, -8.00, "Mali"),
    ("Segou", 13.43, -6.27, "Mali"),
    ("Kidal", 18.44, 1.41, "Mali"),
    ("Niamey", 13.51, 2.13, "Niger"),
    ("Tahoua", 14.89, 5.26, "Niger"),
    ("Agadez", 16.97, 7.99, "Niger"),
]

locations = [Location(lat, lon, country, "demo") for _, lat, lon, country in TOWNS]
borders = CountryBorderGraph.from_pairs([("Mali", "Niger")])
# Everything that does not depend on p, computed once for every run.
prepared = prepare("two_layer", locations, borders)


def lengths(p):
    # Row i of the displacement is town i's border point minus its distance point.
    _, vectors = solve(prepared, p, 2)
    return {i: float(np.linalg.norm(vec)) for i, vec in enumerate(vectors)}


baseline = lengths(1.0)

for p in (0.8, 0.5):
    drift = lengths(p)
    deltas = {i: drift[i] - baseline[i] for i in drift}
    print(f"p = {p}  (drift vs featureless p=1.0 baseline)")
    for i in sorted(deltas, key=deltas.get, reverse=True):
        name = TOWNS[i][0]
        print(f"  {name:8s} length = {drift[i]:.4f}  delta = {deltas[i]:+.4f}")
    movers = sorted(deltas, key=deltas.get, reverse=True)[:2]
    names = sorted(TOWNS[i][0] for i in movers)
    print(f"  -> fastest-growing drift: {names[0]} and {names[1]}\n")
