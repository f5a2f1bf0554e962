"""Show how a per-crossing distance penalty pulls countries apart.

Run with:  python3 demos/02_border_cost_sweep.py

Each border crossing on the path between two locations adds a fixed
kilometre cost to their effective distance before the embedding is
built.  Sweeping that cost from 0 km upward should monotonically raise
the ratio of cross-border to within-border embedded distances: the map
stays put, the embedding tears along the frontier.
"""

import numpy as np

from permap import (
    CountryBorderGraph,
    crossings_matrix,
    distance_matrix,
    embed,
    invert_distances,
    linear_border_distances,
)
from permap.layers import country_separation_ratio

# Two synthetic countries split by one land border: a western block and
# an eastern block of six villages each, all on nearby latitudes.
rng = np.random.default_rng(7)
west = [(12.0 + rng.uniform(-1, 1), -4.0 + rng.uniform(-1, 1)) for _ in range(6)]
east = [(12.5 + rng.uniform(-1, 1), 1.5 + rng.uniform(-1, 1)) for _ in range(6)]
coordinates = west + east
countries = ["Westland"] * 6 + ["Eastmark"] * 6

borders = CountryBorderGraph.from_pairs([("Westland", "Eastmark")])
crossings = crossings_matrix(countries, borders)

geodesic = distance_matrix(coordinates)

print("cost_km  inter/intra separation ratio")
previous = 0.0
for cost_km in (0.0, 50.0, 100.0, 250.0, 500.0):
    # Every crossed border lengthens the pair's effective distance.
    penalized = linear_border_distances(geodesic, crossings, cost_km)
    embedding = embed(invert_distances(penalized), k=2)
    ratio = country_separation_ratio(embedding.coordinates, embedding.location_ids(), countries)
    trend = "" if cost_km == 0.0 else ("  (up)" if ratio >= previous else "  (DOWN?)")
    print(f"{cost_km:7.0f}  {ratio:10.4f}{trend}")
    previous = ratio
