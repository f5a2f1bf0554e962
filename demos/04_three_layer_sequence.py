"""Let a recurring attack sequence pull two locations together.

Run with:  python3 demos/04_three_layer_sequence.py

Setup: four locations forming two cross-border pairs with identical
geometry.  One armed group ping-pongs between the first pair for a
year; nobody ever moves between the second pair.  Geodesic distance and
border count cannot tell the pairs apart, so any gap between them in
the final embedding is the directed sequence layer at work.
"""

from datetime import date

import numpy as np

from permap import CountryBorderGraph, layers, sequence_adjacency
from permap.ingest import EventRecord, Location

SITES = [
    ("Gao", 0.0, 0.0, "Mali"),
    ("Ouallam", 0.0, 1.0, "Niger"),
    ("Ansongo", 0.0, 10.0, "Mali"),
    ("Tera", 0.0, 11.0, "Niger"),
]
locations = [
    Location(i, lat, lon, country, "demo")
    for i, (_, lat, lon, country) in enumerate(SITES)
]
borders = CountryBorderGraph.from_pairs([("Mali", "Niger")])

# One group alternates Gao -> Ouallam -> Gao -> ... for 33 dated events.
events, location_ids = [], []
start = date(2024, 1, 1).toordinal()
for row in range(1, 34):
    site = locations[(row - 1) % 2]
    events.append(
        EventRecord(
            event_date=date.fromordinal(start + row - 1),
            group_id="Raiders",
            latitude=site.latitude,
            longitude=site.longitude,
            country=site.country,
            admin1=site.admin_key,
            event_type="Battle",
            fatalities=0,
            source_row=row,
        )
    )
    location_ids.append(site.id)

moves = sequence_adjacency(events, location_ids, ["Raiders"], len(locations))
print("Directed move counts between locations:")
print(moves.values.toarray().astype(int))

# Weight border, distance, and sequence layers into one system and embed it.
prepared = layers.prepare("three_layer", locations, borders, moves)
embedding, _ = layers.solve(prepared, 0.95, k=2)


def pair_gap(a, b):
    """Mean embedded distance between two locations' layer copies."""
    coords = embedding.coordinates
    spots = {}
    for idx, ref in enumerate(embedding.provenance):
        spots.setdefault(ref.location_id, {})[(ref.layer, ref.copy)] = coords[idx]
    gaps = [
        np.linalg.norm(spots[a][key] - spots[b][key])
        for key in sorted(spots[a])
    ]
    return float(np.mean(gaps))


habitual = pair_gap(0, 1)
control = pair_gap(2, 3)
print(f"\nGao-Ouallam gap (raided pair):    {habitual:.5f}")
print(f"Ansongo-Tera gap (quiet control): {control:.5f}")
verdict = "closer" if habitual < control else "NOT closer"
print(f"-> the raided pair sits {verdict} despite identical geography")
