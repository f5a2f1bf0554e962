"""Let a recurring attack sequence pull two locations together.

Run with:  python3 demos/04_three_layer_sequence.py

Setup: four locations forming two cross-border pairs with identical
geometry.  One armed group ping-pongs between the first pair for a
year; nobody ever moves between the second pair.  Geodesic distance and
border count cannot tell the pairs apart, so any gap between them in
the final embedding is the directed sequence layer at work.
"""

import io
from datetime import date, timedelta

import numpy as np

from permap import CountryBorderGraph, layers, sequence_adjacency
from permap.ingest import Location, parse_events

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

# One group alternates Gao -> Ouallam -> Gao -> ... for 33 dated events,
# written as the rows of an event CSV and read back as permap reads one.
rows = ["event_date,actor1,latitude,longitude,country,admin1,event_type,fatalities"]
location_ids = []
for day in range(33):
    site = locations[day % 2]
    when = date(2024, 1, 1) + timedelta(days=day)
    rows.append(
        f"{when},Raiders,{site.latitude},{site.longitude},{site.country},{site.admin_key},Battle,0"
    )
    location_ids.append(site.id)
events, _ = parse_events(io.StringIO("\n".join(rows) + "\n"))

moves = sequence_adjacency(events, location_ids, ["Raiders"], len(locations))
print("Directed move counts between locations:")
print(moves.values.toarray().astype(int))

# Weight border, distance, and sequence layers into one system and embed it.
prepared = layers.prepare("three_layer", locations, borders, moves)
embedding, _ = layers.solve(prepared, 0.95, k=2)


def pair_gap(a, b):
    """Mean embedded distance between two locations' layer copies."""
    # The points run layer by layer, then copy by copy (out, in), then
    # location by location, so each layer copy is one block of rows.
    layer_tags, copies = embedding.layout
    blocks = embedding.coordinates.reshape(len(layer_tags) * len(copies), len(locations), -1)
    gaps = [np.linalg.norm(block[a] - block[b]) for block in blocks]
    return float(np.mean(gaps))


habitual = pair_gap(0, 1)
control = pair_gap(2, 3)
print(f"\nGao-Ouallam gap (raided pair):    {habitual:.5f}")
print(f"Ansongo-Tera gap (quiet control): {control:.5f}")
verdict = "closer" if habitual < control else "NOT closer"
print(f"-> the raided pair sits {verdict} despite identical geography")
