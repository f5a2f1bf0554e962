"""Embed a handful of West African cities from geodesic distances alone.

Run with:  python3 demos/01_geodesic_embedding.py

The walk is: coordinates -> great-circle distance matrix -> similarity
weights -> Laplacian eigenvector embedding.  The closing check sorts the
cities along the first embedding axis and confirms the spectral order
matches their west-to-east order on the map.
"""

import numpy as np

from permap import distance_matrix, embed, invert_distances

# A small gazetteer: (name, latitude, longitude).  Three clusters on
# purpose: two coastal pairs far apart, one inland pair in between.
CITIES = [
    ("Dakar", 14.69, -17.45),
    ("Thies", 14.79, -16.93),
    ("Bamako", 12.64, -8.00),
    ("Segou", 13.43, -6.27),
    ("Niamey", 13.51, 2.13),
    ("Dosso", 13.05, 3.19),
]

coordinates = [(lat, lon) for _, lat, lon in CITIES]
distances = distance_matrix(coordinates)

print("Great-circle distances (km):")
for i, (name, _, _) in enumerate(CITIES):
    row = "  ".join(f"{distances.values[i, j]:8.1f}" for j in range(len(CITIES)))
    print(f"  {name:8s} {row}")

# Distances are dissimilarities; the embedding wants similarities.  The
# affine inversion keeps every off-diagonal weight strictly positive so
# the graph stays connected.
weights = invert_distances(distances)

# One layer, "distance", with one copy of each city: point i is city i.
embedding = embed(weights, k=2, layout=(("distance",), ("-",)))

print("\nEmbedded coordinates (first two nontrivial eigenvectors):")
for location_id, xy in zip(embedding.location_ids(), embedding.coordinates):
    name = CITIES[location_id][0]
    print(f"  {name:8s} x={xy[0]:+.4f}  y={xy[1]:+.4f}")

print(f"\nEigenvalues used: {np.round(embedding.eigenvalues, 6)}")

# Sanity check: the first nontrivial eigenvector is a classic seriation
# device, so sorting the cities by their x coordinate should recover the
# west-to-east order of their longitudes.
by_embedding = sorted(range(len(CITIES)), key=lambda i: embedding.coordinates[i, 0])
by_longitude = sorted(range(len(CITIES)), key=lambda i: CITIES[i][2])
print("\nWest-to-east order along the first embedding axis:")
print("  " + " < ".join(CITIES[i][0] for i in by_embedding))
status = "recovered" if by_embedding == by_longitude else "NOT recovered"
print(f"  longitude order {status}")
