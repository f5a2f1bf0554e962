"""permap: typed location networks and spectral permeability maps.

Converts geocoded event records into weighted location graphs (geodesic
distance, border permeability, directed attack sequence), assembles them
into multilayer systems, and embeds everything with Laplacian spectral
coordinates. See the README for the pipeline walkthrough and the CLI.
"""

from .geo import (
    CountryBorderGraph,
    border_permeability_matrix,
    crossings_matrix,
    distance_matrix,
    invert_distances,
    linear_border_distances,
)
from .sequence import sequence_adjacency
from .spectral import embed

__version__ = "0.1.0"

__all__ = [
    "CountryBorderGraph",
    "border_permeability_matrix",
    "crossings_matrix",
    "distance_matrix",
    "embed",
    "invert_distances",
    "linear_border_distances",
    "sequence_adjacency",
]
