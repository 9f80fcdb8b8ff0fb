"""Export helpers (GeoJSON).

Imputed and ground-truth paths are exported as GeoJSON feature collections
so the paper's example figures (Figure 6) can be reproduced in any map
viewer.
"""

from repro.io.geojson import (
    feature_collection,
    linestring_feature,
    linestring_features,
    point_feature,
    write_geojson,
)

__all__ = [
    "feature_collection",
    "linestring_feature",
    "linestring_features",
    "point_feature",
    "write_geojson",
]
