"""Minimal GeoJSON writers (no external dependencies).

Builders return plain dicts in RFC 7946 shape; :func:`write_geojson`
serialises any of them to disk and returns the path.
"""

import json
from pathlib import Path

import numpy as np

__all__ = [
    "feature_collection",
    "linestring_feature",
    "linestring_features",
    "point_feature",
    "write_geojson",
]


def linestring_features(lats, lngs, properties):
    """Yield one LineString feature per ``(lats[i], lngs[i], properties[i])``.

    Coordinates for every path come from one ``tolist`` over the
    concatenated ``[lng, lat]`` columns, sliced per feature, and each
    *properties* mapping is used as given (not copied).  Features are
    built lazily, so a consumer such as :func:`feature_collection` pays
    for them as it draws them.
    """
    sizes = [len(a) for a in lats]
    if not sizes:
        return
    coords = np.column_stack(
        (
            np.concatenate(lngs).astype(np.float64, copy=False),
            np.concatenate(lats).astype(np.float64, copy=False),
        )
    ).tolist()
    lo = 0
    for size, props in zip(sizes, properties):
        hi = lo + size
        yield {
            "type": "Feature",
            "geometry": {"type": "LineString", "coordinates": coords[lo:hi]},
            "properties": props,
        }
        lo = hi


def linestring_feature(lats, lngs, properties=None):
    """A LineString feature from parallel lat/lng arrays."""
    (feature,) = linestring_features([lats], [lngs], [dict(properties or {})])
    return feature


def point_feature(lat, lng, properties=None):
    """A single Point feature."""
    return {
        "type": "Feature",
        "geometry": {"type": "Point", "coordinates": [float(lng), float(lat)]},
        "properties": dict(properties or {}),
    }


def feature_collection(features):
    """Wrap features into a FeatureCollection."""
    return {"type": "FeatureCollection", "features": list(features)}


def write_geojson(obj, path):
    """Serialise a GeoJSON dict to *path*; returns the :class:`Path`."""
    path = Path(path)
    path.write_text(json.dumps(obj))
    return path
