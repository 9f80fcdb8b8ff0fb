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
    "point_feature",
    "write_geojson",
]


def _coords(lats, lngs):
    lats = np.asarray(lats, dtype=np.float64)
    lngs = np.asarray(lngs, dtype=np.float64)
    return np.column_stack((lngs, lats)).tolist()


def linestring_feature(lats, lngs, properties=None):
    """A LineString feature from parallel lat/lng arrays."""
    return {
        "type": "Feature",
        "geometry": {"type": "LineString", "coordinates": _coords(lats, lngs)},
        "properties": dict(properties or {}),
    }


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
