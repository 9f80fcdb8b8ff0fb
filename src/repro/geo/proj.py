"""Local equirectangular projection and bearings (vectorised)."""

import numpy as np

from repro.hexgrid.cells import M_PER_DEG

__all__ = [
    "M_PER_DEG",
    "bearing_deg",
    "latlng_to_xy_m",
    "path_length_m",
    "path_lengths_m",
    "polylines_xy_m",
]


def latlng_to_xy_m(lats, lngs, lat0=None):
    """Project to metres on a plane tangent near *lat0* (default: mean lat).

    Adequate for trajectory-scale geometry; all simplifiers and metrics in
    this package operate on these coordinates.
    """
    lats = np.asarray(lats, dtype=np.float64)
    lngs = np.asarray(lngs, dtype=np.float64)
    if lat0 is None:
        lat0 = float(lats.mean()) if lats.size else 0.0
    x = lngs * M_PER_DEG * np.cos(np.radians(lat0))
    y = lats * M_PER_DEG
    return x, y


def _bounds(sizes):
    """``[0, end_0, end_1, ...]`` of concatenated runs of *sizes*."""
    return np.concatenate(([0], np.cumsum(sizes, dtype=np.int64))).tolist()


def polylines_xy_m(lats, lngs, sizes):
    """Project concatenated polylines, each about its own mean latitude.

    *lats*/*lngs* hold the polylines back to back, *sizes* their point
    counts.  Equal to :func:`latlng_to_xy_m` with the default *lat0* on
    every polyline alone: each mean is its own per-path reduction (a
    batched sum would not round like NumPy's pairwise one), and the
    projection itself is one elementwise pass.
    """
    lats = np.asarray(lats, dtype=np.float64)
    bounds = _bounds(sizes)
    lat0 = [
        float(np.add.reduce(lats[lo:hi]) / (hi - lo)) if hi > lo else 0.0
        for lo, hi in zip(bounds, bounds[1:])
    ]
    return latlng_to_xy_m(lats, lngs, np.repeat(lat0, np.diff(bounds)))


def path_lengths_m(lats, lngs):
    """Polyline lengths in metres, one per ``(lats[i], lngs[i])`` pair.

    One projection and one ``hypot`` pass over the concatenation; each
    length is its own pairwise sum, so every entry equals
    :func:`path_length_m` of that polyline alone.  Returns a list of
    floats.
    """
    sizes = [len(a) for a in lats]
    if not sizes:
        return []
    x, y = polylines_xy_m(np.concatenate(lats), np.concatenate(lngs), sizes)
    seg = np.hypot(np.diff(x), np.diff(y))
    bounds = _bounds(sizes)
    return [
        float(np.add.reduce(seg[lo : max(lo, hi - 1)]))
        for lo, hi in zip(bounds, bounds[1:])
    ]


def path_length_m(lats, lngs):
    """Total polyline length in metres."""
    return path_lengths_m([lats], [lngs])[0]


def bearing_deg(lats, lngs):
    """Bearing of each segment in degrees [0, 360); length ``n - 1``."""
    x, y = latlng_to_xy_m(lats, lngs)
    angles = np.degrees(np.arctan2(np.diff(x), np.diff(y)))
    return np.mod(angles, 360.0)
