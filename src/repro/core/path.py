"""Imputation results and shared path construction helpers."""

from dataclasses import dataclass, field

import numpy as np

from repro.geo.proj import latlng_to_xy_m

__all__ = [
    "RESAMPLE_M",
    "ImputedPath",
    "resample_polyline",
    "resample_polyline_xy",
    "straight_line_path",
]

#: Output point spacing in metres.  Imputed paths are simplified to a
#: handful of vertices, but point-to-point metrics (DTW) compare against
#: densely sampled ground truth, so every imputer -- HABIT, its
#: straight-line fallback, GTI and SLI -- resamples to this AIS-like
#: spacing.
RESAMPLE_M = 250.0


@dataclass(frozen=True)
class ImputedPath:
    """A reconstructed trajectory between two gap endpoints.

    ``method`` records how the path was produced (a graph search variant
    -- ``"ch"``, ``"astar"``, ``"dijkstra"`` -- or
    ``"straight"`` / ``"fallback"`` when a search found no route and the
    imputer degraded to a straight line).  ``expanded`` counts the nodes
    the search settled (0 for straight lines), making heuristic quality
    observable in served responses, not just benchmarks.
    """

    lats: np.ndarray
    lngs: np.ndarray
    method: str
    cells: tuple = field(default=(), repr=False)
    expanded: int = 0

    @property
    def num_points(self):
        """Number of path positions."""
        return len(self.lats)


def resample_polyline(lats, lngs):
    """Resample a polyline to roughly :data:`RESAMPLE_M` point spacing.

    Endpoints are preserved exactly.
    """
    lats = np.asarray(lats, dtype=np.float64)
    lngs = np.asarray(lngs, dtype=np.float64)
    if len(lats) < 2:
        return lats.copy(), lngs.copy()
    x, y = latlng_to_xy_m(lats, lngs)
    return resample_polyline_xy(lats, lngs, x, y)


def resample_polyline_xy(lats, lngs, x, y):
    """:func:`resample_polyline` over pre-projected coordinates.

    Segment lengths come from the caller's *x*/*y* (so the imputation hot
    path projects each polyline exactly once); interpolation itself runs
    on lat/lng, which is equivalent under the affine local projection.
    """
    seg = np.hypot(np.diff(x), np.diff(y))
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    length = float(cum[-1])
    if length <= 0.0:
        return lats[:1].copy(), lngs[:1].copy()
    num = max(2, int(np.ceil(length / RESAMPLE_M)) + 1)
    along = np.linspace(0.0, length, num)
    return np.interp(along, cum, lats), np.interp(along, cum, lngs)


def straight_line_path(start, end, method="straight"):
    """Great-circle-free straight interpolation between two endpoints.

    Resamples at roughly :data:`RESAMPLE_M` spacing so DTW comparisons
    see a path, not just two vertices.
    """
    lat_a, lng_a = float(start[0]), float(start[1])
    lat_b, lng_b = float(end[0]), float(end[1])
    x, y = latlng_to_xy_m(
        np.asarray([lat_a, lat_b]), np.asarray([lng_a, lng_b])
    )
    length = float(np.hypot(x[1] - x[0], y[1] - y[0]))
    num = max(2, int(np.ceil(length / RESAMPLE_M)) + 1)
    frac = np.linspace(0.0, 1.0, num)
    return ImputedPath(
        lats=lat_a + (lat_b - lat_a) * frac,
        lngs=lng_a + (lng_b - lng_a) * frac,
        method=method,
    )
