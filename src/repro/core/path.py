"""Imputation results and shared path construction helpers."""

from dataclasses import dataclass, field

import numpy as np

from repro.geo.proj import latlng_to_xy_m

__all__ = [
    "RESAMPLE_M",
    "ImputedPath",
    "resample_polyline",
    "resample_polylines_xy",
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
    observable in served responses, not just benchmarks.  ``cells`` is
    the searched path's ``int64`` cell ids (empty for straight lines).
    """

    lats: np.ndarray
    lngs: np.ndarray
    method: str
    cells: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64), repr=False
    )
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
    (lats,), (lngs,) = resample_polylines_xy(lats, lngs, x, y, [len(lats)])
    return lats, lngs


def resample_polylines_xy(lats, lngs, x, y, sizes):
    """Resample concatenated polylines to :data:`RESAMPLE_M` spacing.

    *lats*/*lngs* and their projection *x*/*y* hold the polylines back
    to back, *sizes* their point counts (each at least 2).  Segment
    lengths come from the caller's *x*/*y* (so the imputation hot path
    projects each polyline exactly once); interpolation itself runs on
    lat/lng, which is equivalent under the affine local projection.  A
    zero-length polyline (a gap whose start equals its end) renders as
    its two endpoints, the fewest positions a GeoJSON LineString may
    hold.  Returns ``(lats, lngs)``: one array per polyline.

    The elementwise work -- segment lengths and every polyline's sample
    positions -- runs once over the whole batch.  Each polyline keeps
    its own running sum (a sequential ``cumsum`` along the rows of a
    zero-padded table rounds exactly like one per polyline) and its own
    ``np.interp``, so every output equals a one-polyline call's bit for
    bit.  Sample positions reproduce ``np.linspace(0, length, num)``:
    ``k * (length / (num - 1))`` with the last pinned to ``length``.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    count = len(sizes)
    if not count:
        return [], []
    lats = np.asarray(lats, dtype=np.float64)
    lngs = np.asarray(lngs, dtype=np.float64)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    seg = np.hypot(np.diff(x), np.diff(y))
    # The diff across each pair of neighbouring polylines is no segment.
    own = np.ones(len(seg), dtype=bool)
    own[ends[:-1] - 1] = False
    # Row i: 0.0, then polyline i's segment lengths, then zero padding.
    table = np.zeros((count, int(sizes.max())))
    table[:, 1:][np.arange(table.shape[1] - 1) < sizes[:, None] - 1] = seg[own]
    cum = np.cumsum(table, axis=1)
    lengths = cum[np.arange(count), sizes - 1]
    moving = lengths > 0.0
    nums = np.maximum(2, np.ceil(lengths / RESAMPLE_M).astype(np.int64) + 1)
    heads = np.cumsum(nums) - nums
    steps = np.repeat(lengths / (nums - 1), nums)
    along = (np.arange(heads[-1] + nums[-1]) - np.repeat(heads, nums)) * steps
    along[heads + nums - 1] = lengths
    out_lats, out_lngs = [], []
    for i, lo, hi, head, num, move in zip(
        range(count),
        starts.tolist(),
        ends.tolist(),
        heads.tolist(),
        nums.tolist(),
        moving.tolist(),
    ):
        if not move:
            out_lats.append(lats[[lo, hi - 1]])
            out_lngs.append(lngs[[lo, hi - 1]])
            continue
        xp = cum[i, : hi - lo]
        samples = along[head : head + num]
        out_lats.append(np.interp(samples, xp, lats[lo:hi]))
        out_lngs.append(np.interp(samples, xp, lngs[lo:hi]))
    return out_lats, out_lngs


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
