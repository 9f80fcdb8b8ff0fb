"""Polyline simplification: Ramer-Douglas-Peucker and Visvalingam-Whyatt.

Both keep the endpoints, take metre-denominated thresholds, and return
``(lats, lngs)`` arrays.  RDP has one kernel,
:func:`rdp_keep_indices_concat`: a level-synchronous NumPy pass that
splits every open segment of every polyline in a batch at once, so the
serving layer simplifies a whole batch of rendered paths in one call;
:func:`rdp_keep_indices_batch` is its per-polyline-list form and
:func:`rdp_simplify` the one-polyline case.  VW maintains a heap of
effective triangle areas over a doubly-linked vertex list.
"""

import heapq

import numpy as np

from repro.geo.proj import latlng_to_xy_m

__all__ = [
    "off_chord_mask",
    "rdp_keep_indices_batch",
    "rdp_keep_indices_concat",
    "rdp_simplify",
    "vw_simplify",
]


def off_chord_mask(x, y):
    """Keep-mask dropping interior points that lie on their neighbours' chord.

    An interior point is *on chord* when it sits within 0.1 mm of the
    line through its two neighbours and projects inside their segment.
    The mask is ``True`` for the endpoints and every other point.
    Distance-to-line equals distance-to-segment only for points
    projecting inside the chord, so out-and-back spikes (collinear but
    beyond an endpoint, or over a degenerate chord) are kept.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    mask = np.ones(len(x), dtype=bool)
    if len(x) < 3:
        return mask
    cx = x[2:] - x[:-2]
    cy = y[2:] - y[:-2]
    ex = x[1:-1] - x[:-2]
    ey = y[1:-1] - y[:-2]
    chord2 = cx * cx + cy * cy
    cross = cx * ey - cy * ex
    dot = ex * cx + ey * cy
    mask[1:-1] = ~(
        (chord2 > 0.0)
        & (dot >= 0.0)
        & (dot <= chord2)
        & (np.abs(cross) <= 1e-4 * np.sqrt(chord2))
    )
    return mask


def rdp_simplify(lats, lngs, tolerance_m):
    """Ramer-Douglas-Peucker simplification with a metre tolerance."""
    lats = np.asarray(lats, dtype=np.float64)
    lngs = np.asarray(lngs, dtype=np.float64)
    n = len(lats)
    if n <= 2 or tolerance_m <= 0.0:
        return lats.copy(), lngs.copy()
    x, y = latlng_to_xy_m(lats, lngs)
    kept_idx = rdp_keep_indices_batch([(x, y)], tolerance_m)[0]
    return lats[kept_idx], lngs[kept_idx]


def rdp_keep_indices_batch(polylines, tolerance_m):
    """RDP keep-sets of many pre-projected ``(x, y)`` polylines at once.

    Returns one ascending array of kept indices per polyline, always
    holding both endpoints (a polyline of two points or fewer keeps
    every index).  The per-polyline form of
    :func:`rdp_keep_indices_concat`, which documents the kernel.
    """
    if not polylines:
        return []
    sizes = np.array([len(x) for x, _ in polylines], dtype=np.int64)
    kept = rdp_keep_indices_concat(
        np.concatenate([x for x, _ in polylines]),
        np.concatenate([y for _, y in polylines]),
        sizes,
        tolerance_m,
    )
    ends = np.cumsum(sizes)
    bounds = np.searchsorted(kept, ends)
    lows = np.concatenate(([0], bounds[:-1]))
    return [kept[lo:hi] - s for lo, hi, s in zip(lows, bounds, ends - sizes)]


def rdp_keep_indices_concat(x, y, sizes, tolerance_m):
    """RDP keep-set of concatenated pre-projected polylines.

    *x*/*y* hold the polylines back to back and *sizes* their point
    counts.  Returns the ascending kept positions in the concatenation
    -- every polyline's endpoints included -- so a caller holding
    concatenated arrays gathers every kept point with one fancy index.
    The imputation hot path projects each polyline once and shares the
    coordinates between simplification and resampling; the serving
    engine hands a whole batch's polylines to one call.

    The :func:`off_chord_mask` pre-pass runs once over the
    concatenation, with every path's endpoints masked back in and paths
    of three points or fewer left whole: it drops on-chord interior
    points -- degenerate vertices RDP could never keep at metre
    tolerances, which hex-centre polylines produce in straight runs.
    The split pass is then level-synchronous: each level measures every
    interior point of every open segment of every path in one set of
    NumPy operations, takes each segment's first farthest point with
    ``maximum.reduceat`` / ``minimum.reduceat``, and splits the
    segments whose maximum exceeds the tolerance.  A segment's split
    depends only on its own endpoints, so the kept set does not depend
    on processing order or on the other paths in the batch.  Squared
    distances follow the scalar recursion's formula and branch order --
    the start point when the projection parameter ``t <= 0`` (a
    zero-length chord has ``t = 0``), the end point when ``t >= 1``,
    else the foot of the perpendicular -- and NumPy rounds each
    elementwise operation like a Python float, so the indices equal a
    per-path stack loop's exactly.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    sizes = np.asarray(sizes, dtype=np.int64)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    mask = off_chord_mask(x, y)
    nonempty = sizes > 0
    mask[starts[nonempty]] = True
    mask[ends[nonempty] - 1] = True
    mask[starts[sizes == 3] + 1] = True
    orig = np.flatnonzero(mask)
    x = x[mask]
    y = y[mask]
    # Each path's first and last position in the reduced arrays.
    before = np.concatenate(([0], np.cumsum(mask)))
    first = before[starts][nonempty]
    last = before[ends][nonempty] - 1
    keep = np.zeros(len(x), dtype=bool)
    keep[first] = True
    keep[last] = True
    tol2 = float(tolerance_m) * float(tolerance_m)
    a, b = first, last
    while True:
        spans = b - a >= 2
        a = a[spans]
        b = b[spans]
        if not len(a):
            break
        inner = b - a - 1
        offsets = np.cumsum(inner) - inner
        seg = np.repeat(np.arange(len(a)), inner)
        k = np.arange(len(seg)) - offsets[seg] + a[seg] + 1
        ax = x[a]
        ay = y[a]
        bx = x[b]
        by = y[b]
        dx = bx - ax
        dy = by - ay
        seg2 = dx * dx + dy * dy
        inv = np.zeros_like(seg2)
        np.divide(1.0, seg2, out=inv, where=seg2 != 0.0)
        px = x[k]
        py = y[k]
        ex = px - ax[seg]
        ey = py - ay[seg]
        sdx = dx[seg]
        sdy = dy[seg]
        t = (ex * sdx + ey * sdy) * inv[seg]
        fx = px - bx[seg]
        fy = py - by[seg]
        mx = ex - t * sdx
        my = ey - t * sdy
        d2 = np.where(
            t <= 0.0,
            ex * ex + ey * ey,
            np.where(t >= 1.0, fx * fx + fy * fy, mx * mx + my * my),
        )
        best = np.maximum.reduceat(d2, offsets)
        far = np.minimum.reduceat(np.where(d2 == best[seg], k, len(x)), offsets)
        split = best > tol2
        mid = far[split]
        keep[mid] = True
        a = np.concatenate((a[split], mid))
        b = np.concatenate((mid, b[split]))
    return orig[keep]


def _triangle_area(x, y, i, j, k):
    return 0.5 * abs(
        (x[j] - x[i]) * (y[k] - y[i]) - (x[k] - x[i]) * (y[j] - y[i])
    )


def vw_simplify(lats, lngs, min_area_m2):
    """Visvalingam-Whyatt simplification by effective triangle area (m^2).

    Vertices whose effective area is below *min_area_m2* are removed in
    increasing order of area; removing a vertex re-scores its neighbours.
    """
    lats = np.asarray(lats, dtype=np.float64)
    lngs = np.asarray(lngs, dtype=np.float64)
    n = len(lats)
    if n <= 2 or min_area_m2 <= 0.0:
        return lats.copy(), lngs.copy()
    x, y = latlng_to_xy_m(lats, lngs)
    prev = np.arange(n) - 1
    nxt = np.arange(n) + 1
    alive = np.ones(n, dtype=bool)
    version = np.zeros(n, dtype=np.int64)
    heap = []
    for i in range(1, n - 1):
        heapq.heappush(heap, (_triangle_area(x, y, i - 1, i, i + 1), i, 0))
    while heap:
        area, i, ver = heapq.heappop(heap)
        if not alive[i] or ver != version[i]:
            continue
        if area >= min_area_m2:
            break
        alive[i] = False
        p, q = prev[i], nxt[i]
        nxt[p], prev[q] = q, p
        for j in (p, q):
            if 0 < j < n - 1 and alive[j]:
                version[j] += 1
                heapq.heappush(
                    heap, (_triangle_area(x, y, prev[j], j, nxt[j]), j, version[j])
                )
    return lats[alive], lngs[alive]
