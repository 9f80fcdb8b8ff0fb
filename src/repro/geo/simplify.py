"""Polyline simplification: Ramer-Douglas-Peucker and Visvalingam-Whyatt.

Both keep the endpoints, take metre-denominated thresholds, and return
``(lats, lngs)`` arrays.  RDP runs an explicit stack with vectorised
point-to-segment distances per span; VW maintains a heap of effective
triangle areas over a doubly-linked vertex list.
"""

import heapq

import numpy as np

from repro.geo.proj import latlng_to_xy_m

__all__ = ["off_chord_mask", "rdp_keep_indices", "rdp_simplify", "vw_simplify"]


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


def _point_segment_distance(px, py, ax, ay, bx, by):
    """Distances from points (px, py) to the segment (a, b), vectorised."""
    dx = bx - ax
    dy = by - ay
    seg_len2 = dx * dx + dy * dy
    if seg_len2 == 0.0:
        return np.hypot(px - ax, py - ay)
    t = np.clip(((px - ax) * dx + (py - ay) * dy) / seg_len2, 0.0, 1.0)
    return np.hypot(px - (ax + t * dx), py - (ay + t * dy))


def rdp_simplify(lats, lngs, tolerance_m):
    """Ramer-Douglas-Peucker simplification with a metre tolerance."""
    lats = np.asarray(lats, dtype=np.float64)
    lngs = np.asarray(lngs, dtype=np.float64)
    n = len(lats)
    if n <= 2 or tolerance_m <= 0.0:
        return lats.copy(), lngs.copy()
    x, y = latlng_to_xy_m(lats, lngs)
    kept_idx = rdp_keep_indices(x, y, tolerance_m)
    return lats[kept_idx], lngs[kept_idx]


def rdp_keep_indices(x, y, tolerance_m):
    """RDP keep-set over pre-projected coordinates; returns kept indices.

    The projection-free kernel behind :func:`rdp_simplify`, exposed so
    the imputation hot path can project a polyline once and share the
    coordinates between simplification and resampling.

    The span scan runs in scalar Python over coordinate lists: RDP sits
    on the per-query imputation hot path where spans are a few dozen
    points, and at that size per-call NumPy dispatch overhead dwarfs the
    arithmetic (the vectorised variant spent ~10x longer in
    ``np.clip``/``np.argmax`` bookkeeping than in actual math).  Squared
    distances avoid the hypot per point, and the :func:`off_chord_mask`
    pre-pass drops on-chord interior points -- degenerate vertices RDP
    could never retain at metre tolerances, but which hex-centre
    polylines produce in straight runs and which the scan would
    otherwise re-visit at every recursion level.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(x)
    if n <= 2:
        return np.arange(n)
    orig = None
    if n > 3:
        mask = off_chord_mask(x, y)
        if not mask.all():
            orig = np.flatnonzero(mask)
            x = x[mask]
            y = y[mask]
            n = len(x)
    xs = x.tolist()
    ys = y.tolist()
    tol2 = float(tolerance_m) * float(tolerance_m)
    keep = bytearray(n)
    keep[0] = keep[n - 1] = 1
    stack = [(0, n - 1)]
    while stack:
        i, j = stack.pop()
        if j - i < 2:
            continue
        ax = xs[i]
        ay = ys[i]
        dx = xs[j] - ax
        dy = ys[j] - ay
        seg2 = dx * dx + dy * dy
        best = tol2
        arg = -1
        if seg2 == 0.0:
            for k in range(i + 1, j):
                ex = xs[k] - ax
                ey = ys[k] - ay
                d2 = ex * ex + ey * ey
                if d2 > best:
                    best = d2
                    arg = k
        else:
            inv = 1.0 / seg2
            bx = xs[j]
            by = ys[j]
            for k in range(i + 1, j):
                ex = xs[k] - ax
                ey = ys[k] - ay
                t = (ex * dx + ey * dy) * inv
                if t <= 0.0:
                    d2 = ex * ex + ey * ey
                elif t >= 1.0:
                    fx = xs[k] - bx
                    fy = ys[k] - by
                    d2 = fx * fx + fy * fy
                else:
                    fx = ex - t * dx
                    fy = ey - t * dy
                    d2 = fx * fx + fy * fy
                if d2 > best:
                    best = d2
                    arg = k
        if arg >= 0:
            keep[arg] = 1
            stack.append((i, arg))
            stack.append((arg, j))
    kept = np.frombuffer(bytes(keep), dtype=np.uint8).astype(bool)
    return orig[kept] if orig is not None else np.flatnonzero(kept)


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
