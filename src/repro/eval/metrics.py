"""Trajectory similarity metrics.

:func:`dtw_distance_m` is the paper's accuracy measure: dynamic time
warping over pointwise metric distances.  The DP runs over anti-diagonals
so each wavefront is a single vectorised update -- O(n + m) small NumPy
operations instead of O(n * m) Python steps.
"""

import numpy as np

from repro.geo.proj import latlng_to_xy_m

__all__ = ["dtw_distance_m"]


def _cost_matrix_m(lats_a, lngs_a, lats_b, lngs_b):
    if len(lats_a) == 0 or len(lats_b) == 0:
        raise ValueError("dtw_distance_m requires non-empty paths")
    lat0 = float(
        (np.asarray(lats_a, dtype=np.float64).mean() + np.asarray(lats_b).mean()) / 2.0
    )
    xa, ya = latlng_to_xy_m(lats_a, lngs_a, lat0=lat0)
    xb, yb = latlng_to_xy_m(lats_b, lngs_b, lat0=lat0)
    return np.hypot(xa[:, None] - xb[None, :], ya[:, None] - yb[None, :])


def _diag_bounds(d, n, m):
    return max(0, d - (m - 1)), min(n - 1, d)


def dtw_distance_m(lats_a, lngs_a, lats_b, lngs_b):
    """Dynamic-time-warping distance between two paths, in metres.

    Standard unconstrained DTW with step pattern {down, right, diagonal};
    returns the total alignment cost.
    """
    cost = _cost_matrix_m(lats_a, lngs_a, lats_b, lngs_b)
    n, m = cost.shape
    prev = None
    prev2 = None
    for d in range(n + m - 1):
        lo, hi = _diag_bounds(d, n, m)
        i = np.arange(lo, hi + 1)
        j = d - i
        cur = cost[i, j]
        if d > 0:
            lo1, hi1 = _diag_bounds(d - 1, n, m)
            best = np.full(len(i), np.inf)
            # D[i-1, j]
            valid = (i - 1 >= lo1) & (i - 1 <= hi1)
            idx = np.clip(i - 1 - lo1, 0, len(prev) - 1)
            np.minimum(best, np.where(valid, prev[idx], np.inf), out=best)
            # D[i, j-1]
            valid = (i >= lo1) & (i <= hi1) & (j >= 1)
            idx = np.clip(i - lo1, 0, len(prev) - 1)
            np.minimum(best, np.where(valid, prev[idx], np.inf), out=best)
            # D[i-1, j-1]
            if d >= 2:
                lo2, hi2 = _diag_bounds(d - 2, n, m)
                valid = (i - 1 >= lo2) & (i - 1 <= hi2) & (j >= 1)
                idx = np.clip(i - 1 - lo2, 0, len(prev2) - 1)
                np.minimum(best, np.where(valid, prev2[idx], np.inf), out=best)
            cur = cur + best
        prev2 = prev
        prev = cur
    return float(prev[-1])

