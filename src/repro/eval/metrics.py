"""Trajectory similarity metrics.

:func:`dtw_distance_m` is the paper's accuracy measure: dynamic time
warping over pointwise metric distances.  The DP runs over anti-diagonals
so each wavefront is a single vectorised update -- O(n + m) small NumPy
operations instead of O(n * m) Python steps.  The cost matrix is laid out
by anti-diagonal once, with an infinite border, so a wavefront's three
predecessor reads are plain slices of the two rows before it.
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


def dtw_distance_m(lats_a, lngs_a, lats_b, lngs_b):
    """Dynamic-time-warping distance between two paths, in metres.

    Standard unconstrained DTW with step pattern {down, right, diagonal};
    returns the total alignment cost.
    """
    cost = _cost_matrix_m(lats_a, lngs_a, lats_b, lngs_b)
    # The recurrence is symmetric in its two paths, so the shorter one
    # indexes each anti-diagonal.
    if cost.shape[0] > cost.shape[1]:
        cost = cost.T
    n, m = cost.shape
    # acc[d, i] holds cell (i - 1, d - i - 1): row d is anti-diagonal d of
    # the matrix padded by one infinite row and column, with acc[0, 0] = 0
    # starting the alignment.  Cell (i, j) sits at flat offset
    # (i + j + 2) * (n + 1) + i + 1, so one strided view writes them all.
    acc = np.full((n + m + 1, n + 1), np.inf)
    step = acc.itemsize
    np.lib.stride_tricks.as_strided(
        acc.reshape(-1)[2 * (n + 1) + 1 :],
        shape=(n, m),
        strides=((n + 2) * step, (n + 1) * step),
        writeable=True,
    )[...] = cost
    acc[0, 0] = 0.0
    best = np.empty(n)
    for d in range(2, n + m + 1):
        lo, hi = max(1, d - m), min(n, d - 1)
        out = best[: hi - lo + 1]
        # Up, left and diagonal predecessors of acc[d, lo : hi + 1].
        np.minimum(acc[d - 1, lo - 1 : hi], acc[d - 1, lo : hi + 1], out=out)
        np.minimum(out, acc[d - 2, lo - 1 : hi], out=out)
        row = acc[d, lo : hi + 1]
        np.add(row, out, out=row)
    return float(acc[n + m, n])
