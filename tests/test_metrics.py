"""DTW metric: reference implementation parity and basic properties.

Two oracles: a naive O(n*m) double loop, and the masked anti-diagonal
sweep that ``dtw_distance_m`` replaced, which every shape must match
bit for bit.
"""

import numpy as np
import pytest

from repro.eval.metrics import _cost_matrix_m, dtw_distance_m
from repro.geo.proj import latlng_to_xy_m


def _dtw_reference(lats_a, lngs_a, lats_b, lngs_b):
    """Naive O(n*m) DTW used as the oracle."""
    lat0 = (np.mean(lats_a) + np.mean(lats_b)) / 2.0
    xa, ya = latlng_to_xy_m(lats_a, lngs_a, lat0=lat0)
    xb, yb = latlng_to_xy_m(lats_b, lngs_b, lat0=lat0)
    n, m = len(xa), len(xb)
    dp = np.full((n + 1, m + 1), np.inf)
    dp[0, 0] = 0.0
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = float(np.hypot(xa[i - 1] - xb[j - 1], ya[i - 1] - yb[j - 1]))
            dp[i, j] = cost + min(dp[i - 1, j], dp[i, j - 1], dp[i - 1, j - 1])
    return float(dp[n, m])


def _diag_bounds(d, n, m):
    return max(0, d - (m - 1)), min(n - 1, d)


def _dtw_masked_oracle(lats_a, lngs_a, lats_b, lngs_b):
    """The anti-diagonal sweep ``dtw_distance_m`` replaced: each
    wavefront gathers its cells and masks its three predecessor reads."""
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


def _walk(rng, n):
    return 55.0 + np.cumsum(rng.normal(0, 0.002, n)), 10.0 + np.cumsum(rng.normal(0, 0.002, n))


@pytest.mark.parametrize(
    "n,m", [(1, 1), (1, 2), (2, 1), (1, 37), (37, 1), (2, 2), (3, 50), (50, 3), (64, 64)]
)
def test_dtw_matches_masked_oracle_exactly(rng, n, m):
    a, b = _walk(rng, n), _walk(rng, m)
    assert dtw_distance_m(*a, *b) == _dtw_masked_oracle(*a, *b)
    assert dtw_distance_m(*b, *a) == _dtw_masked_oracle(*b, *a)


def test_dtw_matches_masked_oracle_on_random_shapes(rng):
    for _ in range(60):
        n, m = (int(k) for k in rng.integers(1, 90, 2))
        a, b = _walk(rng, n), _walk(rng, m)
        assert dtw_distance_m(*a, *b) == _dtw_masked_oracle(*a, *b), (n, m)


def test_dtw_matches_masked_oracle_on_equal_points(rng):
    """Repeated positions tie every predecessor; the sum must still be
    the oracle's, bit for bit."""
    still = (np.full(9, 55.1), np.full(9, 10.2))
    assert dtw_distance_m(*still, *still) == _dtw_masked_oracle(*still, *still) == 0.0
    lats, lngs = _walk(rng, 12)
    dup = (np.repeat(lats, 3), np.repeat(lngs, 3))
    one = (lats[:1], lngs[:1])
    for a, b in ((dup, (lats, lngs)), (still, dup), (one, dup), (dup, one), (one, one)):
        assert dtw_distance_m(*a, *b) == _dtw_masked_oracle(*a, *b)


def test_identical_paths_zero():
    lats = 55.0 + np.linspace(0, 0.1, 20)
    lngs = 10.0 + np.linspace(0, 0.1, 20)
    assert dtw_distance_m(lats, lngs, lats, lngs) == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("n,m", [(1, 1), (1, 5), (5, 1), (7, 7), (13, 9), (30, 41)])
def test_matches_reference(rng, n, m):
    lats_a = 55.0 + np.cumsum(rng.normal(0, 0.002, n))
    lngs_a = 10.0 + np.cumsum(rng.normal(0, 0.002, n))
    lats_b = 55.0 + np.cumsum(rng.normal(0, 0.002, m))
    lngs_b = 10.0 + np.cumsum(rng.normal(0, 0.002, m))
    fast = dtw_distance_m(lats_a, lngs_a, lats_b, lngs_b)
    slow = _dtw_reference(lats_a, lngs_a, lats_b, lngs_b)
    assert fast == pytest.approx(slow, rel=1e-9)


def test_translation_increases_distance(rng):
    lats = 55.0 + np.cumsum(rng.normal(0, 0.002, 50))
    lngs = 10.0 + np.cumsum(rng.normal(0, 0.002, 50))
    near = dtw_distance_m(lats, lngs, lats + 1e-4, lngs)
    far = dtw_distance_m(lats, lngs, lats + 1e-2, lngs)
    assert far > near > 0


def test_empty_path_rejected():
    with pytest.raises(ValueError):
        dtw_distance_m([], [], [55.0], [10.0])
