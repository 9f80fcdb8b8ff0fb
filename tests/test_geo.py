"""geo: simplifiers, turn statistics, projection sanity."""

import numpy as np
import pytest

from repro.geo import (
    path_length_m,
    rdp_simplify,
    turn_statistics,
    vw_simplify,
)
from repro.geo.simplify import off_chord_mask, rdp_keep_indices_batch


def _point_segment_distance(px, py, ax, ay, bx, by):
    """Distances from points (px, py) to the segment (a, b), vectorised."""
    dx = bx - ax
    dy = by - ay
    seg_len2 = dx * dx + dy * dy
    if seg_len2 == 0.0:
        return np.hypot(px - ax, py - ay)
    t = np.clip(((px - ax) * dx + (py - ay) * dy) / seg_len2, 0.0, 1.0)
    return np.hypot(px - (ax + t * dx), py - (ay + t * dy))


def _rdp_oracle(x, y, tolerance_m):
    """Scalar RDP: the per-path stack loop the batch kernel must equal.

    Same pre-pass (:func:`off_chord_mask` on paths of four points or
    more), same squared-distance formula and branch order, and the first
    farthest point wins a tie.
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


def _random_polyline(rng):
    """One polyline from a family that stresses a corner of RDP."""
    n = int(rng.choice([0, 1, 2, 3, int(rng.integers(4, 401))]))
    kind = rng.integers(6)
    if kind == 0:  # random walk
        x = np.cumsum(rng.normal(0.0, 300.0, n))
        y = np.cumsum(rng.normal(0.0, 300.0, n))
    elif kind == 1:  # hex-centre-like grid walk with duplicate consecutive points
        x = np.round(np.cumsum(rng.normal(0.0, 1.0, n))) * 250.0
        y = np.round(np.cumsum(rng.normal(0.0, 1.0, n))) * 250.0
        dup = rng.random(n) < 0.3
        x, y = np.repeat(x, 1 + dup), np.repeat(y, 1 + dup)
    elif kind == 2:  # closed loop: the outer chord has zero length
        theta = np.linspace(0.0, 2.0 * np.pi, n)
        x = 2000.0 * np.cos(theta) + rng.normal(0.0, 20.0, n)
        y = 1000.0 * np.sin(theta) + rng.normal(0.0, 20.0, n)
        if n:
            x[-1], y[-1] = x[0], y[0]
    elif kind == 3:  # collinear run with out-and-back overshoot spikes
        x = np.arange(n) * 250.0
        y = np.zeros(n)
        if n > 2:
            spikes = rng.integers(1, n - 1, size=3)
            x[spikes] += rng.choice([-1.0, 1.0], size=3) * 5000.0
    elif kind == 4:  # symmetric zigzag: equal distances tie
        x = np.arange(n) * 100.0
        y = np.where(np.arange(n) % 2 == 1, 400.0, -400.0)
        if n:
            y[0] = y[-1] = 0.0
    else:  # every point at one position
        x = np.full(n, 1234.5)
        y = np.full(n, -678.25)
    return x, y


def test_rdp_batch_matches_scalar_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(80):
        polylines = [_random_polyline(rng) for _ in range(int(rng.integers(1, 12)))]
        tolerance = float(rng.choice([1e-5, 1.0, 50.0, 250.0, 1000.0]))
        kept = rdp_keep_indices_batch(polylines, tolerance)
        assert len(kept) == len(polylines)
        for (x, y), got in zip(polylines, kept):
            assert np.array_equal(got, _rdp_oracle(x, y, tolerance))


def test_rdp_batch_independent_of_batch_makeup_and_order():
    rng = np.random.default_rng(99)
    polylines = [_random_polyline(rng) for _ in range(24)]
    alone = [rdp_keep_indices_batch([p], 100.0)[0] for p in polylines]
    together = rdp_keep_indices_batch(polylines, 100.0)
    order = rng.permutation(len(polylines))
    shuffled = rdp_keep_indices_batch([polylines[i] for i in order], 100.0)
    subset = order[: len(order) // 3]
    partial = rdp_keep_indices_batch([polylines[i] for i in subset], 100.0)
    for i in range(len(polylines)):
        assert np.array_equal(together[i], alone[i])
    for pos, i in enumerate(order):
        assert np.array_equal(shuffled[pos], alone[i])
    for pos, i in enumerate(subset):
        assert np.array_equal(partial[pos], alone[i])


def test_rdp_batch_short_and_empty_inputs():
    assert rdp_keep_indices_batch([], 10.0) == []
    # 0.05 mm off its chord: the on-chord pre-pass skips three-point
    # paths, so a tolerance below that keeps the point.
    on_chord = (np.array([0.0, 1.0, 2.0]), np.array([0.0, 5e-5, 0.0]))
    kept = rdp_keep_indices_batch(
        [(np.zeros(0), np.zeros(0)), ([5.0], [5.0]), ([0.0, 1.0], [0.0, 1.0]), on_chord],
        1e-7,
    )
    assert [k.tolist() for k in kept] == [[], [0], [0, 1], [0, 1, 2]]
    # Symmetric tie: the first farthest point is the split.
    x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    y = np.array([0.0, 10.0, 0.0, 10.0, 0.0])
    (kept,) = rdp_keep_indices_batch([(x, y)], 9.0)
    assert kept.tolist() == _rdp_oracle(x, y, 9.0).tolist() == [0, 1, 4]


@pytest.fixture()
def zigzag():
    # A 10-point path with one sharp spike in the middle.
    lats = np.full(10, 55.0)
    lngs = 10.0 + np.arange(10) * 0.01
    lats[5] += 0.05  # ~5.5 km spike
    return lats, lngs


def test_rdp_keeps_endpoints_and_spike(zigzag):
    lats, lngs = zigzag
    out_lat, out_lng = rdp_simplify(lats, lngs, 200.0)
    assert out_lat[0] == lats[0] and out_lat[-1] == lats[-1]
    assert lats[5] in out_lat  # spike far above tolerance survives
    assert len(out_lat) < len(lats)


def test_rdp_collinear_collapses_to_two_points():
    lats = np.full(20, 55.0)
    lngs = 10.0 + np.arange(20) * 0.01
    out_lat, out_lng = rdp_simplify(lats, lngs, 10.0)
    assert len(out_lat) == 2


def test_rdp_zero_tolerance_is_identity(zigzag):
    lats, lngs = zigzag
    out_lat, out_lng = rdp_simplify(lats, lngs, 0.0)
    assert np.array_equal(out_lat, lats)
    assert np.array_equal(out_lng, lngs)


def test_rdp_removed_points_stay_within_tolerance(rng):
    lats = 55.0 + np.cumsum(rng.normal(0, 0.001, 200))
    lngs = 10.0 + np.cumsum(rng.normal(0, 0.001, 200))
    tolerance = 150.0
    out_lat, out_lng = rdp_simplify(lats, lngs, tolerance)
    # Every original point must lie within tolerance of the simplified path.
    from repro.geo.proj import latlng_to_xy_m

    x, y = latlng_to_xy_m(lats, lngs, lat0=55.0)
    sx, sy = latlng_to_xy_m(out_lat, out_lng, lat0=55.0)
    for px, py in zip(x, y):
        best = min(
            float(
                _point_segment_distance(
                    np.asarray([px]), np.asarray([py]), sx[i], sy[i], sx[i + 1], sy[i + 1]
                )[0]
            )
            for i in range(len(sx) - 1)
        )
        assert best <= tolerance + 1e-6


def test_rdp_keeps_collinear_overshoot_spikes():
    # An out-and-back excursion along one meridian: the spike is exactly
    # collinear with its neighbours but far outside their chord, so the
    # fast-path pre-drop must leave it for the exact scan to keep.
    lats = np.array([55.0, 55.1, 55.001, 54.9])
    lngs = np.full(4, 10.0)
    out_lat, _ = rdp_simplify(lats, lngs, 200.0)
    assert 55.1 in out_lat
    # Degenerate chord: the point's neighbours coincide (vessel returned
    # to the same position); the 25 km spike between them must survive.
    lats = np.array([55.0, 55.2, 55.0, 54.8])
    lngs = np.array([10.0, 10.3, 10.0, 10.0])
    out_lat, out_lng = rdp_simplify(lats, lngs, 200.0)
    assert 55.2 in out_lat and 10.3 in out_lng


def test_vw_collinear_collapses(zigzag):
    lats = np.full(20, 55.0)
    lngs = 10.0 + np.arange(20) * 0.01
    out_lat, _ = vw_simplify(lats, lngs, 1000.0)
    assert len(out_lat) == 2


def test_vw_keeps_large_features(zigzag):
    lats, lngs = zigzag
    out_lat, _ = vw_simplify(lats, lngs, 10_000.0)
    assert lats[5] in out_lat
    assert out_lat[0] == lats[0] and out_lat[-1] == lats[-1]


def test_turn_statistics_straight_line():
    lats = np.full(10, 55.0)
    lngs = 10.0 + np.arange(10) * 0.01
    stats = turn_statistics(lats, lngs)
    assert stats.num_positions == 10
    assert stats.turns_over_45deg == 0
    assert stats.max_abs_turn_deg == pytest.approx(0.0, abs=1e-9)


def test_turn_statistics_right_angle():
    lats = np.array([55.0, 55.0, 55.01])
    lngs = np.array([10.0, 10.01, 10.01])
    stats = turn_statistics(lats, lngs)
    assert stats.turns_over_45deg == 1
    assert stats.max_abs_turn_deg == pytest.approx(90.0, abs=1.0)


def test_turn_statistics_tiny_paths():
    assert turn_statistics([55.0], [10.0]).num_positions == 1
    assert turn_statistics([55.0, 55.1], [10.0, 10.1]).turns_over_45deg == 0


def test_path_length():
    lats = np.array([55.0, 55.0])
    lngs = np.array([10.0, 10.0 + 1.0 / np.cos(np.radians(55.0)) / 111_320.0 * 1000.0])
    assert path_length_m(lats, lngs) == pytest.approx(1000.0, rel=1e-3)
