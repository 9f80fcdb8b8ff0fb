"""Property suite for budget-constrained compression (repro.geo.budget).

Fuzzes :class:`BudgetCompressor` / :func:`compress_to_budget` over seeded
trajectories spanning five topologies -- random walks, lane-shaped tracks
with curvature, duplicate-point runs, collinear runs, and inputs already
within budget -- asserting the hard invariants:

- the output never exceeds ``max_points``;
- both endpoints are always kept;
- the output is a subsequence of the input (strictly increasing indices,
  coordinates untouched);
- the reported ``max_sed_m`` is >= the true SED of every dropped point,
  recomputed exactly against the output polyline;
- streaming one-at-a-time ingest is point-identical to the offline twin.
"""

import numpy as np
import pytest

from repro.geo import BudgetCompressor, compress_rendered_path, compress_to_budget

CASES_PER_TOPOLOGY = 48  # x5 topologies = 240 seeded trajectories
TOPOLOGIES = ("random", "lane", "duplicates", "collinear", "within_budget")


def _trajectory(topology, seed):
    """One seeded (x, y, t) trajectory of the requested topology."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(24, 160))
    t = np.cumsum(rng.uniform(5.0, 60.0, size=n))
    if topology == "random":
        x = np.cumsum(rng.normal(0.0, 120.0, size=n))
        y = np.cumsum(rng.normal(0.0, 120.0, size=n))
    elif topology == "lane":
        # A shipping-lane shape: steady along-track progress with a
        # smooth cross-track sweep plus mild jitter.
        s = np.linspace(0.0, n * 90.0, n)
        x = s + rng.normal(0.0, 8.0, size=n)
        y = 400.0 * np.sin(s / 1500.0) + rng.normal(0.0, 8.0, size=n)
    elif topology == "duplicates":
        x = np.cumsum(rng.normal(0.0, 100.0, size=n))
        y = np.cumsum(rng.normal(0.0, 100.0, size=n))
        # Hold position over random stretches: repeated identical fixes.
        holds = rng.integers(0, n, size=max(2, n // 6))
        for h in holds:
            stop = min(n, h + int(rng.integers(2, 6)))
            x[h:stop] = x[h]
            y[h:stop] = y[h]
    elif topology == "collinear":
        s = np.cumsum(rng.uniform(10.0, 200.0, size=n))
        x = s * 0.8
        y = s * 0.6
        # A few genuine corners so the heap has real decisions to make.
        corners = rng.integers(1, n - 1, size=3)
        y[corners] += rng.uniform(200.0, 800.0, size=3)
    elif topology == "within_budget":
        n = int(rng.integers(2, 12))
        x = np.cumsum(rng.normal(0.0, 150.0, size=n))
        y = np.cumsum(rng.normal(0.0, 150.0, size=n))
        t = np.cumsum(rng.uniform(5.0, 60.0, size=n))
    else:  # pragma: no cover - guard against topology typos
        raise AssertionError(topology)
    return x, y, t


def _budget_for(topology, n, rng):
    if topology == "within_budget":
        return int(max(n, rng.integers(n, n + 20)))
    return int(rng.integers(2, max(3, n // 2)))


def _true_dropped_sed(x, y, t, kept):
    """Exact SED of each dropped point against the kept polyline."""
    mask = np.zeros(len(x), dtype=bool)
    mask[kept] = True
    dropped = np.flatnonzero(~mask)
    if len(dropped) == 0:
        return np.empty(0)
    seg = np.searchsorted(kept, dropped) - 1
    u, v = kept[seg], kept[seg + 1]
    span = t[v] - t[u]
    frac = np.where(span > 0.0, (t[dropped] - t[u]) / np.where(span > 0.0, span, 1.0), 0.5)
    frac = np.clip(frac, 0.0, 1.0)
    return np.hypot(
        x[dropped] - (x[u] + frac * (x[v] - x[u])),
        y[dropped] - (y[u] + frac * (y[v] - y[u])),
    )


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("case", range(CASES_PER_TOPOLOGY))
def test_budget_invariants(topology, case):
    seed = TOPOLOGIES.index(topology) * 1009 + case
    x, y, t = _trajectory(topology, seed)
    n = len(x)
    rng = np.random.default_rng(seed + 1)
    budget = _budget_for(topology, n, rng)
    use_t = bool(rng.integers(0, 2))
    sync = t if use_t else None

    res = compress_to_budget(x, y, budget, t=sync)
    kept = res.indices

    # Budget respected; bookkeeping consistent.
    assert res.points_out <= budget or n <= budget
    assert res.points_out == len(kept)
    assert res.points_in == n
    assert res.points_dropped == n - len(kept)

    # Endpoints always kept; output is a subsequence of the input.
    assert kept[0] == 0
    assert kept[-1] == n - 1
    assert np.all(np.diff(kept) > 0)

    # Within budget => identity (nothing dropped, zero error).
    if n <= budget:
        assert len(kept) == n
        assert res.max_sed_m == 0.0
        assert res.mean_sed_m == 0.0
        return

    # Offline twin reports the exact dropped-point SED.
    sync_arr = t if use_t else np.arange(n, dtype=np.float64)
    true_sed = _true_dropped_sed(x, y, sync_arr, kept)
    assert res.max_sed_m == pytest.approx(true_sed.max())
    assert res.mean_sed_m == pytest.approx(true_sed.mean())

    # Online bound is sound: streaming reports >= the true error, and the
    # kept subsequence is point-identical to the offline twin.
    comp = BudgetCompressor(budget)
    for i in range(n):
        comp.push(x[i], y[i], None if sync is None else t[i])
    online = comp.result()
    np.testing.assert_array_equal(online.indices, kept)
    assert online.points_in == n
    assert online.points_out == len(kept)
    assert online.max_sed_m >= true_sed.max() - 1e-9
    assert online.mean_sed_m >= 0.0


def test_streaming_finalize_is_merge_free():
    """result() mid-stream must not disturb subsequent compression."""
    rng = np.random.default_rng(11)
    x = np.cumsum(rng.normal(0.0, 100.0, size=80))
    y = np.cumsum(rng.normal(0.0, 100.0, size=80))
    interrupted = BudgetCompressor(12)
    for i in range(80):
        interrupted.push(x[i], y[i])
        if i % 7 == 0:
            interrupted.result()  # snapshot, then keep streaming
    straight = BudgetCompressor(12)
    for i in range(80):
        straight.push(x[i], y[i])
    np.testing.assert_array_equal(
        interrupted.result().indices, straight.result().indices
    )


def test_budget_two_keeps_only_endpoints():
    rng = np.random.default_rng(3)
    x = np.cumsum(rng.normal(0.0, 50.0, size=40))
    y = np.cumsum(rng.normal(0.0, 50.0, size=40))
    res = compress_to_budget(x, y, 2)
    np.testing.assert_array_equal(res.indices, [0, 39])


def test_single_point_and_pair_pass_through():
    res = compress_to_budget([1.0], [2.0], 5)
    np.testing.assert_array_equal(res.indices, [0])
    res = compress_to_budget([1.0, 3.0], [2.0, 4.0], 2)
    np.testing.assert_array_equal(res.indices, [0, 1])
    assert res.max_sed_m == 0.0


def test_invalid_budgets_rejected():
    with pytest.raises(ValueError):
        BudgetCompressor(1)
    with pytest.raises(ValueError):
        BudgetCompressor(0)
    with pytest.raises(ValueError):
        BudgetCompressor(-4)
    with pytest.raises(TypeError):
        BudgetCompressor(2.5)
    with pytest.raises(TypeError):
        BudgetCompressor(True)


def test_degenerate_timestamps_do_not_crash():
    """Equal and non-monotone timestamps fall back to clamped interpolation."""
    rng = np.random.default_rng(9)
    x = np.cumsum(rng.normal(0.0, 80.0, size=50))
    y = np.cumsum(rng.normal(0.0, 80.0, size=50))
    t = np.zeros(50)  # all-equal sync parameter
    res = compress_to_budget(x, y, 10, t=t)
    assert res.points_out <= 10
    assert np.isfinite(res.max_sed_m)
    t = rng.uniform(0.0, 100.0, size=50)  # shuffled, non-monotone
    res = compress_to_budget(x, y, 10, t=t)
    assert res.points_out <= 10
    assert np.isfinite(res.max_sed_m)


def test_buffer_never_exceeds_budget_between_pushes():
    rng = np.random.default_rng(21)
    comp = BudgetCompressor(16)
    for _ in range(500):
        comp.push(rng.normal(0.0, 1000.0), rng.normal(0.0, 1000.0))
        assert len(comp) <= 16
    res = comp.result()
    assert res.points_in == 500
    assert res.points_out == 16


def test_rendered_path_drops_on_chord_points_before_ranking_turns():
    # An L-shaped route resampled every 50 m with the corner between two
    # samples: only the endpoints and the two points straddling the
    # corner are off their neighbours' chord.
    s = np.linspace(0.0, 2000.0, 41)
    x = np.minimum(s, 1025.0)
    y = np.maximum(s - 1025.0, 0.0)
    res = compress_rendered_path(x, y, 8)
    np.testing.assert_array_equal(res.indices, [0, 20, 21, 40])
    assert (res.points_in, res.points_out) == (41, 4)
    assert res.max_sed_m < 1e-9
    # More turns than budget: SQUISH-E ranks the turns, and the error
    # reported is the exact SED over every dropped input point.
    res = compress_rendered_path(x, y, 3)
    assert res.points_out == 3 and res.indices[0] == 0 and res.indices[-1] == 40
    assert res.max_sed_m > 0.0
    sed = _true_dropped_sed(x, y, np.arange(41.0), res.indices)
    assert res.max_sed_m == pytest.approx(sed.max())
    # A budget at or above the input size keeps everything.
    np.testing.assert_array_equal(compress_rendered_path(x, y, 41).indices, np.arange(41))
    with pytest.raises(ValueError):
        compress_rendered_path(x, y, 1)
    with pytest.raises(TypeError):
        compress_rendered_path(x[:2], y[:2], 2.5)
