"""HABIT end-to-end: fit, impute, persist."""

from dataclasses import fields

import numpy as np
import pytest

from repro.baselines import StraightLineImputer
from repro.core import HabitConfig, HabitImputer, ModelFormatError, config_hash
from repro.eval import evaluate_imputer
from repro.eval.metrics import dtw_distance_m


@pytest.fixture(scope="module")
def fitted(tiny_kiel):
    return HabitImputer(
        HabitConfig(resolution=9, tolerance_m=100.0)
    ).fit_from_trips(tiny_kiel.train)


@pytest.fixture(scope="module")
def gap(tiny_kiel):
    gaps = tiny_kiel.gaps(3600.0)
    assert gaps, "tiny dataset must yield at least one 1-hour gap"
    return gaps[0]


def test_fit_builds_graph(fitted):
    assert fitted.graph.num_nodes > 10
    assert fitted.graph.num_edges > 10
    assert fitted.storage_size_bytes() > 0


def test_impute_smoke(fitted, gap):
    result = fitted.impute(gap.start, gap.end)
    assert result.num_points >= 2
    assert result.lats[0] == pytest.approx(gap.start[0])
    assert result.lngs[0] == pytest.approx(gap.start[1])
    assert result.lats[-1] == pytest.approx(gap.end[0])
    assert result.lngs[-1] == pytest.approx(gap.end[1])
    assert np.all(np.isfinite(result.lats)) and np.all(np.isfinite(result.lngs))


def test_habit_beats_straight_line_on_average(fitted, tiny_kiel):
    gaps = tiny_kiel.gaps(3600.0)
    habit = evaluate_imputer(fitted, gaps, "HABIT", measure_storage=False)
    sli = evaluate_imputer(StraightLineImputer(), gaps, "SLI", measure_storage=False)
    assert habit.mean_dtw_m < sli.mean_dtw_m


def test_unfitted_imputer_raises(gap):
    with pytest.raises(RuntimeError):
        HabitImputer().impute(gap.start, gap.end)


def test_projection_modes_differ(tiny_kiel, gap):
    center = HabitImputer(
        HabitConfig(resolution=9, projection="center")
    ).fit_from_trips(tiny_kiel.train)
    mean = HabitImputer(
        HabitConfig(resolution=9, projection="mean")
    ).fit_from_trips(tiny_kiel.train)
    assert np.array_equal(center.graph.cells, mean.graph.cells)
    assert not np.array_equal(center.graph.lats, mean.graph.lats)
    r_center = center.impute(gap.start, gap.end)
    r_mean = mean.impute(gap.start, gap.end)
    assert r_center.num_points >= 2 and r_mean.num_points >= 2


def test_route_batch_matches_scalar_route(fitted, tiny_kiel):
    gaps = tiny_kiel.gaps(3600.0)
    pairs = [fitted.snap_endpoints(g.start, g.end) for g in gaps]
    pairs = [p for p in pairs if p is not None]
    assert pairs
    # Repeat the batch so it exercises duplicate lanes too.
    pairs = pairs * 2
    batch = fitted.route_batch(pairs)
    assert len(batch) == len(pairs)
    for (src, dst), result in zip(pairs, batch):
        scalar = fitted.graph.find_path(src, dst)
        assert (result is None) == (scalar is None)
        if result is not None:
            assert result.cost == scalar.cost
            assert np.array_equal(result.cells, scalar.cells)


def test_dijkstra_equals_astar_cost(fitted, gap):
    src, dst = fitted.snap_endpoints(gap.start, gap.end)
    searched = [fitted.graph.find_path(src, dst, method) for method in ("astar", "dijkstra")]
    assert searched[0].cost == pytest.approx(searched[1].cost)
    (with_h, without), _ = fitted.render_paths([gap.start] * 2, [gap.end] * 2, searched)
    dtw = dtw_distance_m(with_h.lats, with_h.lngs, without.lats, without.lngs)
    assert dtw == pytest.approx(0.0, abs=1e-6)


def test_save_load_round_trip_is_exact(fitted, gap, tmp_path):
    path = tmp_path / "model.npz"
    fitted.save(path)
    assert path.exists() and path.stat().st_size > 0
    restored = HabitImputer.load(path)
    assert restored.config == fitted.config
    # Bit-identical graph arrays, hence bit-identical imputations.
    assert np.array_equal(restored.graph.cells, fitted.graph.cells)
    assert np.array_equal(restored.graph.edge_cost, fitted.graph.edge_cost)
    a = fitted.impute(gap.start, gap.end)
    b = restored.impute(gap.start, gap.end)
    assert np.array_equal(a.lats, b.lats) and np.array_equal(a.lngs, b.lngs)
    assert a.method == b.method and np.array_equal(a.cells, b.cells)


def test_load_rejects_untagged_or_foreign_npz(fitted, tmp_path):
    # Pre-versioning files carry no format tag.
    untagged = tmp_path / "untagged.npz"
    np.savez(untagged, cells=fitted.graph.cells)
    with pytest.raises(ModelFormatError, match="format tag"):
        HabitImputer.load(untagged)
    # A file tagged as another kind (the removed typed models') does not load.
    with np.load(fitted.save(tmp_path / "plain.npz")) as data:
        payload = {key: data[key] for key in data.files}
    payload["format"] = np.array(["typed-habit-npz", payload["format"][1]])
    foreign = tmp_path / "foreign.npz"
    np.savez(foreign, **payload)
    with pytest.raises(ModelFormatError, match="typed-habit-npz"):
        HabitImputer.load(foreign)
    # Not an .npz archive at all.
    garbage = tmp_path / "garbage.npz"
    garbage.write_bytes(b"this is not a zip archive")
    with pytest.raises(ModelFormatError, match="archive"):
        HabitImputer.load(garbage)


def test_load_rejects_stale_version_and_missing_arrays(fitted, tmp_path):
    import repro.core.habit as habit_mod

    plain = fitted.save(tmp_path / "model.npz")
    with np.load(plain) as data:
        payload = {key: data[key] for key in data.files}
    payload["format"] = np.array([habit_mod.MODEL_FORMAT, "1"])
    stale = tmp_path / "stale.npz"
    np.savez(stale, **payload)
    with pytest.raises(ModelFormatError, match="version 1"):
        HabitImputer.load(stale)
    payload["format"] = np.array(
        [habit_mod.MODEL_FORMAT, str(habit_mod.MODEL_FORMAT_VERSION)]
    )
    del payload["edge_cost"]
    truncated = tmp_path / "truncated.npz"
    np.savez(truncated, **payload)
    with pytest.raises(ModelFormatError, match="edge_cost"):
        HabitImputer.load(truncated)


def test_config_hash_tracks_every_field(fitted):
    base = HabitConfig()
    assert config_hash(base) == config_hash(HabitConfig())
    changed = [
        HabitConfig(resolution=8),
        HabitConfig(tolerance_m=50.0),
        HabitConfig(projection="mean"),
    ]
    assert len(changed) == len(fields(HabitConfig))
    digests = {config_hash(c) for c in changed} | {config_hash(base)}
    assert len(digests) == len(changed) + 1  # every field moves the digest


@pytest.mark.parametrize("tolerance_m", [-1.0, float("nan"), float("inf")])
def test_config_rejects_negative_or_non_finite_tolerance(tolerance_m):
    # -1 and nan would render like 0 under their own digests; inf would
    # collapse every path to a straight line.
    with pytest.raises(ValueError, match="tolerance_m"):
        HabitConfig(tolerance_m=tolerance_m)


def test_save_without_suffix_returns_real_file(fitted, gap, tmp_path):
    # np.savez appends .npz; the returned path must name the written file.
    written = fitted.save(tmp_path / "model")
    assert written.exists()
    restored = HabitImputer.load(written)
    assert restored.graph.num_nodes == fitted.graph.num_nodes


def test_fallback_when_endpoints_far_from_graph(fitted):
    # Endpoints on the other side of the planet: snapping still finds
    # nodes, but if no path exists the imputer degrades gracefully.
    result = fitted.impute((10.0, -40.0), (11.0, -41.0))
    assert result.num_points >= 2
    assert np.all(np.isfinite(result.lats))


def test_render_zero_length_gap_is_two_point_linestring(fitted):
    # A gap that starts where it ends, on a node and just off one: a
    # LineString needs two positions, as the straight-line fallback has.
    node = (float(fitted.graph.lats[0]), float(fitted.graph.lngs[0]))
    for point in (node, (node[0] + 0.001, node[1])):
        result = fitted.impute(point, point)
        assert result.method == "ch"
        assert result.lats.tolist() == [point[0], point[0]]
        assert result.lngs.tolist() == [point[1], point[1]]
