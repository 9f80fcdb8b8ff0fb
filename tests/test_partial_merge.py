"""Merge semantics: partial -> merge must reproduce the one-shot pass.

Property-style checks over random tables and random row partitions:
counts and integer sums merge exactly.  The same
contract is then pinned at the statistics layer (whole-trip partitions
and incremental fits vs ``compute_statistics``) and at the model layer
(``fit_partial``/``merge``/``finalize`` vs ``fit_from_trips``).
"""

import numpy as np
import pytest

from repro.core import (
    HabitConfig,
    HabitImputer,
    compute_statistics,
    merge_statistics,
    partial_statistics,
)
from repro.core.graph import PROJECTIONS
from repro.core.statistics import OFFSET_DEG
from repro.hexgrid import latlng_to_cell_array
from repro.minidb import Table, agg, merge_states
from repro.minidb.partial import GroupState

ALL_SPECS = (
    agg.count(),
    agg.sum("n"),
)

GRAPH_KEYS = ("cells", "lats", "lngs", "edge_src", "edge_dst", "edge_cost", "edge_count")


def _random_table(rng, n=8000, groups=200):
    return Table(
        {
            "k": rng.integers(0, groups, n),
            "k2": rng.integers(0, 4, n),
            "x": rng.normal(size=n),
            "n": rng.integers(-(10**6), 10**6, n),
        }
    )


def _partition(rng, table, shards):
    assign = rng.integers(0, shards, table.num_rows)
    return [table.filter(assign == s) for s in range(shards)]


@pytest.mark.parametrize("shards", [1, 3, 7])
def test_merged_partials_match_one_shot(rng, shards):
    table = _random_table(rng)
    eager = table.group_by("k", "k2").agg(*ALL_SPECS)
    states = [
        part.group_by("k", "k2").partial(*ALL_SPECS)
        for part in _partition(rng, table, shards)
    ]
    merged = merge_states(states).finalize()
    assert merged.column_names == eager.column_names
    # Integer sums are associative: every column is equal, not just close.
    for key in eager.column_names:
        assert np.array_equal(merged[key], eager[key]), key
    assert merged["sum_n"].dtype == np.int64


def test_single_state_finalize_equals_eager(rng):
    table = _random_table(rng)
    eager = table.group_by("k").agg(*ALL_SPECS)
    alone = table.group_by("k").partial(*ALL_SPECS).finalize()
    for key in eager.column_names:
        assert np.array_equal(alone[key], eager[key]), key


def test_state_payload_round_trip(rng):
    table = _random_table(rng)
    state = table.group_by("k", "k2").partial(*ALL_SPECS)
    restored = GroupState.from_payload(state.payload("pfx_"), "pfx_")
    a, b = state.finalize(), restored.finalize()
    for key in a.column_names:
        assert np.array_equal(np.asarray(a[key]), np.asarray(b[key])), key


def test_merge_rejects_mismatched_states(rng):
    table = _random_table(rng)
    by_k = table.group_by("k").partial(agg.count())
    by_k2 = table.group_by("k2").partial(agg.count())
    with pytest.raises(ValueError, match="different keys"):
        merge_states([by_k, by_k2])
    with pytest.raises(ValueError, match="at least one"):
        merge_states([])


def test_partial_rejects_unmergeable_spec(rng):
    table = _random_table(rng)
    with pytest.raises(ValueError, match="no mergeable state"):
        table.group_by("k").partial(agg.AggSpec("mode", "x", "mode_x"))


# The explicit id keeps the case name it had when the list also held
# median (spec0), min, max, first and count_distinct.
@pytest.mark.parametrize("spec", [pytest.param(agg.mean("x"), id="spec1")])
def test_eager_only_kinds_have_no_partial_state(rng, spec):
    with pytest.raises(ValueError, match="no mergeable state"):
        _random_table(rng).group_by("k").partial(spec)


def test_partial_sum_rejects_float_columns(rng):
    # A float sum would merge only up to summation order.
    with pytest.raises(ValueError, match="integer column"):
        _random_table(rng).group_by("k").partial(agg.sum("x"))


# -- statistics layer ----------------------------------------------------


@pytest.fixture(scope="module")
def kiel_config():
    return HabitConfig(resolution=9)


def _whole_trip_parts(trips, k):
    """Partition segmented trips into *k* tables by ``trip_id % k``."""
    trip_ids = np.asarray(trips.column("trip_id"))
    return [trips.filter(trip_ids % k == part) for part in range(k)]


def test_sharded_statistics_exactness(tiny_kiel, kiel_config):
    cell_stats, transition_stats = compute_statistics(tiny_kiel.train, kiel_config)
    for k in (2, 5):
        parts = _whole_trip_parts(tiny_kiel.train, k)
        cell_sh, tr_sh = merge_statistics(
            [partial_statistics(part, kiel_config) for part in parts]
        )
        assert cell_sh.column_names == ["cell", "count", "mean_lat", "mean_lon"]
        assert tr_sh.column_names == ["cell", "next_cell", "transitions"]
        # Means come from integer offset sums, so they merge bit-exactly.
        for one_shot, sharded in ((cell_stats, cell_sh), (transition_stats, tr_sh)):
            assert one_shot.column_names == sharded.column_names
            for key in sharded.column_names:
                assert np.array_equal(one_shot[key], sharded[key]), key


def test_mean_nodes_match_eager_cell_means(tiny_kiel):
    """Every ``"mean"`` node sits within one fixed-point unit of the eager
    float mean of its cell's training positions."""
    config = HabitConfig(resolution=9, projection="mean")
    graph = HabitImputer(config).fit_from_trips(tiny_kiel.train).graph
    cells = latlng_to_cell_array(
        np.asarray(tiny_kiel.train["lat"]), np.asarray(tiny_kiel.train["lon"]), 9
    )
    eager = (
        tiny_kiel.train.with_columns(cell=cells)
        .group_by("cell")
        .agg(agg.mean("lat"), agg.mean("lon"))
    )
    assert np.array_equal(graph.cells, eager["cell"])
    assert np.abs(graph.lats - eager["mean_lat"]).max() <= OFFSET_DEG
    assert np.abs(graph.lngs - eager["mean_lon"]).max() <= OFFSET_DEG


def test_merge_statistics_rejects_mixed_configs(tiny_kiel):
    a = partial_statistics(tiny_kiel.train, HabitConfig(resolution=9))
    b = partial_statistics(tiny_kiel.train, HabitConfig(resolution=8))
    with pytest.raises(ValueError, match="different resolutions"):
        merge_statistics([a, b])


def test_statistics_reject_invalid_coordinates(tiny_kiel, kiel_config):
    lat = np.asarray(tiny_kiel.train.column("lat")).copy()
    lat[0] = np.nan
    with pytest.raises(ValueError, match="cell-indexed"):
        compute_statistics(tiny_kiel.train.with_columns(lat=lat), kiel_config)
    lon = np.asarray(tiny_kiel.train.column("lon")).copy()
    lon[-1] = 181.0
    with pytest.raises(ValueError, match="clean_messages"):
        partial_statistics(tiny_kiel.train.with_columns(lon=lon), kiel_config)


# -- model layer ---------------------------------------------------------


def test_partitioned_fit_graph_is_bit_identical(tiny_kiel):
    for projection in PROJECTIONS:
        config = HabitConfig(resolution=9, projection=projection)
        one_shot = HabitImputer(config).fit_from_trips(tiny_kiel.train)
        partitioned = HabitImputer(config)
        for part in _whole_trip_parts(tiny_kiel.train, 4):
            partitioned.merge(HabitImputer(config).fit_partial(part))
        partitioned.finalize()
        for key in GRAPH_KEYS:
            assert np.array_equal(
                getattr(one_shot.graph, key), getattr(partitioned.graph, key)
            ), (projection, key)


def test_fit_partial_then_update_matches_full_fit(tiny_kiel, kiel_config):
    trip_ids = np.asarray(tiny_kiel.train.column("trip_id"))
    old = tiny_kiel.train.filter(trip_ids % 2 == 0)
    new = tiny_kiel.train.filter(trip_ids % 2 == 1)
    full = HabitImputer(kiel_config).fit_from_trips(tiny_kiel.train)
    incremental = HabitImputer(kiel_config).fit_from_trips(old)
    assert incremental.revision == 1
    incremental.update(new)
    assert incremental.revision == 2
    for key in GRAPH_KEYS:
        assert np.array_equal(
            getattr(full.graph, key), getattr(incremental.graph, key)
        ), key


def test_model_state_round_trips_and_updates_after_load(
    tiny_kiel, kiel_config, tmp_path
):
    trip_ids = np.asarray(tiny_kiel.train.column("trip_id"))
    old = tiny_kiel.train.filter(trip_ids % 2 == 0)
    new = tiny_kiel.train.filter(trip_ids % 2 == 1)
    saved = HabitImputer(kiel_config).fit_from_trips(old).save(tmp_path / "m.npz")
    restored = HabitImputer.load(saved)
    restored.update(new)
    full = HabitImputer(kiel_config).fit_from_trips(tiny_kiel.train)
    for key in GRAPH_KEYS:
        assert np.array_equal(getattr(full.graph, key), getattr(restored.graph, key))


def test_finalize_without_state_raises():
    with pytest.raises(RuntimeError, match="no fit state"):
        HabitImputer().finalize()
    with pytest.raises(ValueError, match="no fit state"):
        HabitImputer().merge(HabitImputer())
