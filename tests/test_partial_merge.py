"""Merge semantics: partial -> merge must reproduce the one-shot pass.

Property-style checks over random tables and random row partitions:
counts, distincts, HLL, min/max/first merge exactly; sums merge to float
tolerance; medians stay within the documented t-digest rank-error bound.
The same contract is then pinned at the statistics layer (whole-trip
partitions and incremental fits vs ``compute_statistics``) and at the
model layer (``fit_partial``/``merge``/``finalize`` vs ``fit_from_trips``).
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
from repro.minidb import Table, TDigest, agg, merge_states
from repro.minidb.partial import GroupState

ALL_SPECS = (
    agg.count(),
    agg.sum("x"),
    agg.mean("x"),
    agg.min("x"),
    agg.max("x"),
    agg.first("x"),
    agg.median("x"),
    agg.count_distinct("who"),
    agg.approx_count_distinct("who"),
)

GRAPH_KEYS = ("cells", "lats", "lngs", "edge_src", "edge_dst", "edge_cost", "edge_count")


def _random_table(rng, n=8000, groups=200):
    return Table(
        {
            "k": rng.integers(0, groups, n),
            "k2": rng.integers(0, 4, n),
            "x": rng.normal(size=n),
            "who": rng.integers(0, 60, n),
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
    for key in ("k", "k2", "count", "min_x", "max_x", "distinct_who"):
        assert np.array_equal(merged[key], eager[key]), key
    # HLL registers max-merge losslessly: estimates are bit-equal.
    assert np.array_equal(merged["approx_distinct_who"], eager["approx_distinct_who"])
    assert np.allclose(merged["sum_x"], eager["sum_x"])
    assert np.allclose(merged["mean_x"], eager["mean_x"])


def test_first_matches_shard_concatenation_order(rng):
    table = _random_table(rng)
    parts = _partition(rng, table, 4)
    states = [p.group_by("k").partial(agg.first("x")) for p in parts]
    reference = Table.concat(parts).group_by("k").agg(agg.first("x"))
    merged = merge_states(states).finalize()
    assert np.array_equal(merged["first_x"], reference["first_x"])


def test_merged_median_within_tdigest_tolerance(rng):
    # Big groups force centroid compression; the estimate must stay
    # within the documented rank-error band around the exact median.
    n = 60_000
    table = Table({"k": rng.integers(0, 8, n), "x": rng.normal(size=n)})
    eager = table.group_by("k").agg(agg.median("x"))
    states = [
        p.group_by("k").partial(agg.median("x")) for p in _partition(rng, table, 6)
    ]
    merged = merge_states(states).finalize()
    for row, key in enumerate(eager["k"]):
        values = np.sort(table["x"][table["k"] == key])
        # Rank tolerance: a few compression buckets around q = 0.5
        # (pi/delta per bucket, doubled for the merge recompression).
        eps = 2.5 * np.pi / 128
        lo = values[int(len(values) * (0.5 - eps))]
        hi = values[int(len(values) * (0.5 + eps))]
        assert lo <= merged["median_x"][row] <= hi


def test_small_group_medians_are_exact(rng):
    # Below one value per compression bucket nothing collides, so the
    # digest interpolates back to the exact (lo + hi) / 2 sample median.
    table = _random_table(rng, n=3000, groups=400)
    eager = table.group_by("k").agg(agg.median("x"))
    merged = merge_states(
        [p.group_by("k").partial(agg.median("x")) for p in _partition(rng, table, 3)]
    ).finalize()
    assert np.allclose(merged["median_x"], eager["median_x"], atol=1e-12)


def test_single_state_finalize_equals_eager(rng):
    table = _random_table(rng)
    eager = table.group_by("k").agg(*ALL_SPECS)
    alone = table.group_by("k").partial(*ALL_SPECS).finalize()
    for key in eager.column_names:
        if key.startswith("median"):
            assert np.allclose(alone[key], eager[key], atol=1e-12)
        elif key.startswith(("sum", "mean")):
            assert np.allclose(alone[key], eager[key])
        else:
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


def test_tdigest_scalar_accuracy_and_merge(rng):
    values = rng.normal(size=50_000)
    whole = TDigest().add_array(values)
    parts = np.array_split(values, 8)
    merged = TDigest().add_array(parts[0])
    for part in parts[1:]:
        merged.merge(TDigest().add_array(part))
    for q in (0.1, 0.5, 0.9):
        exact = np.quantile(values, q)
        assert whole.quantile(q) == pytest.approx(exact, abs=0.05)
        assert merged.quantile(q) == pytest.approx(exact, abs=0.05)
    assert merged.total_weight == len(values)
    # Unit-weight exactness on small inputs (matches the eager median rule).
    small = TDigest().add_array(np.array([3.0, 1.0, 4.0, 2.0]))
    assert small.median() == pytest.approx(2.5)
    assert np.isnan(TDigest().median())


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
    assert kiel_config.approx_distinct  # "vessels" holds HLL estimates
    for k in (2, 5):
        parts = _whole_trip_parts(tiny_kiel.train, k)
        cell_sh, tr_sh = merge_statistics(
            [partial_statistics(part, kiel_config) for part in parts]
        )
        assert np.array_equal(cell_stats["cell"], cell_sh["cell"])
        assert np.array_equal(cell_stats["count"], cell_sh["count"])
        assert np.array_equal(cell_stats["vessels"], cell_sh["vessels"])
        assert np.array_equal(transition_stats["cell"], tr_sh["cell"])
        assert np.array_equal(transition_stats["next_cell"], tr_sh["next_cell"])
        assert np.array_equal(transition_stats["transitions"], tr_sh["transitions"])
        assert np.array_equal(transition_stats["vessels"], tr_sh["vessels"])
        # Medians are t-digest estimates: within a fraction of a cell edge.
        for column in ("median_lat", "median_lon"):
            delta_m = np.abs(cell_stats[column] - cell_sh[column]).max() * 111_320.0
            assert delta_m < 50.0, f"k={k}: {column} drifted {delta_m:.1f} m"


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


def test_partitioned_fit_graph_is_bit_identical(tiny_kiel, kiel_config):
    one_shot = HabitImputer(kiel_config).fit_from_trips(tiny_kiel.train)
    partitioned = HabitImputer(kiel_config)
    for part in _whole_trip_parts(tiny_kiel.train, 4):
        partitioned.merge(HabitImputer(kiel_config).fit_partial(part))
    partitioned.finalize()
    for key in GRAPH_KEYS:
        assert np.array_equal(
            getattr(one_shot.graph, key), getattr(partitioned.graph, key)
        ), key


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
