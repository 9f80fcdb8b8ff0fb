"""Typed incremental refresh: per-class fit states vs full refit.

The exactness contract mirrors the plain imputer's: for any whole-trip
split of the history, per-class transition counts and graph topology
from the incremental path are exactly equal to the one-shot fit, and so
are node positions under either projection (the "mean" state is integer
sums).
"""

import numpy as np
import pytest

from repro.core import HabitConfig, TypedHabitImputer

MIN_ROWS = 100


@pytest.fixture(scope="module")
def config():
    return HabitConfig(resolution=9, tolerance_m=100.0)


@pytest.fixture(scope="module")
def halves(tiny_kiel):
    """A whole-trip split of the tiny KIEL train table."""
    from repro.ais import schema

    ids = np.asarray(tiny_kiel.train.column(schema.TRIP_ID))
    return tiny_kiel.train.filter(ids % 2 == 0), tiny_kiel.train.filter(ids % 2 == 1)


def _graph_signature(imputer):
    """Order-independent identity of a fitted graph: node cells plus
    (src, dst, count) transition triples."""
    graph = imputer.graph
    cells = frozenset(graph.cells.tolist())
    edges = frozenset(
        zip(graph.edge_src.tolist(), graph.edge_dst.tolist(), graph.edge_count.tolist())
    )
    return cells, edges


def _assert_equivalent(a, b):
    assert a.fitted_groups == b.fitted_groups
    assert _graph_signature(a.fallback) == _graph_signature(b.fallback)
    for name in a.fitted_groups:
        assert _graph_signature(a.by_type[name]) == _graph_signature(b.by_type[name])


def test_fit_partial_finalize_matches_one_shot(tiny_kiel, halves, config):
    one_shot = TypedHabitImputer(config, min_group_rows=MIN_ROWS).fit_from_trips(
        tiny_kiel.train
    )
    chunked = TypedHabitImputer(config, min_group_rows=MIN_ROWS)
    chunked.fit_partial(halves[0]).fit_partial(halves[1]).finalize()
    assert one_shot.fitted_groups  # the dataset actually has typed classes
    _assert_equivalent(chunked, one_shot)


def test_update_matches_full_refit(tiny_kiel, halves, config):
    first, second = halves
    refit = TypedHabitImputer(config, min_group_rows=MIN_ROWS).fit_from_trips(
        tiny_kiel.train
    )
    updated = TypedHabitImputer(config, min_group_rows=MIN_ROWS).fit_from_trips(first)
    updated.update(second)
    assert updated.revision == 2 and refit.revision == 1
    _assert_equivalent(updated, refit)
    # Queries agree too: same snapped route on the same graph.
    gap = tiny_kiel.gaps(3600.0)[0]
    a = updated.impute(gap.start, gap.end, "cargo")
    b = refit.impute(gap.start, gap.end, "cargo")
    assert a.cells == b.cells
    assert np.allclose(a.lats, b.lats) and np.allclose(a.lngs, b.lngs)


def test_thin_class_promoted_once_support_accumulates(halves, config):
    first, second = halves  # all tanker trips sit in the second half
    typed = TypedHabitImputer(config, min_group_rows=MIN_ROWS).fit_from_trips(first)
    assert "tanker" not in typed.fitted_groups
    typed.update(second)
    assert "tanker" in typed.fitted_groups  # promoted, no refit needed
    assert typed.by_type["tanker"].graph.num_nodes > 0


def test_merge_combines_class_states(tiny_kiel, halves, config):
    first, second = halves
    a = TypedHabitImputer(config, min_group_rows=MIN_ROWS).fit_partial(first)
    b = TypedHabitImputer(config, min_group_rows=MIN_ROWS).fit_partial(second)
    merged = a.merge(b).finalize()
    one_shot = TypedHabitImputer(config, min_group_rows=MIN_ROWS).fit_from_trips(
        tiny_kiel.train
    )
    _assert_equivalent(merged, one_shot)
    with pytest.raises(TypeError):
        a.merge(object())


def test_finalize_syncs_class_revisions(tiny_kiel, halves, config):
    typed = TypedHabitImputer(config, min_group_rows=MIN_ROWS).fit_from_trips(halves[0])
    typed.update(halves[1])
    assert typed.revision == 2
    assert typed.fallback.revision == 2
    assert all(i.revision == 2 for i in typed.by_type.values())


def test_save_load_roundtrip_keeps_states_refreshable(tmp_path, halves, config):
    first, second = halves
    typed = TypedHabitImputer(config, min_group_rows=MIN_ROWS).fit_from_trips(first)
    path = typed.save(tmp_path / "typed.npz")
    loaded = TypedHabitImputer.load(path)
    assert loaded.fitted_groups == typed.fitted_groups
    assert loaded.revision == typed.revision
    # The loaded model refreshes incrementally, equivalently to the
    # in-memory one -- states (thin classes included) survived the disk.
    typed.update(second)
    loaded.update(second)
    assert loaded.revision == 2
    _assert_equivalent(loaded, typed)


def test_update_skips_rebuilding_untouched_classes(tiny_kiel, halves, config):
    """A refresh whose chunk only carries one class's traffic must not
    pay graph (and hierarchy) rebuilds for every other class."""
    from repro.ais import schema

    typed = TypedHabitImputer(config, min_group_rows=MIN_ROWS).fit_from_trips(
        tiny_kiel.train
    )
    assert "tanker" in typed.fitted_groups and "cargo" in typed.fitted_groups
    tanker_graph = typed.by_type["tanker"].graph
    cargo_graph = typed.by_type["cargo"].graph
    cargo_only = halves[0]  # the even-trip half carries no tanker rows
    assert "tanker" not in np.asarray(cargo_only.column(schema.VESSEL_TYPE))
    typed.update(cargo_only)
    assert typed.by_type["tanker"].graph is tanker_graph  # untouched: reused
    assert typed.by_type["cargo"].graph is not cargo_graph  # touched: rebuilt
    # The untouched class keeps its revision too: its graph (and every
    # cached route on it) is identical, so the serve-path cache stays warm.
    assert typed.revision == 2 and typed.by_type["cargo"].revision == 2
    assert typed.by_type["tanker"].revision == 1


def test_save_before_finalize_raises_cleanly(tmp_path, halves, config):
    typed = TypedHabitImputer(config, min_group_rows=MIN_ROWS).fit_partial(halves[0])
    with pytest.raises(RuntimeError, match="not fitted"):
        typed.save(tmp_path / "unfinalized.npz")


def test_save_refuses_graphs_staler_than_states(tmp_path, halves, config):
    """Persisting a graph alongside a newer state would make load()
    mis-record the graph as current; the refresh skip-untouched check
    would then serve the stale graph forever."""
    typed = TypedHabitImputer(config, min_group_rows=MIN_ROWS).fit_from_trips(halves[0])
    typed.fit_partial(halves[1])  # states now newer than the graphs
    with pytest.raises(RuntimeError, match="finalize"):
        typed.save(tmp_path / "stale.npz")
    typed.finalize()
    path = typed.save(tmp_path / "fresh.npz")  # consistent again
    # The round-trip now reflects *all* folded history, equivalent to a
    # full refit on both halves.
    loaded = TypedHabitImputer.load(path)
    full = TypedHabitImputer(config, min_group_rows=MIN_ROWS)
    full.fit_partial(halves[0]).fit_partial(halves[1]).finalize()
    _assert_equivalent(loaded, full)


def test_fork_shares_states_without_mutation(halves, config):
    typed = TypedHabitImputer(config, min_group_rows=MIN_ROWS).fit_from_trips(halves[0])
    nodes_before = typed.fallback.graph.num_nodes
    fork = typed.fork()
    fork.update(halves[1])
    assert fork is not typed and fork.revision == 2
    assert typed.revision == 1
    assert typed.fallback.graph.num_nodes == nodes_before  # donor untouched
    assert fork.fallback.graph.num_nodes >= nodes_before
