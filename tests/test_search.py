"""CSR search engine: variant equivalence, v3-v5 models, snaps."""

import numpy as np
import pytest

from graphgen import uniform_graph as _random_graph
from repro.core import (
    GOAL_DIRECTED_METHODS,
    SEARCH_METHODS,
    CellGraph,
    HabitConfig,
    HabitImputer,
)
from repro.hexgrid import (
    cell_axial_array,
    cell_to_latlng_array,
    grid_distance_array,
    latlng_to_cell_array,
)


def _path_cost(graph, result):
    """Recompute a result's cost from the adjacency view (oracle check)."""
    total = 0.0
    for a, b in zip(result.cells, result.cells[1:]):
        total += min(c for t, c, _ in graph.adjacency[a] if t == b)
    return total


def test_all_variants_equal_cost_on_random_graphs():
    """astar / dijkstra / CH agree on any admissible graph."""
    rng = np.random.default_rng(1234)
    for _ in range(8):
        graph = _random_graph(rng)
        nodes = graph.cells
        for _ in range(12):
            src, dst = rng.choice(nodes, 2)
            results = {m: graph.find_path(src, dst, m) for m in SEARCH_METHODS}
            if results["dijkstra"] is None:
                # Disconnected pair: every variant must say so.
                assert all(r is None for r in results.values())
                continue
            oracle = results["dijkstra"].cost
            for method, result in results.items():
                assert result.cost == pytest.approx(oracle, rel=1e-9), method
                assert result.cells[0] == src and result.cells[-1] == dst
                assert _path_cost(graph, result) == pytest.approx(result.cost)
                assert result.expanded >= 0 and result.method == method


def test_disconnected_components_return_none_everywhere():
    rng = np.random.default_rng(7)
    # A connected-ish west cluster plus edge-less east nodes ~50 km away.
    west = _random_graph(rng, num_nodes=20, num_edges=60, spread=0.2)
    shift = int(
        latlng_to_cell_array(np.array([55.0]), np.array([10.7]), 9)[0]
        - latlng_to_cell_array(np.array([55.0]), np.array([10.0]), 9)[0]
    )
    east_cells = west.cells + shift
    all_cells = np.concatenate([west.cells, east_cells])
    lats, lngs = cell_to_latlng_array(all_cells)
    graph = CellGraph(
        all_cells,
        lats,
        lngs,
        west.edge_src,
        west.edge_dst,
        west.edge_cost,
        west.edge_count,
    )
    src = int(west.edge_src[0])  # west component, has outgoing edges
    dst = int(east_cells[0])  # east node, unreachable by construction
    for method in SEARCH_METHODS:
        assert graph.find_path(src, dst, method) is None


def test_find_path_rejects_unknown_method():
    graph = _random_graph(np.random.default_rng(3), num_nodes=10, num_edges=20)
    with pytest.raises(ValueError, match="unknown search method"):
        graph.find_path(int(graph.cells[0]), int(graph.cells[1]), "bfs")


def test_trivial_and_missing_endpoints():
    graph = _random_graph(np.random.default_rng(5), num_nodes=12, num_edges=30)
    cell = int(graph.cells[0])
    same = graph.find_path(cell, cell, "astar")
    assert same.cells == (cell,) and same.cost == 0.0 and same.expanded == 0
    # A cell that is no node: searches return None, astar() wrapper too.
    missing = int(graph.cells.max()) + 12345
    assert graph.find_path(cell, missing, "ch") is None
    assert graph.astar(missing, cell) is None


def test_heuristics_expand_no_more_than_dijkstra(tiny_kiel):
    imputer = HabitImputer(HabitConfig(resolution=9)).fit_from_trips(tiny_kiel.train)
    graph = imputer.graph
    gaps = tiny_kiel.gaps(3600.0)
    checked = 0
    for gap in gaps:
        snapped = imputer.snap_endpoints(gap.start, gap.end)
        if snapped is None:
            continue
        dijkstra = graph.find_path(snapped[0], snapped[1], "dijkstra")
        if dijkstra is None:
            continue
        for method in GOAL_DIRECTED_METHODS:
            guided = graph.find_path(snapped[0], snapped[1], method)
            assert guided.cost == pytest.approx(dijkstra.cost)
            assert guided.expanded <= dijkstra.expanded
        checked += 1
    assert checked > 0


def test_compat_views_match_csr(tiny_kiel):
    imputer = HabitImputer(HabitConfig(resolution=9)).fit_from_trips(tiny_kiel.train)
    graph = imputer.graph
    assert set(graph.node_attrs) == set(int(c) for c in graph.cells)
    total_edges = sum(len(v) for v in graph.adjacency.values())
    assert total_edges == graph.num_edges == len(graph.indices)
    # CSR axial coordinates match the packed ids.
    q, r = cell_axial_array(graph.cells)
    assert np.array_equal(graph.node_q, q.astype(np.int32))
    assert np.array_equal(graph.node_r, r.astype(np.int32))


def test_snap_memoization_and_scalar_fallback(tiny_kiel):
    imputer = HabitImputer(HabitConfig(resolution=9)).fit_from_trips(tiny_kiel.train)
    graph = imputer.graph
    # A cell far outside every ring: exercises the full-scan fallback.
    far = latlng_to_cell_array(np.array([57.5]), np.array([13.5]), 9)[0]
    first = graph.nearest_node(far, max_ring=2)
    assert first is not None and (int(far), 2) in graph._snap_cache
    assert graph.nearest_node(far, max_ring=2) == first
    # The fallback must agree with a brute-force scan.
    brute = int(
        graph.cells[int(np.argmin(grid_distance_array(graph.cells, np.int64(far))))]
    )
    assert first == brute


# -- model format v3-v5 ---------------------------------------------------


@pytest.fixture(scope="module")
def default_model(tiny_kiel):
    return HabitImputer(HabitConfig(resolution=9)).fit_from_trips(tiny_kiel.train)


def _as_v3_file(saved_path, out_path):
    """Rewrite a saved (v5) model as its v3 equivalent."""
    import repro.core.habit as habit_mod

    with np.load(saved_path) as data:
        payload = {key: data[key] for key in data.files}
    payload["format"] = np.array([habit_mod.MODEL_FORMAT, "3"])
    payload["config"] = payload["config"][:8]  # v3 configs had 8 fields
    for key in habit_mod._CH_KEYS:
        payload.pop(key, None)
    np.savez(out_path, **payload)
    return out_path


def test_v3_files_still_load_and_refresh(default_model, tiny_kiel, tmp_path):
    gap = tiny_kiel.gaps(3600.0)[0]
    v3 = _as_v3_file(default_model.save(tmp_path / "v5.npz"), tmp_path / "v3.npz")
    restored = HabitImputer.load(v3)
    # v3 configs fall back to current defaults for the new fields.
    assert restored.config.search == HabitConfig().search
    assert not restored.graph.has_ch  # dropped with the v3 payload
    result = restored.impute(gap.start, gap.end)
    assert restored.graph.has_ch  # rebuilt on demand
    assert result.num_points >= 2 and result.method == "ch"
    # State survived, so incremental refresh still works after a v3 load.
    restored.update(tiny_kiel.test)
    assert restored.revision == 2


def test_saved_format_version_is_5(default_model, tmp_path):
    import repro.core.habit as habit_mod

    path = default_model.save(tmp_path / "m.npz")
    with np.load(path) as data:
        tag = data["format"]
        assert str(tag[0]) == habit_mod.MODEL_FORMAT and str(tag[1]) == "5"
        # Slot 9 still holds the removed landmark count, frozen at 8.
        assert len(data["config"]) == 10 and str(data["config"][9]) == "8"


def test_search_config_round_trips_through_service_schema():
    from repro.service import parse_impute_payload

    _, config = parse_impute_payload(
        {
            "dataset": "KIEL",
            "start": [54.0, 10.0],
            "end": [55.0, 11.0],
            "config": {"search": "astar"},
        }
    )
    assert config.search == "astar"


def test_impute_method_override_and_config_search(tiny_kiel):
    gap = tiny_kiel.gaps(3600.0)[0]
    imputer = HabitImputer(HabitConfig(resolution=9, search="astar")).fit_from_trips(
        tiny_kiel.train
    )
    default = imputer.impute(gap.start, gap.end)
    assert default.method == "astar"
    assert default.expanded > 0
    legacy = imputer.impute(gap.start, gap.end, use_heuristic=False)
    assert legacy.method == "dijkstra"
    override = imputer.impute(gap.start, gap.end, method="ch")
    assert override.method == "ch"
