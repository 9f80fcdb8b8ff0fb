"""CSR search engine: variant equivalence, hierarchy validation, snaps."""

import numpy as np
import pytest

from graphgen import hop_costs
from graphgen import uniform_graph as _random_graph
from repro.core import (
    GOAL_DIRECTED_METHODS,
    SEARCH_METHODS,
    CellGraph,
    HabitConfig,
    HabitImputer,
)
from repro.core.habit import _CH_KEYS
from repro.hexgrid import (
    cell_axial_array,
    cell_to_latlng_array,
    grid_distance_array,
    latlng_to_cell_array,
)


def _path_cost(graph, result):
    """Recompute a result's cost from the flat edge arrays (oracle check)."""
    costs = hop_costs(graph)
    return sum(costs[hop] for hop in zip(result.cells, result.cells[1:]))


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
    # A cell that is no node: searches return None.
    missing = int(graph.cells.max()) + 12345
    assert graph.find_path(cell, missing, "ch") is None


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
    # The heuristic's per-node axial coordinates match the packed ids.
    q, r = cell_axial_array(graph.cells)
    assert np.array_equal(graph.node_q, q.astype(np.int32))
    assert np.array_equal(graph.node_r, r.astype(np.int32))


def test_snap_memoization_and_scalar_fallback(tiny_kiel):
    imputer = HabitImputer(HabitConfig(resolution=9)).fit_from_trips(tiny_kiel.train)
    graph = imputer.graph
    # A cell far outside every ring: exercises the full-scan fallback.
    far = latlng_to_cell_array(np.array([57.5]), np.array([13.5]), 9)[0]
    first = graph.nearest_node(far, max_ring=2)
    assert first is not None
    assert graph.nearest_node(far, max_ring=2) == first
    # The fallback must agree with a brute-force scan.
    brute = int(
        graph.cells[int(np.argmin(grid_distance_array(graph.cells, np.int64(far))))]
    )
    assert first == brute


def test_saved_format_version_is_11(tiny_kiel, tmp_path):
    import repro.core.habit as habit_mod

    model = HabitImputer(HabitConfig(resolution=9)).fit_from_trips(tiny_kiel.train)
    with np.load(model.save(tmp_path / "m.npz")) as data:
        tag = data["format"]
        assert str(tag[0]) == habit_mod.MODEL_FORMAT and str(tag[1]) == "11"
        # Two config slots: resolution and projection.
        assert len(data["config"]) == 2


def _corrupt_ch(graph, defect):
    """Copy of *graph*'s ``set_ch`` positional arrays with one *defect*
    planted."""
    (rank, up_ptr, up_idx, up_cost, up_mid, down_ptr, down_idx, down_cost,
     down_mid) = (np.array(getattr(graph, key), copy=True) for key in _CH_KEYS)
    n = len(rank)
    up_rows = np.repeat(np.arange(n), np.diff(up_ptr))
    if defect == "rank":
        rank[0] = rank[1]
    elif defect == "index":
        up_idx[0] = len(rank)
    elif defect == "indptr":
        up_ptr[0] = -1
    elif defect == "direction":
        up_idx[0] = up_rows[0]
    elif defect == "middle":
        up_mid[:] = up_rows  # each arc's middle is its own tail
    elif defect == "missing_half":
        # Give an original up arc u -> v a middle m ranked below both
        # whose halves u -> m and m -> v are not both stored arcs.
        down_rows = np.repeat(np.arange(n), np.diff(down_ptr))
        arcs = set((up_rows * n + up_idx).tolist()) | set((down_idx * n + down_rows).tolist())
        e, m = next(
            (e, m)
            for e in np.flatnonzero(up_mid < 0).tolist()
            for m in np.argsort(rank).tolist()
            if rank[m] < rank[up_rows[e]]
            and not {up_rows[e] * n + m, m * n + up_idx[e]} <= arcs
        )
        up_mid[e] = m
    elif defect == "not_an_edge":
        # Mark a shortcut that is no original edge as original.
        edges = set(zip(graph.edge_src.tolist(), graph.edge_dst.tolist()))
        cells = graph.cells
        e = next(
            e for e in np.flatnonzero(up_mid >= 0).tolist()
            if (int(cells[up_rows[e]]), int(cells[up_idx[e]])) not in edges
        )
        up_mid[e] = -1
    elif defect in _BAD_COSTS:
        down_cost[-1] = _BAD_COSTS[defect]
    return (rank, up_ptr, up_idx, up_cost, up_mid, down_ptr, down_idx,
            down_cost, down_mid)


#: Cost defects a torn model file can carry: none is a search length.
_BAD_COSTS = {"nan": np.nan, "negative": -1.0, "inf": np.inf}


#: Hierarchies whose arcs do not unpack to edges of the graph.
_UNPACK_DEFECTS = ("missing_half", "not_an_edge")


@pytest.mark.parametrize(
    "defect",
    ["rank", "index", "indptr", "direction", "middle", *_BAD_COSTS, *_UNPACK_DEFECTS],
)
def test_set_ch_rejects_hierarchies_queries_cannot_walk(defect):
    """``set_ch`` accepts only hierarchies whose queries and shortcut
    unpacking terminate on edges of the graph: a permutation rank,
    in-range indices, arcs that climb in rank, middle nodes ranked below
    both endpoints, both halves of every shortcut stored, and every arc
    marked original an edge."""
    built = _random_graph(np.random.default_rng(29))
    built.compute_ch()
    arrays = [getattr(built, key) for key in _CH_KEYS]
    fresh = _random_graph(np.random.default_rng(29))
    with pytest.raises(ValueError, match="ch_"):
        fresh.set_ch(*_corrupt_ch(built, defect))
    assert not fresh.has_ch
    fresh.set_ch(*arrays)
    assert fresh.has_ch


@pytest.mark.parametrize("defect", _UNPACK_DEFECTS)
def test_load_rejects_corrupt_hierarchy_unpacking(tiny_kiel, tmp_path, defect):
    """A model file whose hierarchy unpacks to non-edges -- a shortcut
    half missing, or an arc marked original that is no edge -- fails to
    load as a ``ModelFormatError``, so the registry refuses it instead
    of serving paths that hop between unconnected cells."""
    from repro.core import ModelFormatError

    model = HabitImputer(HabitConfig(resolution=9)).fit_from_trips(tiny_kiel.train)
    with np.load(model.save(tmp_path / "m.npz")) as data:
        payload = {name: data[name] for name in data.files}
    payload.update(zip(_CH_KEYS, _corrupt_ch(model.graph, defect)))
    np.savez(tmp_path / "torn.npz", **payload)
    with pytest.raises(ModelFormatError, match="ch_middle"):
        HabitImputer.load(tmp_path / "torn.npz")


@pytest.mark.parametrize("defect", sorted(_BAD_COSTS))
@pytest.mark.parametrize("key", ["ch_down_costs", "edge_cost"])
def test_load_rejects_corrupt_costs(tiny_kiel, tmp_path, key, defect):
    """A model file whose edge or hierarchy costs are not finite and
    positive fails to load as a ``ModelFormatError`` -- the error the
    registry answers with a refit -- instead of serving garbage paths."""
    from repro.core import ModelFormatError

    model = HabitImputer(HabitConfig(resolution=9)).fit_from_trips(tiny_kiel.train)
    with np.load(model.save(tmp_path / "m.npz")) as data:
        payload = {name: data[name] for name in data.files}
    payload[key] = payload[key].copy()
    payload[key][-1] = _BAD_COSTS[defect]
    np.savez(tmp_path / "torn.npz", **payload)
    with pytest.raises(ModelFormatError, match=key):
        HabitImputer.load(tmp_path / "torn.npz")

def test_search_config_round_trips_through_service_schema():
    """``search`` is no config field: the variant is a
    ``CellGraph.find_path`` argument, so the service schema rejects it
    like any unknown key."""
    from repro.service import SchemaError, parse_impute_payload

    with pytest.raises(SchemaError, match="unknown config fields: search"):
        parse_impute_payload(
            {
                "dataset": "KIEL",
                "start": [54.0, 10.0],
                "end": [55.0, 11.0],
                "config": {"search": "astar"},
            }
        )


def test_impute_method_override_and_config_search(tiny_kiel):
    gap = tiny_kiel.gaps(3600.0)[0]
    imputer = HabitImputer(HabitConfig(resolution=9)).fit_from_trips(tiny_kiel.train)
    default = imputer.impute(gap.start, gap.end)
    assert default.method == "ch"
    searched = imputer.graph.find_path(*imputer.snap_endpoints(gap.start, gap.end), "astar")
    (override,) = imputer.render_paths([gap.start], [gap.end], [searched])
    assert override.method == "astar"
    assert override.expanded > 0
    assert override.cells[0] == default.cells[0]
    assert override.cells[-1] == default.cells[-1]
