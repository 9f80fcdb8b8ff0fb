"""Ablation: A* heuristic on vs off (Dijkstra).

The hex-grid-distance heuristic is exactly admissible (every edge costs at
least its grid span), so both variants return equally-cheap paths; the
heuristic just expands fewer nodes -- recorded in ``extra_info`` (the
same counter rides into serving provenance as ``expanded``).
docs/ARCHITECTURE.md lists this as a design choice worth ablating.
"""

import pytest


@pytest.fixture(scope="module")
def endpoints(habit_r9, kiel_gaps):
    gap = kiel_gaps[0]
    graph = habit_r9.graph
    from repro.hexgrid import latlng_to_cell

    res = habit_r9.config.resolution
    src = graph.nearest_node(latlng_to_cell(gap.start[0], gap.start[1], res))
    dst = graph.nearest_node(latlng_to_cell(gap.end[0], gap.end[1], res))
    return graph, src, dst


@pytest.mark.benchmark(group="ablation-astar")
def test_astar_with_heuristic(benchmark, endpoints):
    graph, src, dst = endpoints
    result = benchmark(graph.find_path, src, dst, "astar")
    assert result is not None
    benchmark.extra_info["path_cells"] = len(result.cells)
    benchmark.extra_info["expanded"] = result.expanded


@pytest.mark.benchmark(group="ablation-astar")
def test_dijkstra_no_heuristic(benchmark, endpoints):
    graph, src, dst = endpoints
    result = benchmark(graph.find_path, src, dst, "dijkstra")
    assert result is not None
    benchmark.extra_info["path_cells"] = len(result.cells)
    benchmark.extra_info["expanded"] = result.expanded


def test_same_cost_both_ways(endpoints):
    """Correctness side of the ablation: identical path cost, fewer
    expansions with the heuristic."""
    graph, src, dst = endpoints
    with_h = graph.find_path(src, dst, "astar")
    without = graph.find_path(src, dst, "dijkstra")
    assert with_h.cost == pytest.approx(without.cost)
    assert with_h.expanded <= without.expanded
