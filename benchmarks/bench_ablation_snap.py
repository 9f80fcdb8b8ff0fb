"""Ablation: endpoint-snapping ring limit.

Snapping expands hex rings around the endpoint cell until a graph node is
found; small limits fall back to the vectorised full scan sooner.  Every
row checks its answer: a node at the full scan's minimum grid distance.
"""

import numpy as np
import pytest

from repro.hexgrid import grid_distance, grid_distance_array, latlng_to_cell


@pytest.mark.benchmark(group="ablation-snap")
@pytest.mark.parametrize("max_ring", [2, 6, 12, 24])
def test_snap_ring_limit(benchmark, habit_r9, max_ring):
    graph = habit_r9.graph
    # An off-lane point a few km from the corridor.
    cell = latlng_to_cell(56.2, 11.8, habit_r9.config.resolution)
    node = benchmark(graph.nearest_node, cell, max_ring)
    nearest = int(grid_distance_array(graph.cells, np.int64(cell)).min())
    assert graph.node_index(node) >= 0
    assert grid_distance(cell, node) == nearest


@pytest.mark.benchmark(group="ablation-snap")
def test_snap_hit_is_instant(benchmark, habit_r9):
    graph = habit_r9.graph
    node = int(graph.cells[0])
    assert benchmark(graph.nearest_node, node) == node
