"""Ablation: endpoint-snapping ring limit.

Snapping expands hex rings around the endpoint cell until a graph node is
found; small limits fall back to the vectorised full scan sooner.
"""

import pytest

from repro.hexgrid import latlng_to_cell


@pytest.mark.benchmark(group="ablation-snap")
@pytest.mark.parametrize("max_ring", [2, 6, 12, 24])
def test_snap_ring_limit(benchmark, habit_r9, max_ring):
    graph = habit_r9.graph
    # An off-lane point a few km from the corridor.
    cell = latlng_to_cell(56.2, 11.8, habit_r9.config.resolution)
    node = benchmark(graph.nearest_node, cell, max_ring)
    assert node is not None


@pytest.mark.benchmark(group="ablation-snap")
def test_snap_hit_is_instant(benchmark, habit_r9):
    graph = habit_r9.graph
    node = int(graph.cells[0])
    assert benchmark(graph.nearest_node, node) == node
