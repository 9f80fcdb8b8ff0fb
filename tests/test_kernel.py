"""Unit tests for the vectorised batch CH kernel (`repro.core.kernel`).

The equal-cost property suite (`test_search_properties.py`) hammers the
end-to-end batch/scalar agreement across 220 seeded graphs; this module
covers the kernel-specific machinery underneath it -- range expansion,
chunking, the precomputed shortcut-expansion table, and the obs
instrumentation.
"""

import numpy as np

from graphgen import hop_costs, random_graph
from repro.core import kernel
from repro.core.kernel import KERNEL_BATCH_SIZE, KERNEL_SECONDS, _expand_ranges


def _seeded_graph(seed=101, topology="uniform"):
    return random_graph(np.random.default_rng(seed), topology)


def _query_pairs(graph, rng, count):
    nodes = graph.cells
    return [tuple(int(c) for c in rng.choice(nodes, 2)) for _ in range(count)]


def test_expand_ranges_gathers_csr_slices():
    starts = np.array([4, 0, 9], dtype=np.int64)
    counts = np.array([2, 0, 3], dtype=np.int64)
    assert _expand_ranges(starts, counts).tolist() == [4, 5, 9, 10, 11]
    assert _expand_ranges(np.empty(0, np.int64), np.empty(0, np.int64)).size == 0


def test_empty_batch_returns_empty_list():
    graph = _seeded_graph()
    assert graph.find_paths_batch([]) == []


def test_chunked_sweeps_match_one_chunk(monkeypatch):
    """Tiny BATCH_CHUNK_CELLS forces many kernel chunks; results must be
    identical to the single-chunk run (chunking is purely a memory cap)."""
    graph = _seeded_graph(7)
    rng = np.random.default_rng(3)
    pairs = _query_pairs(graph, rng, 40)
    baseline = graph.find_paths_batch(pairs)
    # Small enough that every chunk holds exactly one query lane.
    monkeypatch.setattr(kernel, "BATCH_CHUNK_CELLS", 1)
    chunked = graph.find_paths_batch(pairs)
    for a, b in zip(baseline, chunked):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.cost == b.cost and a.cells == b.cells
            assert a.expanded == b.expanded


def test_batch_paths_use_only_original_edges():
    """Shortcut unpacking must restore original-graph adjacency: every
    consecutive cell pair in a batch path is a real edge."""
    graph = _seeded_graph(23, "lane")
    rng = np.random.default_rng(5)
    pairs = _query_pairs(graph, rng, 30)
    edges = hop_costs(graph)
    for (src, dst), result in zip(pairs, graph.find_paths_batch(pairs)):
        if result is None:
            continue
        assert result.cells[0] == src and result.cells[-1] == dst
        for hop in zip(result.cells, result.cells[1:]):
            assert hop in edges, hop


def test_kernel_metrics_observe_batches():
    graph = _seeded_graph(11)
    rng = np.random.default_rng(1)
    pairs = _query_pairs(graph, rng, 12)
    calls_before = KERNEL_BATCH_SIZE.count()
    seconds_before = KERNEL_SECONDS.count()
    graph.find_paths_batch(pairs)
    assert KERNEL_BATCH_SIZE.count() == calls_before + 1
    assert KERNEL_SECONDS.count() == seconds_before + 1
    assert KERNEL_BATCH_SIZE.sum() >= len(pairs)
