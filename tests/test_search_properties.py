"""Randomized equal-cost property suite for every search variant.

The contract under test: all members of ``SEARCH_METHODS`` are *provably
equal-cost* -- on any graph whose edge costs respect the grid-span
invariant, every variant must return a path of exactly Dijkstra's cost
(to float tolerance), a path made of the graph's own edges, and the same
unreachable verdict.  This suite hammers that contract with
hundreds of seeded random graphs across adversarial topologies (see
``graphgen.TOPOLOGIES``) so a regression in any variant -- most likely
the contraction-hierarchy build, the newest and most intricate -- fails
loudly and reproducibly.

Each failure message carries the topology, draw seed and endpoints, so
any counterexample replays with a two-line snippet.
"""

import numpy as np
import pytest

from ch_oracle import ScalarCH, ch_middles, ch_unpack
from graphgen import TOPOLOGIES, hop_costs, random_graph
from repro.core import (
    GOAL_DIRECTED_METHODS,
    SEARCH_METHODS,
    CellGraph,
    HabitConfig,
    HabitImputer,
)
from repro.core.habit import _CH_KEYS

#: (topology, number of graph draws) -- 220 graphs in total.
_PLAN = (
    ("uniform", 80),
    ("lane", 80),
    ("multi_component", 40),
    ("single_node", 10),
    ("no_edges", 10),
)
_QUERIES_PER_GRAPH = 6
_BASE_SEED = 977


def _path_cost(costs, result):
    """Recompute a result's cost from :func:`graphgen.hop_costs` (oracle)."""
    total = 0.0
    for a, b in zip(result.cells, result.cells[1:]):
        assert (a, b) in costs, f"path uses non-edge {a}->{b}"
        total += costs[a, b]
    return total


def _check_query(graph, src, dst, context):
    results = {m: graph.find_path(src, dst, m) for m in SEARCH_METHODS}
    oracle = results["dijkstra"]
    if oracle is None:
        for method, result in results.items():
            assert result is None, f"{method} found a path Dijkstra did not ({context})"
        return
    costs = hop_costs(graph)
    for method, result in results.items():
        where = f"{method} ({context})"
        assert result is not None, f"{where}: unreachable verdict disagrees"
        assert result.cost == pytest.approx(oracle.cost, rel=1e-9), where
        assert result.cells[0] == src and result.cells[-1] == dst, where
        assert _path_cost(costs, result) == pytest.approx(result.cost, rel=1e-9), where
        assert result.method == method and result.expanded >= 0, where
    for method in GOAL_DIRECTED_METHODS:
        assert results[method].expanded <= oracle.expanded, (
            f"{method} expanded more than dijkstra ({context})"
        )


def _check_batch(graph, pairs, context):
    """The batch kernel agrees with the oracles on *pairs*.

    The scalar CH oracle's paths node for node at bit-equal costs (same
    hierarchy, same relaxation order, same tie-break) -- for batches and
    for one-pair ``find_path`` calls alike -- Dijkstra-equal costs to
    float tolerance, paths over real edges, and identical unreachable
    verdicts.
    """
    batch = graph.find_paths_batch(pairs)
    costs = hop_costs(graph)
    oracle = ScalarCH(graph)
    assert len(batch) == len(pairs), context
    for (src, dst), result in zip(pairs, batch):
        where = f"batch {src}->{dst} ({context})"
        ch = oracle.find_path(src, dst)
        single = graph.find_path(src, dst, "ch")
        assert (single is None) == (ch is None), where
        if ch is not None:
            assert single.cells == ch[0] and single.cost == ch[1], where
        dijkstra = graph.find_path(src, dst, "dijkstra")
        assert (ch is None) == (dijkstra is None)
        if dijkstra is None:
            assert result is None, f"{where}: unreachable verdict disagrees"
            continue
        assert result is not None, f"{where}: unreachable verdict disagrees"
        assert result.cost == ch[1], f"{where}: not bit-equal to scalar CH"
        assert result.cells == ch[0], f"{where}: not the scalar CH path"
        assert result.cost == pytest.approx(dijkstra.cost, rel=1e-9), where
        assert result.cells[0] == src and result.cells[-1] == dst, where
        assert _path_cost(costs, result) == pytest.approx(result.cost, rel=1e-9), where
        assert result.method == "ch" and result.expanded >= 0, where


@pytest.mark.parametrize(
    "topology,draws", _PLAN, ids=[topology for topology, _ in _PLAN]
)
def test_variants_agree_across_random_topologies(topology, draws):
    for draw in range(draws):
        seed = _BASE_SEED + draw
        rng = np.random.default_rng(seed)
        graph = random_graph(rng, topology)
        nodes = graph.cells
        if len(nodes) == 1:
            pairs = [(int(nodes[0]), int(nodes[0]))]
        else:
            pairs = [
                tuple(int(c) for c in rng.choice(nodes, 2))
                for _ in range(_QUERIES_PER_GRAPH)
            ]
        for src, dst in pairs:
            _check_query(
                graph, src, dst, f"topology={topology} seed={seed} {src}->{dst}"
            )
        _check_batch(graph, pairs, f"topology={topology} seed={seed}")


def test_batch_results_are_permutation_invariant():
    """Shuffling a batch only shuffles the results: each pair's path is
    independent of its batch position and of its co-batched pairs."""
    for topology in ("uniform", "lane", "multi_component"):
        rng = np.random.default_rng(321)
        graph = random_graph(rng, topology)
        nodes = graph.cells
        pairs = [
            tuple(int(c) for c in rng.choice(nodes, 2)) for _ in range(24)
        ]
        baseline = graph.find_paths_batch(pairs)
        order = rng.permutation(len(pairs))
        shuffled = graph.find_paths_batch([pairs[i] for i in order])
        for pos, i in enumerate(order):
            a, b = baseline[i], shuffled[pos]
            where = f"topology={topology} pair={pairs[i]}"
            assert (a is None) == (b is None), where
            if a is None:
                continue
            assert a.cost == b.cost and a.cells == b.cells, where
            assert a.expanded == b.expanded, where


def test_plan_covers_every_topology_with_enough_graphs():
    """The sweep stays honest: >= 200 graphs, no topology left out."""
    assert {topology for topology, _ in _PLAN} == set(TOPOLOGIES)
    assert sum(draws for _, draws in _PLAN) >= 200


def test_trivial_source_equals_destination_on_every_topology():
    for topology in TOPOLOGIES:
        graph = random_graph(np.random.default_rng(5), topology)
        cell = int(graph.cells[0])
        for method in SEARCH_METHODS:
            result = graph.find_path(cell, cell, method)
            assert result.cells == (cell,), (topology, method)
            assert result.cost == 0.0 and result.expanded == 0, (topology, method)
        (batched,) = graph.find_paths_batch([(cell, cell)])
        assert batched.cells == (cell,), topology
        assert batched.cost == 0.0 and batched.expanded == 0, topology


def test_no_edge_graphs_are_unreachable_everywhere():
    graph = random_graph(np.random.default_rng(11), "no_edges")
    src, dst = (int(c) for c in graph.cells[:2])
    for method in SEARCH_METHODS:
        assert graph.find_path(src, dst, method) is None, method
    assert graph.find_paths_batch([(src, dst)]) == [None]


def test_degenerate_pairs_short_circuit_before_any_search_work(monkeypatch):
    """src==dst and provably unreachable pairs must never reach a heap,
    a hierarchy build, or the batch kernel -- in any variant, one pair
    or a batch.  Poisoning every search backend proves it."""
    import repro.core.graph as graph_mod

    graph = random_graph(np.random.default_rng(17), "uniform")
    # A node with no outgoing edges (sink) and one with no incoming
    # edges (source) give provably unreachable pairs in both directions.
    out_deg = np.diff(graph.indptr)
    in_deg = np.bincount(graph.indices, minlength=graph.num_nodes)
    sinks = np.flatnonzero(out_deg == 0)
    sources = np.flatnonzero(in_deg == 0)
    if not len(sinks) or not len(sources):
        pytest.skip("draw produced no sink/source node")
    sink = int(graph.cells[sinks[0]])
    source = int(graph.cells[sources[0]])
    other = int(graph.cells[0])
    cell = int(graph.cells[1])

    def poisoned(*args, **kwargs):
        raise AssertionError("degenerate pair reached search machinery")

    for name in ("_astar_indices", "ensure_ch", "compute_ch"):
        monkeypatch.setattr(graph_mod.CellGraph, name, poisoned)
    for name in ("solve_batch", "_kernel_tables"):
        monkeypatch.setattr(graph_mod, name, poisoned)
    for method in SEARCH_METHODS:
        trivial = graph.find_path(cell, cell, method)
        assert trivial.cost == 0.0 and trivial.expanded == 0, method
        assert graph.find_path(sink, other, method) is None, method
        assert graph.find_path(other, source, method) is None, method
    batched = graph.find_paths_batch([(cell, cell), (sink, other), (other, source)])
    assert batched[0].cost == 0.0 and batched[0].expanded == 0
    assert batched[1] is None and batched[2] is None



@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_every_stored_arc_unpacks_to_its_cost(topology):
    """Every up/down arc of a freshly built hierarchy costs what its
    unpacked original edges sum to, and every middle node ranks below
    both endpoints (the ``set_ch`` invariant unpacking relies on)."""
    for draw in range(12):
        seed = _BASE_SEED + draw
        graph = random_graph(np.random.default_rng(seed), topology)
        graph.compute_ch()
        rank = graph.ch_rank
        middles = ch_middles(graph)
        cheapest = hop_costs(graph)
        # Up row u holds arcs u -> v; down row v holds arcs u -> v.
        for name, row_is_tail in (("up", True), ("down", False)):
            indptr = getattr(graph, f"ch_{name}_indptr")
            rows = np.repeat(np.arange(graph.num_nodes), np.diff(indptr))
            cols = getattr(graph, f"ch_{name}_indices")
            tails, heads = (rows, cols) if row_is_tail else (cols, rows)
            arcs = zip(
                tails.tolist(),
                heads.tolist(),
                getattr(graph, f"ch_{name}_costs").tolist(),
                getattr(graph, f"ch_{name}_middle").tolist(),
            )
            for u, v, cost, m in arcs:
                where = f"topology={topology} seed={seed} {name} arc {u}->{v}"
                assert m == -1 or rank[m] < min(rank[u], rank[v]), where
                path = [u]
                ch_unpack(u, v, middles, path)
                cells = graph.cells[path].tolist()
                total = sum(cheapest[a, b] for a, b in zip(cells, cells[1:]))
                assert cost == pytest.approx(total, rel=1e-12), where
        # The fresh arrays pass the load-path validation unchanged.
        copy = random_graph(np.random.default_rng(seed), topology)
        copy.set_ch(*(getattr(graph, key) for key in _CH_KEYS))


@pytest.mark.parametrize("topology", ["uniform", "lane", "multi_component"])
def test_batch_and_scalar_ch_return_the_same_path_on_ties(topology):
    """Whole-step costs make equal-cost paths common.  The batch kernel
    must still return the scalar CH oracle's *same* path, not just the
    same cost: its tie-break (lowest node id, for parents and for the
    meet) is the contract both keep."""
    for draw in range(20):
        seed = _BASE_SEED + draw
        base = random_graph(np.random.default_rng(seed), topology)
        graph = CellGraph(
            base.cells, base.lats, base.lngs, base.edge_src, base.edge_dst,
            np.ceil(base.edge_cost), base.edge_count,
        )
        rng = np.random.default_rng(seed)
        pairs = [tuple(int(c) for c in rng.choice(graph.cells, 2)) for _ in range(24)]
        oracle = ScalarCH(graph)
        for (src, dst), batched in zip(pairs, graph.find_paths_batch(pairs)):
            scalar = oracle.find_path(src, dst)
            where = f"topology={topology} seed={seed} {src}->{dst}"
            assert (scalar is None) == (batched is None), where
            if scalar is not None:
                assert batched.cells == scalar[0], where
                assert batched.cost == scalar[1], where


@pytest.mark.parametrize("resolution", [9, 10])
def test_kernel_paths_equal_scalar_oracle_on_kiel(tiny_kiel, resolution):
    """On the miniature KIEL graphs, every kernel path -- a batch of
    seeded node pairs and the snapped gap endpoints -- is the scalar CH
    oracle's, node for node, at a bit-equal cost."""
    imputer = HabitImputer(HabitConfig(resolution=resolution)).fit_from_trips(
        tiny_kiel.train
    )
    graph = imputer.graph
    rng = np.random.default_rng(resolution)
    pairs = [tuple(int(c) for c in rng.choice(graph.cells, 2)) for _ in range(48)]
    snapped = (imputer.snap_endpoints(g.start, g.end) for g in tiny_kiel.gaps(3600.0)[:16])
    pairs += [p for p in snapped if p is not None]
    oracle = ScalarCH(graph)
    routed = 0
    for (src, dst), batched in zip(pairs, graph.find_paths_batch(pairs)):
        scalar = oracle.find_path(src, dst)
        assert (scalar is None) == (batched is None), (src, dst)
        if scalar is not None:
            assert batched.cells == scalar[0], (src, dst)
            assert batched.cost == scalar[1], (src, dst)
            routed += 1
    assert routed > len(pairs) // 2
