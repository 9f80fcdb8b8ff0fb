"""Search-variant benchmark: the CSR query engine on KIEL r9/r10.

Times ``CellGraph.find_path`` for every search variant -- Dijkstra (the
cost oracle), A* (grid heuristic, the paper's query) and CH (contraction
hierarchy, the serving default) -- over the same snapped gap endpoints,
and records
mean expanded-node counts in ``extra_info`` so heuristic quality is
visible next to wall-clock numbers.  ``test_variants_agree_on_cost`` is
the correctness gate CI runs even with timing disabled: all variants
must return equal-cost paths (and agree on unreachable pairs).

The ``batch-kernel`` group times ``CellGraph.find_paths_batch`` -- the
vectorised NumPy sweep (:mod:`repro.core.kernel`) that answers every CH
query -- at batch sizes 1/8/64/256 on the r10 graph (``per_query_us`` in
``extra_info`` is the apples-to-apples number against the one-pair
``r10-ch`` row), plus the two preprocessing builds every refresh runs:
``compute_ch`` and the kernel tables built from its arrays.
``test_batch64_per_query_beats_single_lane_calls`` is the regression
gate: a 64-lane call must cost at most half a 1-lane call per query, so
batch amortisation is a CI-checked artefact, not prose.

Results land in ``BENCH_search.json`` via the conftest emitter.
"""

import random
import time

import pytest

from repro.core.graph import SEARCH_METHODS, CellGraph, _kernel_tables
from repro.hexgrid import latlng_to_cell


def _snapped_pairs(imputer, gaps):
    graph = imputer.graph
    resolution = imputer.config.resolution
    pairs = []
    for gap in gaps:
        src = graph.nearest_node(latlng_to_cell(gap.start[0], gap.start[1], resolution))
        dst = graph.nearest_node(latlng_to_cell(gap.end[0], gap.end[1], resolution))
        pairs.append((src, dst))
    return pairs


@pytest.fixture(scope="module", params=[9, 10], ids=["r9", "r10"])
def search_case(request, habit_r9, habit_r10, kiel_gaps):
    imputer = habit_r9 if request.param == 9 else habit_r10
    return imputer.graph, _snapped_pairs(imputer, kiel_gaps)


@pytest.mark.benchmark(group="search-variants")
@pytest.mark.parametrize("method", SEARCH_METHODS)
def test_search_variant_latency(benchmark, search_case, method):
    graph, pairs = search_case
    state = {"i": 0}

    def one_query():
        src, dst = pairs[state["i"] % len(pairs)]
        state["i"] += 1
        return graph.find_path(src, dst, method)

    result = benchmark(one_query)
    assert result is not None
    expanded = [graph.find_path(src, dst, method).expanded for src, dst in pairs]
    benchmark.extra_info["mean_expanded"] = sum(expanded) / len(expanded)
    benchmark.extra_info["num_nodes"] = graph.num_nodes
    benchmark.extra_info["num_edges"] = graph.num_edges


@pytest.fixture(scope="module")
def batch_case(habit_r10):
    """The r10 graph plus 256 seeded node pairs (hub-heavy, like serving)."""
    graph = habit_r10.graph
    rng = random.Random(1234)
    cells = graph.cells.tolist()
    pairs = [(rng.choice(cells), rng.choice(cells)) for _ in range(256)]
    graph.find_paths_batch(pairs[:8])  # warm
    return graph, pairs


@pytest.mark.benchmark(group="batch-kernel")
@pytest.mark.parametrize("batch_size", [1, 8, 64, 256])
def test_batch_kernel_per_query_latency(benchmark, batch_case, batch_size):
    graph, pairs = batch_case
    state = {"i": 0}

    def one_batch():
        lo = state["i"] % (len(pairs) - batch_size + 1)
        state["i"] += batch_size
        return graph.find_paths_batch(pairs[lo : lo + batch_size])

    results = benchmark(one_batch)
    assert len(results) == batch_size
    benchmark.extra_info["batch_size"] = batch_size
    benchmark.extra_info["num_nodes"] = graph.num_nodes
    if benchmark.stats is not None:  # absent under --benchmark-disable
        stats = getattr(benchmark.stats, "stats", benchmark.stats)
        benchmark.extra_info["per_query_us"] = stats.mean * 1e6 / batch_size


@pytest.mark.benchmark(group="batch-kernel")
def test_compute_ch_build_latency(benchmark, habit_r10):
    """CH preprocessing at r10: the customizable-CH build under
    ``compute_ch`` (nested-dissection order, chordal completion, basic
    and perfect customisation).  ``compute_ch`` then builds the kernel
    tables, timed on their own below."""
    g = habit_r10.graph
    fresh = CellGraph(
        g.cells, g.lats, g.lngs, g.edge_src, g.edge_dst, g.edge_cost, g.edge_count
    )
    _, up, down, _ = benchmark(fresh._hierarchy)
    benchmark.extra_info["num_nodes"] = fresh.num_nodes
    benchmark.extra_info["up_edges"] = len(up[1])
    benchmark.extra_info["down_edges"] = len(down[1])


@pytest.mark.benchmark(group="batch-kernel")
def test_kernel_tables_build_latency(benchmark, habit_r10):
    """Kernel-table build at r10 as every fit and refresh runs it: the
    sorted arc table, the combined sweep CSRs and every shortcut's
    expansion, built from the ``compute_ch`` arrays with the shortcut
    halves the customisation found (a load looks them up by key)."""
    g = habit_r10.graph
    _, up, down, halves = g._hierarchy()
    tables = benchmark(_kernel_tables, g, up, down, halves)
    benchmark.extra_info["num_nodes"] = g.num_nodes
    benchmark.extra_info["expansion_nodes"] = len(tables.exp_nodes)


def test_batch64_per_query_beats_single_lane_calls(batch_case):
    """Regression gate: a 64-lane call costs at most half a 1-lane call
    per query on identical pairs -- what sending real batches buys.
    Min-of-samples with retries, like the metrics-overhead gate, so one
    scheduler hiccup cannot flunk it."""
    graph, pairs = batch_case
    subset = pairs[:64]

    def best(samples, calls):
        times = []
        for _ in range(samples):
            started = time.perf_counter()
            for call in calls:
                graph.find_paths_batch(call)
            times.append((time.perf_counter() - started) / len(subset))
        return min(times)

    ratio = None
    for _ in range(3):
        single_us = best(5, [[pair] for pair in subset]) * 1e6
        batch_us = best(5, [subset]) * 1e6
        ratio = batch_us / single_us
        if ratio <= 0.5:
            break
    print(
        f"\nbatch-64 {batch_us:.1f}us/query vs 1-lane calls {single_us:.1f}us/query "
        f"({ratio:.2f}x)"
    )
    assert ratio <= 0.5, (
        f"batch-64 lost its amortisation: {batch_us:.1f}us vs "
        f"{single_us:.1f}us per query in 1-lane calls"
    )


def test_variants_agree_on_cost(search_case):
    """Every variant returns an equal-cost path for every gap pair."""
    graph, pairs = search_case
    for src, dst in pairs:
        results = {m: graph.find_path(src, dst, m) for m in SEARCH_METHODS}
        reachable = {m: r is not None for m, r in results.items()}
        assert len(set(reachable.values())) == 1, reachable
        if results["dijkstra"] is None:
            continue
        oracle = results["dijkstra"].cost
        for method, result in results.items():
            assert result.cost == pytest.approx(oracle, rel=1e-9), (
                f"{method} returned cost {result.cost}, dijkstra {oracle} "
                f"for pair {(src, dst)}"
            )
