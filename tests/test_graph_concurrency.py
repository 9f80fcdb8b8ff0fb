"""Serve-ready graphs and thread-safety of the one remaining lazy build.

Fitted, refreshed and loaded models install their contraction hierarchy
together with the batch-kernel tables every CH query reads, so a
published model answers its first query without building anything.
Only a graph made by hand builds its hierarchy on first use, through
``ensure_ch``: many threads hitting such a cold graph at once must
trigger exactly one build, and every thread must get the oracle's path.
"""

import sys
import threading

import numpy as np
import pytest

import repro.core.graph as graph_mod
from ch_oracle import ScalarCH
from graphgen import uniform_graph
from repro.ais import schema
from repro.core import SEARCH_METHODS, HabitConfig, HabitImputer

_THREADS = 12


def _hammer(target, threads=_THREADS):
    """Release *threads* workers through a barrier at ``target(index)``,
    with a short switch interval so they interleave; re-raise the first
    error."""
    barrier = threading.Barrier(threads)
    errors = []

    def run(index):
        try:
            barrier.wait(timeout=30.0)
            target(index)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    workers = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers), "worker deadlocked"
    if errors:
        raise errors[0]


def test_concurrent_ensure_ch_builds_once():
    graph = uniform_graph(np.random.default_rng(21))
    builds = []
    original = graph.compute_ch

    def counting_compute():
        builds.append(threading.get_ident())
        return original()

    graph.compute_ch = counting_compute
    _hammer(lambda _: graph.ensure_ch())
    assert graph.has_ch and graph.kernel_tables is not None
    assert len(builds) == 1, "double-checked locking let a second build through"
    # Every thread sees one consistent hierarchy: ranks are a permutation.
    assert sorted(graph.ch_rank.tolist()) == list(range(graph.num_nodes))


def test_mixed_builds_and_queries_share_the_lock_without_deadlock():
    """Concurrent first queries on a fresh hand-made graph -- CH lanes
    racing to build the hierarchy while A* and Dijkstra lanes build
    their adjacency mirror -- return the oracles' answers: the scalar
    CH oracle's path node for node, and Dijkstra's cost."""
    graph = uniform_graph(np.random.default_rng(23))
    rng = np.random.default_rng(230)
    pairs = [tuple(int(c) for c in rng.choice(graph.cells, 2)) for _ in range(_THREADS)]
    reference = uniform_graph(np.random.default_rng(23))
    dijkstra = {p: reference.find_path(p[0], p[1], "dijkstra") for p in pairs}
    scalar = ScalarCH(reference)
    assert not graph.has_ch
    results = [None] * _THREADS

    def work(index):
        src, dst = pairs[index]
        method = SEARCH_METHODS[index % len(SEARCH_METHODS)]
        results[index] = graph.find_path(src, dst, method)

    _hammer(work)
    assert graph.has_ch
    for index, result in enumerate(results):
        pair = pairs[index]
        method = SEARCH_METHODS[index % len(SEARCH_METHODS)]
        expect = dijkstra[pair]
        assert (result is None) == (expect is None), (method, pair)
        if result is None:
            continue
        assert result.cost == pytest.approx(expect.cost, rel=1e-9), (method, pair)
        if method == "ch":
            assert (result.cells, result.cost) == scalar.find_path(*pair), pair


def test_ensure_calls_are_idempotent_after_build():
    graph = uniform_graph(np.random.default_rng(24))
    graph.ensure_ch()
    rank = graph.ch_rank
    up_costs = graph.ch_up_costs
    tables = graph.kernel_tables
    graph.ensure_ch()  # second call must be a no-op, not a rebuild
    assert graph.ch_rank is rank and graph.ch_up_costs is up_costs
    assert graph.kernel_tables is tables


def test_fitted_loaded_and_refreshed_models_hold_kernel_tables(
    tiny_kiel, tmp_path, monkeypatch
):
    """Fit, load and refresh each publish a graph that already holds its
    kernel tables: with the table build poisoned afterwards, every model
    still answers CH queries, one pair or a batch."""
    trips = tiny_kiel.train
    odd = np.asarray(trips.column(schema.TRIP_ID)) % 2 == 1
    fitted = HabitImputer(HabitConfig(resolution=9)).fit_from_trips(trips.filter(~odd))
    loaded = HabitImputer.load(fitted.save(tmp_path / "m.npz"))
    refreshed = fitted.fork().update(trips.filter(odd))
    assert refreshed.graph is not fitted.graph

    def poisoned(*args, **kwargs):
        raise AssertionError("kernel tables built on the query path")

    monkeypatch.setattr(graph_mod, "_kernel_tables", poisoned)
    gaps = tiny_kiel.gaps(3600.0)[:8]
    for model in (fitted, loaded, refreshed):
        graph = model.graph
        assert graph.has_ch and graph.kernel_tables is not None
        snapped = [model.snap_endpoints(g.start, g.end) for g in gaps]
        snapped = [p for p in snapped if p is not None]
        batch = graph.find_paths_batch(snapped)
        assert any(r is not None for r in batch)
        for pair, result in zip(snapped, batch):
            single = graph.find_path(*pair)
            assert (single is None) == (result is None)
            if single is not None:
                assert single.cells == result.cells and single.cost == result.cost
