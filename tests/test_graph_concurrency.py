"""Thread-safety of the lazy auxiliary builds (CH and hot-loop mirrors).

``ensure_ch`` is called from serving threads on first use, so it must be
idempotent and race-free: many threads hitting a cold graph at once must
trigger exactly one build, every thread must observe the same finished
tables, and mixing the build with queries (whose lazy mirrors share the
one reentrant lock) must not deadlock.
"""

import threading

import numpy as np
import pytest

from graphgen import uniform_graph
from repro.core import SEARCH_METHODS

_THREADS = 12


def _hammer(target, threads=_THREADS):
    """Release *threads* workers through a barrier at ``target``; re-raise."""
    barrier = threading.Barrier(threads)
    errors = []

    def run():
        try:
            barrier.wait(timeout=30.0)
            target()
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    workers = [threading.Thread(target=run) for _ in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=60.0)
    assert not any(w.is_alive() for w in workers), "worker deadlocked"
    if errors:
        raise errors[0]


def test_concurrent_ensure_ch_builds_once():
    graph = uniform_graph(np.random.default_rng(21))
    builds = []
    original = graph._compute_ch_locked

    def counting_compute():
        builds.append(threading.get_ident())
        original()

    graph._compute_ch_locked = counting_compute
    _hammer(graph.ensure_ch)
    assert graph.has_ch
    assert len(builds) == 1, "double-checked locking let a second build through"
    # Every thread sees one consistent hierarchy: ranks are a permutation.
    assert sorted(graph.ch_rank.tolist()) == list(range(graph.num_nodes))


def test_mixed_builds_and_queries_share_the_lock_without_deadlock():
    rng = np.random.default_rng(23)
    graph = uniform_graph(rng)
    nodes = graph.cells
    pairs = [tuple(int(c) for c in rng.choice(nodes, 2)) for _ in range(_THREADS)]
    oracle = {p: graph.find_path(p[0], p[1], "dijkstra") for p in pairs}
    mismatches = []

    def worker_for(index):
        src, dst = pairs[index]
        method = SEARCH_METHODS[index % len(SEARCH_METHODS)]

        def work():
            graph.ensure_ch()
            result = graph.find_path(src, dst, method)
            expect = oracle[(src, dst)]
            if (result is None) != (expect is None):
                mismatches.append((method, src, dst, "reachability"))
            elif result is not None and result.cost != pytest.approx(
                expect.cost, rel=1e-9
            ):
                mismatches.append((method, src, dst, result.cost, expect.cost))

        return work

    barrier = threading.Barrier(_THREADS)
    errors = []

    def run(index):
        try:
            barrier.wait(timeout=30.0)
            worker_for(index)()
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    workers = [threading.Thread(target=run, args=(i,)) for i in range(_THREADS)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=60.0)
    assert not any(w.is_alive() for w in workers), "worker deadlocked"
    assert not errors, errors
    assert not mismatches, mismatches
    assert graph.has_ch


def test_ensure_calls_are_idempotent_after_build():
    graph = uniform_graph(np.random.default_rng(24))
    graph.ensure_ch()
    rank = graph.ch_rank
    up_costs = graph.ch_up_costs
    graph.ensure_ch()  # second call must be a no-op, not a rebuild
    assert graph.ch_rank is rank and graph.ch_up_costs is up_costs
