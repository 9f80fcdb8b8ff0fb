"""Concurrency suite for the cross-request combining dispatcher.

Two layers: :class:`repro.service.dispatch.BatchDispatcher` is driven
directly with stub imputers whose ``route_batch`` blocks on an event,
so every interleaving is hand-controlled (a lone submission runs at
once, submissions queued behind a running flush fuse into exactly one
next flush, a finished submitter never waits for a later flush, an
error poisons only its own flush, every request answered exactly
once), and the engine integration is barrier-hammered through real
concurrent ``run`` calls (results always correct and tiers always a
coherent story, whichever way the races land).
"""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service import BatchImputationEngine, GapRequest, ModelRegistry
from repro.service.dispatch import BatchDispatcher

# -- dispatcher unit layer (stub imputers, controlled interleavings) -----


class StubImputer:
    """route_batch stand-in: answers each (src, dst) pair with a tag and
    records every call.  The first *held* calls signal ``started[k]`` and
    block until ``release[k]`` is set; call number *fail* raises."""

    def __init__(self, held=0, fail=None):
        self.calls = []
        self.started = [threading.Event() for _ in range(held)]
        self.release = [threading.Event() for _ in range(held)]
        self.fail = fail
        self.lock = threading.Lock()

    def route_batch(self, pairs):
        with self.lock:
            call = len(self.calls)
            self.calls.append(list(pairs))
        if call < len(self.started):
            self.started[call].set()
            assert self.release[call].wait(timeout=30)
        if call == self.fail:
            raise RuntimeError("search exploded")
        return [("route", src, dst) for src, dst in pairs]


def _submit_in_thread(dispatcher, entries):
    """Run submit on a worker thread; returns (thread, box) where box
    collects the result or the raised error."""
    box = {}

    def work():
        try:
            box["results"] = dispatcher.submit(entries)
        except BaseException as exc:  # noqa: BLE001 - recorded for asserts
            box["error"] = exc

    thread = threading.Thread(target=work, daemon=True)
    thread.start()
    return thread, box


def _wait_queued(dispatcher, n):
    """Block until *n* submissions are queued behind the running flush."""
    deadline = time.monotonic() + 30
    while len(dispatcher._pending) != n:
        assert time.monotonic() < deadline, "submissions never queued"
        time.sleep(0.001)


def _joined(*threads):
    for thread in threads:
        thread.join(timeout=30)
    return not any(thread.is_alive() for thread in threads)


def test_lone_submission_executes_immediately():
    """No flush is running, so a lone submission leads its own flush at
    once: one route_batch call, answered as the lane's own search."""
    dispatcher = BatchDispatcher()
    stub = StubImputer()
    results = dispatcher.submit([("k1", stub, (1, 2), 1)])
    assert set(results) == {"k1"}
    result, cross, share = results["k1"]
    assert result == ("route", 1, 2) and cross is False and share >= 0.0
    assert stub.calls == [[(1, 2)]]
    assert dispatcher.submit([]) == {}


def test_two_runs_fuse_into_one_kernel_call_with_cross_tier():
    """Submissions that arrive while a flush runs queue behind it and
    fuse into exactly one next flush: one route_batch call answers all
    of them, the identical key once, its second submitter flagged
    cross."""
    dispatcher = BatchDispatcher()
    stub = StubImputer(held=1)
    thread_a, box_a = _submit_in_thread(dispatcher, [("a", stub, (0, 1), 1)])
    assert stub.started[0].wait(timeout=30)
    thread_b, box_b = _submit_in_thread(dispatcher, [("key", stub, (1, 2), 1)])
    _wait_queued(dispatcher, 1)
    thread_c, box_c = _submit_in_thread(
        dispatcher, [("key", stub, (1, 2), 2), ("c", stub, (5, 6), 1)]
    )
    _wait_queued(dispatcher, 2)
    stub.release[0].set()
    assert _joined(thread_a, thread_b, thread_c)
    assert stub.calls == [[(0, 1)], [(1, 2), (5, 6)]]  # one fused flush
    assert box_a["results"]["a"][0] == ("route", 0, 1)
    result_b, cross_b, share_b = box_b["results"]["key"]
    result_c, cross_c, share_c = box_c["results"]["key"]
    assert result_b == result_c == ("route", 1, 2)
    assert (cross_b, cross_c) == (False, True)
    assert share_b == share_c > 0.0
    assert box_c["results"]["c"] == (("route", 5, 6), False, share_c)


def test_finished_submitter_returns_without_waiting_for_a_later_flush():
    """B and C fuse into flush 2 while D queues behind it; once flush 2
    ends, both B and C return although D's flush 3 is still running."""
    dispatcher = BatchDispatcher()
    stub = StubImputer(held=3)
    thread_a, _ = _submit_in_thread(dispatcher, [("a", stub, (0, 1), 1)])
    assert stub.started[0].wait(timeout=30)
    thread_b, box_b = _submit_in_thread(dispatcher, [("b", stub, (1, 2), 1)])
    thread_c, box_c = _submit_in_thread(dispatcher, [("c", stub, (2, 3), 1)])
    _wait_queued(dispatcher, 2)
    stub.release[0].set()
    assert stub.started[1].wait(timeout=30)
    thread_d, box_d = _submit_in_thread(dispatcher, [("d", stub, (3, 4), 1)])
    _wait_queued(dispatcher, 1)
    stub.release[1].set()
    assert stub.started[2].wait(timeout=30)
    assert _joined(thread_a, thread_b, thread_c)
    assert "results" not in box_d  # flush 3 is still running
    assert box_b["results"]["b"][0] == ("route", 1, 2)
    assert box_c["results"]["c"][0] == ("route", 2, 3)
    stub.release[2].set()
    assert _joined(thread_d)
    assert box_d["results"]["d"][0] == ("route", 3, 4)
    assert len(stub.calls) == 3


def test_search_error_poisons_the_whole_flush():
    """A raising route_batch fails exactly the submitters of its flush:
    the flush before it answers normally, ``busy`` is cleared, and the
    next submission runs."""
    dispatcher = BatchDispatcher()
    stub = StubImputer(held=1, fail=1)
    thread_a, box_a = _submit_in_thread(dispatcher, [("a", stub, (0, 1), 1)])
    assert stub.started[0].wait(timeout=30)
    thread_b, box_b = _submit_in_thread(dispatcher, [("b", stub, (1, 2), 1)])
    thread_c, box_c = _submit_in_thread(dispatcher, [("c", stub, (2, 3), 1)])
    _wait_queued(dispatcher, 2)
    stub.release[0].set()
    assert _joined(thread_a, thread_b, thread_c)
    assert box_a["results"]["a"][0] == ("route", 0, 1)
    for box in (box_b, box_c):
        assert isinstance(box["error"], RuntimeError) and "results" not in box
    assert len(stub.calls) == 2 and not dispatcher._busy
    assert dispatcher.submit([("d", stub, (7, 8), 1)])["d"][0] == ("route", 7, 8)


def test_hammer_every_submission_answered_exactly_once():
    """Barrier-hammered: many threads, many rounds, mixed shared keys.
    Every submission gets exactly its own keys back, each mapping to the
    right route -- no torn or crossed results under any interleaving."""
    dispatcher = BatchDispatcher()
    stub = StubImputer()
    threads, rounds = 8, 15
    barrier = threading.Barrier(threads)
    failures = []

    def client(tid):
        try:
            for round_no in range(rounds):
                barrier.wait(timeout=30)
                # Half the threads share a key each round; half are solo.
                if tid % 2 == 0:
                    entries = [(("hub", round_no), stub, (round_no, 99), 1)]
                else:
                    entries = [
                        ((tid, round_no), stub, (tid * 1000 + round_no, tid), 1)
                    ]
                results = dispatcher.submit(entries)
                assert set(results) == {entries[0][0]}, results
                result, _, share = results[entries[0][0]]
                assert result == ("route", *entries[0][2]), result
                assert share >= 0.0
        except Exception as exc:  # noqa: BLE001 - surface in the main thread
            failures.append(exc)
            barrier.abort()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # force interleavings inside submit
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(client, range(threads)))
    finally:
        sys.setswitchinterval(interval)
    assert not failures, failures
    # Shared hub lanes deduped: per round at most one (round, 99) search
    # ran per flush, however many of the 4 sharing threads fused.
    for round_no in range(rounds):
        hub_searches = sum(
            pairs.count((round_no, 99)) for pairs in stub.calls
        )
        assert 1 <= hub_searches <= 4, (round_no, hub_searches)
    assert all(len(set(pairs)) == len(pairs) for pairs in stub.calls)


# -- engine integration layer (real models, real races) ------------------


@pytest.fixture(scope="module")
def dispatch_engine(tmp_path_factory, service_model):
    registry = ModelRegistry(tmp_path_factory.mktemp("dispatch_registry"))
    registry.publish("KIEL", service_model)
    return BatchImputationEngine(registry), service_model.config


def _gap_requests(model, n, offset=0):
    """Distinct-route singleton requests built from graph node positions."""
    graph = model.graph
    step = max(1, graph.num_nodes // (2 * n + 2 * offset + 2))
    out = []
    for i in range(offset, offset + n):
        a = (2 * i * step) % graph.num_nodes
        b = (2 * i * step + step) % graph.num_nodes
        out.append(
            GapRequest(
                dataset="KIEL",
                start=(float(graph.lats[a]), float(graph.lngs[a])),
                end=(float(graph.lats[b]), float(graph.lngs[b])),
                request_id=f"g{i}",
            )
        )
    return out


def test_engine_concurrent_identical_singletons_coalesce_across_requests(
    dispatch_engine,
):
    """N threads fire the same fresh route concurrently: every result is
    identical, and the tier story is coherent -- at least one searched
    ("miss") and the rest rode it ("cross_batch", or "hit" for a thread
    that raced in after the cache was filled)."""
    engine, config = dispatch_engine
    (request,) = _gap_requests(engine.registry.get("KIEL", config)[0], 1, offset=40)
    n = 8
    barrier = threading.Barrier(n)

    def one(_):
        barrier.wait(timeout=30)
        (result,) = engine.run([request], config)
        return result

    with ThreadPoolExecutor(max_workers=n) as pool:
        results = list(pool.map(one, range(n)))
    tiers = [r.provenance.path_cache for r in results]
    assert set(tiers) <= {"miss", "cross_batch", "hit"}, tiers
    assert tiers.count("miss") >= 1
    reference = results[0]
    for result in results[1:]:
        assert result.provenance.num_cells == reference.provenance.num_cells
        assert result.num_points == reference.num_points
        assert result.lats[0] == reference.lats[0]
        assert result.lngs[-1] == reference.lngs[-1]
    # The cache ends up warm either way.
    (after,) = engine.run([request], config)
    assert after.provenance.path_cache == "hit"


def test_engine_concurrent_distinct_singletons_all_answered(dispatch_engine):
    """Distinct concurrent routes fuse into shared flushes but never mix
    up results: each response matches the solo run of the same gap."""
    engine, config = dispatch_engine
    model = engine.registry.get("KIEL", config)[0]
    requests = _gap_requests(model, 12, offset=60)
    solo = {r.request_id: model.impute(r.start, r.end) for r in requests}
    barrier = threading.Barrier(len(requests))

    def one(request):
        barrier.wait(timeout=30)
        (result,) = engine.run([request], config)
        return request.request_id, result

    with ThreadPoolExecutor(max_workers=len(requests)) as pool:
        results = dict(pool.map(one, requests))
    for rid, expected in solo.items():
        got = results[rid]
        assert got.num_points == len(expected.lats), rid
        assert got.provenance.method == expected.method, rid
        assert got.lats[0] == pytest.approx(expected.lats[0]), rid
        assert got.lngs[-1] == pytest.approx(expected.lngs[-1]), rid
