"""Concurrency suite for the cross-request micro-batching dispatcher.

Two layers: :class:`repro.service.dispatch.BatchDispatcher` is driven
directly with stub imputers and hand-controlled thread interleavings
(deterministic window/fusion/flush semantics -- every request answered
exactly once, no torn futures, window-timeout and max-lanes flush
paths, close with requests in flight, error poisoning), and the engine
integration is barrier-hammered through real concurrent ``run`` calls
(results always correct and tiers always a coherent story, whichever
way the races land).
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service import BatchImputationEngine, GapRequest, ModelRegistry
from repro.service.dispatch import BatchDispatcher

# -- dispatcher unit layer (stub imputers, controlled interleavings) -----


class StubImputer:
    """route_batch stand-in: answers each (src, dst) pair with a tag,
    recording every call so tests can assert fusion happened."""

    def __init__(self, fail=False):
        self.calls = []
        self.fail = fail
        self.lock = threading.Lock()

    def route_batch(self, pairs):
        with self.lock:
            self.calls.append(list(pairs))
        if self.fail:
            raise RuntimeError("search exploded")
        return [("route", src, dst) for src, dst in pairs]


def _submit_in_thread(dispatcher, token, entries):
    """Run submit on a worker thread; returns (thread, box) where box
    collects the result or the raised error."""
    box = {}

    def work():
        try:
            box["results"] = dispatcher.submit(token, entries)
        except BaseException as exc:  # noqa: BLE001 - recorded for asserts
            box["error"] = exc

    thread = threading.Thread(target=work, daemon=True)
    thread.start()
    return thread, box


def test_lone_submission_executes_immediately():
    """The idle bypass: a lone in-flight run satisfies the all-parked
    condition by itself, so its flush starts with zero window wait."""
    dispatcher = BatchDispatcher(window_s=30.0, max_lanes=64)
    stub = StubImputer()
    token = dispatcher.enter()
    started = time.perf_counter()
    results = dispatcher.submit(token, [("k1", stub, (1, 2), 1)])
    waited = time.perf_counter() - started
    dispatcher.leave(token)
    assert results == {"k1": (("route", 1, 2), False, pytest.approx(results["k1"][2]))}
    assert waited < 1.0  # nowhere near the 30s window
    assert stub.calls == [[(1, 2)]]


def test_two_runs_fuse_into_one_kernel_call_with_cross_tier():
    """Deterministic fusion: run B holds the window open (entered, not
    yet submitted) while run A submits; B then submits the identical
    shared key.  One route_batch call answers both; exactly one side is
    flagged cross."""
    dispatcher = BatchDispatcher(window_s=30.0, max_lanes=64)
    stub = StubImputer()
    token_a = dispatcher.enter()
    token_b = dispatcher.enter()
    thread_a, box_a = _submit_in_thread(
        dispatcher, token_a, [("key", stub, (1, 2), 1)]
    )
    # A is parked: B still pre-submit, no deadline for 30s.
    time.sleep(0.05)
    assert "results" not in box_a
    results_b = dispatcher.submit(token_b, [("key", stub, (1, 2), 2)])
    thread_a.join(timeout=10)
    assert not thread_a.is_alive()
    dispatcher.leave(token_a)
    dispatcher.leave(token_b)
    assert stub.calls == [[(1, 2)]]  # one fused search, not two
    (result_a, cross_a, share_a) = box_a["results"]["key"]
    (result_b, cross_b, share_b) = results_b["key"]
    assert result_a == result_b == ("route", 1, 2)
    assert sorted([cross_a, cross_b]) == [False, True]
    assert share_a == share_b > 0.0


def test_window_timeout_flushes_without_stragglers():
    """A run stuck pre-submit (e.g. a slow fit) must not hold the window
    past its deadline: the parked submitter flushes alone."""
    dispatcher = BatchDispatcher(window_s=0.05, max_lanes=64)
    stub = StubImputer()
    token_a = dispatcher.enter()
    straggler = dispatcher.enter()  # never submits until after the flush
    started = time.perf_counter()
    results = dispatcher.submit(token_a, [("k", stub, (3, 4), 1)])
    waited = time.perf_counter() - started
    assert results["k"][0] == ("route", 3, 4)
    assert 0.05 <= waited < 5.0
    dispatcher.leave(token_a)
    dispatcher.leave(straggler)


def test_max_lanes_flushes_early():
    """Reaching the lane cap flushes immediately even though another
    run is still pre-submit and the window is huge."""
    dispatcher = BatchDispatcher(window_s=30.0, max_lanes=4)
    stub = StubImputer()
    token = dispatcher.enter()
    straggler = dispatcher.enter()
    entries = [(f"k{i}", stub, (i, i + 1), 1) for i in range(4)]
    started = time.perf_counter()
    results = dispatcher.submit(token, entries)
    assert time.perf_counter() - started < 5.0
    assert len(results) == 4
    dispatcher.leave(token)
    dispatcher.leave(straggler)


def test_leave_without_submitting_releases_the_window():
    """A run whose lanes were all cache hits never submits; its leave()
    must unblock waiting submitters (the all-parked flush rule)."""
    dispatcher = BatchDispatcher(window_s=30.0, max_lanes=64)
    stub = StubImputer()
    token_a = dispatcher.enter()
    hits_only = dispatcher.enter()
    thread_a, box_a = _submit_in_thread(
        dispatcher, token_a, [("k", stub, (1, 2), 1)]
    )
    time.sleep(0.05)
    assert "results" not in box_a
    dispatcher.leave(hits_only)
    thread_a.join(timeout=10)
    assert not thread_a.is_alive()
    assert box_a["results"]["k"][0] == ("route", 1, 2)
    dispatcher.leave(token_a)


def test_close_flushes_parked_submissions_and_serves_later_ones():
    """close() with a request in flight: the parked submitter leads the
    final flush and completes; submissions after close run immediately,
    unbatched."""
    dispatcher = BatchDispatcher(window_s=30.0, max_lanes=64)
    stub = StubImputer()
    token = dispatcher.enter()
    holder = dispatcher.enter()  # keeps the window open across close()
    thread, box = _submit_in_thread(dispatcher, token, [("k", stub, (1, 2), 1)])
    time.sleep(0.05)
    assert "results" not in box
    dispatcher.close()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert box["results"]["k"][0] == ("route", 1, 2)
    dispatcher.leave(token)
    dispatcher.leave(holder)
    late = dispatcher.enter()
    assert dispatcher.submit(late, [("k2", stub, (5, 6), 1)])["k2"][0] == (
        "route",
        5,
        6,
    )
    dispatcher.leave(late)


def test_search_error_poisons_the_whole_flush():
    """A route_batch exception propagates to every fused submitter, and
    the dispatcher stays usable afterwards."""
    dispatcher = BatchDispatcher(window_s=30.0, max_lanes=64)
    bad = StubImputer(fail=True)
    good = StubImputer()
    token_a = dispatcher.enter()
    token_b = dispatcher.enter()
    thread_a, box_a = _submit_in_thread(
        dispatcher, token_a, [("ka", bad, (1, 2), 1)]
    )
    time.sleep(0.05)
    with pytest.raises(RuntimeError, match="search exploded"):
        dispatcher.submit(token_b, [("kb", bad, (3, 4), 1)])
    thread_a.join(timeout=10)
    assert isinstance(box_a["error"], RuntimeError)
    dispatcher.leave(token_a)
    dispatcher.leave(token_b)
    healthy = dispatcher.enter()
    assert dispatcher.submit(healthy, [("k", good, (7, 8), 1)])["k"][0] == (
        "route",
        7,
        8,
    )
    dispatcher.leave(healthy)


def test_hammer_every_submission_answered_exactly_once():
    """Barrier-hammered: many threads, many rounds, mixed shared keys.
    Every submission gets exactly its own keys back, each mapping to the
    right route -- no torn or crossed futures under any interleaving."""
    dispatcher = BatchDispatcher(window_s=0.01, max_lanes=8)
    stub = StubImputer()
    threads, rounds = 8, 15
    barrier = threading.Barrier(threads)
    failures = []

    def client(tid):
        try:
            for round_no in range(rounds):
                barrier.wait(timeout=30)
                token = dispatcher.enter()
                # Half the threads share a key each round; half are solo.
                if tid % 2 == 0:
                    entries = [(("hub", round_no), stub, (round_no, 99), 1)]
                else:
                    entries = [
                        ((tid, round_no), stub, (tid * 1000 + round_no, tid), 1)
                    ]
                results = dispatcher.submit(token, entries)
                dispatcher.leave(token)
                assert set(results) == {entries[0][0]}, results
                result, _, share = results[entries[0][0]]
                assert result == ("route", *entries[0][2]), result
                assert share >= 0.0
        except Exception as exc:  # noqa: BLE001 - surface in the main thread
            failures.append(exc)
            barrier.abort()

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(client, range(threads)))
    assert not failures, failures
    # Shared hub lanes deduped: per round at most one (round, 99) search
    # ran, however many of the 4 sharing threads fused.
    for round_no in range(rounds):
        hub_searches = sum(
            pairs.count((round_no, 99)) for pairs in stub.calls
        )
        assert 1 <= hub_searches <= 4, (round_no, hub_searches)


# -- engine integration layer (real models, real races) ------------------


@pytest.fixture(scope="module")
def dispatch_engine(tmp_path_factory, service_model):
    registry = ModelRegistry(tmp_path_factory.mktemp("dispatch_registry"))
    registry.publish("KIEL", service_model)
    engine = BatchImputationEngine(registry)
    engine.dispatcher.window_s = 0.05
    yield engine, service_model.config
    engine.close()


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
    """Distinct concurrent routes fuse into shared windows but never mix
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


def test_engine_close_with_requests_in_flight(tmp_path, service_model):
    """Engine close while a window is parked: the in-flight request still
    completes, and post-close requests are served unbatched."""
    registry = ModelRegistry(tmp_path / "close_registry")
    registry.publish("KIEL", service_model)
    engine = BatchImputationEngine(registry)
    engine.dispatcher.window_s = 30.0
    (request,) = _gap_requests(service_model, 1, offset=90)
    # Hold the window open so the request below parks instead of flushing.
    holder = engine.dispatcher.enter()
    box = {}

    def work():
        box["result"] = engine.run([request], service_model.config)

    thread = threading.Thread(target=work, daemon=True)
    thread.start()
    time.sleep(0.1)
    assert "result" not in box  # parked in the 30s window
    engine.close()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert box["result"][0].provenance.path_cache == "miss"
    engine.dispatcher.leave(holder)
    (late,) = engine.run([request], service_model.config)
    assert late.provenance.path_cache == "hit"
