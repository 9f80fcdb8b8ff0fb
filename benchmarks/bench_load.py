"""Closed-loop load benchmark: the combining dispatcher under fire.

One *batch* is cheap (one kernel sweep answers 64 gaps); this suite
measures the other regime -- many concurrent *singleton* requests, each
on its own handler thread, the shape real HTTP traffic has.  N
closed-loop clients (send, wait for the response, send again -- no
open-loop request pileup) hammer a
:class:`repro.service.BatchImputationEngine` whose shared
:class:`repro.service.dispatch.BatchDispatcher` fuses the cache-missed
searches queued behind a running flush into one kernel call.

The sweep crosses client counts (1 / 4 / 16 / 64, trimmed via
``REPRO_BENCH_LOAD_CLIENTS`` for CI's quick pass) with three traffic
tiers:

- ``cold`` -- every request is a distinct never-seen route: the pure
  search regime, where the dispatcher's cross-request fusion either
  pays off or gets out of the way.
- ``warm`` -- a primed route pool: the route cache plus rendered-path
  memo regime, where the dispatcher must add nothing (requests never
  reach it).
- ``coalesced`` -- all clients demand the *same* fresh route each
  round (lockstep barrier): the cross-request dedup regime, where one
  search answers every client queued for the route and the
  ``cross_batch`` provenance tier lights up.

Latency quantiles are taken where the client sees them: from raw
wall-clock samples around each ``engine.run`` call, so time spent
queued in the dispatcher counts in full.  Each row reports its median
and only the tail its sample count can back: the highest of p99/p95/p90
with at least ten samples beyond it, and no tail below forty samples
(so the 6-round cold rows at 1 and 4 clients report a median alone).
Flush behaviour comes from
the ``repro_dispatch_*`` metric deltas.  Everything lands in
``BENCH_load.json`` (committed from a representative run, uploaded by
CI).  The regression gates at the bottom pin the dispatcher's claims: warm
concurrent serving beats the one-pair route baseline (``scalar_route_us``,
one uncached ``route()`` -- a 1-lane kernel call -- per query) on median
latency and sustained per-request cost, cold concurrency really fuses
lanes across requests, and the ``cross_batch`` tier is live under a
coalesced storm.  (A lone submission running at once is pinned
deterministically in ``tests/test_dispatch.py``.)  All of it runs under
``--benchmark-disable`` -- measurements come from wall clocks and
metric histograms, not pytest-benchmark timers.
"""

import json
import os
import platform
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.obs import METRICS, MetricsRegistry, diff_snapshots
from repro.service import BatchImputationEngine, GapRequest, ModelRegistry

#: Closed-loop client counts the sweep crosses with every traffic tier.
#: CI's quick pass sets REPRO_BENCH_LOAD_CLIENTS=1,8 to keep the bench
#: job fast; the committed artifact comes from the full sweep.
CLIENTS = tuple(
    int(c) for c in os.environ.get("REPRO_BENCH_LOAD_CLIENTS", "1,4,16,64").split(",")
)
#: Requests each client issues, per traffic tier.
ROUNDS = {"cold": 6, "warm": 30, "coalesced": 12}


class _PairAllocator:
    """Hands out distinct ``(src, dst)`` node-index pairs, never repeating.

    Distinct node pairs snap to distinct cell pairs (node positions are
    exact snap fixpoints), so every allocation is a guaranteed path-cache
    miss -- across all tiers and scenarios of one sweep.
    """

    def __init__(self, model, seed=412):
        self._graph = model.graph
        self._rng = np.random.default_rng(seed)
        self._seen = set()

    def pairs(self, count):
        n = self._graph.num_nodes
        out = []
        while len(out) < count:
            a, b = (int(x) for x in self._rng.integers(0, n, 2))
            if a == b or (a, b) in self._seen:
                continue
            self._seen.add((a, b))
            out.append((a, b))
        return out

    def cells(self, count):
        cells = self._graph.cells
        return [(int(cells[a]), int(cells[b])) for a, b in self.pairs(count)]

    def requests(self, count, tag):
        graph = self._graph
        return [
            GapRequest(
                dataset="KIEL",
                start=(float(graph.lats[a]), float(graph.lngs[a])),
                end=(float(graph.lats[b]), float(graph.lngs[b])),
                request_id=f"{tag}-{i}",
            )
            for i, (a, b) in enumerate(self.pairs(count))
        ]


def _closed_loop(engine, config, per_client, lockstep=False):
    """Run one closed-loop scenario; returns ``(wall_s, flat results,
    per-request wall-clock seconds)``.

    *per_client* is one request list per client thread; each client
    sends its requests one at a time, waiting for each response.  With
    *lockstep* the clients barrier before every round, maximising
    overlap (the coalesced tier's worst-case storm shape).
    """
    clients = len(per_client)
    start = threading.Barrier(clients + 1)
    rounds = threading.Barrier(clients) if lockstep and clients > 1 else None
    errors = []
    results = [None] * clients
    seconds = [None] * clients

    def run_client(c):
        mine, timed = [], []
        try:
            start.wait(timeout=120)
            for request in per_client[c]:
                if rounds is not None:
                    rounds.wait(timeout=120)
                sent = time.perf_counter()
                (result,) = engine.run([request], config)
                timed.append(time.perf_counter() - sent)
                mine.append(result)
            results[c], seconds[c] = mine, timed
        except Exception as exc:  # noqa: BLE001 - surfaced in the main thread
            errors.append(exc)
            if rounds is not None:
                rounds.abort()

    threads = [
        threading.Thread(target=run_client, args=(c,), daemon=True)
        for c in range(clients)
    ]
    for thread in threads:
        thread.start()
    start.wait(timeout=120)
    begun = time.perf_counter()
    for thread in threads:
        thread.join(timeout=300)
    wall = time.perf_counter() - begun
    assert not errors, errors
    flat = [result for batch in results for result in batch]
    return wall, flat, [s for timed in seconds for s in timed]


#: Tail percentiles a row may report, highest first.
TAIL_PERCENTILES = (99, 95, 90)
#: Samples a reported tail percentile needs beyond it, and the fewest
#: samples a row needs to report a tail at all.
TAIL_SAMPLES_BEYOND = 10
MIN_SAMPLES_FOR_TAIL = 40


def _latency_stats(seconds):
    """Mean, median and one tail (us) of raw client-side request wall times.

    The tail is the highest of p99/p95/p90 with at least
    ``TAIL_SAMPLES_BEYOND`` samples beyond it; with fewer than
    ``MIN_SAMPLES_FOR_TAIL`` samples, or no percentile that qualifies,
    the row reports the median alone (``tail`` is ``None``).
    """
    us = np.asarray(seconds) * 1e6
    n = len(us)
    stats = {
        "requests": n,
        "mean_us": round(float(us.mean()), 1),
        "p50_us": round(float(np.median(us)), 1),
        "tail": None,
    }
    if n >= MIN_SAMPLES_FOR_TAIL:
        for pct in TAIL_PERCENTILES:
            if n * (100 - pct) / 100 >= TAIL_SAMPLES_BEYOND:
                stats["tail"] = f"p{pct}"
                stats[f"p{pct}_us"] = round(float(np.percentile(us, pct)), 1)
                break
    return stats


def _dispatch_stats(delta):
    """Flush behaviour from the ``repro_dispatch_*`` metric deltas."""
    scratch = MetricsRegistry()
    scratch.absorb(delta)
    lanes = scratch.get("repro_dispatch_batch_lanes")
    flushes = lanes.count() if lanes is not None else 0
    coalesced = scratch.get("repro_dispatch_coalesced_total")
    return {
        "flushes": flushes,
        "mean_lanes": round(lanes.sum() / flushes, 2) if flushes else 0.0,
        "coalesced": coalesced.value() if coalesced is not None else 0,
    }


def _run_scenario(engine, config, per_client, lockstep=False):
    before = METRICS.snapshot()
    wall, results, seconds = _closed_loop(engine, config, per_client, lockstep)
    delta = diff_snapshots(METRICS.snapshot(), before)
    n = len(results)
    return {
        "clients": len(per_client),
        "requests": n,
        "throughput_rps": round(n / wall, 1),
        "per_request_us": round(wall / n * 1e6, 1),
        "latency": _latency_stats(seconds),
        "dispatch": _dispatch_stats(delta),
        "tiers": dict(Counter(r.provenance.path_cache for r in results)),
    }


@pytest.fixture(scope="module")
def load_sweep(habit_r10, tmp_path_factory):
    """Run the whole clients x tier sweep once; gate tests read from it."""
    registry = ModelRegistry(tmp_path_factory.mktemp("load_registry"))
    registry.publish("KIEL", habit_r10)
    model, config = habit_r10, habit_r10.config
    alloc = _PairAllocator(model)

    # The one-pair route baseline the serving path must beat: one
    # uncached route() per query -- a 1-lane kernel call -- the cost of
    # an ad-hoc singleton with no batching or caching (compare
    # BENCH_search.json's "r10-ch" mean on the same machine).
    base_cells = alloc.cells(64)
    model.route(*base_cells[0])  # warm
    started = time.perf_counter()
    reps = 0
    for _ in range(4):
        for src, dst in base_cells:
            model.route(src, dst)
            reps += 1
    scalar_route_us = (time.perf_counter() - started) / reps * 1e6

    scenarios = {}
    for clients in CLIENTS:
        # cold: fresh engine, every request a distinct never-seen route.
        cold = alloc.requests(clients * ROUNDS["cold"], f"cold{clients}")
        scenarios[f"cold_c{clients}"] = _run_scenario(
            BatchImputationEngine(registry),
            config,
            [cold[c :: clients] for c in range(clients)],
        )

        # warm: a primed pool -- route cache + rendered-path memo hits.
        engine = BatchImputationEngine(registry)
        pool = alloc.requests(32, f"warm{clients}")
        engine.run(pool, config)  # prime
        per_client = [
            [pool[(c * 7 + k) % len(pool)] for k in range(ROUNDS["warm"])]
            for c in range(clients)
        ]
        scenarios[f"warm_c{clients}"] = _run_scenario(engine, config, per_client)

        # coalesced: all clients demand the same fresh route each round.
        fresh = alloc.requests(ROUNDS["coalesced"], f"coal{clients}")
        scenarios[f"coalesced_c{clients}"] = _run_scenario(
            BatchImputationEngine(registry),
            config,
            [list(fresh) for _ in range(clients)],
            lockstep=True,
        )

    return {"scalar_route_us": round(scalar_route_us, 1), "scenarios": scenarios}


def test_load_artifact(load_sweep):
    """Write BENCH_load.json and sanity-check every scenario's shape."""
    for name, s in load_sweep["scenarios"].items():
        lat = s["latency"]
        assert s["requests"] == lat["requests"], name
        if lat["tail"] is not None:
            assert lat["p50_us"] <= lat[f"{lat['tail']}_us"], name
        assert s["throughput_rps"] > 0, name
        tier = name.split("_c")[0]
        if tier == "warm":
            # Warm traffic never reaches the dispatcher: pure cache+memo.
            assert set(s["tiers"]) == {"hit"}, (name, s["tiers"])
            assert s["dispatch"]["flushes"] == 0, (name, s["dispatch"])
        elif tier == "cold":
            assert set(s["tiers"]) == {"miss"}, (name, s["tiers"])

    payload = {
        "machine": platform.machine(),
        "python": platform.python_version(),
        "clients": list(CLIENTS),
        "rounds_per_client": ROUNDS,
        "source": "client-side wall clock per engine.run + repro_dispatch_* (snapshot deltas)",
        "scalar_route_us": load_sweep["scalar_route_us"],
        "scenarios": load_sweep["scenarios"],
    }
    out = Path(__file__).parent / "BENCH_load.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nclosed-loop load sweep -> {out}")
    print(f"  one-pair route baseline: {load_sweep['scalar_route_us']:.0f}us/query")
    for name in sorted(load_sweep["scenarios"]):
        s = load_sweep["scenarios"][name]
        lat = s["latency"]
        tail = f"  {lat['tail']} {lat[lat['tail'] + '_us']:.0f}us" if lat["tail"] else ""
        print(
            f"  {name}: {s['throughput_rps']:.0f} req/s  "
            f"mean {lat['mean_us']:.0f}us  p50 {lat['p50_us']:.0f}us{tail}  "
            f"({lat['requests']} requests)  tiers {s['tiers']}"
        )


def test_gate_warm_concurrency_beats_scalar_baseline(load_sweep):
    """Acceptance: with 16 concurrent clients, warm-path serving beats
    the one-pair route baseline on both axes that matter -- the
    median request latency and the sustained per-request wall time
    (inverse throughput).  The mean of per-thread latency spans is
    deliberately not gated: under the GIL it is dominated by scheduler
    descheduling tails, not by serving cost (it is still recorded in
    the artifact)."""
    clients = 16 if 16 in CLIENTS else max(CLIENTS)
    warm = load_sweep["scenarios"][f"warm_c{clients}"]
    scalar = load_sweep["scalar_route_us"]
    print(
        f"\nwarm_c{clients}: p50 {warm['latency']['p50_us']:.0f}us, "
        f"{warm['per_request_us']:.0f}us/request vs one-pair route {scalar:.0f}us"
    )
    assert warm["latency"]["p50_us"] < scalar
    assert warm["per_request_us"] < scalar


def test_gate_cold_dispatcher_fuses_lanes(load_sweep):
    """Cold concurrent singletons really fuse: at the highest swept
    concurrency the dispatcher's flushes collect multiple search lanes
    per kernel call on average."""
    clients = max(CLIENTS)
    if clients < 4:
        pytest.skip("cold fusion gate needs a concurrent sweep (>= 4 clients)")
    on = load_sweep["scenarios"][f"cold_c{clients}"]
    print(
        f"\ncold_c{clients}: mean {on['latency']['mean_us']:.0f}us, "
        f"{on['per_request_us']:.0f}us per request, "
        f"{on['dispatch']['mean_lanes']:.2f} lanes per flush"
    )
    assert on["dispatch"]["mean_lanes"] >= 2.0


def test_gate_cross_batch_tier_live(load_sweep):
    """The coalesced storm actually exercises cross-request dedup: the
    cross_batch provenance tier and the dispatcher's coalesce counter
    both fire."""
    clients = max(CLIENTS)
    if clients < 2:
        pytest.skip("cross-request coalescing needs >= 2 clients")
    s = load_sweep["scenarios"][f"coalesced_c{clients}"]
    assert set(s["tiers"]) <= {"miss", "cross_batch", "hit", "coalesced"}, s["tiers"]
    assert s["tiers"].get("cross_batch", 0) > 0, s["tiers"]
    assert s["dispatch"]["coalesced"] > 0, s["dispatch"]
    # Every round searched at most once per flush it straddled; with
    # N clients lockstepped on one fresh route per round, misses stay
    # far below the request count.
    assert s["tiers"].get("miss", 0) <= s["requests"] // 2, s["tiers"]
