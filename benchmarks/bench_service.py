"""Service-layer benchmark: registry cold start vs warm-cache throughput.

Cold start is a disk load: a fresh registry resolves the published model
from its ``.npz`` (the registry never fits; models are fitted offline);
warm serves from the in-memory LRU.  The reproduction target is the
serving story: warm-cache throughput must be at least 10x cold start,
which is what makes fit-once/serve-many worth a registry at all.

Two of the tests below are the service-latency trajectory: exact p50/
p95/p99 quantiles of the per-request latency (each result's
``provenance.elapsed_ms``, the value ``repro_impute_seconds`` observes)
for a cold and a warm path cache are written to ``BENCH_service.json``
(committed from a representative run, uploaded by CI), and the metrics
layer itself must cost < 15 us per request on the warm path.  Both run
under ``--benchmark-disable`` -- they measure raw per-request samples
and wall clocks, not pytest-benchmark timers.
"""

import json
import platform
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.obs import METRICS
from repro.service import BatchImputationEngine, GapRequest, ModelRegistry
from repro.service.http import _ENCODER, impute_body, impute_response


def _requests(gaps, n):
    return [
        GapRequest(
            dataset="KIEL",
            start=gaps[i % len(gaps)].start,
            end=gaps[i % len(gaps)].end,
            request_id=f"r{i}",
        )
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def warm_engine(habit_r9, tmp_path_factory):
    registry = ModelRegistry(tmp_path_factory.mktemp("svc_warm"))
    registry.publish("KIEL", habit_r9)
    return BatchImputationEngine(registry), habit_r9.config


@pytest.mark.benchmark(group="service-cache")
def test_disk_load_request(benchmark, warm_engine, kiel_gaps):
    """One request with the model on disk but evicted from memory."""
    engine, config = warm_engine
    requests = _requests(kiel_gaps, 1)

    def load():
        engine.registry.evict_all()
        return engine.run(requests, config)

    results = benchmark(load)
    assert results[0].provenance.cache == "load"


@pytest.mark.benchmark(group="service-cache")
def test_warm_cache_request(benchmark, warm_engine, kiel_gaps):
    """One request served entirely from the in-memory cache."""
    engine, config = warm_engine
    requests = _requests(kiel_gaps, 1)
    engine.run(requests, config)  # prime

    results = benchmark(engine.run, requests, config)
    assert results[0].provenance.cache == "hit"


@pytest.mark.benchmark(group="service-throughput")
def test_warm_batch_throughput(benchmark, warm_engine, kiel_gaps):
    """A 64-gap batch on a warm model."""
    engine, config = warm_engine
    requests = _requests(kiel_gaps, 64)
    engine.run(requests[:1], config)  # prime

    results = benchmark(engine.run, requests, config)
    assert len(results) == 64
    assert all(r.provenance.cache == "hit" for r in results)
    stats = getattr(benchmark, "stats", None)
    if stats is not None:  # absent under --benchmark-disable
        benchmark.extra_info["requests_per_s"] = len(requests) / stats.stats.mean


def test_warm_throughput_at_least_10x_cold(warm_engine, kiel_gaps):
    """Acceptance: warm-cache throughput >= 10x cold start, measured directly."""
    published, config = warm_engine
    started = time.perf_counter()
    engine = BatchImputationEngine(ModelRegistry(published.registry.root))
    (first,) = engine.run(_requests(kiel_gaps, 1), config)
    cold_s = time.perf_counter() - started
    assert first.provenance.cache == "load"

    requests = _requests(kiel_gaps, 64)
    started = time.perf_counter()
    results = engine.run(requests, config)
    warm_s = time.perf_counter() - started
    assert all(r.provenance.cache == "hit" for r in results)

    cold_rps = 1.0 / cold_s
    warm_rps = len(requests) / warm_s
    print(
        f"\nservice throughput: cold {cold_rps:.2f} req/s, "
        f"warm {warm_rps:.1f} req/s ({warm_rps / cold_rps:.0f}x)"
    )
    assert warm_rps >= 10.0 * cold_rps


def _latency_quantiles(results):
    """Exact p50/p95/p99 (in us) of the results' per-request latency,
    ``provenance.elapsed_ms``."""
    us = np.array([r.provenance.elapsed_ms for r in results]) * 1e3
    p50, p95, p99 = np.percentile(us, (50, 95, 99))
    return {
        "requests": len(us),
        "p50_us": round(float(p50), 1),
        "p95_us": round(float(p95), 1),
        "p99_us": round(float(p99), 1),
    }


def _body_encoding(engine, config, gaps):
    """Same-run /impute body time, stdlib encoding vs the bytes writer
    (``impute_body``), per batch: 64 cold 16-gap batches (half with
    ``max_points`` 32, each from a fresh engine) and 64 one-gap hits.
    Gated on byte equality only; the times are recorded, not bounded."""
    cold = []
    for b in range(64):
        requests = [
            replace(r, max_points=32 if k % 2 else None)
            for k, r in enumerate(_requests(gaps[b % len(gaps):] + gaps, 16))
        ]
        cold.append(BatchImputationEngine(engine.registry).run(requests, config))
    hits = []
    for request in _requests(gaps, 64):
        engine.run([request], config)
        engine.run([request], config)
        hits.append(engine.run([request], config))
    out = {}
    for name, batches in (("cold_16_gap", cold), ("one_gap_hit", hits)):
        for batch in batches:
            want = _ENCODER.encode(impute_response(batch, 1.0)).encode("utf-8")
            assert impute_body(batch, 1.0) == want, name
        times = {}
        for label, encode in (
            ("stdlib_ms", lambda b: _ENCODER.encode(impute_response(b, 1.0)).encode("utf-8")),
            ("writer_ms", lambda b: impute_body(b, 1.0)),
        ):
            best = []
            for _ in range(5):
                started = time.perf_counter()
                for batch in batches:
                    encode(batch)
                best.append((time.perf_counter() - started) / len(batches))
            times[label] = round(min(best) * 1e3, 3)
        times["points_per_batch"] = round(
            float(np.mean([sum(r.num_points for r in b) for b in batches])), 1
        )
        out[name] = times
    return out


def test_latency_quantile_artifact(warm_engine, kiel_gaps):
    """Write BENCH_service.json from raw per-request latencies.

    Two scenarios -- cold and warm path cache -- each report exact
    p50/p95/p99 of the requests they ran.
    Runs under --benchmark-disable (CI's smoke), so the artifact is
    written directly rather than through the conftest group emitter.
    """
    thread_engine, config = warm_engine
    requests = _requests(kiel_gaps, 64)
    scenarios = {}

    # Thread, cold path cache: a fresh engine per round pays the full
    # snap + search per request (model stays warm in the registry LRU).
    cold = []
    for _ in range(3):
        cold += BatchImputationEngine(thread_engine.registry).run(requests, config)
    scenarios["thread_cold_cache"] = _latency_quantiles(cold)

    # Thread, warm path cache.
    thread_engine.run(requests, config)  # prime
    warm = []
    for _ in range(5):
        warm += thread_engine.run(requests, config)
    scenarios["thread_warm_cache"] = _latency_quantiles(warm)

    for name, stats in scenarios.items():
        assert stats["requests"] > 0, name
        assert stats["p50_us"] <= stats["p95_us"] <= stats["p99_us"], name
    assert scenarios["thread_warm_cache"]["p50_us"] < (
        scenarios["thread_cold_cache"]["p50_us"]
    )

    payload = {
        "machine": platform.machine(),
        "python": platform.python_version(),
        "batch_requests": 64,
        "source": "provenance.elapsed_ms per request (exact quantiles)",
        "scenarios": scenarios,
        "body_encoding": _body_encoding(thread_engine, config, kiel_gaps),
    }
    out = Path(__file__).parent / "BENCH_service.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nservice latency quantiles -> {out}")
    for name in sorted(scenarios):
        s = scenarios[name]
        print(
            f"  {name}: p50 {s['p50_us']:.0f}us  p95 {s['p95_us']:.0f}us  "
            f"p99 {s['p99_us']:.0f}us  ({s['requests']} requests)"
        )


def test_metrics_overhead_bounded_warm_path(warm_engine, kiel_gaps):
    """Acceptance: metrics collection costs < 15 us/request warm.

    Measured as min-of-samples over repeated warm 64-gap batches with
    the process-wide switch on vs off (min is robust to scheduler
    noise); up to three attempts before failing, since a single CI
    machine hiccup should not flunk the gate.

    The bound is absolute, not relative: this gate shipped as "< 5 %
    of the warm path" when a warm hit still re-rendered its path
    (~300 us/request), but the rendered-path memo dropped warm hits
    to ~20 us/request, so the same ~3-6 us of histogram/counter work
    per request would read as 15-30 % while costing exactly what it
    always did. Per-request microseconds are the honest unit.
    """
    engine, config = warm_engine
    requests = _requests(kiel_gaps, 64)
    engine.run(requests, config)  # prime

    def best_of(samples, rounds):
        times = []
        for _ in range(samples):
            started = time.perf_counter()
            for _ in range(rounds):
                engine.run(requests, config)
            times.append((time.perf_counter() - started) / rounds)
        return min(times)

    was_enabled = METRICS.enabled
    overhead_us = None
    try:
        for _ in range(3):
            METRICS.set_enabled(True)
            best_of(1, 2)  # warm-up
            with_metrics = best_of(6, 3)
            METRICS.set_enabled(False)
            best_of(1, 2)
            without_metrics = best_of(6, 3)
            overhead_us = (with_metrics - without_metrics) / len(requests) * 1e6
            if overhead_us < 15.0:
                break
    finally:
        METRICS.set_enabled(was_enabled)
    print(
        f"\nwarm-path metrics overhead: {overhead_us:+.2f}us/request "
        f"(on {with_metrics * 1e3:.2f}ms vs off {without_metrics * 1e3:.2f}ms "
        f"per 64-gap batch)"
    )
    assert overhead_us < 15.0
