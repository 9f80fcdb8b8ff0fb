"""repro.obs: metric core, snapshots, /metrics."""

import importlib.util
import json
import re
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.obs import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    METRICS,
    MetricsRegistry,
)
from repro.service import ModelRegistry, make_server


@pytest.fixture()
def registry(tmp_path, service_model):
    reg = ModelRegistry(tmp_path / "models", capacity=4)
    reg.publish("KIEL", service_model)
    return reg


@pytest.fixture()
def server(registry):
    server = make_server(registry, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _get_json(base, path):
    with urllib.request.urlopen(base + path, timeout=10) as response:
        return response.status, json.loads(response.read())


def _get_text(base, path):
    with urllib.request.urlopen(base + path, timeout=10) as response:
        return response.status, response.read().decode("utf-8"), dict(
            response.headers
        )


def _post(base, path, payload):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


def _series(snapshot, name):
    return snapshot.get(name, {"series": {}})["series"]


def _growth(before, after, name):
    """``{labels: growth}`` of one metric between two snapshots: counter
    values, or histogram observation counts; series that did not grow
    are left out."""

    def counts(snapshot):
        return {
            key: value["count"] if isinstance(value, dict) else value
            for key, value in _series(snapshot, name).items()
        }

    old = counts(before)
    grown = {key: n - old.get(key, 0) for key, n in counts(after).items()}
    return {key: n for key, n in grown.items() if n}


# -- metric core ---------------------------------------------------------


def test_counter_gauge_histogram_basics():
    reg = MetricsRegistry()
    counter = reg.counter("c_total", "a counter", ("tier",))
    counter.inc(labels=("hit",))
    counter.inc(2, labels=("hit",))
    counter.inc(labels=("miss",))
    assert counter.value(("hit",)) == 3
    assert counter.value(("miss",)) == 1
    assert counter.value(("never",)) == 0
    assert isinstance(counter.value(("hit",)), int)  # int stays int

    gauge = reg.gauge("g", "a gauge")
    gauge.set(4.5)
    assert gauge.value() == 4.5

    hist = reg.histogram("h_seconds", "a histogram", buckets=(0.1, 1.0, 10.0))
    for value in (0.05, 0.5, 0.5, 5.0, 50.0):  # one beyond the last edge
        hist.observe(value)
    assert hist.count() == 5
    assert hist.sum() == pytest.approx(56.05)

    with hist.time():
        pass
    assert hist.count() == 6


def test_histogram_rejects_wrong_labels_and_unsorted_edges():
    reg = MetricsRegistry()
    hist = reg.histogram("h", "h", ("k",))
    with pytest.raises(ValueError, match="label values"):
        hist.observe(1.0)  # missing the label
    with pytest.raises(ValueError, match="increasing"):
        reg.histogram("bad", "b", buckets=(1.0, 1.0))


def test_declarations_are_idempotent_but_conflicts_raise():
    reg = MetricsRegistry()
    first = reg.counter("x_total", "x", ("a",))
    again = reg.counter("x_total", "x", ("a",))
    assert first is again
    with pytest.raises(ValueError, match="already declared"):
        reg.counter("x_total", "x", ("a", "b"))  # different labels
    with pytest.raises(ValueError, match="already declared"):
        reg.gauge("x_total", "x", ("a",))  # different kind


def test_disabled_registry_makes_observations_noops():
    reg = MetricsRegistry(enabled=False)
    counter = reg.counter("c_total", "c")
    hist = reg.histogram("h_seconds", "h")
    counter.inc()
    hist.observe(1.0)
    assert counter.value() == 0 and hist.count() == 0
    reg.set_enabled(True)
    counter.inc()
    assert counter.value() == 1


@pytest.mark.parametrize("enabled", [True, False])
def test_observe_many_equals_repeated_observe(rng, enabled):
    """The bulk forms leave exactly what one call per item leaves: bucket
    counts, count and the (in-order, bit-equal) sum; per-label counter
    totals; nothing at all when metrics are off or the batch is empty."""
    values = rng.exponential(0.01, 200).tolist() + [1e-5, 10.0, 50.0, 0, 3]
    single, bulk = MetricsRegistry(enabled=enabled), MetricsRegistry(enabled=enabled)
    for reg in (single, bulk):
        reg.histogram("h_seconds", "h", ("executor",)).observe(0.25, ("thread",))
    for value in values:
        single.get("h_seconds").observe(value, ("thread",))
    bulk.get("h_seconds").observe_many(values, ("thread",))
    bulk.get("h_seconds").observe_many([], ("other",))
    # Order matters at 2**53: one add at a time rounds every +1.0 away.
    for reg in (single, bulk):
        reg.get("h_seconds").observe(2.0**53, ("big",))
    for value in (1.0, 1.0, 1.0, 1.0):
        single.get("h_seconds").observe(value, ("big",))
    bulk.get("h_seconds").observe_many([1.0, 1.0, 1.0, 1.0], ("big",))
    tiers = [("hit",), ("miss",), ("hit",), ("coalesced",), ("hit",)]
    for reg in (single, bulk):
        reg.counter("c_total", "c", ("tier",)).inc(labels=("miss",))
    for labels in tiers:
        single.get("c_total").inc(1, labels)
    bulk.get("c_total").inc_many(tiers)
    assert bulk.snapshot() == single.snapshot()
    hist = bulk.get("h_seconds")
    if not enabled:
        assert hist.count(("thread",)) == 0 and bulk.get("c_total").value(("hit",)) == 0
        return
    assert hist.count(("thread",)) == len(values) + 1
    assert hist.sum(("thread",)) == single.get("h_seconds").sum(("thread",))
    assert hist.sum(("big",)) == 2.0**53
    assert bulk.get("c_total").value(("hit",)) == 3
    assert ("other",) not in bulk.snapshot()["h_seconds"]["series"]
    with pytest.raises(ValueError, match="label values"):
        hist.observe_many([1.0])
    with pytest.raises(ValueError, match="label values"):
        bulk.get("c_total").inc_many([("a", "b")])


def test_default_buckets_are_sane():
    assert LATENCY_BUCKETS[0] == pytest.approx(1e-5)
    assert LATENCY_BUCKETS[-1] == pytest.approx(10.0)
    assert list(LATENCY_BUCKETS) == sorted(LATENCY_BUCKETS)
    assert COUNT_BUCKETS[0] == 1.0 and COUNT_BUCKETS[-1] == 65536.0


def test_render_prometheus_text_format():
    reg = MetricsRegistry()
    reg.counter("c_total", "the counter", ("tier",)).inc(3, ("hit",))
    reg.gauge("g", "the gauge").set(2)
    hist = reg.histogram("h_seconds", "the histogram", buckets=(0.1, 1.0))
    hist.observe(0.05)
    hist.observe(0.5)
    reg.counter("quiet_total", "declared, never incremented")
    text = reg.render_prometheus()
    lines = text.strip().splitlines()
    assert '# HELP c_total the counter' in lines
    assert '# TYPE c_total counter' in lines
    assert 'c_total{tier="hit"} 3' in lines
    assert 'g 2' in lines
    assert '# TYPE h_seconds histogram' in lines
    assert 'h_seconds_bucket{le="0.1"} 1' in lines
    assert 'h_seconds_bucket{le="1"} 2' in lines
    assert 'h_seconds_bucket{le="+Inf"} 2' in lines
    assert 'h_seconds_sum 0.55' in lines
    assert 'h_seconds_count 2' in lines
    # Declared-but-silent metrics still render their catalogue entry.
    assert '# TYPE quiet_total counter' in lines
    # Every non-comment line is "name{labels} value".
    sample = re.compile(r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? \S+$')
    assert all(sample.match(line) for line in lines if not line.startswith("#"))


def test_render_prometheus_escapes_label_values():
    reg = MetricsRegistry()
    reg.counter("c_total", "c", ("path",)).inc(1, ('we"ird\\pa\nth',))
    text = reg.render_prometheus()
    assert 'c_total{path="we\\"ird\\\\pa\\nth"} 1' in text


def test_render_json_shape():
    reg = MetricsRegistry()
    reg.counter("c_total", "c", ("tier",)).inc(2, ("hit",))
    reg.histogram("h_seconds", "h", buckets=(1.0,)).observe(0.5)
    rendered = reg.render_json()
    assert rendered["c_total"]["kind"] == "counter"
    assert rendered["c_total"]["series"] == [
        {"labels": {"tier": "hit"}, "value": 2}
    ]
    histogram = rendered["h_seconds"]
    assert histogram["buckets"] == [1.0]
    (series,) = histogram["series"]
    assert series["value"]["count"] == 1 and series["value"]["buckets"] == [1, 0]
    json.dumps(rendered)  # JSON-serialisable as-is


# -- the instrumented stack ----------------------------------------------


def test_search_and_fit_metrics_flow_into_global_registry(service_model, tiny_kiel):
    gap = tiny_kiel.gaps(3600.0)[0]
    src, dst = service_model.snap_endpoints(gap.start, gap.end)
    before = METRICS.snapshot()
    assert service_model.graph.find_path(src, dst, "astar") is not None
    after = METRICS.snapshot()
    assert _growth(before, after, "repro_search_seconds") == {("astar",): 1}
    assert _growth(before, after, "repro_search_expanded") == {("astar",): 1}
    # The session-scoped model was fitted through the instrumented
    # pipeline, so fit-stage spans are already in the global registry.
    fit = _series(METRICS.snapshot(), "repro_fit_seconds")
    assert fit[("partial",)]["count"] >= 1
    assert fit[("finalize",)]["count"] >= 1


# -- HTTP: /metrics, healthz path_cache, access log ----------------------


def test_http_metrics_endpoint_prometheus_and_json(server, tiny_kiel):
    gap = tiny_kiel.gaps(3600.0)[0]
    payload = {"dataset": "KIEL", "start": list(gap.start), "end": list(gap.end)}
    _post(server, "/impute", payload)
    _post(server, "/impute", payload)
    status, text, headers = _get_text(server, "/metrics")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain")
    # All instrumented layers present in one scrape.
    for name in (
        "repro_search_seconds",
        "repro_search_expanded",
        "repro_graph_build_seconds",
        "repro_fit_seconds",
        "repro_registry_resolutions_total",
        "repro_registry_seconds",
        "repro_registry_evictions_total",
        "repro_registry_models_loaded",
        "repro_path_cache_total",
        "repro_impute_seconds",
        "repro_follow_cycle_seconds",
        "repro_follow_rows_total",
        "repro_http_requests_total",
        "repro_http_request_seconds",
    ):
        assert f"# TYPE {name} " in text, name
    assert 'repro_path_cache_total{tier="hit"}' in text
    assert re.search(
        r'repro_http_requests_total\{route="/impute",status="200"\} \d+', text
    )
    assert 'repro_http_request_seconds_bucket{route="/impute",le="+Inf"}' in text
    status, body = _get_json(server, "/metrics?format=json")
    assert status == 200
    assert body["repro_http_requests_total"]["kind"] == "counter"
    impute_series = [
        s
        for s in body["repro_http_requests_total"]["series"]
        if s["labels"] == {"route": "/impute", "status": "200"}
    ]
    assert impute_series and impute_series[0]["value"] >= 2


def _documented_metrics():
    """``tools/docs_smoke.py``'s OPERATIONS.md Monitoring catalogue."""
    path = Path(__file__).resolve().parent.parent / "tools" / "docs_smoke.py"
    spec = importlib.util.spec_from_file_location("docs_smoke", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.documented_metrics()


def test_batch_tail_keeps_metrics_series(server, service_model, rng):
    """The batch engine feeds its per-gap and per-lane series in bulk, yet
    a scrape after a cold batch still names every documented metric, and
    the series keep their labels and meaning: one ``repro_impute_seconds``
    observation and one ``repro_path_cache_total`` increment per gap, one
    ``repro_search_seconds`` observation per kernel lane and one
    ``repro_search_expanded`` observation per routed lane."""
    graph = service_model.graph
    requests = []
    for k in range(8):
        a, b = rng.choice(graph.num_nodes, 2, replace=False)
        requests.append(
            {
                "dataset": "KIEL",
                "id": f"g{k}",
                "start": [float(graph.lats[a]), float(graph.lngs[a])],
                "end": [float(graph.lats[b]), float(graph.lngs[b])],
                **({"max_points": 4} if k % 2 else {}),
            }
        )
    requests.append(dict(requests[0], id="rider"))
    before = METRICS.snapshot()
    status, body = _post(server, "/impute", {"requests": requests})
    assert status == 200
    status, text, _ = _get_text(server, "/metrics")
    assert status == 200
    missing = [name for name in _documented_metrics() if f"# TYPE {name} " not in text]
    assert not missing
    after = METRICS.snapshot()
    provenances = [r["provenance"] for r in body["results"]]
    tiers = {}
    for p in provenances:
        tiers[(p["path_cache"],)] = tiers.get((p["path_cache"],), 0) + 1
    assert tiers[("miss",)] == 8 and tiers[("coalesced",)] == 1
    assert _growth(before, after, "repro_path_cache_total") == tiers
    assert _growth(before, after, "repro_impute_seconds") == {("thread",): len(requests)}
    routed = sum(p["path_cache"] == "miss" and not p["fallback"] for p in provenances)
    assert _growth(before, after, "repro_search_seconds")[("ch",)] == 8
    assert _growth(before, after, "repro_search_expanded")[("ch",)] == routed
    for name in ("repro_kernel_batch_size", "repro_kernel_sweep_iterations"):
        assert _growth(before, after, name) == {(): 1}, name
    squeezed = [p for p in provenances if p["points_in"]]
    assert squeezed
    assert _growth(before, after, "repro_compress_seconds") == {(): len(squeezed)}
    assert _growth(before, after, "repro_compress_points_dropped_total") == {
        (): sum(p["points_in"] - p["points_out"] for p in squeezed)
    }


def test_http_unknown_routes_fold_into_other_label(server):
    with pytest.raises(urllib.error.HTTPError) as err:
        _get_json(server, "/secret-scan-attempt")
    assert err.value.code == 404
    _, body = _get_json(server, "/metrics?format=json")
    routes = {
        s["labels"]["route"] for s in body["repro_http_requests_total"]["series"]
    }
    assert "other" in routes
    assert not any(route.startswith("/secret") for route in routes)


def test_healthz_path_cache_block(server, tiny_kiel):
    _, before = _get_json(server, "/healthz")
    block = before["path_cache"]
    assert {"hits", "misses", "entries", "capacity", "bytes"} <= set(block)
    assert block["capacity"] == 4096 and block["entries"] == block["bytes"] == 0
    gap = tiny_kiel.gaps(3600.0)[0]
    payload = {"dataset": "KIEL", "start": list(gap.start), "end": list(gap.end)}
    _post(server, "/impute", payload)
    _post(server, "/impute", payload)
    _, after = _get_json(server, "/healthz")
    assert after["path_cache"]["entries"] == 1
    assert after["path_cache"]["hits"] >= block["hits"] + 1
    assert after["path_cache"]["misses"] >= block["misses"] + 1


def test_make_server_metrics_disabled_404s_route(registry):
    was_enabled = METRICS.enabled
    METRICS.set_enabled(False)
    try:
        server = make_server(registry, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get_json(base, "/metrics")
            assert err.value.code == 404
            # healthz keeps its path_cache block via the parent's counters.
            _, health = _get_json(base, "/healthz")
            assert "path_cache" in health
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
    finally:
        METRICS.set_enabled(was_enabled)


def test_json_access_log_lines(registry, tiny_kiel, tmp_path):
    log_path = tmp_path / "access.jsonl"
    server = make_server(registry, port=0, log_json=True, log_file=str(log_path))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    try:
        gap = tiny_kiel.gaps(3600.0)[0]
        _post(
            base,
            "/impute",
            {
                "requests": [
                    {
                        "dataset": "KIEL",
                        "start": list(gap.start),
                        "end": list(gap.end),
                        "id": "logged-1",
                    }
                ]
            },
        )
        _get_json(base, "/healthz")
    finally:
        server.shutdown()
        server.server_close()
        server.access_log_file.close()
        thread.join(timeout=5)
    lines = [json.loads(line) for line in log_path.read_text().splitlines()]
    assert len(lines) == 2
    impute, health = lines
    assert impute["route"] == "/impute" and impute["status"] == 200
    assert impute["method"] == "POST" and impute["latency_ms"] > 0
    assert impute["batch"] == 1 and impute["request_ids"] == ["logged-1"]
    assert health["route"] == "/healthz" and "batch" not in health


def test_concurrent_impute_and_metrics_scrapes(server, tiny_kiel):
    """Hammer /impute and /metrics from parallel threads: every scrape
    must be internally consistent (bucket counts sum to the count -- no
    torn reads) and the request counter must be monotone."""
    gaps = tiny_kiel.gaps(3600.0)
    observed = []

    def impute(i):
        gap = gaps[i % len(gaps)]
        status, _ = _post(
            server,
            "/impute",
            {"dataset": "KIEL", "start": list(gap.start), "end": list(gap.end)},
        )
        return status

    def scrape(_):
        status, body = _get_json(server, "/metrics?format=json")
        assert status == 200
        requests_total = sum(
            s["value"]
            for s in body["repro_http_requests_total"]["series"]
            if s["labels"]["route"] == "/impute"
        )
        latency = body["repro_http_request_seconds"]
        for series in latency["series"]:
            value = series["value"]
            assert sum(value["buckets"]) == value["count"]  # consistent read
        observed.append(requests_total)
        return status

    with ThreadPoolExecutor(max_workers=8) as pool:
        jobs = [pool.submit(impute, i) for i in range(24)]
        jobs += [pool.submit(scrape, i) for i in range(24)]
        assert all(job.result() == 200 for job in jobs)
    # Monotone in submission order is not guaranteed across threads, but
    # a final scrape must dominate everything seen mid-flight...
    scrape(0)
    assert observed[-1] == max(observed)
    assert observed[-1] >= 24
    # ...and repeated sequential scrapes never go backwards.
    serial = [
        sum(
            s["value"]
            for s in _get_json(server, "/metrics?format=json")[1][
                "repro_http_requests_total"
            ]["series"]
        )
        for _ in range(5)
    ]
    assert serial == sorted(serial)
