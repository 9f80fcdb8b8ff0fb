"""Per-layer metrics of a traced run.

Three sources feed them, each restricted to one window of the traced
launch:

- spans from ``spans.py`` (means, self times, counts), selected by start
  time: the read phase for request layers, the catch-up for ingest
  layers, launch-to-ready for fit layers;
- deltas of ``GET /metrics?format=json`` taken around each phase, for
  the exact counters and histogram sums the server already keeps;
- the client's own samples (round trips, writer lateness).

README.md maps each layer's metrics to the end-to-end metric and
workload they should move.
"""

#: per-layer metric name -> unit.
UNITS = {
    "http.client_ms": "ms", "http.server_ms": "ms", "http.self_ms": "ms",
    "http.wire_ms": "ms", "schema.parse_us": "us", "registry.get_us": "us",
    "registry.hit_ratio": "ratio", "registry.resolutions": "count",
    "registry.refresh_s": "s", "registry.refreshes": "count", "engine.run_ms": "ms",
    "engine.impute_us": "us", "engine.path_cache_hit_ratio": "ratio",
    "engine.path_cache_resolutions": "count", "engine.render_memo_hit_ratio": "ratio",
    "engine.render_memo_probes": "count", "dispatch.flushes": "count",
    "dispatch.lanes_per_flush": "lanes", "dispatch.queue_wait_ms": "ms",
    "dispatch.coalesced": "count", "habit.snap_us": "us", "habit.render_us": "us",
    "habit.render_calls": "count", "search.route_batch_ms": "ms",
    "search.lanes_per_call": "lanes", "search.us_per_lane": "us",
    "search.expanded_mean": "nodes", "kernel.sweep_iterations_mean": "rounds",
    "budget.calls": "count", "budget.compress_us": "us",
    "budget.points_dropped": "count", "geojson.feature_collection_us": "us",
    "follow.cycles": "count", "follow.cycle_ms": "ms", "follow.rows_read": "rows",
    "follow.trips_closed": "count", "follow.poll_ms": "ms",
    "segmentation.push_ms": "ms", "annotate.clean_ms": "ms", "generator_lag_ms": "ms",
    "fit.partial_s": "s", "fit.finalize_s": "s", "graph.build_s": "s",
    "model.save_s": "s", "trace.overhead_p50_ms": "ms",
    "trace.overhead_throughput_pct": "%",
}


def metrics_delta(after, before):
    """``{(name, labels): value}`` growth between two ``/metrics`` JSON
    scrapes: counters as numbers, histograms as ``(count, sum)``.
    Gauges keep their *after* value."""
    out = {}
    for name, entry in after.items():
        old = {
            tuple(sorted(s["labels"].items())): s["value"]
            for s in before.get(name, {}).get("series", [])
        }
        for series in entry["series"]:
            key = (name, tuple(sorted(series["labels"].items())))
            value = series["value"]
            prior = old.get(key[1])
            if entry["kind"] == "histogram":
                count, total = value["count"], value["sum"]
                if prior is not None:
                    count, total = count - prior["count"], total - prior["sum"]
                out[key] = (count, total)
            elif entry["kind"] == "counter" and prior is not None:
                out[key] = value - prior
            else:
                out[key] = value
    return out


def delta_json(delta):
    """A JSON-ready view of :func:`metrics_delta` (nonzero series only)."""
    out = {}
    for (name, labels), value in sorted(delta.items()):
        if value in (0, (0, 0.0), (0, 0)):
            continue
        label = ",".join(f"{k}={v}" for k, v in labels)
        out[f"{name}{{{label}}}" if label else name] = (
            {"count": value[0], "sum": value[1]} if isinstance(value, tuple) else value
        )
    return out


def _counter(delta, name, **labels):
    return delta.get((name, tuple(sorted(labels.items()))), 0)


def _hist(delta, name, **labels):
    return delta.get((name, tuple(sorted(labels.items()))), (0, 0.0))


def _counter_total(delta, name):
    return sum(v for (n, _), v in delta.items() if n == name)


def _ratio(num, den):
    return num / den if den else 0.0


def _mean(count_sum, scale=1.0):
    count, total = count_sum
    return total / count * scale if count else 0.0


class _Spans:
    """Span aggregates over one ``[t0_ns, t1_ns]`` window."""

    def __init__(self, spans, window):
        t0, t1 = window
        self.by_name = {}
        for name, start, dur, self_ns, _root, items in spans:
            if t0 <= start <= t1:
                agg = self.by_name.setdefault(name, [0, 0, 0, 0])
                agg[0] += 1
                agg[1] += dur
                agg[2] += self_ns
                agg[3] += items

    def count(self, name):
        return self.by_name.get(name, [0, 0, 0, 0])[0]

    def total_ms(self, name):
        return self.by_name.get(name, [0, 0, 0, 0])[1] / 1e6

    def mean(self, name, field=1, scale=1e-6):
        agg = self.by_name.get(name, [0, 0, 0, 0])
        return agg[field] / agg[0] * scale if agg[0] else 0.0

    def items(self, name):
        return self.by_name.get(name, [0, 0, 0, 0])[3]


def per_layer(spans, traced, untraced):
    """Every metric in :data:`UNITS` for one traced workload run.

    *traced* / *untraced* are the run dicts of the two launches (see
    ``run.py``): windows, ``/metrics`` deltas and client statistics.
    """
    read = _Spans(spans, traced["read_window"])
    ingest = _Spans(spans, traced["ingest_window"])
    setup = _Spans(spans, traced["setup_window"])
    rd, ig, fit = traced["read_delta"], traced["ingest_delta"], traced["setup_metrics"]

    client_ms = traced["client_mean_ms"]
    server_ms = read.mean("http.server")
    path_tiers = _counter_total(rd, "repro_path_cache_total")
    resolutions = _counter_total(rd, "repro_registry_resolutions_total")
    memo_hits = read.count("engine.render_memo.hit")
    memo_probes = memo_hits + read.count("engine.render_memo.miss")
    lanes = _hist(rd, "repro_dispatch_batch_lanes")
    refresh = _hist(ig, "repro_registry_seconds", op="refresh")
    route_items = read.items("search.route_batch")
    values = {
        "http.client_ms": client_ms,
        "http.server_ms": server_ms,
        "http.self_ms": read.mean("http.server", field=2),
        "http.wire_ms": client_ms - server_ms,
        "schema.parse_us": read.mean("schema.parse", scale=1e-3),
        "registry.get_us": read.mean("registry.get", scale=1e-3),
        "registry.hit_ratio": _ratio(
            _counter(rd, "repro_registry_resolutions_total", tier="hit"), resolutions
        ),
        "registry.resolutions": resolutions,
        "registry.refresh_s": _mean(refresh),
        "registry.refreshes": refresh[0],
        "engine.run_ms": read.mean("engine.run"),
        "engine.impute_us": _mean(_hist(rd, "repro_impute_seconds", executor="thread"), 1e6),
        "engine.path_cache_hit_ratio": _ratio(
            _counter(rd, "repro_path_cache_total", tier="hit"), path_tiers
        ),
        "engine.path_cache_resolutions": path_tiers,
        "engine.render_memo_hit_ratio": _ratio(memo_hits, memo_probes),
        "engine.render_memo_probes": memo_probes,
        "dispatch.flushes": lanes[0],
        "dispatch.lanes_per_flush": _mean(lanes),
        "dispatch.queue_wait_ms": _mean(_hist(rd, "repro_dispatch_queue_wait_seconds"), 1e3),
        "dispatch.coalesced": _counter(rd, "repro_dispatch_coalesced_total"),
        "habit.snap_us": read.mean("habit.snap", scale=1e-3),
        "habit.render_us": read.mean("habit.render", scale=1e-3),
        "habit.render_calls": read.count("habit.render"),
        "search.route_batch_ms": read.mean("search.route_batch"),
        "search.lanes_per_call": _ratio(route_items, read.count("search.route_batch")),
        "search.us_per_lane": _ratio(read.total_ms("search.route_batch") * 1e3, route_items),
        "search.expanded_mean": _mean(_hist(rd, "repro_search_expanded", method="ch")),
        "kernel.sweep_iterations_mean": _mean(_hist(rd, "repro_kernel_sweep_iterations")),
        "budget.calls": read.count("budget.compress"),
        "budget.compress_us": read.mean("budget.compress", scale=1e-3),
        "budget.points_dropped": _counter(rd, "repro_compress_points_dropped_total"),
        "geojson.feature_collection_us": read.mean(
            "geojson.feature_collection", scale=1e-3
        ),
        "follow.cycles": _hist(ig, "repro_follow_cycle_seconds")[0],
        "follow.cycle_ms": _mean(_hist(ig, "repro_follow_cycle_seconds"), 1e3),
        "follow.rows_read": _counter(ig, "repro_follow_rows_total"),
        "follow.trips_closed": _counter(ig, "repro_follow_trips_closed_total"),
        "follow.poll_ms": ingest.total_ms("follow.poll"),
        "segmentation.push_ms": ingest.total_ms("segmentation.push"),
        "annotate.clean_ms": ingest.total_ms("annotate.clean"),
        "generator_lag_ms": traced["generator_lag_ms"],
        "fit.partial_s": _hist(fit, "repro_fit_seconds", stage="partial")[1],
        "fit.finalize_s": _hist(fit, "repro_fit_seconds", stage="finalize")[1],
        "graph.build_s": setup.total_ms("graph.from_statistics") / 1e3
        + _hist(fit, "repro_graph_build_seconds", stage="ch")[1],
        "model.save_s": setup.total_ms("model.save") / 1e3,
        "trace.overhead_p50_ms": traced["latency_p50_ms"] - untraced["latency_p50_ms"],
        "trace.overhead_throughput_pct": 100.0
        * _ratio(untraced["gaps_per_s"] - traced["gaps_per_s"], untraced["gaps_per_s"]),
    }
    return {name: {"value": float(values[name]), "unit": UNITS[name]} for name in UNITS}
