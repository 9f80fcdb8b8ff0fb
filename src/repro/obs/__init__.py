"""``repro.obs``: a dependency-free metrics core.

Three metric kinds -- labeled :class:`Counter`, :class:`Gauge`, and
:class:`Histogram` (fixed log-spaced buckets) -- live in a
:class:`MetricsRegistry`.  The module-level :data:`METRICS` registry is
the process-wide default every instrumented layer (search engine, fit
pipeline, model registry, batch engine, follow daemon, HTTP transport)
declares its metrics against at import time, so a scrape always renders
the full catalogue even before the first observation.

Every series is cumulative for the life of the process.  To measure one
scenario, read a series' ``value()`` (counters) or ``count()`` /
``sum()`` (histograms) before and after it and take the difference;
:meth:`MetricsRegistry.snapshot` copies every series at once as plain
dicts.

Rendering: :meth:`MetricsRegistry.render_prometheus` emits the
Prometheus text exposition format (version 0.0.4) served by
``GET /metrics``; :meth:`MetricsRegistry.render_json` is the same data
as JSON for tests and tools.  Disable collection wholesale with
:meth:`MetricsRegistry.set_enabled` (the CLI's ``--no-metrics``): every
observation becomes a cheap early return.
"""

import threading
import time
from bisect import bisect_left

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "COUNT_BUCKETS",
    "METRICS",
    "MetricsRegistry",
]


def _log_spaced(lo_decade, hi_decade, per_decade=4):
    """Fixed log-spaced bucket edges, ``per_decade`` per power of ten."""
    return tuple(
        round(10.0 ** (e / per_decade), 12)
        for e in range(lo_decade * per_decade, hi_decade * per_decade + 1)
    )


#: Default latency bucket edges in seconds: 10 us .. 10 s, four per
#: decade.  Wide enough for a warm cache hit (~tens of us) and a cold
#: fit (~seconds) to land in distinct, resolvable buckets.
LATENCY_BUCKETS = _log_spaced(-5, 1)

#: Bucket edges for event counts (e.g. nodes expanded per search):
#: powers of two, 1 .. 65536.
COUNT_BUCKETS = tuple(float(1 << i) for i in range(17))


class _Metric:
    """Shared plumbing: a named, labeled series map inside a registry."""

    kind = None

    def __init__(self, registry, name, help_text, label_names):
        self._registry = registry
        self.name = name
        self.help = help_text
        self.label_names = tuple(label_names)
        self._series = {}  # labels tuple -> value (kind-specific)

    def _check_labels(self, labels):
        if len(labels) != len(self.label_names):
            raise ValueError(
                f"{self.name}: expected {len(self.label_names)} label values "
                f"{self.label_names}, got {labels!r}"
            )
        return tuple(str(v) for v in labels)


class Counter(_Metric):
    """A monotone sum.  Integer increments stay integers."""

    kind = "counter"

    def inc(self, amount=1, labels=()):
        registry = self._registry
        if not registry.enabled:
            return
        key = self._check_labels(labels)
        with registry._lock:
            self._series[key] = self._series.get(key, 0) + amount

    def inc_many(self, label_values):
        """Increment by one per label tuple in *label_values*.

        The bulk form of ``inc(1, labels)`` for a batch's per-item
        series: each distinct label tuple is checked once and the whole
        batch lands under one lock acquisition, with the same final
        counts as one ``inc`` per item.
        """
        registry = self._registry
        if not registry.enabled:
            return
        tally = {}
        for labels in label_values:
            tally[labels] = tally.get(labels, 0) + 1
        keyed = [(self._check_labels(labels), n) for labels, n in tally.items()]
        with registry._lock:
            for key, n in keyed:
                self._series[key] = self._series.get(key, 0) + n

    def value(self, labels=()):
        key = self._check_labels(labels)
        with self._registry._lock:
            return self._series.get(key, 0)


class Gauge(_Metric):
    """A point-in-time value."""

    kind = "gauge"

    def set(self, value, labels=()):
        registry = self._registry
        if not registry.enabled:
            return
        key = self._check_labels(labels)
        with registry._lock:
            self._series[key] = value

    def value(self, labels=()):
        key = self._check_labels(labels)
        with self._registry._lock:
            return self._series.get(key, 0)


class _Timer:
    """Context manager observing its wall-clock span into a histogram."""

    __slots__ = ("_histogram", "_labels", "_started")

    def __init__(self, histogram, labels):
        self._histogram = histogram
        self._labels = labels

    def __enter__(self):
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self._histogram.observe(time.perf_counter() - self._started, self._labels)


class Histogram(_Metric):
    """Cumulative-bucket histogram over fixed edges.

    Each series is ``[per-bucket counts (last = +Inf), total count,
    sum]``; bucket counts are integers.  ``observe`` costs one bisect plus three increments;
    ``observe_many`` records a batch under one lock.
    """

    kind = "histogram"

    def __init__(self, registry, name, help_text, label_names, buckets):
        super().__init__(registry, name, help_text, label_names)
        self.buckets = tuple(float(b) for b in buckets)
        if list(self.buckets) != sorted(set(self.buckets)):
            raise ValueError(f"{name}: bucket edges must be strictly increasing")

    def observe(self, value, labels=()):
        registry = self._registry
        if not registry.enabled:
            return
        key = self._check_labels(labels)
        slot = bisect_left(self.buckets, value)
        with registry._lock:
            series = self._series.get(key)
            if series is None:
                series = [[0] * (len(self.buckets) + 1), 0, 0.0]
                self._series[key] = series
            series[0][slot] += 1
            series[1] += 1
            series[2] += value

    def observe_many(self, values, labels=()):
        """Observe every value of *values* into one series.

        The bulk form of ``observe`` for a batch's per-item series: one
        label check and one lock acquisition per call.  Bucket counts,
        the count and the sum (accumulated in order, like repeated
        ``observe`` calls) equal those of one ``observe`` per value.
        """
        registry = self._registry
        if not registry.enabled:
            return
        key = self._check_labels(labels)
        values = list(values)
        if not values:
            return
        buckets = self.buckets
        slots = [bisect_left(buckets, value) for value in values]
        with registry._lock:
            series = self._series.get(key)
            if series is None:
                series = [[0] * (len(buckets) + 1), 0, 0.0]
                self._series[key] = series
            counts = series[0]
            total = series[2]
            for slot, value in zip(slots, values):
                counts[slot] += 1
                total += value
            series[1] += len(values)
            series[2] = total

    def time(self, labels=()):
        """``with histogram.time(labels): ...`` observes the span."""
        return _Timer(self, labels)

    def summary(self, labels=()):
        """``{count, sum, p50, p95, p99}`` for one series (estimates)."""
        return {
            "count": self.count(labels),
            "sum": self.sum(labels),
            "p50": self.quantile(0.50, labels),
            "p95": self.quantile(0.95, labels),
            "p99": self.quantile(0.99, labels),
        }

    def count(self, labels=()):
        key = self._check_labels(labels)
        with self._registry._lock:
            series = self._series.get(key)
            return 0 if series is None else series[1]

    def sum(self, labels=()):
        key = self._check_labels(labels)
        with self._registry._lock:
            series = self._series.get(key)
            return 0.0 if series is None else series[2]

    def quantile(self, q, labels=()):
        """Estimated q-quantile by linear interpolation within buckets.

        Returns ``None`` for an empty series; observations beyond the
        last finite edge report that edge (the estimate saturates).
        """
        key = self._check_labels(labels)
        with self._registry._lock:
            series = self._series.get(key)
            if series is None or series[1] == 0:
                return None
            counts = list(series[0])
            total = series[1]
        rank = q * total
        cumulative = 0
        for slot, count in enumerate(counts):
            if count == 0:
                continue
            if cumulative + count >= rank:
                if slot >= len(self.buckets):
                    return self.buckets[-1]
                lo = self.buckets[slot - 1] if slot > 0 else 0.0
                hi = self.buckets[slot]
                fraction = (rank - cumulative) / count
                return lo + (hi - lo) * min(max(fraction, 0.0), 1.0)
            cumulative += count
        return self.buckets[-1]


class MetricsRegistry:
    """A set of named metrics.

    Declaring a metric is idempotent: re-declaring the same name with
    the same kind/labels returns the existing object (so every module
    can declare at import time without ordering constraints); a
    conflicting re-declaration raises.
    """

    def __init__(self, enabled=True):
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._metrics = {}

    def set_enabled(self, enabled):
        """Turn collection on/off (observations become no-ops when off)."""
        self.enabled = bool(enabled)
        return self

    # -- declaration -------------------------------------------------------

    def _declare(self, cls, name, help_text, label_names, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.label_names != tuple(
                    label_names
                ):
                    raise ValueError(
                        f"metric {name!r} already declared as "
                        f"{existing.kind}{existing.label_names}"
                    )
                return existing
            metric = cls(self, name, help_text, label_names, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name, help_text="", labels=()):
        return self._declare(Counter, name, help_text, labels)

    def gauge(self, name, help_text="", labels=()):
        return self._declare(Gauge, name, help_text, labels)

    def histogram(self, name, help_text="", labels=(), buckets=LATENCY_BUCKETS):
        return self._declare(Histogram, name, help_text, labels, buckets=buckets)

    def get(self, name):
        """The declared metric object, or ``None``."""
        with self._lock:
            return self._metrics.get(name)

    # -- snapshots ---------------------------------------------------------

    def snapshot(self):
        """Every series as plain dicts (what :meth:`render_json` renders)."""
        with self._lock:
            out = {}
            for name, metric in self._metrics.items():
                if metric.kind == "histogram":
                    series = {
                        key: {"buckets": list(value[0]), "count": value[1], "sum": value[2]}
                        for key, value in metric._series.items()
                    }
                else:
                    series = dict(metric._series)
                entry = {
                    "kind": metric.kind,
                    "help": metric.help,
                    "label_names": list(metric.label_names),
                    "series": series,
                }
                if metric.kind == "histogram":
                    entry["buckets"] = list(metric.buckets)
                out[name] = entry
            return out

    # -- rendering ---------------------------------------------------------

    def render_prometheus(self):
        """Text exposition format 0.0.4 (the ``GET /metrics`` body)."""
        lines = []
        with self._lock:
            for name in sorted(self._metrics):
                metric = self._metrics[name]
                if metric.help:
                    lines.append(f"# HELP {name} {metric.help}")
                lines.append(f"# TYPE {name} {metric.kind}")
                if metric.kind == "histogram":
                    for key in sorted(metric._series):
                        counts, total, total_sum = metric._series[key]
                        cumulative = 0
                        for slot, edge in enumerate(metric.buckets):
                            cumulative += counts[slot]
                            labels = _label_str(
                                metric.label_names, key, ("le", _format_number(edge))
                                )
                            lines.append(f"{name}_bucket{labels} {cumulative}")
                        cumulative += counts[-1]
                        labels = _label_str(metric.label_names, key, ("le", "+Inf"))
                        lines.append(f"{name}_bucket{labels} {cumulative}")
                        base = _label_str(metric.label_names, key)
                        lines.append(f"{name}_sum{base} {_format_number(total_sum)}")
                        lines.append(f"{name}_count{base} {total}")
                else:
                    for key in sorted(metric._series):
                        labels = _label_str(metric.label_names, key)
                        value = _format_number(metric._series[key])
                        lines.append(f"{name}{labels} {value}")
        return "\n".join(lines) + "\n"

    def render_json(self):
        """The snapshot with JSON-safe keys (label dicts, not tuples)."""
        out = {}
        for name, entry in self.snapshot().items():
            series = [
                {
                    "labels": dict(zip(entry["label_names"], key)),
                    "value": value,
                }
                for key, value in sorted(entry["series"].items())
            ]
            json_entry = {
                "kind": entry["kind"],
                "help": entry["help"],
                "series": series,
            }
            if "buckets" in entry:
                json_entry["buckets"] = entry["buckets"]
            out[name] = json_entry
        return out


def _format_number(value):
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return format(value, ".12g")


def _escape_label(value):
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _label_str(label_names, label_values, extra=None):
    pairs = list(zip(label_names, label_values))
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    body = ",".join(f'{name}="{_escape_label(str(v))}"' for name, v in pairs)
    return "{" + body + "}"


#: The process-wide default registry every instrumented layer uses.
METRICS = MetricsRegistry()
