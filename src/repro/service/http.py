"""JSON-over-HTTP transport on the stdlib ``http.server``.

Four routes:

- ``GET /healthz`` -- liveness plus registry cache counters (hits /
  loads / evictions / refreshes), the engine's answer-cache
  block (``path_cache``: hits / misses / entries / capacity)
  and, when a follow daemon is attached, its ``follow`` status block
  (rows read, trips closed, refreshes, current revision, last error).
- ``GET /models``  -- the model/revision feed: every model in the
  registry directory (id, dataset, config hash, size, whether it is
  warm in memory) plus its freshness fields -- ``revision``,
  ``last_refresh``, ``rows_ingested`` -- so clients can detect a stale
  model without imputing through it.
- ``GET /metrics`` -- the process-wide :data:`repro.obs.METRICS`
  registry in Prometheus text exposition format (0.0.4); append
  ``?format=json`` for the same data as JSON.  Covers every layer:
  search variants, fit stages, registry tiers, answer-cache tiers, follow
  cycles, HTTP routes, and the process's resident and peak resident
  memory (set from ``/proc/self/status`` as each scrape renders).  404
  while the registry is disabled (``METRICS.set_enabled(False)``, the
  CLI's ``--no-metrics``).
- ``POST /impute`` -- a batch of gap requests (see
  :mod:`repro.service.schema`); the response carries per-request
  provenance and a GeoJSON FeatureCollection of the imputed paths.
  A request's optional ``max_points`` caps its response polyline via
  budget compression (:mod:`repro.geo.budget`); the provenance then
  reports ``points_in``/``points_out``/``max_sed_m``.

Schema violations map to 400 (422 for a request field the service no
longer accepts), models with no file to 404, a model file that does not
load (torn, stale format) to 503 naming the file and its remedy (an
offline refit with ``--fit``), everything else to 500 with the error
message in the body.  The server is a
:class:`ThreadingHTTPServer`, so requests run concurrently -- one
handler thread per connection; all shared state lives in the (locked)
registry, the read-only models, the follow daemon's own locked status
snapshot, and the (locked) metrics registry.  Concurrency is also what
the engine's combining dispatcher feeds on: handler threads whose
cache-missed searches queue behind a running flush share the next
kernel call (see :mod:`repro.service.dispatch`).

Every request is counted and timed into
``repro_http_requests_total{route,status}`` /
``repro_http_request_seconds{route}`` (the route label is bounded to
the known routes plus ``other`` so a scanner cannot explode the label
space).  The stdlib's stderr request log stays off; pass
``log_json=True`` (CLI ``--log-json``) for an opt-in structured access
log instead -- one JSON object per line (route, method, status,
latency_ms, batch size and request ids for ``/impute``) to stderr or
``log_file``.
"""

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.core import ModelFormatError
from repro.io import feature_collection, linestring_features
from repro.io.geojson import linestring_collection_bytes
from repro.obs import METRICS
from repro.service.engine import BatchImputationEngine
from repro.service.memory import resident_bytes
from repro.service.registry import ModelNotFound
from repro.service.schema import SchemaError, parse_impute_payload

__all__ = ["make_server"]

_HTTP_REQUESTS_TOTAL = METRICS.counter(
    "repro_http_requests_total",
    "HTTP requests served, by route and status code.",
    ("route", "status"),
)
_HTTP_REQUEST_SECONDS = METRICS.histogram(
    "repro_http_request_seconds",
    "HTTP request wall-clock latency in seconds, by route.",
    ("route",),
)
_RESIDENT_BYTES = METRICS.gauge(
    "repro_process_resident_bytes",
    "Resident set size of this process in bytes (VmRSS), read at each scrape.",
)
_PEAK_RESIDENT_BYTES = METRICS.gauge(
    "repro_process_peak_resident_bytes",
    "Peak resident set size of this process in bytes (VmHWM), read at each scrape.",
)

#: The response encoder: ``json.dumps``' defaults minus the circular
#: reference check, which a freshly built response body never needs.
#: Output bytes are identical.
_ENCODER = json.JSONEncoder(check_circular=False)

#: Routes that get their own metric label; everything else is "other"
#: so arbitrary paths cannot grow the label space.
_KNOWN_ROUTES = ("/healthz", "/models", "/metrics", "/impute")


def make_server(
    registry,
    host="127.0.0.1",
    port=8080,
    follow=None,
    log_json=False,
    log_file=None,
):
    """A ready-to-run HTTP server over *registry*.

    *follow* optionally attaches a started
    :class:`repro.service.FollowDaemon`, surfaced under ``/healthz``.
    The ``GET /metrics`` route and this transport's request counters
    follow the process-wide :data:`repro.obs.METRICS` switch (the CLI's
    ``--no-metrics``).  *log_json* enables the structured access log, to
    *log_file* (append) or stderr; the opened handle is exposed as
    ``server.access_log_file`` (``None`` for stderr) and is the
    caller's to close.  Pass ``port=0`` to bind an ephemeral port
    (tests); the chosen port is ``server.server_address[1]``.  The
    caller owns the serve loop; the engine needs no shutdown::

        server = make_server(registry, port=8080)
        server.serve_forever()
    """
    engine = BatchImputationEngine(registry)

    class Handler(_ServiceHandler):
        pass

    Handler.engine = engine
    Handler.registry = registry
    Handler.follow = follow
    Handler.started_monotonic = time.monotonic()
    access_log_file = None
    if log_json:
        if log_file:
            access_log_file = open(log_file, "a", encoding="utf-8")
            Handler.access_log = access_log_file
        else:
            Handler.access_log = sys.stderr
        Handler.access_log_lock = threading.Lock()
    server = ThreadingHTTPServer((host, port), Handler)
    server.engine = engine
    server.access_log_file = access_log_file
    return server


def _entries(results):
    """Each result's ``results[]`` entry and feature ``properties``,
    sharing one provenance dict."""
    entries, properties = [], []
    for r in results:
        provenance = r.provenance.to_dict()
        request_id, dataset = r.request.request_id, r.request.dataset
        entries.append(
            {
                "request_id": request_id,
                "dataset": dataset,
                "num_points": r.num_points,
                "provenance": provenance,
            }
        )
        properties.append({"request_id": request_id, "dataset": dataset, **provenance})
    return entries, properties


def _response(results, elapsed_ms, entries, geojson):
    return {
        "count": len(results),
        "elapsed_ms": elapsed_ms,
        "results": entries,
        "geojson": geojson,
    }


def impute_response(results, elapsed_ms):
    """The ``/impute`` 200 body as a dict: per-result provenance plus
    the GeoJSON.

    Each result's provenance dict is built once and shared by
    ``results[].provenance`` and its feature's ``properties``; the
    features' coordinates come from one conversion over the whole
    batch (:func:`repro.io.geojson.linestring_features`).
    """
    entries, properties = _entries(results)
    features = linestring_features(
        [r.lats for r in results], [r.lngs for r in results], properties
    )
    return _response(results, elapsed_ms, entries, feature_collection(features))


def impute_body(results, elapsed_ms):
    """The ``/impute`` 200 body as bytes: exactly
    ``_ENCODER.encode(impute_response(results, elapsed_ms))``.

    The stdlib encodes ``count``, ``elapsed_ms`` and ``results[]``, and
    the FeatureCollection, whose coordinates vectorised NumPy passes
    write, is spliced in
    (:func:`repro.io.geojson.linestring_collection_bytes`).  A batch
    holding a coordinate those passes cannot write (0.0, or closer than
    1e-4 to it) is encoded whole from :func:`impute_response`.
    """
    entries, properties = _entries(results)
    geojson = linestring_collection_bytes(
        [r.lats for r in results], [r.lngs for r in results], properties
    )
    if geojson is None:
        return _ENCODER.encode(impute_response(results, elapsed_ms)).encode("utf-8")
    skeleton = _ENCODER.encode(_response(results, elapsed_ms, entries, None))
    # "geojson" is the last key, so its null is the text's last.
    head, _, tail = skeleton.rpartition("null")
    return b"".join((head.encode(), geojson, tail.encode()))


class _ServiceHandler(BaseHTTPRequestHandler):
    engine = None
    registry = None
    follow = None
    started_monotonic = 0.0
    access_log = None  # file-like; None disables the JSON access log
    access_log_lock = None
    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"

    # The default handler logs every request to stderr; a serving daemon
    # under load (and the test suite) wants that off.  The structured
    # replacement is the opt-in JSON access log in _finish_request.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    # -- response plumbing -------------------------------------------------

    def _route_label(self):
        path = self.path.split("?", 1)[0]
        return path if path in _KNOWN_ROUTES else "other"

    def _send_json(self, status, payload):
        self._send_body(status, _ENCODER.encode(payload).encode("utf-8"), "application/json")

    def _send_body(self, status, body, content_type):
        # Count and log *before* the body hits the socket: a client that
        # has read its response is guaranteed to find the request already
        # counted in its very next scrape (and the access-log line
        # already flushed).  The latency span covers all the request
        # handling; only the loopback write itself falls outside it.
        self._finish_request(status)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _finish_request(self, status):
        route = self._route_label()
        elapsed = time.perf_counter() - self._request_started
        _HTTP_REQUESTS_TOTAL.inc(1, (route, str(int(status))))
        _HTTP_REQUEST_SECONDS.observe(elapsed, (route,))
        if self.access_log is not None:
            record = {
                "ts": round(time.time(), 3),
                "route": route,
                "path": self.path,
                "method": self.command,
                "status": int(status),
                "latency_ms": round(elapsed * 1e3, 3),
            }
            record.update(self._log_fields)
            line = json.dumps(record)
            with self.access_log_lock:
                self.access_log.write(line + "\n")
                self.access_log.flush()

    # -- routes ------------------------------------------------------------

    def do_GET(self):
        self._request_started = time.perf_counter()
        self._log_fields = {}
        path, _, query = self.path.partition("?")
        if path == "/healthz":
            stats = self.registry.stats
            payload = {
                "status": "ok",
                "uptime_s": time.monotonic() - self.started_monotonic,
                "models_loaded": len(self.registry.loaded_ids),
                "cache": {
                    "hits": stats.hits,
                    "loads": stats.loads,
                    "evictions": stats.evictions,
                    "refreshes": stats.refreshes,
                },
                "path_cache": self.engine.path_cache_stats(),
            }
            if self.follow is not None:
                payload["follow"] = self.follow.status()
            self._send_json(200, payload)
        elif path == "/models":
            self._send_json(200, {"models": self.registry.list_models()})
        elif path == "/metrics":
            if not METRICS.enabled:
                self._send_json(404, {"error": "metrics are disabled (--no-metrics)"})
                return
            memory = resident_bytes()
            if memory is not None:  # no /proc (not Linux): leave them unset
                _RESIDENT_BYTES.set(memory[0])
                _PEAK_RESIDENT_BYTES.set(memory[1])
            if "format=json" in query.split("&"):
                self._send_json(200, METRICS.render_json())
            else:
                self._send_body(
                    200,
                    METRICS.render_prometheus().encode("utf-8"),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self):
        self._request_started = time.perf_counter()
        self._log_fields = {}
        if self.path.partition("?")[0] != "/impute":
            self._send_json(404, {"error": f"unknown path {self.path!r}"})
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if length < 0:
            # read(-1) would block until the client hangs up; without a
            # usable length the body cannot be framed, so drop the
            # connection after answering.
            self.close_connection = True
            self._send_json(400, {"error": "invalid Content-Length"})
            return
        try:
            payload = json.loads(self.rfile.read(length) or b"")
        except (ValueError, TypeError):
            self._send_json(400, {"error": "body is not valid JSON"})
            return
        try:
            requests, config = parse_impute_payload(payload)
            self._log_fields = {
                "batch": len(requests),
                "request_ids": [r.request_id for r in requests],
            }
            started = time.perf_counter()
            results = self.engine.run(requests, config)
            elapsed_ms = (time.perf_counter() - started) * 1e3
        except SchemaError as exc:
            self._send_json(exc.status, {"error": str(exc)})
            return
        except ModelNotFound as exc:
            self._send_json(404, {"error": exc.args[0]})
            return
        except ModelFormatError as exc:
            self._send_json(
                503, {"error": f"{exc}; refit the model with python -m repro.service --fit"}
            )
            return
        except Exception as exc:  # pragma: no cover - defensive
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
            return
        self._send_body(200, impute_body(results, elapsed_ms), "application/json")
