"""Batch imputation engine: many gap requests, one kernel sweep per model.

The engine is the service's query executor.  A batch is grouped by
``(dataset, typed)`` so each model -- plain or typed -- is resolved
through the registry exactly once (one cache probe / disk load / fit per
model, however many gaps ride on it).  Execution is **batch-native**:
every request snaps its endpoints and probes the path cache, the
remaining cache misses are deduplicated (see request coalescing below)
and handed to the dispatcher, which groups them by resolved class graph
-- a single vectorised CH kernel sweep (:mod:`repro.core.kernel`)
answers a whole group instead of one Python heap loop per request.
Per-request ``expanded``/cost/latency still land in provenance
individually.

Everything runs in-process: fitted imputers are read-only, so the whole
batch runs on the request thread -- snap and render are cheap Python,
and the search itself is one NumPy kernel call per model, with no
serialisation, one shared path cache and models resolved once per
process.  (Provenance still records ``executor="thread"`` for wire
compatibility.)

On top of the model cache sits a **snap-and-path LRU cache**: hub-to-hub
queries from large fleets mostly repeat, and a route depends only on the
graph and the *snapped* endpoints -- never on the raw query positions.
(A cache miss pays one graph search -- by default the
contraction-hierarchy variant, whose upward-only bidirectional query
settles the fewest nodes of any variant; the per-route ``expanded``
count rides into provenance either way.)
Each request snaps its endpoints (memoized per graph), then looks up the
search result under ``(model id, class tag, revision, snapped src,
snapped dst)``; a hit renders the cached route without touching the
search kernel at all.  ``revision`` in the key makes incremental
refreshes self-invalidating, and negative results (no route) are cached
too.

**Request coalescing:** identical ``(model id, class tag, snapped src,
snapped dst)`` routes within one batch are searched once.  The first
requester records path-cache tier ``"miss"``; every other rider on the
same route records ``"coalesced"`` and is fanned the single result --
large fleet batches converging on hub pairs pay one kernel lane, not N.

**Cross-request micro-batching:** every batch's cache-missed lanes go
through one shared :class:`repro.service.dispatch.BatchDispatcher`.
Concurrent HTTP handler threads submitting within a bounded window
(:data:`BATCH_WINDOW_MS`, with a :data:`BATCH_MAX_LANES` cap) fuse into
one kernel call per resolved class graph, so sixteen simultaneous
singletons cost one sweep, not sixteen.  The window flushes immediately
once every in-flight request is parked in it -- a lone request never
waits (the idle bypass) -- and identical routes from *different*
requests dedupe to one lane: the late arrivals record path-cache tier
``"cross_batch"``, the cross-request extension of ``"coalesced"``.
The dispatcher and both cache tiers are always on; there is exactly
one miss path.

On top of the route cache sits a **rendered-path memo**: RDP
simplification and resampling dominate the per-request cost of a warm
hit, yet their output depends only on the route and the *exact* raw
endpoints.  Both cache tiers' renders are memoized under ``(route key,
start, end)`` (same :data:`PATH_CACHE_SIZE` capacity as the path
cache), together with the
rendered polyline's metric length, so an exactly-repeated query costs
two LRU probes and no geometry at all.  Memoized results share their
coordinate arrays across responses; callers must treat them as
read-only (the transport only serialises them).

Every result carries :class:`repro.service.schema.Provenance`: which
model answered, how it was obtained (cache hit / disk load / fit), the
path-cache tier
(``hit``/``miss``/``coalesced``/``cross_batch``, or ``bypass`` for an
out-of-coverage straight-line fallback), the routing
method actually used (including the straight-line fallback flag), nodes
expanded by the search, the metric path length, and per-request
wall-clock latency.
"""

import threading
import time
from collections import OrderedDict
from dataclasses import replace

from repro.core import HabitConfig
from repro.geo.budget import compress_rendered_path
from repro.geo.proj import latlng_to_xy_m, path_length_m
from repro.obs import METRICS
from repro.service.dispatch import BatchDispatcher
from repro.service.schema import ImputeResult, Provenance

__all__ = ["BatchImputationEngine"]

_PATH_CACHE_TOTAL = METRICS.counter(
    "repro_path_cache_total",
    "Snap-and-path route-cache resolutions by tier "
    "(hit, miss, coalesced, cross_batch, bypass).",
    ("tier",),
)
_IMPUTE_SECONDS = METRICS.histogram(
    "repro_impute_seconds",
    "Per-gap imputation latency in seconds (snap + route + render), "
    "by executor (always thread).",
    ("executor",),
)
_COMPRESS_SECONDS = METRICS.histogram(
    "repro_compress_seconds",
    "Budget (max_points) compression latency per compressed response "
    "in seconds.",
)
_COMPRESS_DROPPED = METRICS.counter(
    "repro_compress_points_dropped_total",
    "Path points dropped by per-request max_points budget compression.",
)

#: The ``max_points`` stage, still bound under its original module-level
#: name: perfbench's ``--trace 1`` spans wrap
#: ``repro.service.engine.compress_to_budget`` as ``budget.compress``.
compress_to_budget = compress_rendered_path

#: Sentinel distinguishing "not cached" from a cached no-route (None).
_MISSING = object()

#: Snap-and-path LRU entries; also the rendered-path memo's capacity.
PATH_CACHE_SIZE = 4096
#: Cross-request micro-batching window (milliseconds).
BATCH_WINDOW_MS = 2.0
#: Pending search lanes that flush a micro-batching window early.
BATCH_MAX_LANES = 64


class _PathCache:
    """Thread-safe bounded LRU of search results keyed by snapped routes."""

    def __init__(self, capacity):
        self.capacity = int(capacity)
        self._entries = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return self._entries[key]
            self.misses += 1
            return _MISSING

    def put(self, key, value):
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def __len__(self):
        return len(self._entries)


class BatchImputationEngine:
    """Executes batches of gap requests against a model registry.

    *registry* is a :class:`repro.service.ModelRegistry`.  Call
    :meth:`close` (or use the engine as a context manager) to release
    the dispatcher.
    """

    def __init__(self, registry):
        self.registry = registry
        #: LRU over (model id, class tag, revision, snapped src, snapped
        #: dst) -> SearchResult | None.
        self.path_cache = _PathCache(PATH_CACHE_SIZE)
        #: LRU over (route cache key, raw start, raw end) ->
        #: (ImputedPath, path_length_m): the rendered-path memo.
        self.render_cache = _PathCache(PATH_CACHE_SIZE)
        self.dispatcher = BatchDispatcher(
            window_s=BATCH_WINDOW_MS / 1e3, max_lanes=BATCH_MAX_LANES
        )

    # -- lifecycle ---------------------------------------------------------

    def close(self):
        """Release the dispatcher.

        In-flight requests complete (the dispatcher's final window is
        flushed by its own waiters; later submissions run immediately,
        unbatched)."""
        self.dispatcher.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    # -- execution ---------------------------------------------------------

    def run(self, requests, config=None):
        """Impute every request; returns results in request order.

        *config* applies to the whole batch (the transport parses it once
        per payload).  Raises :class:`repro.service.registry.ModelNotFound`
        if any request names a dataset with no resolvable model.
        """
        requests = list(requests)
        config = config or HabitConfig()
        # Bracket the whole run so the dispatcher knows this thread may
        # still contribute lanes to the current micro-batching window.
        token = self.dispatcher.enter()
        try:
            models = {}
            for request in requests:
                key = (request.dataset.upper(), request.typed)
                if key not in models:
                    models[key] = self.registry.get(
                        request.dataset, config, typed=request.typed
                    )
            return self._run_batched(models, requests, token)
        finally:
            self.dispatcher.leave(token)

    def path_cache_stats(self):
        """JSON-ready path-cache block for ``/healthz``.

        Hit/miss counts come from the metrics registry when collection
        is enabled and fall back to the cache's own counters when
        metrics are off.
        """
        cache = self.path_cache
        if METRICS.enabled:
            hits = _PATH_CACHE_TOTAL.value(("hit",))
            misses = _PATH_CACHE_TOTAL.value(("miss",))
        else:
            hits, misses = cache.hits, cache.misses
        return {
            "hits": hits,
            "misses": misses,
            "entries": len(cache),
            "capacity": cache.capacity,
        }

    def _run_batched(self, models, requests, token):
        """Execute one batch: snap + cache-probe per request, one
        dispatcher submission for the misses, render per request.

        Coalescing happens between the probe and the submission:
        requests sharing a full cache key ride one search lane; the
        first records tier ``"miss"``, the rest ``"coalesced"``.  The
        miss lanes go through the dispatcher (*token* is the run's
        window hold from :meth:`BatchDispatcher.enter`), where they can
        further fuse with other concurrent requests' lanes; a lane
        answered by another request's identical search records
        ``"cross_batch"``.  Per-request latency charges each rider its
        snap/probe/render time plus an equal share of its group's
        kernel call.  All renders go through the rendered-path memo
        (exact raw endpoints in the key).
        """
        paths = [None] * len(requests)
        lengths = [None] * len(requests)
        tiers = [None] * len(requests)
        elapsed = [0.0] * len(requests)
        lanes = {}  # cache key -> (plain imputer, (src, dst), rider idxs)
        for i, request in enumerate(requests):
            started = time.perf_counter()
            imputer, model_id, _ = models[(request.dataset.upper(), request.typed)]
            if request.typed:
                plain, class_tag = imputer.resolve(request.vessel_type)
            else:
                plain, class_tag = imputer, ""
            snapped = plain.snap_endpoints(request.start, request.end)
            if snapped is None:
                # Out-of-coverage: straight line, nothing to cache.
                paths[i] = plain.render_path(request.start, request.end, None)
                tiers[i] = "bypass"
            else:
                key = (model_id, class_tag, plain.revision, *snapped)
                if key in lanes:
                    lanes[key][2].append(i)
                    tiers[i] = "coalesced"
                else:
                    result = self.path_cache.get(key)
                    if result is _MISSING:
                        lanes[key] = (plain, snapped, [i])
                        tiers[i] = "miss"
                    else:
                        paths[i], lengths[i] = self._render(
                            plain, key, request, result
                        )
                        tiers[i] = "hit"
            elapsed[i] = time.perf_counter() - started
        if lanes:
            # The shared dispatcher fuses these lanes with other
            # concurrent requests' windows and runs one kernel call per
            # resolved class graph.
            answers = self.dispatcher.submit(
                token,
                [
                    (key, plain, snapped, len(riders))
                    for key, (plain, snapped, riders) in lanes.items()
                ],
            )
            for key, (plain, _, riders) in lanes.items():
                result, cross, share = answers[key]
                self.path_cache.put(key, result)
                if cross:
                    # Another in-flight request's identical lane ran the
                    # search; this batch's first rider was provisionally
                    # a "miss" (in-batch riders stay "coalesced").
                    tiers[riders[0]] = "cross_batch"
                for i in riders:
                    started = time.perf_counter()
                    paths[i], lengths[i] = self._render(
                        plain, key, requests[i], result
                    )
                    elapsed[i] += share + time.perf_counter() - started
        out = []
        for i, request in enumerate(requests):
            imputer, model_id, source = models[(request.dataset.upper(), request.typed)]
            path = paths[i]
            length = lengths[i]
            points_in = points_out = 0
            max_sed = 0.0
            budget = request.max_points
            if budget is not None and len(path.lats) > budget:
                # Strictly post-memo: the rendered-path memo (and the
                # route cache before it) stay budget-agnostic, so mixed
                # budgets share one cached geometry and an over-large
                # budget is an exact no-op.
                started = time.perf_counter()
                x, y = latlng_to_xy_m(path.lats, path.lngs)
                squeezed = compress_to_budget(x, y, budget)
                path = replace(
                    path,
                    lats=path.lats[squeezed.indices],
                    lngs=path.lngs[squeezed.indices],
                )
                length = float(path_length_m(path.lats, path.lngs))
                spent = time.perf_counter() - started
                elapsed[i] += spent
                _COMPRESS_SECONDS.observe(spent)
                _COMPRESS_DROPPED.inc(squeezed.points_dropped)
                points_in = squeezed.points_in
                points_out = squeezed.points_out
                max_sed = squeezed.max_sed_m
            if length is None:
                length = float(path_length_m(path.lats, path.lngs))
            _PATH_CACHE_TOTAL.inc(1, (tiers[i],))
            _IMPUTE_SECONDS.observe(elapsed[i], ("thread",))
            provenance = Provenance(
                model_id=model_id,
                cache=source,
                method=path.method,
                fallback=path.method == "fallback",
                num_cells=len(path.cells),
                path_length_m=length,
                elapsed_ms=elapsed[i] * 1e3,
                revision=getattr(imputer, "revision", 1),
                path_cache=tiers[i],
                expanded=path.expanded,
                points_in=points_in,
                points_out=points_out,
                max_sed_m=max_sed,
            )
            out.append(
                ImputeResult(
                    request=request,
                    lats=path.lats,
                    lngs=path.lngs,
                    provenance=provenance,
                )
            )
        return out

    def _render(self, plain, key, request, result):
        """Render *result* through the rendered-path memo.

        Returns ``(ImputedPath, metric length)``.  The memo key pairs
        the route's full cache key with the *exact* raw endpoints --
        simplification and resampling both see the pinned endpoints, so
        only an exactly-repeated query may reuse the geometry (a nudged
        endpoint re-renders, bit-identically to an unmemoized engine).
        Straight-line fallbacks skip the memo: they are cheaper than
        the probe.
        """
        if result is None:
            path = plain.render_path(request.start, request.end, result)
            return path, float(path_length_m(path.lats, path.lngs))
        memo_key = (key, request.start, request.end)
        entry = self.render_cache.get(memo_key)
        if entry is not _MISSING:
            return entry
        path = plain.render_path(request.start, request.end, result)
        entry = (path, float(path_length_m(path.lats, path.lngs)))
        self.render_cache.put(memo_key, entry)
        return entry
