"""Batch imputation engine: many gap requests, one kernel sweep per model.

The engine is the service's query executor.  A batch is grouped by
``(dataset, typed)`` so each model -- plain or typed -- is resolved
through the registry exactly once (one cache probe / disk load / fit per
model, however many gaps ride on it).  Execution is **batch-native**:
every request probes the answer cache, the misses snap their endpoints,
identical routes are deduplicated (see request coalescing below) and
handed to the dispatcher, which groups them by resolved class graph --
a single vectorised CH kernel sweep (:mod:`repro.core.kernel`) answers a
whole group instead of one Python heap loop per request.  Per-request
``expanded``/cost/latency still land in provenance individually.

Everything runs in-process: fitted imputers are read-only, so the whole
batch runs on the request thread -- snap is cheap Python, and the
search and the simplification are one NumPy call each per model, with no
serialisation, one shared answer cache and models resolved once per
process.

On top of the model cache sits one **answer cache**: a bounded LRU
(:data:`PATH_CACHE_SIZE` entries) of rendered answers -- the
:class:`repro.core.path.ImputedPath` and its metric length -- keyed by
``(model id, class tag, revision, raw start, raw end)``.  A request
resolves its class graph and probes the cache *before* snapping, so an
exactly-repeated query costs one LRU lookup: no snap, no search, no
geometry.  Only the exact raw endpoints may reuse an answer, because
simplification and resampling both see the pinned endpoints; a nudged
endpoint is searched and rendered again, bit-identically.  ``revision``
in the key makes incremental refreshes self-invalidating.  Every answer
is stored by the same rule -- routed paths, no-route answers and
out-of-coverage straight lines alike -- and nothing caches a search
result.  Cached answers share their coordinate arrays across responses;
callers must treat them as read-only (the transport only serialises
them).

**Request coalescing:** a miss snaps its endpoints, and identical
``(model id, class tag, revision, snapped src, snapped dst)`` routes
within one batch are searched once.  The first requester records tier
``"miss"``; every other rider on the same route records ``"coalesced"``
and is fanned the single result -- large fleet batches converging on hub
pairs pay one kernel lane, not N.

**Cross-request micro-batching:** every batch's searched lanes go
through one shared :class:`repro.service.dispatch.BatchDispatcher`.
Concurrent HTTP handler threads submitting within a bounded window
(:data:`BATCH_WINDOW_MS`, with a :data:`BATCH_MAX_LANES` cap) fuse into
one kernel call per resolved class graph, so sixteen simultaneous
singletons cost one sweep, not sixteen.  The window flushes immediately
once every in-flight request is parked in it -- a lone request never
waits (the idle bypass) -- and identical routes from *different*
requests dedupe to one lane: the late arrivals record tier
``"cross_batch"``, the cross-request extension of ``"coalesced"``.
The dispatcher and the answer cache are always on; there is exactly
one miss path.

**Rendering is batch-native too:** a batch's misses render in one
:meth:`repro.core.habit.HabitImputer.render_paths` call per resolved
class graph -- one level-synchronous RDP pass over all their paths --
requests sharing an answer key share one render, and each gap is
charged an equal share of its group's render time, as it is of its
group's kernel call.

Every result carries :class:`repro.service.schema.Provenance`: which
model answered, how it was obtained (cache hit / disk load / fit), the
answer-cache tier (``hit``/``miss``/``coalesced``/``cross_batch``, or
``bypass`` for an out-of-coverage straight-line fallback that was not
cached yet), the routing method actually used (including the
straight-line fallback flag), nodes expanded by the search, the metric
path length, and per-request wall-clock latency.
"""

import threading
import time
from collections import OrderedDict
from dataclasses import replace

import numpy as np

from repro.core import HabitConfig
from repro.geo.budget import compress_rendered_path
from repro.geo.proj import path_lengths_m, polylines_xy_m
from repro.obs import METRICS
from repro.service.dispatch import BatchDispatcher
from repro.service.schema import ImputeResult, Provenance

__all__ = ["BatchImputationEngine"]

_PATH_CACHE_TOTAL = METRICS.counter(
    "repro_path_cache_total",
    "Answer-cache resolutions by tier "
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

#: Sentinel returned by :meth:`_PathCache.get` for a key not cached.
_MISSING = object()

#: Answer-cache entries.
PATH_CACHE_SIZE = 4096
#: Cross-request micro-batching window (milliseconds).
BATCH_WINDOW_MS = 2.0
#: Pending search lanes that flush a micro-batching window early.
BATCH_MAX_LANES = 64


class _PathCache:
    """Thread-safe bounded LRU with its own hit/miss counters."""

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
        #: The answer cache: LRU over (model id, class tag, revision, raw
        #: start, raw end) -> (ImputedPath, path_length_m).
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
        """JSON-ready answer-cache block for ``/healthz``: this engine's
        own hit/miss counts, entries and capacity."""
        cache = self.render_cache
        return {
            "hits": cache.hits,
            "misses": cache.misses,
            "entries": len(cache),
            "capacity": cache.capacity,
        }

    def _run_batched(self, models, requests, token):
        """Execute one batch: an answer-cache probe per request, one
        dispatcher submission for the routes to search, one render call
        per resolved class graph.

        Each request resolves its class graph and probes the answer
        cache under ``(model id, class tag, revision, raw start, raw
        end)``; a hit (tier ``"hit"``) takes the cached answer and never
        snaps.  A miss snaps: an out-of-coverage gap renders the
        straight line (tier ``"bypass"``), and the rest coalesce by
        snapped route key -- requests sharing a route ride one search
        lane; the first records ``"miss"``, the rest ``"coalesced"``.
        The lanes go through the dispatcher (*token* is the run's window
        hold from :meth:`BatchDispatcher.enter`), where they can further
        fuse with other concurrent requests' lanes; a lane answered by
        another request's identical search records ``"cross_batch"``.
        The misses of each resolved class graph then render together in
        one :meth:`~repro.core.habit.HabitImputer.render_paths` call,
        which also measures every rendered path; requests sharing an
        answer key share one render, and every rendered answer is stored
        under its key.  :meth:`_compress` then budgets the over-large
        answers in one pass.  Per-request latency charges each rider its
        probe/snap time plus an equal share of its group's kernel call,
        of its group's render call and of the compression stage.  The
        per-gap metric series are fed in bulk, one call per series per
        batch.
        """
        paths = [None] * len(requests)
        lengths = [None] * len(requests)
        tiers = [None] * len(requests)
        elapsed = [0.0] * len(requests)
        lanes = {}  # route key -> (plain imputer, (src, dst), rider idxs)
        renders = {}  # answer key -> (plain imputer, request, route key | None, rider idxs)
        for i, request in enumerate(requests):
            started = time.perf_counter()
            imputer, model_id, _ = models[(request.dataset.upper(), request.typed)]
            if request.typed:
                plain, class_tag = imputer.resolve(request.vessel_type)
            else:
                plain, class_tag = imputer, ""
            tag = (model_id, class_tag, plain.revision)
            key = (*tag, request.start, request.end)
            # A repeat within the batch is answered by the pending render.
            entry = _MISSING if key in renders else self.render_cache.get(key)
            if entry is not _MISSING:
                paths[i], lengths[i] = entry
                tiers[i] = "hit"
            else:
                snapped = plain.snap_endpoints(request.start, request.end)
                route = None if snapped is None else (*tag, *snapped)
                if route is None:
                    tiers[i] = "bypass"
                elif route in lanes:
                    lanes[route][2].append(i)
                    tiers[i] = "coalesced"
                else:
                    lanes[route] = (plain, snapped, [i])
                    tiers[i] = "miss"
                renders.setdefault(key, (plain, request, route, []))[3].append(i)
            elapsed[i] = time.perf_counter() - started
        results = {}  # route key -> SearchResult | None
        if lanes:
            # The shared dispatcher fuses these lanes with other
            # concurrent requests' windows and runs one kernel call per
            # resolved class graph.
            answers = self.dispatcher.submit(
                token,
                [
                    (route, plain, snapped, len(riders))
                    for route, (plain, snapped, riders) in lanes.items()
                ],
            )
            for route, (_, _, riders) in lanes.items():
                results[route], cross, share = answers[route]
                if cross:
                    # Another in-flight request's identical lane ran the
                    # search; this batch's first rider was provisionally
                    # a "miss" (in-batch riders stay "coalesced").
                    tiers[riders[0]] = "cross_batch"
                for i in riders:
                    elapsed[i] += share
        groups = {}  # id(plain imputer) -> (plain imputer, [answer keys])
        for key, (plain, *_) in renders.items():
            groups.setdefault(id(plain), (plain, []))[1].append(key)
        for plain, keys in groups.values():
            started = time.perf_counter()
            pending = [renders[key] for key in keys]
            rendered, rendered_lengths = plain.render_paths(
                [request.start for _, request, _, _ in pending],
                [request.end for _, request, _, _ in pending],
                # A bypass has no route key: it renders the straight line.
                [results.get(route) for _, _, route, _ in pending],
            )
            riders = []
            for key, path, length, (*_, idxs) in zip(
                keys, rendered, rendered_lengths, pending
            ):
                self.render_cache.put(key, (path, length))
                for i in idxs:
                    paths[i], lengths[i] = path, length
                riders.extend(idxs)
            share = (time.perf_counter() - started) / len(riders)
            for i in riders:
                elapsed[i] += share
        budgets = self._compress(requests, paths, lengths, elapsed)
        _PATH_CACHE_TOTAL.inc_many((tier,) for tier in tiers)
        _IMPUTE_SECONDS.observe_many(elapsed, ("thread",))
        out = []
        for i, request in enumerate(requests):
            imputer, model_id, source = models[(request.dataset.upper(), request.typed)]
            path = paths[i]
            points_in, points_out, max_sed = budgets[i]
            provenance = Provenance(
                model_id=model_id,
                cache=source,
                method=path.method,
                fallback=path.method == "fallback",
                num_cells=len(path.cells),
                path_length_m=lengths[i],
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

    @staticmethod
    def _compress(requests, paths, lengths, elapsed):
        """Apply every request's ``max_points`` budget, in place.

        Strictly post-cache: the answer cache stays budget-agnostic, so
        mixed budgets share one cached geometry and an over-large budget
        is an exact no-op.  The over-budget paths are projected in one
        pass and re-measured in one :func:`repro.geo.proj.path_lengths_m`
        call; each one's compression is its own
        :data:`compress_to_budget` call, and each is charged an equal
        share of the stage.  Returns per-request
        ``(points_in, points_out, max_sed_m)``, zeros where nothing was
        dropped.
        """
        budgets = [(0, 0, 0.0)] * len(requests)
        over = [
            i
            for i, request in enumerate(requests)
            if request.max_points is not None and len(paths[i].lats) > request.max_points
        ]
        if not over:
            return budgets
        started = time.perf_counter()
        sizes = [len(paths[i].lats) for i in over]
        x, y = polylines_xy_m(
            np.concatenate([paths[i].lats for i in over]),
            np.concatenate([paths[i].lngs for i in over]),
            sizes,
        )
        dropped = 0
        lo = 0
        for i, size in zip(over, sizes):
            hi = lo + size
            squeezed = compress_to_budget(x[lo:hi], y[lo:hi], requests[i].max_points)
            lo = hi
            path = paths[i]
            paths[i] = replace(
                path,
                lats=path.lats[squeezed.indices],
                lngs=path.lngs[squeezed.indices],
            )
            budgets[i] = (squeezed.points_in, squeezed.points_out, squeezed.max_sed_m)
            dropped += squeezed.points_dropped
        squeezed_lengths = path_lengths_m(
            [paths[i].lats for i in over], [paths[i].lngs for i in over]
        )
        for i, length in zip(over, squeezed_lengths):
            lengths[i] = length
        share = (time.perf_counter() - started) / len(over)
        for i in over:
            elapsed[i] += share
        _COMPRESS_SECONDS.observe_many([share] * len(over))
        _COMPRESS_DROPPED.inc(dropped)
        return budgets

