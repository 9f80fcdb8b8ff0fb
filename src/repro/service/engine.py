"""Batch imputation engine: many gap requests, one kernel sweep per model.

The engine is the service's query executor.  A batch is grouped by
dataset so each model is resolved through the registry exactly once
(one cache probe or disk load per model, however many gaps ride on
it).  Execution is **batch-native**: every request probes the answer
cache, the misses snap their endpoints, identical routes are
deduplicated (see request coalescing below) and handed to the
dispatcher, which groups them by graph -- a single vectorised CH kernel
sweep (:mod:`repro.core.kernel`) answers a whole group instead of one
Python heap loop per request.  Per-request ``expanded``/cost/latency
still land in provenance individually.

Everything runs in-process: fitted imputers are read-only, so the whole
batch runs on the request thread -- snap is cheap Python, and the
search and the simplification are one NumPy call each per model, with no
serialisation, one shared answer cache and models resolved once per
process.

On top of the model cache sits one **answer cache**: a bounded LRU
(:data:`PATH_CACHE_SIZE` entries) of rendered answers keyed by
``(graph serial, raw start, raw end)``.  The serial is the
process-unique number every :class:`repro.core.graph.CellGraph` takes
when it is built or loaded, so an answer is only ever handed out on the
very graph that computed it: a republished, refreshed or
reloaded model has a new graph, hence a new serial, whatever its
revision says, and the serial pins the whole answer.  A
request probes the cache *before* snapping, so an exactly-repeated query
costs one LRU lookup: no snap and no search, and from its second repeat
on no geometry either.  Only the exact raw endpoints
may reuse an answer, because simplification and resampling both see
the pinned endpoints; a nudged endpoint is searched and rendered again,
bit-identically.  Every answer is stored by the same rule -- routed
paths, no-route answers and out-of-coverage straight lines alike -- and
nothing caches a search result.

An entry is an :class:`_Answer`: the method, ``expanded``, the cell
count and the metric length, and the geometry in one of two forms.  A
miss stores the **compact** form, the ``(4, k)`` float64 block of the
path's RDP-kept vertices (lat, lng and the x/y of the path's own
projection; a straight-line fallback holds none), from which the 250 m
samples are a deterministic function.  The first hit re-renders the
samples and puts the entry back in the **sampled** form, the samples
alone, so memory grows only with reuse: a cold entry is ~0.6 KB on a
resolution-10 model where samples cost ~5 KB, and a reused one is what
every entry used to be.  (A miss whose samples are smaller than its
vertices, such as a zero-length gap, stores them at once.)  The
rendered path's cell array, a slice of its whole batch's kernel output,
is dropped once counted.  Sample arrays are shared across responses;
callers must treat them as read-only (the transport only serialises
them).  ``/healthz`` reports the arrays' bytes, a running sum.

**Dead entries leave with their graph.**  The cache remembers the serial
it last served for each model id.  Serials grow with build order, so
the first request on a newer graph drops the older serial's entries in
one pass, and an in-flight request still on the older graph is answered
but not stored.

**Request coalescing:** a miss snaps its endpoints, and identical
``(graph serial, snapped src, snapped dst)`` routes within one batch are
searched once.  The first requester records tier ``"miss"``; every
other rider on the same route records ``"coalesced"`` and is fanned the
single result -- large fleet batches converging on hub pairs pay one
kernel lane, not N.

**Cross-request fusion:** every batch's searched lanes go through one
shared :class:`repro.service.dispatch.BatchDispatcher`, a combining
flush.  A submission that finds no flush running runs at once -- a lone
request never waits -- and submissions from concurrent HTTP handler
threads that arrive while one runs queue behind it and fuse into the
next flush, one kernel call per graph.  Identical routes from
*different* requests dedupe to one lane: the late arrivals record
tier ``"cross_batch"``, the cross-request extension of ``"coalesced"``.
The dispatcher and the answer cache are always on; there is exactly
one miss path.

**Rendering is batch-native too:** a batch's misses are simplified in
one :meth:`repro.core.habit.HabitImputer.simplify_paths` call per
model -- one level-synchronous RDP pass over all their paths -- and the
misses and the compact hits are resampled together in
one :func:`repro.core.path.resample_blocks` call, the two stages
:meth:`~repro.core.habit.HabitImputer.render_paths` composes offline.
Requests sharing an answer key share one render, and each rendered gap
is charged an equal share of the render stage, as it is of its group's
kernel call.

Every result carries :class:`repro.service.schema.Provenance`: which
model answered, how it was obtained (cache hit / disk load), the
answer-cache tier (``hit``/``miss``/``coalesced``/``cross_batch``, or
``bypass`` for an out-of-coverage straight-line fallback that was not
cached yet), the routing method actually used (including the
straight-line fallback flag), nodes expanded by the search, the metric
path length, and per-request wall-clock latency.
"""

import threading
import time
from collections import OrderedDict
from typing import NamedTuple

import numpy as np

from repro.core import HabitConfig
from repro.core.path import resample_blocks
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


class _Answer(NamedTuple):
    """One answer, in one of two forms, plus exactly what a response
    reads besides its coordinates.

    The compact form holds ``vertices``, the ``(4, k)`` float64 block
    :meth:`~repro.core.habit.HabitImputer.simplify_paths` returns (rows
    lat, lng, x, y), or ``None`` for a straight-line fallback, which is
    re-made from the request's raw endpoints; ``lats``/``lngs`` are
    ``None``.  The sampled form holds the
    :data:`~repro.core.path.RESAMPLE_M` samples in ``lats``/``lngs`` and
    no vertices: every response's answer, and a cache entry once it has
    been hit.
    """

    vertices: np.ndarray | None
    lats: np.ndarray | None
    lngs: np.ndarray | None
    method: str
    expanded: int
    num_cells: int
    length_m: float

    @property
    def nbytes(self):
        """Bytes of the arrays this answer holds."""
        if self.lats is not None:
            return self.lats.nbytes + self.lngs.nbytes
        return 0 if self.vertices is None else self.vertices.nbytes


class _PathCache:
    """Thread-safe bounded LRU with its own hit/miss counters and a
    running sum of its answers' array bytes, keyed by ``(graph serial,
    ...)`` and emptied of a graph's entries once a newer graph serves the
    same model id."""

    def __init__(self, capacity):
        self.capacity = int(capacity)
        self._entries = OrderedDict()
        self._lock = threading.Lock()
        self._serving = {}  # model id -> newest graph serial seen
        self.hits = 0
        self.misses = 0
        #: :attr:`_Answer.nbytes` summed over the entries.
        self.bytes = 0

    def track(self, owner, serial):
        """Note that *owner* answers on graph *serial*.  A newer serial
        replaces the owner's old one, whose entries leave in one pass
        unless another owner still serves that graph; an older serial
        (an in-flight request on a replaced graph) changes nothing."""
        if self._serving.get(owner) == serial:
            return
        with self._lock:
            old = self._serving.get(owner)
            if old is not None and old >= serial:
                return
            self._serving[owner] = serial
            if old is not None and old not in self._serving.values():
                for key in [key for key in self._entries if key[0] == old]:
                    self.bytes -= self._entries.pop(key).nbytes

    def get(self, key):
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return self._entries[key]
            self.misses += 1
            return _MISSING

    def put(self, key, value):
        """Store *value* unless its graph serial, ``key[0]``, has been
        replaced since the request tracked it."""
        with self._lock:
            if key[0] not in self._serving.values():
                return
            old = self._entries.get(key)
            if old is not None:
                self.bytes -= old.nbytes
            self._entries[key] = value
            self.bytes += value.nbytes
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self.bytes -= self._entries.popitem(last=False)[1].nbytes

    def inflate(self, key, entry, value):
        """Replace *entry*, as :meth:`get` returned it, with *value* (the
        same answer in its sampled form), in place in the LRU order --
        unless the key has been evicted, dropped or stored anew since."""
        with self._lock:
            if self._entries.get(key) is entry:
                self._entries[key] = value
                self.bytes += value.nbytes - entry.nbytes

    def __len__(self):
        return len(self._entries)


class BatchImputationEngine:
    """Executes batches of gap requests against a model registry.

    *registry* is a :class:`repro.service.ModelRegistry`.
    """

    def __init__(self, registry):
        self.registry = registry
        #: The answer cache: LRU over (graph serial, raw start, raw end)
        #: -> _Answer.
        self.render_cache = _PathCache(PATH_CACHE_SIZE)
        self.dispatcher = BatchDispatcher()

    def run(self, requests, config=None):
        """Impute every request; returns results in request order.

        *config* applies to the whole batch (the transport parses it once
        per payload).  Raises :class:`repro.service.registry.ModelNotFound`
        if any request names a dataset with no model file, and
        :class:`repro.core.ModelFormatError` if its file does not load.
        """
        requests = list(requests)
        config = config or HabitConfig()
        models = {}
        for request in requests:
            key = request.dataset.upper()
            if key not in models:
                models[key] = self.registry.get(request.dataset, config)
        return self._run_batched(models, requests)

    def path_cache_stats(self):
        """JSON-ready answer-cache block for ``/healthz``: this engine's
        own hit/miss counts, entries, capacity and held array bytes."""
        cache = self.render_cache
        return {
            "hits": cache.hits,
            "misses": cache.misses,
            "entries": len(cache),
            "capacity": cache.capacity,
            "bytes": cache.bytes,
        }

    def _run_batched(self, models, requests):
        """Execute one batch: an answer-cache probe per request, one
        dispatcher submission for the routes to search, one render call
        per model.

        Each request tracks its model's graph serial for the model id
        (dropping a replaced graph's entries) and probes the answer
        cache under ``(graph serial, raw start, raw end)``; a hit (tier ``"hit"``) takes the
        cached answer and never snaps.  A miss snaps: an out-of-coverage
        gap renders the straight line (tier ``"bypass"``), and the rest
        coalesce by snapped route key ``(graph serial, snapped src,
        snapped dst)`` -- requests sharing a route ride one search lane;
        the first records ``"miss"``, the rest ``"coalesced"``.
        The lanes go through the dispatcher, where they can further fuse
        with other concurrent requests' lanes; a lane answered by
        another request's identical search records ``"cross_batch"``.
        :meth:`_render` then gives every answer of the batch that lacks
        them its samples -- the misses, simplified per model, and the
        compact hits, resampled together in one call;
        requests sharing an answer key share one render, and every
        rendered answer is stored under its key as an :class:`_Answer`
        -- unless its graph was replaced while the batch ran.
        :meth:`_compress` then budgets the over-large answers in one
        pass.  Per-request latency charges each rider its probe/snap time
        plus an equal share of its group's kernel call, of the render
        stage and of the compression stage.  The per-gap metric series
        are fed in bulk, one call per series per batch.
        """
        answers = [None] * len(requests)
        tiers = [None] * len(requests)
        elapsed = [0.0] * len(requests)
        lanes = {}  # route key -> (imputer, (src, dst), rider idxs)
        renders = {}  # answer key -> (imputer, request, route key | None, rider idxs)
        inflates = {}  # answer key -> (compact entry, request, rider idxs)
        for i, request in enumerate(requests):
            started = time.perf_counter()
            imputer, model_id, _ = models[request.dataset.upper()]
            serial = imputer.graph.serial
            self.render_cache.track(model_id, serial)
            key = (serial, request.start, request.end)
            # A repeat within the batch is answered by the pending render.
            entry = _MISSING if key in renders else self.render_cache.get(key)
            if entry is not _MISSING:
                answers[i] = entry
                tiers[i] = "hit"
                if entry.lats is None:
                    inflates.setdefault(key, (entry, request, []))[2].append(i)
            else:
                snapped = imputer.snap_endpoints(request.start, request.end)
                route = None if snapped is None else (serial, *snapped)
                if route is None:
                    tiers[i] = "bypass"
                elif route in lanes:
                    lanes[route][2].append(i)
                    tiers[i] = "coalesced"
                else:
                    lanes[route] = (imputer, snapped, [i])
                    tiers[i] = "miss"
                renders.setdefault(key, (imputer, request, route, []))[3].append(i)
            elapsed[i] = time.perf_counter() - started
        results = {}  # route key -> SearchResult | None
        if lanes:
            # The shared dispatcher fuses these lanes with other
            # concurrent requests' lanes and runs one kernel call per
            # graph.
            searched = self.dispatcher.submit(
                [
                    (route, imputer, snapped, len(riders))
                    for route, (imputer, snapped, riders) in lanes.items()
                ],
            )
            for route, (_, _, riders) in lanes.items():
                results[route], cross, share = searched[route]
                if cross:
                    # Another in-flight request's identical lane ran the
                    # search; this batch's first rider was provisionally
                    # a "miss" (in-batch riders stay "coalesced").
                    tiers[riders[0]] = "cross_batch"
                for i in riders:
                    elapsed[i] += share
        if renders or inflates:
            self._render(renders, inflates, results, answers, elapsed)
        budgets = self._compress(requests, answers, elapsed)
        _PATH_CACHE_TOTAL.inc_many((tier,) for tier in tiers)
        _IMPUTE_SECONDS.observe_many(elapsed, ("thread",))
        out = []
        for i, request in enumerate(requests):
            imputer, model_id, source = models[request.dataset.upper()]
            answer = answers[i]
            points_in, points_out, max_sed = budgets[i]
            provenance = Provenance(
                model_id=model_id,
                cache=source,
                method=answer.method,
                fallback=answer.method == "fallback",
                num_cells=answer.num_cells,
                path_length_m=answer.length_m,
                elapsed_ms=elapsed[i] * 1e3,
                revision=imputer.revision,
                path_cache=tiers[i],
                expanded=answer.expanded,
                points_in=points_in,
                points_out=points_out,
                max_sed_m=max_sed,
            )
            out.append(
                ImputeResult(
                    request=request,
                    lats=answer.lats,
                    lngs=answer.lngs,
                    provenance=provenance,
                )
            )
        return out

    def _render(self, renders, inflates, results, answers, elapsed):
        """Give every answer of the batch its samples.

        The misses are simplified, one
        :meth:`~repro.core.habit.HabitImputer.simplify_paths` call per
        model; then they and the compact hits are
        resampled together in one :func:`repro.core.path.resample_blocks`
        call, and the misses measured in one
        :func:`repro.geo.proj.path_lengths_m` call.  A miss stores the
        smaller of its two forms -- nearly always the compact one; a
        compact hit puts its entry back in the sampled form.  Every
        rider is charged an equal share of the stage.
        """
        started = time.perf_counter()
        groups = {}  # id(imputer) -> (imputer, [answer keys])
        for key, (imputer, *_) in renders.items():
            groups.setdefault(id(imputer), (imputer, []))[1].append(key)
        fresh = {}  # answer key -> (vertex block | None, search result | None)
        for imputer, keys in groups.values():
            pending = [renders[key] for key in keys]
            # A bypass has no route key: it renders the straight line.
            routes = [results.get(route) for _, _, route, _ in pending]
            blocks = imputer.simplify_paths(
                [request.start for _, request, _, _ in pending],
                [request.end for _, request, _, _ in pending],
                routes,
            )
            fresh.update(zip(keys, zip(blocks, routes)))
        pending = [renders[key][1] for key in fresh]
        pending += [request for _, request, _ in inflates.values()]
        samples = resample_blocks(
            [request.start for request in pending],
            [request.end for request in pending],
            [block for block, _ in fresh.values()]
            + [entry.vertices for entry, _, _ in inflates.values()],
        )
        missed, hit = samples[: len(fresh)], samples[len(fresh) :]
        lengths = path_lengths_m([lats for lats, _ in missed], [lngs for _, lngs in missed])
        riders = []
        for (key, (block, result)), (lats, lngs), length in zip(fresh.items(), missed, lengths):
            if result is None:
                scalars = ("fallback", 0, 0, length)
            else:
                scalars = (result.method, result.expanded, len(result.cells), length)
            answer = _Answer(None, lats, lngs, *scalars)
            if block is None or block.nbytes < answer.nbytes:
                # Owned: a view would pin the whole batch's block.
                block = None if block is None else block.copy()
                self.render_cache.put(key, _Answer(block, None, None, *scalars))
            else:
                self.render_cache.put(key, answer)
            for i in renders[key][3]:
                answers[i] = answer
            riders.extend(renders[key][3])
        for (key, (entry, _, idxs)), (lats, lngs) in zip(inflates.items(), hit):
            answer = _Answer(None, lats, lngs, *entry[3:])
            self.render_cache.inflate(key, entry, answer)
            for i in idxs:
                answers[i] = answer
            riders.extend(idxs)
        share = (time.perf_counter() - started) / len(riders)
        for i in riders:
            elapsed[i] += share

    @staticmethod
    def _compress(requests, answers, elapsed):
        """Apply every request's ``max_points`` budget, in place: an
        over-budget request's answer becomes a squeezed copy with its
        coordinates and length re-measured.

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
            if request.max_points is not None and len(answers[i].lats) > request.max_points
        ]
        if not over:
            return budgets
        started = time.perf_counter()
        sizes = [len(answers[i].lats) for i in over]
        x, y = polylines_xy_m(
            np.concatenate([answers[i].lats for i in over]),
            np.concatenate([answers[i].lngs for i in over]),
            sizes,
        )
        dropped = 0
        lo = 0
        kept_lats, kept_lngs = [], []
        for i, size in zip(over, sizes):
            hi = lo + size
            squeezed = compress_to_budget(x[lo:hi], y[lo:hi], requests[i].max_points)
            lo = hi
            kept_lats.append(answers[i].lats[squeezed.indices])
            kept_lngs.append(answers[i].lngs[squeezed.indices])
            budgets[i] = (squeezed.points_in, squeezed.points_out, squeezed.max_sed_m)
            dropped += squeezed.points_dropped
        squeezed_lengths = path_lengths_m(kept_lats, kept_lngs)
        for i, lats, lngs, length in zip(over, kept_lats, kept_lngs, squeezed_lengths):
            answers[i] = answers[i]._replace(lats=lats, lngs=lngs, length_m=length)
        share = (time.perf_counter() - started) / len(over)
        for i in over:
            elapsed[i] += share
        _COMPRESS_SECONDS.observe_many([share] * len(over))
        _COMPRESS_DROPPED.inc(dropped)
        return budgets

