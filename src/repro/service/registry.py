"""Model registry: fit-once / serve-many over ``.npz``-serialised models.

A registry owns one directory of fitted
:class:`repro.core.HabitImputer` models, one file per ``(dataset,
config)`` pair.  The file name *is* the model id --
``{DATASET}_{config_hash}.npz`` -- so any process pointed at the same
directory resolves the same ids without coordination.

:meth:`ModelRegistry.get` resolves a model through two tiers: the
in-memory LRU cache (``"hit"``) and the registry directory
(``"load"``).  It never fits: a model that is missing raises
:class:`ModelNotFound`, and a file that does not load (torn, stale
format) raises :class:`repro.core.ModelFormatError`.  Both have one
remedy, an offline ``python -m repro.service --fit``.

:meth:`ModelRegistry.refresh` is the incremental path: it merges a chunk
of newly arrived (segmented) trips into the resolved model's fit state,
rebuilds the graph, bumps the model ``revision`` -- surfaced in response
provenance and the ``/models`` feed -- and republishes.  The served
instance is never mutated: the refreshed model *replaces* it in cache and on disk,
so in-flight queries keep reading the old read-only graph.  Per-model
refresh bookkeeping (``last_refresh``, ``rows_ingested``) rides into
:meth:`ModelRegistry.list_models` so clients can monitor freshness.

Cache bookkeeping is guarded by one registry lock, while slow work
(disk loads, refreshes) runs outside it under a per-model-id lock --
a cold load never blocks cache hits on other models or ``/healthz``,
and concurrent misses on the same model dedupe to one load.
"""

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core import HabitConfig, HabitImputer, config_hash
from repro.core.habit import _check_format
from repro.obs import METRICS

__all__ = ["ModelNotFound", "ModelRegistry", "RegistryStats"]

_RESOLUTIONS_TOTAL = METRICS.counter(
    "repro_registry_resolutions_total",
    "Model resolutions by tier (hit = warm LRU, load = disk).",
    ("tier",),
)
_REGISTRY_SECONDS = METRICS.histogram(
    "repro_registry_seconds",
    "Registry slow-path duration in seconds, by operation (load, refresh).",
    ("op",),
)
_EVICTIONS_TOTAL = METRICS.counter(
    "repro_registry_evictions_total",
    "Models evicted from the in-memory LRU cache.",
)
_MODELS_LOADED = METRICS.gauge(
    "repro_registry_models_loaded",
    "Models currently warm in this process's LRU cache.",
)

class ModelNotFound(KeyError):
    """No cached or on-disk model matches the request."""

    def __init__(self, dataset, digest):
        self.dataset = dataset
        self.digest = digest
        super().__init__(
            f"no model for dataset {dataset!r} with config hash {digest}; "
            "fit one first (python -m repro.service --fit)"
        )


@dataclass(frozen=True)
class RegistryStats:
    """Counters for the two resolution tiers plus evictions/refreshes."""

    hits: int
    loads: int
    evictions: int
    refreshes: int = 0


class ModelRegistry:
    """Thread-safe LRU cache over a directory of serialised models."""

    def __init__(self, root, capacity=8):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.capacity = max(int(capacity), 1)
        self._cache = OrderedDict()  # model_id -> imputer
        self._lock = threading.RLock()
        # One lock per model id serialises its load/refresh without
        # holding the registry lock; entries are tiny and bounded by
        # distinct models seen, so they are never reclaimed.
        self._resolving = {}
        self._hits = self._loads = self._evictions = 0
        self._refreshes = 0
        # Per-model refresh bookkeeping for the /models feed: model_id ->
        # {"last_refresh": epoch seconds, "rows_ingested": cumulative rows,
        #  "refreshes": count}.  In-memory (daemon-local), like stats.
        self._refresh_meta = {}
        # path -> (mtime_ns, revision) memo for the polled /models feed;
        # publishes go through an atomic replace, so mtime is a reliable
        # invalidation key and repeat polls cost one stat per cold model.
        self._revision_memo = {}

    # -- naming -----------------------------------------------------------

    @staticmethod
    def model_id(dataset, config):
        """Canonical id: dataset name (upper), config hash."""
        return f"{str(dataset).upper()}_{config_hash(config)}"

    def path_for(self, dataset, config):
        """Where the model for ``(dataset, config)`` lives on disk."""
        return self.root / f"{self.model_id(dataset, config)}.npz"

    # -- population -------------------------------------------------------

    def publish(self, dataset, imputer):
        """Serialise a fitted imputer into the registry; returns ``(id, path)``.

        The model is also inserted into the in-memory cache so the
        publishing process serves it warm immediately.
        """
        model_id = self.model_id(dataset, imputer.config)
        path = imputer.save(self.root / f"{model_id}.npz")
        with self._lock:
            self._insert(model_id, imputer)
        return model_id, path

    # -- resolution -------------------------------------------------------

    def get(self, dataset, config):
        """Resolve ``(dataset, config)``; returns ``(imputer, id, source)``.

        ``source`` is ``"hit"`` or ``"load"`` -- surfaced in response
        provenance so clients can see cold starts.  Raises
        :class:`ModelNotFound` when no file exists, and
        :class:`repro.core.ModelFormatError` when the file does not load
        (interrupted save, stale format); the file stays unserved until a
        :meth:`publish` replaces it.
        """
        model_id = self.model_id(dataset, config)
        hit = self._cached(model_id)
        if hit is not None:
            return hit
        with self._model_lock(model_id):
            # Another thread may have resolved it while we waited.
            hit = self._cached(model_id)
            if hit is not None:
                return hit
            path = self.root / f"{model_id}.npz"
            if not path.exists():
                raise ModelNotFound(dataset, config_hash(config))
            started = time.perf_counter()
            imputer = HabitImputer.load(path)
            _REGISTRY_SECONDS.observe(time.perf_counter() - started, ("load",))
            _RESOLUTIONS_TOTAL.inc(1, ("load",))
            with self._lock:
                self._loads += 1
                self._insert(model_id, imputer)
            return imputer, model_id, "load"

    def refresh(self, dataset, chunk, config=None):
        """Merge newly arrived segmented trips into a served model.

        Resolves the model like :meth:`get`, folds *chunk* (a segmented
        trip table, e.g. one :class:`repro.core.StreamingSegmenter`
        emission) into its fit state, bumps the model ``revision``, and
        republishes to cache and disk.  Returns ``(imputer, model_id,
        revision)``.

        The served instance is never mutated: the base model is *forked*
        (states are immutable and shared), the fork absorbs the chunk,
        and the fork replaces the original in cache and on disk --
        in-flight queries keep reading the old graph.  Every loaded model
        carries its fit state, so every model refreshes.
        """
        config = config or HabitConfig()
        model_id = self.model_id(dataset, config)
        base, _, _ = self.get(dataset, config)
        with self._model_lock(model_id), _REGISTRY_SECONDS.time(("refresh",)):
            with self._lock:
                base = self._cache.get(model_id, base)
            # Replace, never mutate: fork() shares the (immutable) fit
            # states.
            fresh = base.fork()
            fresh.update(chunk)
            fresh.save(self.root / f"{model_id}.npz")
            now = time.time()
            with self._lock:
                self._refreshes += 1
                meta = self._refresh_meta.setdefault(
                    model_id, {"refreshes": 0, "rows_ingested": 0, "last_refresh": None}
                )
                meta["refreshes"] += 1
                meta["rows_ingested"] += int(chunk.num_rows)
                meta["last_refresh"] = now
                self._insert(model_id, fresh)
        return fresh, model_id, fresh.revision

    def _model_lock(self, model_id):
        with self._lock:
            return self._resolving.setdefault(model_id, threading.Lock())

    def _cached(self, model_id):
        with self._lock:
            if model_id in self._cache:
                self._cache.move_to_end(model_id)
                self._hits += 1
                _RESOLUTIONS_TOTAL.inc(1, ("hit",))
                return self._cache[model_id], model_id, "hit"
        return None

    def _insert(self, model_id, imputer):
        self._cache[model_id] = imputer
        self._cache.move_to_end(model_id)
        while len(self._cache) > self.capacity:
            self._cache.popitem(last=False)
            self._evictions += 1
            _EVICTIONS_TOTAL.inc()
        _MODELS_LOADED.set(len(self._cache))

    # -- introspection ----------------------------------------------------

    @property
    def stats(self):
        """Current :class:`RegistryStats` snapshot."""
        with self._lock:
            return RegistryStats(
                self._hits, self._loads, self._evictions, self._refreshes
            )

    @property
    def loaded_ids(self):
        """Model ids currently cached in memory, LRU-oldest first."""
        with self._lock:
            return list(self._cache)

    def evict_all(self):
        """Drop every cached model (files on disk are untouched)."""
        with self._lock:
            self._cache.clear()
            _MODELS_LOADED.set(0)

    def peek_revision(self, dataset, config):
        """Cheap resolvability probe: ``(model_id, revision)`` or ``(id, None)``.

        Answers from the in-memory cache when warm, otherwise from the
        file's revision field alone -- no graph construction, no cache
        insertion.  ``None`` means the model is not cheaply resolvable
        (missing or unreadable file): callers fall back to :meth:`get`,
        which raises the matching error.  The follow daemon uses this to
        read a model's revision without loading it.
        """
        model_id = self.model_id(dataset, config)
        with self._lock:
            cached = self._cache.get(model_id)
            if cached is not None:
                return model_id, cached.revision
        path = self.root / f"{model_id}.npz"
        if not path.exists():
            return model_id, None
        return model_id, self._stored_revision(path)

    def list_models(self):
        """All models in the registry directory, as JSON-ready dicts.

        Beyond identity (``model_id``, ``dataset``, ``config_hash``,
        ``path``, ``size_bytes``, ``loaded``) every entry is a
        freshness feed: ``revision`` (the model's incremental-refresh
        counter, read from memory when warm, from the file otherwise --
        ``None`` for an unreadable artefact), ``last_refresh`` (epoch
        seconds of this registry's last :meth:`refresh` of the model, or
        ``None``), ``rows_ingested`` and ``refreshes`` (cumulative, this
        registry instance).  Clients poll this to detect staleness.
        """
        with self._lock:
            cached = dict(self._cache)
            meta = {k: dict(v) for k, v in self._refresh_meta.items()}
        entries = []
        for path in sorted(self.root.glob("*.npz")):
            model_id = path.stem
            dataset, _, digest = model_id.rpartition("_")
            if model_id in cached:
                revision = cached[model_id].revision
            else:
                revision = self._stored_revision(path)
            model_meta = meta.get(model_id, {})
            entries.append(
                {
                    "model_id": model_id,
                    "dataset": dataset,
                    "config_hash": digest,
                    "path": str(path),
                    "size_bytes": path.stat().st_size,
                    "loaded": model_id in cached,
                    "revision": revision,
                    "last_refresh": model_meta.get("last_refresh"),
                    "rows_ingested": model_meta.get("rows_ingested", 0),
                    "refreshes": model_meta.get("refreshes", 0),
                }
            )
        return entries

    def _stored_revision(self, path):
        """Peek a model file's revision without a full load (None if unloadable).

        ``np.load`` reads the zip directory lazily, so this touches one
        tiny array -- and repeat calls are memoized on the file's mtime,
        so a polled ``/models`` feed costs one ``stat`` per cold model,
        not a zip open.

        ``None`` means "do not trust this artefact": not just unreadable
        zips, but any file :meth:`repro.core.HabitImputer.load` would
        reject -- another format tag, any other version, missing arrays.
        That keeps :meth:`peek_revision`'s fast path honest -- a corrupt
        or foreign file falls through to :meth:`get`, which raises
        :class:`repro.core.ModelFormatError` for it.
        """
        try:
            mtime_ns = path.stat().st_mtime_ns
        except OSError:
            return None
        key = str(path)
        with self._lock:
            memo = self._revision_memo.get(key)
            if memo is not None and memo[0] == mtime_ns:
                return memo[1]
        revision = self._validated_revision(path)
        # Failures memoize too: a corrupt artefact must not be re-opened
        # and re-validated on every /models poll -- the atomic-replace
        # publish path guarantees a repair changes the mtime.
        with self._lock:
            self._revision_memo[key] = (mtime_ns, revision)
        return revision

    @staticmethod
    def _validated_revision(path):
        """Revision if the file would plausibly load, else None.

        Validation is the loader's own :func:`repro.core.habit._check_format`,
        so the peek cannot drift from what ``load()`` accepts as the
        format evolves.
        """
        try:
            with np.load(path) as data:
                _check_format(data, path)
                return int(data["revision"][0])
        except Exception:
            return None
