"""Live-refresh ingest: tail a growing AIS dump, refresh served models.

:class:`FollowDaemon` is the continuous half of fit-once/serve-many.  A
background thread owns the whole ingest pipeline for one model::

    CsvFollower.poll() -> clean_messages -> StreamingSegmenter.push
        -> (closed trips accumulate) -> ModelRegistry.refresh on cadence

Each cycle polls the dump for appended rows (only complete lines are
consumed), cleans and segments them incrementally (open trips carry
across polls, so a trip spanning two appends segments exactly as it
would in one pass), and -- at most every ``refresh_interval_s`` seconds,
and only when new trips actually closed -- folds the closed trips into
the served model via :meth:`repro.service.ModelRegistry.refresh`.  The
refresh bumps the model ``revision``, which clients observe through the
``/models`` feed (``revision``, ``last_refresh``, ``rows_ingested``)
without the daemon restarting or the served instance ever being mutated.

Ownership is strictly single-threaded on the ingest side: the follower,
segmenter and pending-trip buffer belong to the daemon thread alone;
the only shared touch points are the (locked) registry and the status
snapshot (guarded by one mutex, read by ``/healthz``).  A failed cycle
-- the dump rotated, rows arrived behind a vessel's segmentation
barrier, the model cannot refresh -- stops the loop and surfaces the
error in :meth:`FollowDaemon.status` rather than spinning on a poisoned
feed; serving itself is unaffected.
"""

import json
import os
import threading
import time
from pathlib import Path

import numpy as np

from repro.ais import CsvFollower, schema
from repro.ais.reader import DEFAULT_CHUNK_ROWS
from repro.core import HabitConfig, StreamingSegmenter, clean_messages
from repro.minidb import Table
from repro.obs import METRICS

__all__ = ["FollowDaemon"]

_CYCLE_SECONDS = METRICS.histogram(
    "repro_follow_cycle_seconds",
    "Follow-daemon ingest cycle duration in seconds "
    "(poll + clean + segment + maybe-refresh).",
)
_ROWS_TOTAL = METRICS.counter(
    "repro_follow_rows_total",
    "Source rows read from the followed dump.",
)
_TRIPS_TOTAL = METRICS.counter(
    "repro_follow_trips_closed_total",
    "Trips closed by incremental segmentation and folded into refreshes.",
)
_REFRESHES_TOTAL = METRICS.counter(
    "repro_follow_refreshes_total",
    "Served-model refreshes performed by the follow daemon.",
)
_REFRESH_LAG = METRICS.gauge(
    "repro_follow_refresh_lag_seconds",
    "Seconds since the follow daemon's last successful refresh.",
)
_PENDING_ROWS = METRICS.gauge(
    "repro_follow_pending_rows",
    "Closed-trip rows buffered and awaiting the next refresh.",
)


class FollowDaemon:
    """Tails one AIS dump and keeps one registry model fresh.

    Parameters:

    - *registry*: the :class:`repro.service.ModelRegistry` to refresh
      into (shared with the serving engine).
    - *path*: the growing CSV dump to tail (same header dialects as
      :func:`repro.ais.read_csv`; may not exist yet).
    - *dataset*: the model to refresh.  It must be resolvable -- fit it
      first (``python -m repro.service --fit``).
    - *config*: the model's :class:`repro.core.HabitConfig` (default
      config if omitted).
    - *refresh_interval_s*: minimum seconds between refreshes; closed
      trips buffer between refreshes, so a slow cadence batches more
      work per graph rebuild.
    - *poll_interval_s*: how often the dump is polled for appended rows.
    - *chunk_rows*: max source rows parsed per chunk (memory bound).
    - *buffer_budget*: cap each vessel's open-trip buffer at this many
      rows (CLI ``--buffer-budget``).  Longer open trips are compressed
      in place by SED rank (see
      :class:`repro.core.StreamingSegmenter`), so ingest memory stays
      O(budget) per vessel no matter how long a vessel transmits
      without a trip break; ``None`` (the default) keeps the exact
      unbounded behaviour.

    ``start()`` launches the daemon thread; ``stop()`` joins it.  A trip
    only closes once its vessel shows a later gap/jump (or another trip),
    so the freshest open trip per vessel is always still buffered -- that
    is segmentation correctness, not ingest lag.
    """

    def __init__(
        self,
        registry,
        path,
        dataset,
        config=None,
        refresh_interval_s=5.0,
        poll_interval_s=0.5,
        chunk_rows=DEFAULT_CHUNK_ROWS,
        buffer_budget=None,
    ):
        self.registry = registry
        self.dataset = str(dataset)
        self.config = config or HabitConfig()
        self.refresh_interval_s = float(refresh_interval_s)
        self.poll_interval_s = float(poll_interval_s)
        self._follower = CsvFollower(path, chunk_rows=chunk_rows)
        # Segmentation keeps its defaults, those of segment_trips.
        self._segmenter = StreamingSegmenter(buffer_budget=buffer_budget)
        self._backlog = []  # polled-but-unsegmented chunks (crash-retryable)
        self._pending = []  # closed-trip tables awaiting the next refresh
        self._pending_rows = 0
        # The follower's resume point, persisted next to the model after
        # every successful refresh: restarting the daemon must continue
        # from the refreshed offset, not re-ingest the dump from byte 0
        # into a model that already contains it.  Trips still *open* at
        # shutdown are the documented (bounded) loss; delete the file to
        # deliberately start over.
        model_id = registry.model_id(self.dataset, self.config)
        self._state_path = Path(registry.root) / f"{model_id}.follow.json"
        self._stop = threading.Event()
        self._thread = None
        self._last_refresh_monotonic = None  # feeds the refresh-lag gauge
        self._lifecycle = threading.Lock()  # serialises start()/stop()
        self._status_lock = threading.Lock()
        self._status = {
            "path": str(self._follower.path),
            "dataset": self.dataset,
            "running": False,
            "rows_read": 0,
            "open_rows": 0,
            "buffer_budget": buffer_budget,
            "trips_closed": 0,
            "refreshes": 0,
            "revision": None,
            "last_refresh": None,
            "last_error": None,
        }

    # -- lifecycle ---------------------------------------------------------

    def start(self):
        """Start the ingest thread (idempotent); returns self.

        Resumes from the persisted follow state when one exists (see
        ``{model_id}.follow.json`` in the registry directory).  Called
        after a timed-out :meth:`stop`, it un-signals the still-running
        thread instead of abandoning it -- the loop keeps going rather
        than dying silently once its in-flight refresh completes.
        """
        with self._lifecycle:
            thread = self._thread
            if thread is not None and thread.is_alive():
                # Cancel a timed-out stop(), then confirm the thread
                # really kept running -- it may have passed its final
                # stop check already and be mid-exit.
                self._stop.clear()
                thread.join(timeout=0.1)
                if thread.is_alive():
                    with self._status_lock:
                        self._status["running"] = True
                    return self
            self._thread = None
            if self._follower.rows_read == 0 and self._state_path.exists():
                self._resume_from_sidecar()
            self._stop.clear()
            with self._status_lock:
                self._status["running"] = True
                self._status["last_error"] = None
            self._thread = threading.Thread(
                target=self._run, name=f"follow-{self.dataset}", daemon=True
            )
            self._thread.start()
            return self

    def _resume_from_sidecar(self):
        """Restore the follower from its persisted state, refusing a
        resume point that predates the model's current revision (a crash
        between the model republish and the sidecar write left an offset
        whose rows the model already contains)."""
        with open(self._state_path, encoding="utf-8") as handle:
            state = json.load(handle)
        recorded = state.get("revision")
        if recorded is not None:
            _, current = self.registry.peek_revision(self.dataset, self.config)
            if current is not None and current != recorded:
                raise RuntimeError(
                    f"{self._state_path}: follow state was written at model "
                    f"revision {recorded} but the model is at {current}; "
                    "resuming would re-ingest (or skip) rows -- re-baseline: "
                    "refit the model and delete this file"
                )
        self._follower.resume(state)
        with self._status_lock:
            self._status["rows_read"] = self._follower.rows_read

    def stop(self, timeout=10.0):
        """Signal the thread to exit and join it; returns True once dead.

        A refresh mid-flight (graph and hierarchy rebuild) can
        outlive *timeout*; in that case the handle is kept so a later
        ``start()`` cannot race a second ingest thread onto the same
        follower/segmenter state -- call ``stop()`` again to finish the
        join.
        """
        with self._lifecycle:
            self._stop.set()
            thread = self._thread
            if thread is not None:
                thread.join(timeout=timeout)
                if thread.is_alive():
                    return False  # still draining; state stays owned by it
                self._thread = None
            with self._status_lock:
                self._status["running"] = False
            return True

    def status(self):
        """JSON-ready snapshot: rows read, trips closed, refreshes,
        current revision, last refresh time, last error (if the loop
        died).  Served under ``/healthz`` as the ``follow`` block."""
        with self._status_lock:
            return dict(self._status)

    # -- ingest loop -------------------------------------------------------

    def _run(self):
        last_refresh = 0.0
        try:
            while not self._stop.is_set():
                cycle_started = time.perf_counter()
                got_data = self._ingest_once()
                last_refresh = self._maybe_refresh(last_refresh)
                _CYCLE_SECONDS.observe(time.perf_counter() - cycle_started)
                _PENDING_ROWS.set(self._pending_rows)
                if self._last_refresh_monotonic is not None:
                    _REFRESH_LAG.set(time.monotonic() - self._last_refresh_monotonic)
                if not got_data:
                    # Feed drained: sleep one poll interval.  While a
                    # backlog is draining, loop immediately instead.
                    self._stop.wait(self.poll_interval_s)
        except Exception as exc:  # surface, never spin on a poisoned feed
            with self._status_lock:
                self._status["last_error"] = f"{type(exc).__name__}: {exc}"
        finally:
            with self._status_lock:
                self._status["running"] = False

    def _ingest_once(self):
        """One byte-bounded poll; clean, segment, and buffer closed trips.

        Returns whether anything new arrived.  Polls are bounded
        (``CsvFollower.MAX_POLL_BYTES``) and :meth:`_maybe_refresh` runs
        between polls with a pending-rows threshold, so catching up on a
        large backlog holds one slice plus at most ~chunk_rows of closed
        trips in memory, never the archive.

        Polled chunks queue on the daemon and dequeue only after
        segmentation succeeds: the follower's byte offset advances at
        poll time, so a mid-batch failure must not discard its
        still-unprocessed chunks -- they stay queued for the restart,
        and the failing chunk itself re-raises rather than being skipped.
        """
        got_data = False
        if not self._backlog:
            self._backlog = self._follower.poll()
            got_data = bool(self._backlog)
            if got_data:
                rows_read = self._follower.rows_read
                with self._status_lock:
                    previously_read = self._status["rows_read"]
                    self._status["rows_read"] = rows_read
                _ROWS_TOTAL.inc(rows_read - previously_read)
        while self._backlog:
            trips = self._segmenter.push(clean_messages(self._backlog[0]))
            self._backlog.pop(0)
            if trips.num_rows:
                self._pending.append(trips)
                self._pending_rows += trips.num_rows
        with self._status_lock:
            self._status["open_rows"] = self._segmenter.open_rows
        return got_data

    def _maybe_refresh(self, last_refresh):
        """Refresh when the cadence elapsed or the buffer grew past one
        chunk (the backlog-drain bound); returns the new cadence mark."""
        now = time.monotonic()
        if not self._pending:
            return last_refresh
        if (
            now - last_refresh < self.refresh_interval_s
            and self._pending_rows < self._follower.chunk_rows
        ):
            return last_refresh
        self._refresh_pending()
        return now

    def _refresh_pending(self):
        """Fold every buffered closed trip into the served model.

        The buffer is cleared only after the refresh succeeds: a
        transient failure (say, a full disk at republish time) stops the
        loop with the trips still pending, so a later ``start()``
        retries them instead of silently dropping rows the follower's
        offset has already moved past.
        """
        chunk = self._pending[0] if len(self._pending) == 1 else Table.concat(self._pending)
        trips_closed = len(np.unique(np.asarray(chunk.column(schema.TRIP_ID))))
        _, _, revision = self.registry.refresh(self.dataset, chunk, self.config)
        self._pending = []
        self._pending_rows = 0
        self._save_state(revision)
        self._last_refresh_monotonic = time.monotonic()
        _TRIPS_TOTAL.inc(int(trips_closed))
        _REFRESHES_TOTAL.inc()
        _REFRESH_LAG.set(0.0)
        with self._status_lock:
            self._status["trips_closed"] += int(trips_closed)
            self._status["refreshes"] += 1
            self._status["revision"] = revision
            self._status["last_refresh"] = time.time()

    def _save_state(self, revision):
        """Atomically persist the follower's resume point (tmp + replace).

        The model *revision* this offset corresponds to rides along, so
        a crash between the model republish and this write is detected
        at the next start (revision mismatch) instead of silently
        re-ingesting the already-refreshed chunk.
        """
        payload = dict(self._follower.state(), revision=revision)
        tmp = self._state_path.with_name(self._state_path.name + f".tmp-{os.getpid()}")
        try:
            tmp.write_text(json.dumps(payload), encoding="utf-8")
            os.replace(tmp, self._state_path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
