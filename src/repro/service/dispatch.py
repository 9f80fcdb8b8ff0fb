"""Cross-request micro-batching dispatcher for the serving engine.

The batch kernel (:mod:`repro.core.kernel`) amortises CH search cost
only when it is handed many lanes at once, but HTTP traffic arrives as
many concurrent *singletons* on separate handler threads.  This module
fuses them: every request thread submits its snapped-and-cache-missed
search lanes into a shared :class:`BatchDispatcher`, which collects
everything that arrives within a bounded window into one
:meth:`~repro.core.habit.HabitImputer.route_batch` call per resolved
class graph and fans the results back through per-request futures.

**Leaderless window protocol** (no background thread to own, start, or
drain):

- Request threads bracket their whole engine run with :meth:`enter` /
  :meth:`leave`, so the dispatcher knows how many runs are in flight.
- :meth:`submit` parks the calling thread in the current window.  The
  window flushes as soon as **every in-flight run is parked in it** --
  nobody who could still contribute lanes (snapping, probing caches,
  rendering a previous answer) remains outside -- or when the pending
  lane count reaches ``max_lanes``, or when the oldest submission's
  window deadline (``window_s``) expires, or at :meth:`close`.  The
  all-parked rule is what makes the idle bypass fall out naturally: a
  lone request is the only in-flight run, so its own submission
  satisfies the condition and it executes immediately, with zero added
  wait.  It is also what makes closed-loop concurrency fuse: threads
  still rendering the previous flush's answers hold the window open
  (bounded by the deadline), so the next window collects every
  re-arriving client instead of flushing near-empty the moment one of
  them returns.
- Whichever parked thread observes a flush condition becomes that
  flush's *leader*: it claims the whole pending queue, releases the
  lock, runs the searches, then distributes results and wakes the other
  submitters.  A search error poisons the whole flush (every fused
  submitter re-raises it), matching the blast radius of a failed
  in-batch search.

**Cross-request coalescing:** lanes are keyed by their snapped route
key (model id, class tag, revision, snapped endpoints).  Identical keys
from *different* submissions fuse into one search lane; the first
submitter keeps its ``"miss"`` answer-cache tier
and every later one is answered from the same lane under the
``"cross_batch"`` tier -- the in-batch ``"coalesced"`` tier extended
across concurrent requests.

The engine builds its dispatcher from fixed constants
(:data:`repro.service.engine.BATCH_WINDOW_MS`,
:data:`repro.service.engine.BATCH_MAX_LANES`); the constructor
parameters are the unit tests' seam.

Instrumentation: ``repro_dispatch_queue_wait_seconds`` (submit-to-flush
wait), ``repro_dispatch_window_occupancy`` (requests fused per flush),
``repro_dispatch_batch_lanes`` (search lanes per flush, after
cross-request dedup) and ``repro_dispatch_coalesced_total`` (lanes
answered by another request's search).
"""

import threading
import time

from repro.obs import COUNT_BUCKETS, METRICS

__all__ = ["BatchDispatcher"]

DISPATCH_QUEUE_WAIT_SECONDS = METRICS.histogram(
    "repro_dispatch_queue_wait_seconds",
    "Seconds a submission waited in the micro-batching window before "
    "its flush started executing.",
)
DISPATCH_WINDOW_OCCUPANCY = METRICS.histogram(
    "repro_dispatch_window_occupancy",
    "Concurrent request submissions fused per dispatcher flush.",
    buckets=COUNT_BUCKETS,
)
DISPATCH_BATCH_LANES = METRICS.histogram(
    "repro_dispatch_batch_lanes",
    "Search lanes per dispatcher flush, after cross-request dedup.",
    buckets=COUNT_BUCKETS,
)
DISPATCH_COALESCED_TOTAL = METRICS.counter(
    "repro_dispatch_coalesced_total",
    "Cache-missed lanes answered by an identical lane submitted by "
    "another in-flight request (answer-cache tier cross_batch).",
)


class _RunToken:
    """Opaque per-``enter`` handle; ``leave`` takes it back exactly once."""

    __slots__ = ()


class _Submission:
    """One request thread's parked lanes plus its result future."""

    __slots__ = ("entries", "queued_at", "claimed", "done", "error", "results")

    def __init__(self, entries):
        self.entries = entries
        self.queued_at = time.perf_counter()
        self.claimed = False  # taken by a leader, results on the way
        self.done = False
        self.error = None
        self.results = {}  # lane key -> (SearchResult | None, cross, share_s)


class BatchDispatcher:
    """Fuses concurrent request threads' search lanes into shared flushes.

    *window_s* bounds how long a submission may wait for co-travellers
    (the flush usually fires much earlier, as soon as every in-flight
    run has submitted); *max_lanes* caps the pending lane count so a
    burst flushes early instead of building an unboundedly large kernel
    batch.  Thread-safe; owned by one
    :class:`repro.service.BatchImputationEngine`.
    """

    def __init__(self, window_s=0.002, max_lanes=64):
        self.window_s = float(window_s)
        self.max_lanes = int(max_lanes)
        self._cond = threading.Condition()
        self._pending = []  # parked _Submission objects, arrival order
        self._pending_lanes = 0
        self._active = 0  # entered runs (parked submitters included)
        self._closed = False

    # -- in-flight run tracking -------------------------------------------

    def enter(self):
        """Register an in-flight run; returns the token ``leave`` needs."""
        with self._cond:
            self._active += 1
        return _RunToken()

    def leave(self, token):
        """Unregister a run.  The hold lasts the whole run -- through
        cache probes and renders, not just until its own submission --
        so a departing run may leave the window all-parked: waiting
        submitters are woken to re-check the flush condition."""
        with self._cond:
            self._active -= 1
            if self._pending and len(self._pending) == self._active:
                self._cond.notify_all()

    # -- the window --------------------------------------------------------

    def submit(self, token, entries):
        """Park *entries* in the current window; returns their results.

        *entries* is a list of ``(key, imputer, (src, dst), riders)``
        lanes -- ``key`` is the lane's snapped route key, ``riders``
        is how many requests of the submitting batch ride it (used for
        kernel-time attribution).  Blocks until a flush answers every
        lane, then returns ``{key: (result, cross, share_s)}`` --
        ``cross`` is True when another request's identical lane ran the
        search, ``share_s`` the lane's per-rider share of its
        kernel call.  Raises whatever the flush's searches raised.
        An empty *entries* is a no-op (the run's hold stays with its
        token until :meth:`leave`).
        """
        sub = _Submission(list(entries))
        if not sub.entries:
            return {}
        batch = None
        with self._cond:
            self._pending.append(sub)
            self._pending_lanes += len(sub.entries)
            deadline = sub.queued_at + self.window_s
            while not sub.done and sub.error is None:
                if sub.claimed:
                    # A leader owns this submission; results are coming.
                    self._cond.wait()
                    continue
                now = time.perf_counter()
                flush_due = (
                    len(self._pending) == self._active
                    or self._pending_lanes >= self.max_lanes
                    or self._closed
                    or now >= deadline
                )
                if flush_due:
                    batch = self._claim_locked()
                    break
                self._cond.wait(deadline - now)
        if batch is not None:
            self._execute(batch)
        if sub.error is not None:
            raise sub.error
        return sub.results

    def close(self):
        """Stop windowing: wake every parked submitter (one of them leads
        the final flush) and make future submissions execute immediately.
        In-flight requests complete normally."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    # -- flush execution (leader thread, lock released) --------------------

    def _claim_locked(self):
        batch, self._pending = self._pending, []
        self._pending_lanes = 0
        for sub in batch:
            sub.claimed = True
        return batch

    def _execute(self, batch):
        started = time.perf_counter()
        if METRICS.enabled:
            for sub in batch:
                DISPATCH_QUEUE_WAIT_SECONDS.observe(started - sub.queued_at)
            DISPATCH_WINDOW_OCCUPANCY.observe(len(batch))
        try:
            # Merge: identical keys from different submissions fuse into
            # one lane (claims beyond the first are cross-request
            # coalesces).
            lanes = {}  # key -> [imputer, pair, [(sub, riders), ...]]
            crossed = 0
            for sub in batch:
                for key, imputer, pair, riders in sub.entries:
                    lane = lanes.get(key)
                    if lane is None:
                        lanes[key] = [imputer, pair, [(sub, riders)]]
                    else:
                        lane[2].append((sub, riders))
                        crossed += 1
            if METRICS.enabled:
                DISPATCH_BATCH_LANES.observe(len(lanes))
                if crossed:
                    DISPATCH_COALESCED_TOTAL.inc(crossed)
            # One route_batch per resolved class graph: a single kernel
            # sweep answers every lane riding that graph.
            groups = {}
            for key, lane in lanes.items():
                groups.setdefault(id(lane[0]), (lane[0], []))[1].append((key, lane))
            for imputer, group in groups.values():
                group_started = time.perf_counter()
                results = imputer.route_batch([lane[1] for _, lane in group])
                share = (time.perf_counter() - group_started) / max(
                    1, sum(riders for _, lane in group for _, riders in lane[2])
                )
                for (key, lane), result in zip(group, results):
                    for pos, (sub, _) in enumerate(lane[2]):
                        sub.results[key] = (result, pos > 0, share)
        except BaseException as exc:  # noqa: BLE001 - poison the whole flush
            for sub in batch:
                sub.error = exc
        finally:
            with self._cond:
                for sub in batch:
                    sub.done = True
                self._cond.notify_all()
