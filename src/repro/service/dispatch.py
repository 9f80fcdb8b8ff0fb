"""Cross-request combining dispatcher for the serving engine.

The batch kernel (:mod:`repro.core.kernel`) amortises CH search cost
only when it is handed many lanes at once, but HTTP traffic arrives as
many concurrent *singletons* on separate handler threads.  This module
fuses them with a *combining flush* (flat combining, Hendler et al.,
SPAA 2010): every request thread submits its snapped-and-cache-missed
search lanes into a shared :class:`BatchDispatcher`, and whichever
thread finds no flush running takes every pending submission and
answers them all with one
:meth:`~repro.core.habit.HabitImputer.route_batch` call per resolved
class graph.

There is no window, no lane cap and no background thread:

- A submission arriving while no flush runs leads at once, so a lone
  request never waits.
- Submissions arriving while a flush runs queue behind it.  When it
  ends, one of the waiters whose lanes are still pending leads the next
  flush and takes *every* queued submission -- the queue fills exactly
  as long as the kernel is busy, so fusion grows with load by itself.
  Batch size needs no cap: the kernel chunks lanes by
  :data:`repro.core.kernel.BATCH_CHUNK_CELLS`.
- A submitter whose lanes a flush answered returns at once, without
  waiting for a later flush.
- A search error poisons only its flush: every submitter fused into it
  re-raises the error, and the next submission leads a fresh flush.

**Cross-request coalescing:** lanes are keyed by their snapped route
key (graph serial, snapped endpoints), so only lanes on the very same
graph can fuse.  Identical keys from *different* submissions fuse into
one search lane; the first submitter keeps its ``"miss"`` answer-cache
tier and every later one is answered from the same lane under the
``"cross_batch"`` tier -- the in-batch ``"coalesced"`` tier extended
across concurrent requests.

Instrumentation: ``repro_dispatch_queue_wait_seconds`` (wait behind a
running flush), ``repro_dispatch_batch_lanes`` (search lanes per flush,
after cross-request dedup) and ``repro_dispatch_coalesced_total``
(lanes answered by another request's search).
"""

import threading
import time

from repro.obs import COUNT_BUCKETS, METRICS

__all__ = ["BatchDispatcher"]

DISPATCH_QUEUE_WAIT_SECONDS = METRICS.histogram(
    "repro_dispatch_queue_wait_seconds",
    "Seconds a submission waited behind a running flush before its own "
    "flush started executing.",
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


class _Submission:
    """One request thread's queued lanes plus its result slot."""

    __slots__ = ("entries", "queued_at", "done", "error", "results")

    def __init__(self, entries):
        self.entries = entries
        self.queued_at = time.perf_counter()
        self.done = False
        self.error = None
        self.results = {}  # lane key -> (SearchResult | None, cross, share_s)


class BatchDispatcher:
    """Fuses concurrent request threads' search lanes into shared flushes.

    Thread-safe; owned by one :class:`repro.service.BatchImputationEngine`.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._pending = []  # queued _Submission objects, arrival order
        self._busy = False  # a flush is running

    def submit(self, entries):
        """Queue *entries* and return their results once a flush ran them.

        *entries* is a list of ``(key, imputer, (src, dst), riders)``
        lanes -- ``key`` is the lane's snapped route key, ``riders``
        is how many requests of the submitting batch ride it (used for
        kernel-time attribution).  Returns ``{key: (result, cross,
        share_s)}`` -- ``cross`` is True when another request's
        identical lane ran the search, ``share_s`` the lane's per-rider
        share of its kernel call.  Raises whatever the flush's searches
        raised.  An empty *entries* is a no-op.
        """
        sub = _Submission(list(entries))
        if not sub.entries:
            return {}
        with self._cond:
            self._pending.append(sub)
            while self._busy and not sub.done:
                self._cond.wait()
            batch = None
            if not sub.done:
                # No flush running and these lanes still pending: lead.
                batch, self._pending = self._pending, []
                self._busy = True
        if batch is not None:
            self._flush(batch)
        if sub.error is not None:
            raise sub.error
        return sub.results

    def _flush(self, batch):
        """Run one flush on the leader thread, lock released."""
        started = time.perf_counter()
        try:
            DISPATCH_QUEUE_WAIT_SECONDS.observe_many(
                started - sub.queued_at for sub in batch
            )
            # Merge: identical keys from different submissions fuse into
            # one lane (claims beyond the first are cross-request
            # coalesces).
            lanes = {}  # key -> [imputer, pair, [(sub, riders), ...]]
            for sub in batch:
                for key, imputer, pair, riders in sub.entries:
                    lanes.setdefault(key, [imputer, pair, []])[2].append((sub, riders))
            DISPATCH_BATCH_LANES.observe(len(lanes))
            crossed = sum(len(sub.entries) for sub in batch) - len(lanes)
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
        except BaseException as exc:  # noqa: BLE001 - poison this flush only
            for sub in batch:
                sub.error = exc
        finally:
            with self._cond:
                for sub in batch:
                    sub.done = True
                self._busy = False
                self._cond.notify_all()
