"""Trip segmentation: split vessel streams at temporal/spatial breaks.

A *trip* is a maximal run of one vessel's reports with no time gap longer
than ``max_gap_s`` and no positional jump longer than ``max_jump_m``.
Segmentation is fully vectorised: sort by (vessel, time), mark break rows,
and take the cumulative sum of breaks as the trip id.

Two shapes are provided:

- :func:`segment_trips` -- one-shot over a whole table.
- :class:`StreamingSegmenter` -- incremental over chunked feeds
  (e.g. :func:`repro.ais.read_csv_chunks`): each :meth:`~StreamingSegmenter.push`
  emits the trips that *closed* within the data seen so far and carries
  every vessel's still-open trip across the chunk boundary, so a trip
  spanning two chunks segments exactly as it would in one pass.
"""

import numpy as np

from repro.ais import schema
from repro.geo.proj import M_PER_DEG

__all__ = ["StreamingSegmenter", "segment_trips", "segment_trips_stream"]


def _break_mask(vessel, t, lat, lon, max_gap_s, max_jump_m):
    """Trip-break flags for rows already sorted by (vessel, time)."""
    n = len(t)
    breaks = np.zeros(n, dtype=bool)
    if n == 0:
        return breaks
    breaks[0] = True
    new_vessel = vessel[1:] != vessel[:-1]
    dt = t[1:] - t[:-1]
    dy = (lat[1:] - lat[:-1]) * M_PER_DEG
    dx = (lon[1:] - lon[:-1]) * M_PER_DEG * np.cos(np.radians(lat[:-1]))
    jump = np.hypot(dx, dy)
    breaks[1:] = new_vessel | (dt > max_gap_s) | (jump > max_jump_m)
    return breaks


def segment_trips(table, max_gap_s=1800.0, max_jump_m=5000.0, min_points=2):
    """Assign a ``trip_id`` column, dropping trips shorter than *min_points*.

    Input order does not matter (rows are sorted by vessel and timestamp
    first); an empty table yields an empty table with the trip column.
    Trip ids are dense int64 values, globally unique across vessels.
    """
    if table.num_rows == 0:
        return table.with_columns(**{schema.TRIP_ID: np.zeros(0, dtype=np.int64)})
    ordered = table.sort_by(schema.VESSEL_ID, schema.T)
    breaks = _break_mask(
        ordered.column(schema.VESSEL_ID),
        np.asarray(ordered.column(schema.T), dtype=np.float64),
        np.asarray(ordered.column(schema.LAT), dtype=np.float64),
        np.asarray(ordered.column(schema.LON), dtype=np.float64),
        max_gap_s,
        max_jump_m,
    )
    trip_ids = np.cumsum(breaks) - 1
    segmented = ordered.with_columns(**{schema.TRIP_ID: trip_ids.astype(np.int64)})
    if min_points > 1:
        counts = np.bincount(trip_ids)
        segmented = segmented.filter(counts[trip_ids] >= min_points)
    return segmented


class StreamingSegmenter:
    """Incremental :func:`segment_trips` over a chunked, time-ordered feed.

    Chunks may interleave vessels and be unsorted internally, but each
    vessel's reports must not regress behind its *segmentation barrier* --
    the start of its open trip (after :meth:`flush`, the last closed
    report plus ``max_gap_s``).  A report behind the barrier could
    retroactively join or reshape an already-closed trip, so it raises
    ``ValueError`` instead of silently diverging from the one-shot pass.
    Memory is bounded by the open trips held across chunk boundaries,
    never by archive size.

    Trip ids are dense and unique within one segmenter but are numbered
    in trip *completion* order, which generally differs from the
    (vessel, time) numbering of the one-shot path; the trips' row
    contents are identical.

    *buffer_budget* bounds the open-trip buffer to at most that many
    rows **per vessel**: after each push, any longer open trip is
    compressed to the budget with
    :func:`repro.geo.compress_to_budget` (SED-ranked row dropping, time
    as the sync parameter; a vessel's first and last buffered reports
    always survive).  Memory then stays O(budget) per vessel no matter
    how long a vessel keeps transmitting, at the cost of exact
    equivalence with the one-shot pass: compressed trips keep their
    shape but lose interior fixes, and a dropped row can widen a
    gap/jump past the break thresholds, closing the older part of the
    trip early.  Barriers are unaffected (the open trip's start row is
    always kept).
    """

    def __init__(
        self, max_gap_s=1800.0, max_jump_m=5000.0, min_points=2, buffer_budget=None
    ):
        if buffer_budget is not None:
            if isinstance(buffer_budget, bool) or not isinstance(buffer_budget, int):
                raise TypeError(
                    f"buffer_budget must be an int or None, got {buffer_budget!r}"
                )
            if buffer_budget < 2:
                raise ValueError(f"buffer_budget must be >= 2, got {buffer_budget}")
        self.max_gap_s = float(max_gap_s)
        self.max_jump_m = float(max_jump_m)
        self.min_points = int(min_points)
        self.buffer_budget = buffer_budget
        self._tail = None  # open-trip rows, sorted by (vessel, t)
        self._barrier = {}  # vessel id -> earliest admissible report time
        self._next_trip_id = 0

    @property
    def open_rows(self):
        """Rows currently buffered in open trips."""
        return 0 if self._tail is None else self._tail.num_rows

    def push(self, table):
        """Absorb a chunk; returns the trips that closed, with ``trip_id``."""
        if table.num_rows == 0 and self._tail is None:
            return table.with_columns(**{schema.TRIP_ID: np.zeros(0, dtype=np.int64)})
        from repro.minidb import Table

        combined = table if self._tail is None else Table.concat([self._tail, table])
        combined = combined.sort_by(schema.VESSEL_ID, schema.T)
        vessel = combined.column(schema.VESSEL_ID)
        t = np.asarray(combined.column(schema.T), dtype=np.float64)
        self._check_monotone(table)

        breaks = _break_mask(
            vessel,
            t,
            np.asarray(combined.column(schema.LAT), dtype=np.float64),
            np.asarray(combined.column(schema.LON), dtype=np.float64),
            self.max_gap_s,
            self.max_jump_m,
        )
        local_ids = np.cumsum(breaks) - 1
        # Each vessel's chronologically last trip stays open: broadcast the
        # id found at every vessel run's end back over the run.
        n = combined.num_rows
        run_end = np.ones(n, dtype=bool)
        run_end[:-1] = vessel[:-1] != vessel[1:]
        run_lengths = np.diff(np.concatenate(([-1], np.flatnonzero(run_end))))
        open_ids = np.repeat(local_ids[run_end], run_lengths)
        open_mask = local_ids == open_ids

        self._tail = combined.filter(open_mask)
        closed = combined.filter(~open_mask)
        if closed.num_rows:
            # Vessels that closed a trip get their barrier raised to the
            # open trip's start (the sealed break point).  This covers
            # trips min_points later drops too -- a late report
            # overlapping a dropped short trip must still be refused.
            # Vessels whose trip is still fully open keep their barrier:
            # out-of-order arrivals within an open trip are legal.
            closed_vessels = np.unique(np.asarray(closed.column(schema.VESSEL_ID)))
            sealed = self._tail.filter(
                np.isin(np.asarray(self._tail.column(schema.VESSEL_ID)), closed_vessels)
            )
            self._raise_barriers(sealed, 0.0)
        self._compact_tail()
        return self._emit(closed, local_ids[~open_mask])

    def flush(self):
        """Close and emit every buffered trip; the segmenter resets to empty."""
        tail = self._tail
        self._tail = None
        if tail is None:
            return self._empty_trips()
        if tail.num_rows == 0:
            return tail.with_columns(**{schema.TRIP_ID: np.zeros(0, dtype=np.int64)})
        vessel = tail.column(schema.VESSEL_ID)
        breaks = np.ones(tail.num_rows, dtype=bool)
        breaks[1:] = vessel[1:] != vessel[:-1]
        # Tail rows were kept as one open trip per vessel, so vessel runs
        # are exactly the remaining trips.
        local_ids = np.cumsum(breaks) - 1
        # Everything is closed now: nothing within linking range of a
        # flushed trip's last report may arrive later.
        self._raise_barriers(tail, self.max_gap_s, newest=True)
        return self._emit(tail, local_ids)

    # -- internals ---------------------------------------------------------

    def _compact_tail(self):
        """Compress each vessel's open trip down to ``buffer_budget`` rows."""
        budget = self.buffer_budget
        tail = self._tail
        if budget is None or tail is None or tail.num_rows <= budget:
            return
        from repro.geo.budget import compress_to_budget

        vessel = np.asarray(tail.column(schema.VESSEL_ID))
        n = len(vessel)
        run_end = np.ones(n, dtype=bool)
        run_end[:-1] = vessel[:-1] != vessel[1:]
        bounds = np.concatenate(([0], np.flatnonzero(run_end) + 1))
        lat = np.asarray(tail.column(schema.LAT), dtype=np.float64)
        lon = np.asarray(tail.column(schema.LON), dtype=np.float64)
        t = np.asarray(tail.column(schema.T), dtype=np.float64)
        keep = np.ones(n, dtype=bool)
        changed = False
        for s, e in zip(bounds[:-1], bounds[1:]):
            if e - s <= budget:
                continue
            # Same local equirectangular scaling _break_mask uses.
            x = (lon[s:e] - lon[s]) * M_PER_DEG * np.cos(np.radians(lat[s]))
            y = (lat[s:e] - lat[s]) * M_PER_DEG
            res = compress_to_budget(x, y, budget, t=t[s:e])
            keep[s:e] = False
            keep[s + res.indices] = True
            changed = True
        if changed:
            self._tail = tail.filter(keep)

    def _empty_trips(self):
        from repro.minidb import Table

        columns = {name: np.zeros(0) for name in schema.RAW_COLUMNS}
        columns[schema.VESSEL_ID] = np.zeros(0, dtype=np.int64)
        columns[schema.TRIP_ID] = np.zeros(0, dtype=np.int64)
        return Table(columns)

    def _check_monotone(self, chunk):
        if chunk.num_rows == 0 or not self._barrier:
            return
        # One sort gives every vessel's earliest report; the loop below
        # only does dict lookups, never per-vessel scans of the chunk.
        for v, earliest in self._per_vessel(chunk, newest=False):
            barrier = self._barrier.get(v)
            if barrier is not None and earliest < barrier:
                raise ValueError(
                    f"vessel {v!r}: chunk contains a report behind the "
                    "vessel's already-closed trips; streamed chunks must "
                    "be time-ordered per vessel"
                )

    def _raise_barriers(self, table, margin, newest=False):
        """Forbid future reports before each vessel's open-trip start
        (*newest=False*) or within *margin* of its last report."""
        for v, bound in self._per_vessel(table, newest):
            self._barrier[v] = max(self._barrier.get(v, -np.inf), bound + margin)

    @staticmethod
    def _per_vessel(table, newest):
        """Yield ``(vessel, earliest-or-newest timestamp)`` per vessel."""
        vessel = np.asarray(table.column(schema.VESSEL_ID))
        t = np.asarray(table.column(schema.T), dtype=np.float64)
        order = np.lexsort((t, vessel))
        sv, st = vessel[order], t[order]
        pick = np.ones(len(order), dtype=bool)
        if newest:
            pick[:-1] = sv[:-1] != sv[1:]
        else:
            pick[1:] = sv[1:] != sv[:-1]
        integral = np.issubdtype(vessel.dtype, np.integer)
        for v, bound in zip(sv[pick], st[pick]):
            yield (int(v) if integral else v), float(bound)

    def _emit(self, closed, local_ids):
        """Re-number closed trips with global ids and apply min_points."""
        if closed.num_rows == 0:
            return closed.with_columns(**{schema.TRIP_ID: np.zeros(0, dtype=np.int64)})
        _, first_rows, dense = np.unique(local_ids, return_index=True, return_inverse=True)
        counts = np.bincount(dense)
        keep = counts[dense] >= self.min_points
        # Dense global numbering in (vessel, time) order of the kept trips.
        kept_ids = np.unique(dense[keep])
        remap = np.full(len(counts), -1, dtype=np.int64)
        remap[kept_ids] = self._next_trip_id + np.arange(len(kept_ids))
        self._next_trip_id += len(kept_ids)
        out = closed.filter(keep).with_columns(
            **{schema.TRIP_ID: remap[dense[keep]]}
        )
        return out


def segment_trips_stream(chunks, max_gap_s=1800.0, max_jump_m=5000.0, min_points=2):
    """Generator over chunked raw tables yielding per-chunk closed trips.

    Equivalent to pushing every chunk through a
    :class:`StreamingSegmenter` and flushing at the end; empty emissions
    are skipped.
    """
    segmenter = StreamingSegmenter(max_gap_s, max_jump_m, min_points)
    for chunk in chunks:
        emitted = segmenter.push(chunk)
        if emitted.num_rows:
            yield emitted
    final = segmenter.flush()
    if final.num_rows:
        yield final
