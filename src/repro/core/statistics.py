"""Per-cell and per-transition statistics (the paper's CTE stage).

The fit aggregation is a **partial-aggregate → merge** pipeline:
:func:`partial_statistics` summarises one shard or streamed chunk of
segmented trips into a mergeable :class:`StatisticsState`, and
:func:`merge_statistics` combines any number of states into the two
tables the cell graph is built from:

- **cell statistics**: support count, distinct vessels (a HyperLogLog
  estimate, as the paper's DuckDB ``approx_count_distinct``), and mean
  position (``mean_lat`` / ``mean_lon``) -- the means drive the "mean"
  cell projection.
- **transition statistics**: directed cell pairs observed consecutively
  within a trip, with transition counts and distinct-vessel support --
  the graph's edge list.

:func:`compute_statistics` (the original one-shot entry point) is a thin
wrapper: one partial state, finalised immediately.  Equivalence between
the two paths is pinned by tests: every column, means included, is
**exactly** equal however the trips were sharded or streamed.  The mean
is exact because the state holds no float: each position is stored as
an ``int64`` offset from its cell centre in :data:`OFFSET_DEG` units,
summed per cell, and only :meth:`StatisticsState.finalize` divides.

Shard/chunk contract: a shard must contain **whole trips** -- transitions
are extracted within each chunk, so splitting one trip across two states
would drop the boundary transition.  Partitioning trips by ``trip_id``
(as the tests do) and :class:`repro.core.segmentation.StreamingSegmenter`
both honour this.
"""

from dataclasses import dataclass

import numpy as np

from repro.ais import schema
from repro.hexgrid import cell_to_latlng_array, latlng_to_cell_array
from repro.minidb import agg, merge_states
from repro.minidb.partial import GroupState

__all__ = [
    "CELL",
    "NEXT_CELL",
    "OFFSET_DEG",
    "StatisticsState",
    "compute_statistics",
    "merge_statistics",
    "partial_statistics",
]

#: Column name for the hex cell id.
CELL = "cell"

#: Column name for the following cell within a trip.
NEXT_CELL = "next_cell"

#: Fixed-point unit (degrees) of the per-cell position sums: ~1 cm of
#: latitude, far below any cell edge, and small enough that a cell's
#: offsets sum in ``int64`` without overflow.
OFFSET_DEG = 1e-7

_NO_CELL = np.int64(-1)

#: Partial-state columns holding each cell's summed position offsets.
_LAT_SUM = "lat_offset_sum"
_LON_SUM = "lon_offset_sum"

#: Distinct vessels per group, estimated with HyperLogLog.
_VESSELS = agg.approx_count_distinct(schema.VESSEL_ID).alias("vessels")


def _index_cells(trips, config):
    """Index every position into a hex cell, rejecting invalid coordinates.

    Non-finite or out-of-range lat/lon cannot be packed into a cell id --
    they would silently corrupt ``cell_stats`` with garbage cells -- so
    they raise here instead of propagating.  :func:`repro.core.clean_messages`
    is the sanctioned filter for dirty feeds; run it first.
    """
    lat = np.asarray(trips.column(schema.LAT), dtype=np.float64)
    lon = np.asarray(trips.column(schema.LON), dtype=np.float64)
    invalid = ~(
        np.isfinite(lat) & np.isfinite(lon) & (np.abs(lat) <= 90.0) & (np.abs(lon) <= 180.0)
    )
    if np.any(invalid):
        raise ValueError(
            f"{int(invalid.sum())} of {len(lat)} positions have non-finite or "
            "out-of-range lat/lon and cannot be cell-indexed; run "
            "clean_messages before fitting"
        )
    return latlng_to_cell_array(lat, lon, config.resolution)


@dataclass(frozen=True)
class StatisticsState:
    """Mergeable partial fit state: one shard's cell + transition summaries.

    Instances are immutable; :meth:`merged` returns a new state and never
    mutates its inputs, so a state can be shared between a served model
    and an in-progress refresh.
    """

    cell_state: GroupState
    transition_state: GroupState
    resolution: int
    num_positions: int

    @classmethod
    def merged(cls, states):
        """Combine shard states; all must share one resolution."""
        states = list(states)
        if not states:
            raise ValueError("StatisticsState.merged needs at least one state")
        head = states[0]
        for other in states[1:]:
            if other.resolution != head.resolution:
                raise ValueError("cannot merge statistics fitted at different resolutions")
        if len(states) == 1:
            return head
        return cls(
            cell_state=merge_states([s.cell_state for s in states]),
            transition_state=merge_states([s.transition_state for s in states]),
            resolution=head.resolution,
            num_positions=sum(s.num_positions for s in states),
        )

    def finalize(self):
        """Render ``(cell_stats, transition_stats)`` tables.

        The cell table's offset sums become ``mean_lat`` / ``mean_lon``:
        cell centre + sum / count x :data:`OFFSET_DEG`.
        """
        cells = self.cell_state.finalize()
        count = cells.column("count")
        center_lat, center_lon = cell_to_latlng_array(cells.column(CELL))
        cells = cells.drop(_LAT_SUM, _LON_SUM).with_columns(
            mean_lat=center_lat + cells.column(_LAT_SUM) / count * OFFSET_DEG,
            mean_lon=center_lon + cells.column(_LON_SUM) / count * OFFSET_DEG,
        )
        return cells, self.transition_state.finalize()

    # -- persistence (ridden by model files) ------------------------------

    def payload(self, prefix="state_"):
        """Flat array mapping for ``np.savez``-style persistence."""
        out = {prefix + "meta": np.array([str(self.resolution), str(self.num_positions)])}
        out.update(self.cell_state.payload(prefix + "cell_"))
        out.update(self.transition_state.payload(prefix + "tr_"))
        return out

    @classmethod
    def from_payload(cls, data, prefix="state_"):
        """Rebuild a state from a :meth:`payload` mapping (dict or npz)."""
        meta = np.asarray(data[prefix + "meta"])
        return cls(
            cell_state=GroupState.from_payload(data, prefix + "cell_"),
            transition_state=GroupState.from_payload(data, prefix + "tr_"),
            resolution=int(meta[0]),
            num_positions=int(meta[1]),
        )


def _offsets(degrees, center):
    """Fixed-point ``int64`` offsets of *degrees* from their cell *center*."""
    delta = np.asarray(degrees, dtype=np.float64) - center
    return np.rint(delta / OFFSET_DEG).astype(np.int64)


def partial_statistics(trips, config):
    """Summarise one shard/chunk of segmented trips into a mergeable state.

    *config* is a :class:`repro.core.habit.HabitConfig`; its ``resolution``
    picks the grid.  The chunk must hold whole trips (see the module
    docstring).
    """
    cells = _index_cells(trips, config)
    center_lat, center_lon = cell_to_latlng_array(cells)
    indexed = trips.with_columns(
        **{
            CELL: cells,
            _LAT_SUM: _offsets(trips.column(schema.LAT), center_lat),
            _LON_SUM: _offsets(trips.column(schema.LON), center_lon),
        }
    )
    cell_state = indexed.group_by(CELL).partial(
        agg.count(),
        _VESSELS,
        agg.sum(_LAT_SUM).alias(_LAT_SUM),
        agg.sum(_LON_SUM).alias(_LON_SUM),
    )

    if trips.num_rows:
        nxt = indexed.lag(CELL, schema.TRIP_ID, schema.T, -1, _NO_CELL)
        moved = (nxt != _NO_CELL) & (nxt != cells)
        pairs = indexed.filter(moved).with_columns(**{NEXT_CELL: nxt[moved]})
    else:
        pairs = indexed.with_columns(**{NEXT_CELL: cells})
    transition_state = pairs.group_by(CELL, NEXT_CELL).partial(
        agg.count().alias("transitions"),
        _VESSELS,
    )
    return StatisticsState(
        cell_state=cell_state,
        transition_state=transition_state,
        resolution=config.resolution,
        num_positions=trips.num_rows,
    )


def merge_statistics(states):
    """Merge shard states and render ``(cell_stats, transition_stats)``."""
    return StatisticsState.merged(states).finalize()


def compute_statistics(trips, config):
    """One-shot aggregation: a single partial state, finalised immediately.

    Kept as the simple entry point; the sharded/streamed paths produce
    identical tables (see module docstring).
    """
    return partial_statistics(trips, config).finalize()

