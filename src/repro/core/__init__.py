"""The HABIT pipeline: clean -> segment -> index -> learn -> impute.

This is the paper's method end to end:

1. :func:`clean_messages` drops malformed AIS messages and canonicalises
   order (:mod:`repro.core.annotate`).
2. :func:`segment_trips` splits vessel streams into trips at temporal or
   spatial discontinuities (:mod:`repro.core.segmentation`).
3. :func:`compute_statistics` aggregates positions into hex-cell and
   cell-transition statistics with :mod:`repro.minidb`
   (:mod:`repro.core.statistics`); the same stage runs part-by-part via
   :func:`partial_statistics` + :func:`merge_statistics` (incremental and
   streaming fits: :meth:`HabitImputer.fit_partial`,
   :class:`StreamingSegmenter`).
4. :class:`HabitImputer` builds a weighted cell graph from those statistics
   and answers gap queries with A* plus RDP smoothing
   (:mod:`repro.core.habit`, :mod:`repro.core.graph`).

Side branch: :func:`annotate_events` / :func:`compress_trajectory`
implement the critical-point compression ablation.
"""

from repro.core.annotate import annotate_events, clean_messages, compress_trajectory
from repro.core.graph import (
    GOAL_DIRECTED_METHODS,
    SEARCH_METHODS,
    CellGraph,
    SearchResult,
)
from repro.core.habit import HabitConfig, HabitImputer, ModelFormatError, config_hash
from repro.core.path import ImputedPath, straight_line_path
from repro.core.segmentation import (
    StreamingSegmenter,
    segment_trips,
    segment_trips_stream,
)
from repro.core.statistics import (
    StatisticsState,
    compute_statistics,
    merge_statistics,
    partial_statistics,
)

__all__ = [
    "CellGraph",
    "GOAL_DIRECTED_METHODS",
    "HabitConfig",
    "HabitImputer",
    "ImputedPath",
    "ModelFormatError",
    "SEARCH_METHODS",
    "SearchResult",
    "StatisticsState",
    "StreamingSegmenter",
    "annotate_events",
    "clean_messages",
    "compress_trajectory",
    "compute_statistics",
    "config_hash",
    "merge_statistics",
    "partial_statistics",
    "segment_trips",
    "segment_trips_stream",
    "straight_line_path",
]
