"""A miniature columnar table engine over NumPy arrays.

``minidb`` stands in for the analytical database the paper drives its
pipeline with (DuckDB-style CTEs): a :class:`Table` holds named columns as
flat arrays, :meth:`Table.group_by` runs ``bincount`` aggregation kernels
(count, sum, mean), and :meth:`Table.lag` is the window function behind
transition extraction.  Everything is vectorised -- there are no per-row
Python loops -- so the 200k-row benchmark workloads complete in
milliseconds.

Aggregation runs eagerly (``group_by(...).agg(...)``) or as mergeable
partial states (``group_by(...).partial(...)`` + :func:`merge_states` +
``state.finalize()``) so shards and streamed chunks combine into exactly
the result of one in-memory pass (counts and integer sums).

Submodules:

- :mod:`repro.minidb.table` -- the :class:`Table` and group-by machinery.
- :mod:`repro.minidb.agg` -- aggregate specifications (``agg.count()``,
  ``agg.sum("lat_offset_sum")``, ``agg.mean("lat")``).
- :mod:`repro.minidb.partial` -- the partial-aggregate states behind
  the shard-and-merge path.
"""

from repro.minidb import agg
from repro.minidb.partial import GroupState, merge_states
from repro.minidb.table import Table, factorize

__all__ = [
    "GroupState",
    "Table",
    "agg",
    "factorize",
    "merge_states",
]
