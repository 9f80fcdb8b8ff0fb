"""Mergeable partial group-by states (the shard-and-merge aggregation path).

The eager :meth:`repro.minidb.Table.group_by(...).agg(...)
<repro.minidb.table.GroupBy.agg>` path needs every row in memory at once.
:meth:`~repro.minidb.table.GroupBy.partial` instead produces a
:class:`GroupState` -- a compact, serialisable summary of the same
aggregates over *one shard or chunk* of the rows -- and
:func:`merge_states` combines any number of states into one, however the
rows were partitioned.  ``state.finalize()`` renders the merged state as
the same table ``agg`` would have produced.

Only the kinds the fit aggregates have a partial state: ``count`` and
``sum``.  Each merges **exactly**: for any partition of the rows the
result equals the eager one-shot pass.  ``sum`` takes integer columns
only and accumulates in ``int64`` (where the eager kernel returns
floats), so its merge is associative; a float column raises
``ValueError`` -- encode it as fixed-point integers first, as
:mod:`repro.core.statistics` does for positions.  Means stay eager-only.

States carry their group *keys by value*, not by code -- group codes are
local to each shard and are re-factorised on merge -- and serialise to a
flat ``{name: array}`` payload (:meth:`GroupState.payload` /
:meth:`GroupState.from_payload`) so fit states can ride inside model
files.
"""

import json

import numpy as np

__all__ = ["GroupState", "merge_states"]

#: Aggregate kinds with a mergeable state.
MERGEABLE_KINDS = frozenset({"count", "sum"})


def _check_kinds(specs):
    unknown = [s.kind for s in specs if s.kind not in MERGEABLE_KINDS]
    if unknown:
        raise ValueError(f"aggregate kinds {unknown} have no mergeable state")


class GroupState:
    """Partial aggregates for one shard, keyed by group-key values.

    *sums* maps each ``sum`` spec's output name to its ``int64`` per-group
    totals; ``count`` specs read *counts*.
    """

    def __init__(self, key_names, key_columns, specs, counts, sums):
        self.key_names = tuple(key_names)
        self.key_columns = dict(key_columns)
        self.specs = tuple(specs)
        self.counts = np.asarray(counts, dtype=np.int64)
        self.sums = dict(sums)

    @property
    def num_groups(self):
        """Groups summarised by this state."""
        return len(self.counts)

    def __repr__(self):
        names = ", ".join(s.name for s in self.specs)
        return f"GroupState({self.num_groups} groups: {names})"

    # -- construction ------------------------------------------------------

    @classmethod
    def from_table(cls, table, key_names, specs):
        """Build the partial state one shard of rows contributes.

        This is the kernel behind
        :meth:`repro.minidb.table.GroupBy.partial`.
        """
        # Local import: table.py lazily imports this module for .partial().
        from repro.minidb.table import _factorize_keys

        _check_kinds(specs)
        codes, key_columns = _factorize_keys(table, key_names)
        num_groups = len(next(iter(key_columns.values()))) if key_columns else 0
        counts = np.bincount(codes, minlength=num_groups).astype(np.int64)
        sums = {}
        for spec in specs:
            if spec.kind != "sum":
                continue
            values = np.asarray(table.column(spec.column))
            if not np.issubdtype(values.dtype, np.integer):
                raise ValueError(
                    f"partial sum of {spec.column!r} needs an integer column, "
                    f"got {values.dtype}"
                )
            total = np.zeros(num_groups, dtype=np.int64)
            np.add.at(total, codes, values)
            sums[spec.name] = total
        return cls(key_names, key_columns, specs, counts, sums)

    # -- finalisation ------------------------------------------------------

    def finalize(self):
        """Render the state as the table ``group_by(...).agg(...)`` returns."""
        from repro.minidb.table import Table

        out = dict(self.key_columns)
        for spec in self.specs:
            column = self.counts if spec.kind == "count" else self.sums[spec.name]
            out[spec.name] = column.copy()
        return Table(out)

    # -- serialisation -----------------------------------------------------

    def payload(self, prefix=""):
        """Flat ``{name: array}`` view for ``np.savez``-style persistence."""
        manifest = {
            "key_names": list(self.key_names),
            "specs": [
                {"kind": s.kind, "column": s.column, "name": s.name} for s in self.specs
            ],
        }
        out = {prefix + "manifest": np.array([json.dumps(manifest)])}
        for name in self.key_names:
            out[f"{prefix}key_{name}"] = self.key_columns[name]
        out[prefix + "counts"] = self.counts
        for i, spec in enumerate(self.specs):
            if spec.kind == "sum":
                out[f"{prefix}s{i}_sum"] = self.sums[spec.name]
        return out

    @classmethod
    def from_payload(cls, data, prefix=""):
        """Rebuild a state from a :meth:`payload` mapping (dict or npz).

        A state that rebuilds must merge: a spec kind without a mergeable
        state, a key, count or sum array whose length is not the group
        count, or a sum that is not ``int64`` raises ``ValueError``.
        """
        from repro.minidb.agg import AggSpec

        manifest = json.loads(str(np.asarray(data[prefix + "manifest"])[0]))
        key_names = tuple(manifest["key_names"])
        specs = tuple(
            AggSpec(s["kind"], s["column"], s["name"]) for s in manifest["specs"]
        )
        _check_kinds(specs)
        key_columns = {name: np.asarray(data[f"{prefix}key_{name}"]) for name in key_names}
        counts = np.asarray(data[prefix + "counts"])
        sums = {
            spec.name: np.asarray(data[f"{prefix}s{i}_sum"])
            for i, spec in enumerate(specs)
            if spec.kind == "sum"
        }
        for name, column in {**key_columns, **sums}.items():
            if len(column) != len(counts):
                raise ValueError(
                    f"{name!r} has {len(column)} entries for {len(counts)} groups"
                )
        for name, total in sums.items():
            if total.dtype != np.int64:
                raise ValueError(f"sum {name!r} is {total.dtype}, expected int64")
        return cls(key_names, key_columns, specs, counts, sums)


def merge_states(states):
    """Merge :class:`GroupState` shards into one state over the union of groups.

    All states must share key names and aggregate specs.
    """
    states = [s for s in states if s is not None]
    if not states:
        raise ValueError("merge_states needs at least one state")
    head = states[0]
    for other in states[1:]:
        if other.key_names != head.key_names or [
            (s.kind, s.column, s.name) for s in other.specs
        ] != [(s.kind, s.column, s.name) for s in head.specs]:
            raise ValueError("cannot merge states with different keys or aggregates")
    if len(states) == 1:
        return head

    from repro.minidb.table import Table, _factorize_keys

    # Re-factorise the union of group keys; `maps[i]` sends state i's
    # local group index to the merged (key-sorted) group index.
    stacked = Table(
        {
            name: np.concatenate([s.key_columns[name] for s in states])
            for name in head.key_names
        }
    )
    codes, key_columns = _factorize_keys(stacked, head.key_names)
    num_groups = len(next(iter(key_columns.values()))) if key_columns else 0
    maps = []
    offset = 0
    for state in states:
        maps.append(codes[offset : offset + state.num_groups])
        offset += state.num_groups

    counts = np.zeros(num_groups, dtype=np.int64)
    for state, mapping in zip(states, maps):
        np.add.at(counts, mapping, state.counts)

    sums = {}
    for name in head.sums:
        total = np.zeros(num_groups, dtype=np.int64)
        for state, mapping in zip(states, maps):
            np.add.at(total, mapping, state.sums[name])
        sums[name] = total
    return GroupState(head.key_names, key_columns, head.specs, counts, sums)
