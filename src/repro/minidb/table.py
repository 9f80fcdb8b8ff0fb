"""The columnar :class:`Table` and its group-by aggregation kernels.

A table is an ordered mapping of column name to equal-length 1-D NumPy
array.  Tables are immutable in style: every operation returns a new table
sharing the untouched column arrays.  Group-by works by factorising the key
column(s) to dense codes, then running one ``bincount`` kernel per
aggregate (count, sum, mean).
"""

import numpy as np

__all__ = ["Table", "GroupBy", "factorize"]


def factorize(values):
    """Map values to dense int64 codes; returns ``(codes, uniques)``."""
    uniques, codes = np.unique(np.asarray(values), return_inverse=True)
    return codes.astype(np.int64), uniques


class Table:
    """An immutable-style columnar table over NumPy arrays."""

    def __init__(self, columns):
        data = {}
        length = None
        for name, values in columns.items():
            arr = np.asarray(values)
            if arr.ndim != 1:
                raise ValueError(f"column {name!r} must be 1-D, got shape {arr.shape}")
            if length is None:
                length = len(arr)
            elif len(arr) != length:
                raise ValueError(
                    f"column {name!r} has {len(arr)} rows, expected {length}"
                )
            data[name] = arr
        self._data = data
        self._length = 0 if length is None else length

    # -- basic access -----------------------------------------------------

    @property
    def num_rows(self):
        """Number of rows."""
        return self._length

    @property
    def column_names(self):
        """Column names in insertion order."""
        return list(self._data)

    def __len__(self):
        return self._length

    def __contains__(self, name):
        return name in self._data

    def __getitem__(self, name):
        return self._data[name]

    def column(self, name):
        """The backing array of a column."""
        return self._data[name]

    def to_dict(self):
        """Shallow copy as a plain ``{name: array}`` dict."""
        return dict(self._data)

    def __repr__(self):
        cols = ", ".join(self._data)
        return f"Table({self._length} rows: {cols})"

    # -- row/column algebra ----------------------------------------------

    def with_columns(self, **named):
        """New table with columns added or replaced."""
        data = dict(self._data)
        for name, values in named.items():
            data[name] = np.asarray(values)
        return Table(data)

    def drop(self, *names):
        """New table without the given columns."""
        return Table({k: v for k, v in self._data.items() if k not in names})

    def select(self, *names):
        """New table with only the given columns, in the given order."""
        return Table({name: self._data[name] for name in names})

    def filter(self, mask):
        """New table with rows where *mask* is true."""
        mask = np.asarray(mask)
        return Table({k: v[mask] for k, v in self._data.items()})

    def take(self, indices):
        """New table with rows gathered by integer index."""
        indices = np.asarray(indices)
        return Table({k: v[indices] for k, v in self._data.items()})

    def head(self, n):
        """First *n* rows."""
        return Table({k: v[:n] for k, v in self._data.items()})

    def sort_by(self, *names):
        """New table sorted by the given columns (first name is primary)."""
        keys = tuple(self._data[name] for name in reversed(names))
        return self.take(np.lexsort(keys))

    @classmethod
    def concat(cls, tables):
        """Stack tables with identical column sets."""
        tables = list(tables)
        if not tables:
            return cls({})
        names = tables[0].column_names
        return cls(
            {name: np.concatenate([t.column(name) for t in tables]) for name in names}
        )

    # -- analytics --------------------------------------------------------

    def group_by(self, *names):
        """Start a grouped aggregation keyed by one or more columns."""
        return GroupBy(self, names)

    def lag(self, value_column, partition_column, order_column, offset=1, default=0):
        """SQL-style LAG/LEAD window function.

        Returns, for each row, the value of *value_column* ``offset`` rows
        earlier (``offset > 0``) or later (``offset < 0``) within its
        partition ordered by *order_column*; *default* where no such row
        exists.  The result is aligned with the table's current row order.
        """
        if offset == 0:
            return self._data[value_column].copy()
        part_codes, _ = factorize(self._data[partition_column])
        order = np.lexsort((self._data[order_column], part_codes))
        values = self._data[value_column][order]
        parts = part_codes[order]
        k = abs(offset)
        shifted = np.empty_like(values)
        fill = np.asarray(default, dtype=values.dtype)
        if offset > 0:
            shifted[k:] = values[:-k]
            shifted[:k] = fill
            same = np.zeros(len(values), dtype=bool)
            same[k:] = parts[k:] == parts[:-k]
        else:
            shifted[:-k] = values[k:]
            shifted[-k:] = fill
            same = np.zeros(len(values), dtype=bool)
            same[:-k] = parts[:-k] == parts[k:]
        shifted = np.where(same, shifted, fill)
        out = np.empty_like(shifted)
        out[order] = shifted
        return out


class GroupBy:
    """Deferred grouped aggregation; finalised by :meth:`agg`."""

    def __init__(self, table, key_names):
        self._table = table
        self._key_names = key_names

    def agg(self, *specs):
        """Run the aggregate specs; returns a table of key + aggregate columns."""
        table = self._table
        codes, key_columns = _factorize_keys(table, self._key_names)
        num_groups = len(next(iter(key_columns.values()))) if key_columns else 0
        out = dict(key_columns)
        counts = np.bincount(codes, minlength=num_groups)
        for spec in specs:
            out[spec.name] = _run_agg(table, spec, codes, num_groups, counts)
        return Table(out)

    def partial(self, *specs):
        """Partial-aggregate this shard into a mergeable state.

        Returns a :class:`repro.minidb.partial.GroupState`; combine shard
        states with :func:`repro.minidb.merge_states` and render the final
        table with ``state.finalize()``.  Only ``count`` and integer
        ``sum`` have a state, and each merges exactly.
        """
        # Imported lazily: partial.py builds its states with this module's
        # kernels, so a top-level import would be circular.
        from repro.minidb.partial import GroupState

        return GroupState.from_table(self._table, self._key_names, specs)


def _factorize_keys(table, key_names):
    """Combine one or more key columns into dense group codes."""
    codes = None
    for name in key_names:
        col_codes, _ = factorize(table.column(name))
        if codes is None:
            codes = col_codes
        else:
            width = int(col_codes.max()) + 1 if len(col_codes) else 1
            codes = codes * width + col_codes
    if codes is None or len(codes) == 0:
        return np.zeros(0, dtype=np.int64), {
            name: table.column(name)[:0] for name in key_names
        }
    # Compress combined codes to a dense range and pick one representative
    # row per group for the key columns.
    _, first_rows, dense = np.unique(codes, return_index=True, return_inverse=True)
    key_columns = {name: table.column(name)[first_rows] for name in key_names}
    return dense.astype(np.int64), key_columns


def _run_agg(table, spec, codes, num_groups, counts):
    kind = spec.kind
    if kind == "count":
        return counts.astype(np.int64)
    values = table.column(spec.column)
    if kind == "sum":
        return np.bincount(codes, weights=values, minlength=num_groups)
    if kind == "mean":
        sums = np.bincount(codes, weights=values, minlength=num_groups)
        return sums / np.maximum(counts, 1)
    raise ValueError(f"unknown aggregate kind {spec.kind!r}")

