"""Aggregate specifications for :meth:`repro.minidb.Table.group_by`.

Each helper returns an :class:`AggSpec` naming a kernel and an input column;
``.alias(name)`` renames the output column.  The mix mirrors the paper's
per-cell CTE: ``count``, ``approx_count_distinct`` (HyperLogLog), and
``median`` over the position columns.
"""

from dataclasses import dataclass, replace

__all__ = [
    "AggSpec",
    "approx_count_distinct",
    "count",
    "count_distinct",
    "first",
    "max",
    "mean",
    "median",
    "min",
    "sum",
]


@dataclass(frozen=True)
class AggSpec:
    """One aggregate: *kind* kernel applied to *column*, emitted as *name*."""

    kind: str
    column: str | None
    name: str

    def alias(self, name):
        """Rename the output column."""
        return replace(self, name=name)


def count():
    """Rows per group."""
    return AggSpec("count", None, "count")


def median(column):
    """Exact per-group median of a numeric column."""
    return AggSpec("median", column, f"median_{column}")


def mean(column):
    """Per-group arithmetic mean."""
    return AggSpec("mean", column, f"mean_{column}")


def sum(column):  # noqa: A001 - mirrors SQL naming on purpose
    """Per-group sum."""
    return AggSpec("sum", column, f"sum_{column}")


def min(column):  # noqa: A001 - mirrors SQL naming on purpose
    """Per-group minimum."""
    return AggSpec("min", column, f"min_{column}")


def max(column):  # noqa: A001 - mirrors SQL naming on purpose
    """Per-group maximum."""
    return AggSpec("max", column, f"max_{column}")


def first(column):
    """First value per group in table order."""
    return AggSpec("first", column, f"first_{column}")


def count_distinct(column):
    """Exact per-group distinct count (the HLL ablation baseline)."""
    return AggSpec("count_distinct", column, f"distinct_{column}")


def approx_count_distinct(column):
    """HyperLogLog per-group distinct estimate (the paper's default)."""
    return AggSpec("approx_count_distinct", column, f"approx_distinct_{column}")
