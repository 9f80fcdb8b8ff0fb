"""Aggregate specifications for :meth:`repro.minidb.Table.group_by`.

Each helper returns an :class:`AggSpec` naming a kernel and an input column;
``.alias(name)`` renames the output column.  The fit's per-cell CTE uses
``count`` and ``sum`` over fixed-point position offsets -- the kinds with a
mergeable partial state (:mod:`repro.minidb.partial`).  ``mean`` runs on
the eager path only; the tests use it as the float reference for the
``"mean"`` projection.
"""

from dataclasses import dataclass, replace

__all__ = ["AggSpec", "count", "mean", "sum"]


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


def mean(column):
    """Per-group arithmetic mean."""
    return AggSpec("mean", column, f"mean_{column}")


def sum(column):  # noqa: A001 - mirrors SQL naming on purpose
    """Per-group sum."""
    return AggSpec("sum", column, f"sum_{column}")
