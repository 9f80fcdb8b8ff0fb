"""The straight-line (SLI) baseline imputer."""

from repro.core.path import straight_line_path

__all__ = ["StraightLineImputer"]


class StraightLineImputer:
    """Linear interpolation between gap endpoints; needs no fitting."""

    def fit_from_trips(self, trips):
        """No-op, for interface parity with the learned imputers."""
        return self

    def impute(self, start, end):
        """Straight path between ``(lat, lng)`` endpoints."""
        return straight_line_path(start, end)

    def impute_batch(self, starts, ends):
        """One :meth:`impute` per gap, aligned with *starts*."""
        return [self.impute(s, e) for s, e in zip(starts, ends)]

    def storage_size_bytes(self):
        """SLI keeps no model."""
        return 0
