"""Reproduction of *Data-Driven Trajectory Imputation for Vessel Mobility
Analysis* (EDBT 2026).

The package is layered bottom-up:

- :mod:`repro.hexgrid` / :mod:`repro.minidb` -- **substrates**: a vectorised
  hexagonal spatial index and a small columnar table engine (group-by
  with mergeable partial states, window lag).
- :mod:`repro.ais` / :mod:`repro.sim` / :mod:`repro.experiments` -- **data**:
  the AIS column schema, synthetic DAN/KIEL/SAR dataset generators, and the
  experiment preparation harness (cleaning, splitting, gap extraction).
- :mod:`repro.core` -- **pipeline**: message cleaning, trip segmentation,
  trajectory annotation/compression, per-cell statistics, and the HABIT
  imputer (A* over a learned cell-transition graph).
- :mod:`repro.baselines` -- straight-line and GTI (point-graph) imputers.
- :mod:`repro.eval` / :mod:`repro.geo` / :mod:`repro.io` -- DTW metrics and
  the evaluation harness, path simplification and turn statistics, GeoJSON
  export.

See ``docs/ARCHITECTURE.md`` for the full architecture notes and
``README.md`` for a quickstart.
"""

__version__ = "0.1.0"

__all__ = [
    "ais",
    "baselines",
    "core",
    "eval",
    "experiments",
    "geo",
    "hexgrid",
    "io",
    "minidb",
    "sim",
]
