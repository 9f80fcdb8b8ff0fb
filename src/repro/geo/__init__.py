"""Planar geometry helpers: projection, simplification, turn statistics.

Positions are projected to local equirectangular metres (good to well under
a percent at trajectory scale) so every routine works in metric units:

- :func:`rdp_simplify` -- Ramer-Douglas-Peucker with a metre tolerance,
  the paper's post-imputation smoother (Table 3).
- :func:`vw_simplify` -- Visvalingam-Whyatt by effective triangle area,
  the ablation alternative.
- :class:`BudgetCompressor` / :func:`compress_to_budget` -- online
  SQUISH-style compression under a hard point budget, reporting achieved
  SED instead of taking an error threshold; :func:`compress_rendered_path`
  budgets a served path by dropping on-chord points before ranking turns.
- :func:`turn_statistics` -- vertex counts and heading-change profile used
  to judge simplified paths.
"""

from repro.geo.budget import (
    BudgetCompressor,
    BudgetResult,
    compress_rendered_path,
    compress_to_budget,
)
from repro.geo.proj import bearing_deg, latlng_to_xy_m, path_length_m
from repro.geo.simplify import rdp_simplify, vw_simplify
from repro.geo.turns import TurnStatistics, turn_statistics

__all__ = [
    "BudgetCompressor",
    "BudgetResult",
    "TurnStatistics",
    "bearing_deg",
    "compress_rendered_path",
    "compress_to_budget",
    "latlng_to_xy_m",
    "path_length_m",
    "rdp_simplify",
    "turn_statistics",
    "vw_simplify",
]
