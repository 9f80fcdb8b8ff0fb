"""Evaluation: trajectory similarity metrics and the imputer harness.

- :mod:`repro.eval.metrics` -- DTW distance in metres (the paper's main
  accuracy measure).
- :mod:`repro.eval.harness` -- :func:`evaluate_imputer`, which runs an
  imputer over a list of gaps and aggregates DTW, latency, and optionally
  model storage.
"""

from repro.eval.harness import EvaluationResult, evaluate_imputer
from repro.eval.metrics import dtw_distance_m

__all__ = ["EvaluationResult", "dtw_distance_m", "evaluate_imputer"]
