"""The imputer evaluation harness (Figures 5 and 7, Table 4 support).

Runs an imputer over a list of gaps in one timed ``impute_batch`` call,
then scores each reconstruction against the held-out ground truth with
DTW.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from repro.eval.metrics import dtw_distance_m

__all__ = ["EvaluationResult", "evaluate_imputer"]


@dataclass(frozen=True)
class EvaluationResult:
    """Aggregated per-gap scores for one imputer on one gap set.

    ``mean_latency_s`` is the batch-amortised imputation time per gap
    (DTW excluded); ``bench_table4`` times one-gap ``impute`` queries.
    """

    name: str
    num_gaps: int
    mean_dtw_m: float
    median_dtw_m: float
    mean_latency_s: float
    mean_points: float
    fallback_rate: float
    storage_bytes: int | None = None
    dtw_m: np.ndarray = field(default=None, repr=False)


def evaluate_imputer(imputer, gaps, name, measure_storage=True):
    """Impute every gap in one batch and score against its ground truth.

    *gaps* are :class:`repro.experiments.common.Gap`-shaped objects
    (``start``/``end`` endpoint tuples plus ``truth_lats``/``truth_lngs``).
    Set *measure_storage* to include ``imputer.storage_size_bytes()``.
    """
    started = time.perf_counter()
    results = imputer.impute_batch([g.start for g in gaps], [g.end for g in gaps])
    impute_seconds = time.perf_counter() - started
    dtw_values = np.array(
        [dtw_distance_m(r.lats, r.lngs, g.truth_lats, g.truth_lngs) for r, g in zip(results, gaps)]
    )
    points = np.array([r.num_points for r in results])
    fallbacks = sum(r.method == "fallback" for r in results)
    storage = imputer.storage_size_bytes() if measure_storage else None
    n = max(len(gaps), 1)
    return EvaluationResult(
        name=name,
        num_gaps=len(gaps),
        mean_dtw_m=float(dtw_values.mean()) if len(gaps) else float("nan"),
        median_dtw_m=float(np.median(dtw_values)) if len(gaps) else float("nan"),
        mean_latency_s=impute_seconds / n,
        mean_points=float(points.mean()) if len(gaps) else 0.0,
        fallback_rate=fallbacks / n,
        storage_bytes=storage,
        dtw_m=dtw_values,
    )
