"""Ablation: edge-weight scheme -- paper's transition count vs the shipped
inverse-frequency alternative (popular edges cheaper).  Each scheme's
path must end exactly at the gap endpoints and score a finite DTW."""

import math

import pytest

from repro.core import HabitConfig, HabitImputer
from repro.eval.metrics import dtw_distance_m


@pytest.mark.benchmark(group="ablation-weights")
@pytest.mark.parametrize("scheme", ["transitions", "inverse_frequency"])
def test_weight_scheme(benchmark, kiel, kiel_gaps, scheme):
    imputer = HabitImputer(
        HabitConfig(resolution=9, edge_weight=scheme)
    ).fit_from_trips(kiel.train)
    gap = kiel_gaps[0]

    result = benchmark(imputer.impute, gap.start, gap.end)
    dtw_m = float(dtw_distance_m(result.lats, result.lngs, gap.truth_lats, gap.truth_lngs))
    benchmark.extra_info["dtw_m"] = dtw_m
    assert (result.lats[0], result.lngs[0]) == tuple(gap.start)
    assert (result.lats[-1], result.lngs[-1]) == tuple(gap.end)
    assert math.isfinite(dtw_m)
