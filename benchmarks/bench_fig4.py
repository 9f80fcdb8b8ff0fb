"""Figure 4 benchmark: tolerance sweep -- imputation latency and accuracy
must stay flat in t (the paper's finding).

The tolerance is a render setting, not part of the model, so one fitted
r9 model renders every swept value through ``impute``'s offline
``tolerance_m`` keyword."""

import pytest

from repro.eval.metrics import dtw_distance_m


@pytest.mark.benchmark(group="fig4-tolerance")
@pytest.mark.parametrize("tolerance", [0.0, 100.0, 250.0, 500.0, 1000.0])
def test_tolerance_sweep(benchmark, habit_r9, kiel_gaps, tolerance):
    gap = kiel_gaps[0]

    result = benchmark(habit_r9.impute, gap.start, gap.end, tolerance_m=tolerance)
    benchmark.extra_info["dtw_m"] = float(
        dtw_distance_m(result.lats, result.lngs, gap.truth_lats, gap.truth_lngs)
    )
    benchmark.extra_info["points"] = result.num_points
