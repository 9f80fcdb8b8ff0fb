"""Figure 3 benchmark: imputation + DTW scoring across resolutions and
projections (accuracy values land in extra_info)."""

import pytest

from repro.core import HabitConfig, HabitImputer
from repro.eval.metrics import dtw_distance_m


@pytest.mark.benchmark(group="fig3-resolution")
@pytest.mark.parametrize("resolution", [7, 9, 10])
@pytest.mark.parametrize("projection", ["center", "mean"])
def test_impute_and_score(benchmark, kiel, kiel_gaps, resolution, projection):
    imputer = HabitImputer(
        HabitConfig(resolution=resolution, projection=projection)
    ).fit_from_trips(kiel.train)
    gap = kiel_gaps[0]

    def impute_and_score():
        result = imputer.impute(gap.start, gap.end)
        return dtw_distance_m(
            result.lats, result.lngs, gap.truth_lats, gap.truth_lngs
        )

    dtw = benchmark(impute_and_score)
    benchmark.extra_info["dtw_m"] = float(dtw)
