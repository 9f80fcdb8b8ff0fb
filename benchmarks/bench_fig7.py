"""Figure 7 benchmark: imputation across the gap duration x density grid.

The whole grid comes from one ``experiments.common.gap_sweep`` pass --
durations 1/2/4 h crossed with gap densities (gaps cut per test trip) --
instead of one-duration-at-a-time cases.  Each cell imputes every one of
its gaps with one timed ``impute_batch`` call; DTW scoring runs once,
outside the timer.  HABIT's median DTW must beat the straight line's in
every cell.  Longer gaps mean longer routes and longer DTW alignments:
DTW sums point-to-point distances, so the median roughly doubles with
each doubling of the duration.  Denser gap cutting must not shift
per-gap accuracy (the cells are independent queries).
"""

import numpy as np
import pytest

from repro.baselines import StraightLineImputer
from repro.eval.metrics import dtw_distance_m
from repro.experiments import common

#: The sweep axes: gap duration (hours) x gaps cut per test trip.
DURATIONS_H = (1.0, 2.0, 4.0)
DENSITIES = (1, 2)


@pytest.fixture(scope="module")
def fig7_sweep(kiel):
    """The full duration x density sweep, streamed once per module."""
    return {
        (cell.duration_s, cell.max_per_trip): cell
        for cell in common.gap_sweep(
            kiel, [h * 3600.0 for h in DURATIONS_H], DENSITIES
        )
    }


def _median_dtw_m(paths, gaps):
    dtw = [dtw_distance_m(p.lats, p.lngs, g.truth_lats, g.truth_lngs) for p, g in zip(paths, gaps)]
    return float(np.median(dtw))


@pytest.mark.benchmark(group="fig7-durations")
@pytest.mark.parametrize("hours", DURATIONS_H)
@pytest.mark.parametrize("density", DENSITIES)
def test_gap_sweep_cell(benchmark, fig7_sweep, habit_r9, hours, density):
    cell = fig7_sweep[(hours * 3600.0, density)]
    if not cell.gaps:
        pytest.skip(f"no {hours}-hour gaps fit the benchmark trips at density {density}")
    starts = [g.start for g in cell.gaps]
    ends = [g.end for g in cell.gaps]

    paths = benchmark(habit_r9.impute_batch, starts, ends)
    habit = _median_dtw_m(paths, cell.gaps)
    sli = _median_dtw_m(StraightLineImputer().impute_batch(starts, ends), cell.gaps)
    benchmark.extra_info["habit_median_dtw_m"] = habit
    benchmark.extra_info["sli_median_dtw_m"] = sli
    benchmark.extra_info["gap_h"] = hours
    benchmark.extra_info["density"] = density
    benchmark.extra_info["num_gaps"] = cell.num_gaps
    assert habit < sli
