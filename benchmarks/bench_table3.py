"""Table 3 benchmark: simplification cost and its effect on path shape."""

import pytest

from repro.geo import rdp_simplify, turn_statistics


@pytest.fixture(scope="module")
def raw_imputed_path(habit_r10, kiel_gaps):
    gap = kiel_gaps[0]
    result = habit_r10.impute(gap.start, gap.end, tolerance_m=0.0)
    return result.lats, result.lngs


@pytest.mark.benchmark(group="table3-rdp")
@pytest.mark.parametrize("tolerance", [100.0, 250.0, 500.0, 1000.0])
def test_rdp_tolerance(benchmark, raw_imputed_path, tolerance):
    lats, lngs = raw_imputed_path
    out_lat, out_lng = benchmark(rdp_simplify, lats, lngs, tolerance)
    stats = turn_statistics(out_lat, out_lng)
    benchmark.extra_info["cnt"] = stats.num_positions
    benchmark.extra_info["gt45"] = stats.turns_over_45deg
    benchmark.extra_info["input_cnt"] = len(lats)


@pytest.mark.benchmark(group="table3-turnstats")
def test_turn_statistics_cost(benchmark, raw_imputed_path):
    lats, lngs = raw_imputed_path
    stats = benchmark(turn_statistics, lats, lngs)
    assert stats.num_positions == len(lats)
