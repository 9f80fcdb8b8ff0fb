"""Ablation: RDP vs Visvalingam-Whyatt simplification of imputed paths.

The paper uses RDP (its reference [19] is the Visvalingam & Whyatt
re-evaluation of Douglas-Peucker); VW is the natural alternative.  This
ablation compares runtime and the resulting vertex counts / turn profiles
at roughly matched compression.  Both must keep the raw path's exact
endpoints and return fewer points than it.
"""

import pytest

from repro.geo import rdp_simplify, turn_statistics, vw_simplify


@pytest.fixture(scope="module")
def raw_path(habit_r10, kiel_gaps):
    gap = kiel_gaps[0]
    result = habit_r10.impute(gap.start, gap.end, tolerance_m=0.0)
    return result.lats, result.lngs


def _assert_simplified(raw_path, out_lat, out_lng):
    lats, lngs = raw_path
    assert len(out_lat) == len(out_lng) < len(lats)
    assert (out_lat[0], out_lng[0]) == (lats[0], lngs[0])
    assert (out_lat[-1], out_lng[-1]) == (lats[-1], lngs[-1])


@pytest.mark.benchmark(group="ablation-simplifier")
def test_rdp(benchmark, raw_path):
    lats, lngs = raw_path
    out_lat, out_lng = benchmark(rdp_simplify, lats, lngs, 250.0)
    _assert_simplified(raw_path, out_lat, out_lng)
    stats = turn_statistics(out_lat, out_lng)
    benchmark.extra_info["cnt"] = stats.num_positions
    benchmark.extra_info["gt45"] = stats.turns_over_45deg


@pytest.mark.benchmark(group="ablation-simplifier")
def test_visvalingam_whyatt(benchmark, raw_path):
    lats, lngs = raw_path
    # ~250 m tolerance corresponds to triangles of roughly 250 m height
    # over ~500 m bases: ~60k m2.
    out_lat, out_lng = benchmark(vw_simplify, lats, lngs, 60_000.0)
    _assert_simplified(raw_path, out_lat, out_lng)
    stats = turn_statistics(out_lat, out_lng)
    benchmark.extra_info["cnt"] = stats.num_positions
    benchmark.extra_info["gt45"] = stats.turns_over_45deg
