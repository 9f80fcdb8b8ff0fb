"""Baseline imputers: SLI geometry and the GTI point graph."""

import numpy as np
import pytest

from repro.baselines import GTIConfig, GTIImputer, StraightLineImputer


def test_sli_endpoints_and_spacing():
    sli = StraightLineImputer()  # RESAMPLE_M = 250 m spacing
    result = sli.impute((55.0, 10.0), (55.0, 10.1))  # ~6.4 km east
    assert result.lats[0] == 55.0 and result.lngs[0] == 10.0
    assert result.lats[-1] == 55.0 and result.lngs[-1] == 10.1
    assert result.num_points > 20  # resampled, not just two vertices
    assert np.all(np.diff(result.lngs) > 0)
    assert sli.storage_size_bytes() == 0


def test_sli_zero_length_gap():
    result = StraightLineImputer().impute((55.0, 10.0), (55.0, 10.0))
    assert result.num_points >= 2


def test_gti_fit_and_impute(tiny_kiel):
    config = GTIConfig(rd_deg=5e-4, downsample_s=60.0)
    gti = GTIImputer(config).fit_from_trips(tiny_kiel.train)
    assert gti.num_nodes > 100
    assert gti.num_edges > 100
    assert gti.storage_size_bytes() > 0
    gap = tiny_kiel.gaps(3600.0)[0]
    result = gti.impute(gap.start, gap.end)
    assert result.num_points >= 2
    assert result.lats[0] == pytest.approx(gap.start[0])
    assert result.lats[-1] == pytest.approx(gap.end[0])


def test_gti_downsampling_reduces_nodes(tiny_kiel):
    dense = GTIImputer(GTIConfig(downsample_s=30.0)).fit_from_trips(tiny_kiel.train)
    sparse = GTIImputer(GTIConfig(downsample_s=300.0)).fit_from_trips(tiny_kiel.train)
    assert sparse.num_nodes < dense.num_nodes


def test_gti_unfitted_raises():
    with pytest.raises(RuntimeError):
        GTIImputer().impute((55.0, 10.0), (55.0, 10.1))


def test_gti_carries_more_state_than_habit(tiny_kiel):
    from repro.core import HabitConfig, HabitImputer

    habit = HabitImputer(HabitConfig(resolution=9)).fit_from_trips(tiny_kiel.train)
    gti = GTIImputer(GTIConfig(downsample_s=60.0)).fit_from_trips(tiny_kiel.train)
    # The storage contrast of Table 2: point graph >> cell graph.
    assert gti.storage_size_bytes() > habit.storage_size_bytes()
