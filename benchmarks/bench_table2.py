"""Table 2 benchmark: model build + serialization size (HABIT vs GTI).

The size ratio (GTI an order of magnitude or more above HABIT) is the
paper's storage story; sizes land in ``extra_info`` of each benchmark.
"""

import pytest

from repro.baselines import GTIConfig, GTIImputer
from repro.core import HabitConfig, HabitImputer
from repro.experiments import common


@pytest.mark.benchmark(group="table2-build")
@pytest.mark.parametrize("resolution", [6, 8, 9, 10])
def test_habit_build_size(benchmark, kiel, resolution):
    def build():
        return HabitImputer(HabitConfig(resolution=resolution)).fit_from_trips(
            kiel.train
        )

    imputer = benchmark.pedantic(build, rounds=2, iterations=1)
    benchmark.extra_info["model_mb"] = imputer.storage_size_bytes() / 1e6
    benchmark.extra_info["nodes"] = imputer.graph.num_nodes


@pytest.mark.benchmark(group="table2-build")
def test_gti_build_size(benchmark, kiel):
    config = GTIConfig(rd_deg=5e-4, downsample_s=common.GTI_DOWNSAMPLE_S)

    def build():
        return GTIImputer(config).fit_from_trips(kiel.train)

    imputer = benchmark.pedantic(build, rounds=2, iterations=1)
    benchmark.extra_info["model_mb"] = imputer.storage_size_bytes() / 1e6
    benchmark.extra_info["nodes"] = imputer.num_nodes


@pytest.mark.benchmark(group="table2-serialize")
def test_habit_save(benchmark, habit_r9, tmp_path):
    path = tmp_path / "model.npz"
    benchmark(habit_r9.save, path)
    benchmark.extra_info["model_mb"] = path.stat().st_size / 1e6
