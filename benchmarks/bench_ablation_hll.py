"""Ablation: HyperLogLog vs exact distinct counting in graph statistics.

DuckDB's approx_count_distinct (HLL) is what the paper uses; the exact
variant is the accuracy/speed trade-off baseline.  Both modes must find
the same cells and transitions with the same counts; only the distinct
vessel counts may differ, each HLL estimate within ``HLL_REL_ERROR`` of
the exact count.
"""

import math

import numpy as np
import pytest

from repro.core import HabitConfig, compute_statistics
from repro.minidb.hll import DEFAULT_P

#: Three relative standard errors of an HLL with 2**DEFAULT_P registers
#: (1.04 / sqrt(m), ~1.6 % each).
HLL_REL_ERROR = 3 * 1.04 / math.sqrt(1 << DEFAULT_P)


@pytest.fixture(scope="module")
def exact_statistics(kiel):
    return compute_statistics(kiel.train, HabitConfig(resolution=9, approx_distinct=False))


@pytest.mark.benchmark(group="ablation-hll")
@pytest.mark.parametrize("approx", [True, False], ids=["hll", "exact"])
def test_statistics_distinct_mode(benchmark, kiel, exact_statistics, approx):
    config = HabitConfig(resolution=9, approx_distinct=approx)
    cell_stats, transition_stats = benchmark.pedantic(
        compute_statistics, args=(kiel.train, config), rounds=3, iterations=1
    )
    benchmark.extra_info["cells"] = cell_stats.num_rows
    benchmark.extra_info["transitions"] = transition_stats.num_rows

    exact_cells, exact_transitions = exact_statistics
    for table, exact, columns in (
        (cell_stats, exact_cells, ("cell", "count")),
        (transition_stats, exact_transitions, ("cell", "next_cell", "transitions")),
    ):
        for column in columns:
            assert np.array_equal(table.column(column), exact.column(column)), column
        estimate = np.asarray(table.column("vessels"), dtype=np.float64)
        truth = np.asarray(exact.column("vessels"), dtype=np.float64)
        error = float(np.max(np.abs(estimate - truth) / truth))
        benchmark.extra_info[f"max_rel_error_{columns[-1]}"] = error
        assert error <= HLL_REL_ERROR, (columns[-1], error)
