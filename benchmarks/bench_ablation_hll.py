"""Ablation: HyperLogLog vs exact distinct counting in graph statistics.

DuckDB's approx_count_distinct (HLL) is what the paper uses, and the fit
always estimates distinct vessels with it.  The exact truth is built
independently of the fit: the same cell keys (``latlng_to_cell_array``)
and transition keys (``Table.lag`` within each trip), counted with the
eager ``count_distinct`` kernel.  The fit must find the same cells and
transitions with the same counts; only the distinct vessel counts may
differ, each HLL estimate within ``HLL_REL_ERROR`` of the exact count.
"""

import math

import numpy as np
import pytest

from repro.ais import schema
from repro.core import HabitConfig, compute_statistics
from repro.hexgrid import latlng_to_cell_array
from repro.minidb import agg
from repro.minidb.hll import DEFAULT_P

#: Three relative standard errors of an HLL with 2**DEFAULT_P registers
#: (1.04 / sqrt(m), ~1.6 % each).
HLL_REL_ERROR = 3 * 1.04 / math.sqrt(1 << DEFAULT_P)

RESOLUTION = 9


@pytest.fixture(scope="module")
def exact_statistics(kiel):
    trips = kiel.train
    cells = latlng_to_cell_array(
        np.asarray(trips.column(schema.LAT), dtype=np.float64),
        np.asarray(trips.column(schema.LON), dtype=np.float64),
        RESOLUTION,
    )
    indexed = trips.with_columns(cell=cells)
    nxt = indexed.lag("cell", schema.TRIP_ID, schema.T, -1, -1)
    moved = (nxt != -1) & (nxt != cells)
    pairs = indexed.filter(moved).with_columns(next_cell=nxt[moved])
    vessels = agg.count_distinct(schema.VESSEL_ID).alias("vessels")
    return (
        indexed.group_by("cell").agg(agg.count(), vessels),
        pairs.group_by("cell", "next_cell").agg(
            agg.count().alias("transitions"), vessels
        ),
    )


@pytest.mark.benchmark(group="ablation-hll")
def test_statistics_hll_vs_exact(benchmark, kiel, exact_statistics):
    config = HabitConfig(resolution=RESOLUTION)
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
