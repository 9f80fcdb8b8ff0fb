"""Table 4 benchmark: per-query imputation latency, HABIT vs GTI.

The reproduction target is the *ratio*: GTI (full Dijkstra over a point
graph) is roughly an order of magnitude slower per query than HABIT over
the compressed cell graph, and finer HABIT resolutions cost more.  HABIT
is timed with its default contraction-hierarchy search; the paper's A*
query costs the same path and is timed in ``bench_ablation_astar.py``.
"""

import pytest


def _round_robin(imputer, gaps):
    state = {"i": 0}

    def one_query():
        gap = gaps[state["i"] % len(gaps)]
        state["i"] += 1
        return imputer.impute(gap.start, gap.end)

    return one_query


@pytest.mark.benchmark(group="table4-latency")
def test_habit_r9_latency(benchmark, habit_r9, kiel_gaps):
    result = benchmark(_round_robin(habit_r9, kiel_gaps))
    assert result is not None


@pytest.mark.benchmark(group="table4-latency")
def test_habit_r10_latency(benchmark, habit_r10, kiel_gaps):
    result = benchmark(_round_robin(habit_r10, kiel_gaps))
    assert result is not None


@pytest.mark.benchmark(group="table4-latency")
def test_gti_latency(benchmark, gti_kiel, kiel_gaps):
    result = benchmark(_round_robin(gti_kiel, kiel_gaps))
    assert result is not None
