"""Substrate throughput benchmarks: the bulk kernels everything rests on.

Not a paper table, but the numbers that explain HABIT's build times:
hexgrid bulk indexing, minidb group-by with the paper's aggregate mix,
window lag, HLL sketching, DTW scoring, and the follow daemon's ingest
of one outage backlog (CSV poll, cleaning, streaming segmentation).
"""

import numpy as np
import pytest

from repro.ais import CsvFollower, schema
from repro.core import StreamingSegmenter, clean_messages
from repro.eval.metrics import dtw_distance_m
from repro.hexgrid import grid_distance_array, latlng_to_cell_array
from repro.minidb import Table, agg
from repro.minidb.hll import HyperLogLog

N = 200_000


@pytest.fixture(scope="module")
def points(rng):
    return (
        rng.uniform(54.0, 58.0, N),  # lats
        rng.uniform(8.0, 13.0, N),  # lngs
    )


@pytest.fixture(scope="module")
def ais_like(rng, points):
    lats, lngs = points
    return Table({
        "trip_id": rng.integers(0, 500, N),
        "t": np.sort(rng.uniform(0, 1e6, N)),
        "vessel_id": rng.integers(0, 300, N),
        "lat": lats,
        "lon": lngs,
        "sog": rng.uniform(0, 25, N),
        "cog": rng.uniform(0, 360, N),
    })


@pytest.mark.benchmark(group="substrate-hexgrid")
def test_bulk_cell_indexing(benchmark, points):
    lats, lngs = points
    cells = benchmark(latlng_to_cell_array, lats, lngs, 9)
    assert len(cells) == N


@pytest.mark.benchmark(group="substrate-hexgrid")
def test_bulk_grid_distance(benchmark, points):
    lats, lngs = points
    cells = latlng_to_cell_array(lats, lngs, 9)
    distances = benchmark(grid_distance_array, cells[:-1], cells[1:])
    assert len(distances) == N - 1


@pytest.mark.benchmark(group="substrate-minidb")
def test_paper_cte_groupby(benchmark, ais_like):
    """The paper's per-cell aggregation mix on 200k rows."""
    cells = latlng_to_cell_array(ais_like["lat"], ais_like["lon"], 9)
    table = ais_like.with_columns(cl=cells)

    def cte():
        return table.group_by("cl").agg(
            agg.count(),
            agg.approx_count_distinct("vessel_id").alias("vessels"),
            agg.median("lon"),
            agg.median("lat"),
            agg.median("sog"),
            agg.median("cog"),
        )

    result = benchmark(cte)
    benchmark.extra_info["groups"] = result.num_rows


@pytest.mark.benchmark(group="substrate-minidb")
def test_window_lag(benchmark, ais_like):
    lagged = benchmark(
        ais_like.lag, "vessel_id", "trip_id", "t", 1, -1
    )
    assert len(lagged) == N


@pytest.mark.benchmark(group="substrate-minidb")
def test_hll_sketching(benchmark, rng):
    values = rng.integers(0, 1_000_000, N)

    def sketch():
        hll = HyperLogLog()
        hll.add_array(values)
        return hll.cardinality()

    estimate = benchmark(sketch)
    assert estimate > 0


@pytest.mark.benchmark(group="substrate-dtw")
def test_dtw_on_60min_paths(benchmark, rng):
    """DTW cost at the typical 60-minute-gap path length (~130 points
    after 250 m resampling)."""
    n = 130
    lats_a = 55.0 + np.cumsum(rng.normal(0, 0.002, n))
    lngs_a = 10.0 + np.cumsum(rng.normal(0, 0.002, n))
    lats_b = lats_a + rng.normal(0, 0.001, n)
    lngs_b = lngs_a + rng.normal(0, 0.001, n)
    d = benchmark(dtw_distance_m, lats_a, lngs_a, lats_b, lngs_b)
    assert d >= 0


#: Rows in one follow backlog: the KIEL bench feed cut into 24 outages.
BACKLOG_ROWS = 2_500


@pytest.mark.benchmark(group="substrate-ingest")
def test_follow_backlog_poll_and_push(benchmark, kiel, tmp_path):
    """One ~2,500-row backlog through the follow daemon's ingest: a
    :class:`CsvFollower` poll of the appended CSV rows, then cleaning and
    a :class:`StreamingSegmenter` push.  Rows are KIEL reports in time
    order with ``repr`` floats, as a receiver replaying its outage buffer
    writes them."""
    raw = kiel.bundle.table
    columns = list(schema.RAW_COLUMNS)
    order = np.argsort(np.asarray(raw.column(schema.T)), kind="stable")[:BACKLOG_ROWS]
    values = [np.asarray(raw.column(c))[order].tolist() for c in columns]
    lines = [",".join(map(repr, row[:-1])) + f",{row[-1]}\n" for row in zip(*values)]
    path = tmp_path / "backlog.csv"
    path.write_text(",".join(columns) + "\n" + "".join(lines))

    def setup():
        return (CsvFollower(path), StreamingSegmenter(1800.0, 5000.0, 2)), {}

    def ingest(follower, segmenter):
        return [segmenter.push(clean_messages(chunk)) for chunk in follower.poll()]

    benchmark.pedantic(ingest, setup=setup, rounds=20)
    follower, segmenter = setup()[0]
    closed = ingest(follower, segmenter)
    assert follower.rows_read == BACKLOG_ROWS
    assert sum(t.num_rows for t in closed) + segmenter.open_rows > 0
    benchmark.extra_info["rows"] = BACKLOG_ROWS
