"""minidb: table algebra, group-by kernels, and the lag window function."""

import numpy as np
import pytest

from repro.minidb import Table, agg


@pytest.fixture()
def small():
    return Table(
        {
            "g": np.array([2, 0, 1, 0, 2, 2]),
            "v": np.array([10.0, 1.0, 5.0, 3.0, 30.0, 20.0]),
            "who": np.array([1, 1, 2, 2, 3, 1]),
        }
    )


def test_basic_shape(small):
    assert small.num_rows == 6
    assert len(small) == 6
    assert small.column_names == ["g", "v", "who"]
    assert "v" in small
    assert np.array_equal(small["g"], small.column("g"))


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        Table({"a": np.zeros(3), "b": np.zeros(4)})


def test_with_columns_drop_select_filter(small):
    extended = small.with_columns(w=np.arange(6))
    assert extended.column_names == ["g", "v", "who", "w"]
    assert small.num_rows == 6  # original untouched
    assert extended.drop("w").column_names == ["g", "v", "who"]
    assert extended.select("v", "g").column_names == ["v", "g"]
    kept = small.filter(small["v"] > 4.0)
    assert kept.num_rows == 4


def test_sort_and_concat(small):
    ordered = small.sort_by("g", "v")
    assert np.array_equal(ordered["g"], [0, 0, 1, 2, 2, 2])
    assert np.array_equal(ordered["v"], [1.0, 3.0, 5.0, 10.0, 20.0, 30.0])
    doubled = Table.concat([small, small])
    assert doubled.num_rows == 12


def test_group_by_aggregates(small):
    result = small.group_by("g").agg(
        agg.count(),
        agg.sum("v"),
        agg.mean("v"),
    )
    assert np.array_equal(result["g"], [0, 1, 2])
    assert np.array_equal(result["count"], [2, 1, 3])
    assert np.allclose(result["sum_v"], [4.0, 5.0, 60.0])
    assert np.allclose(result["mean_v"], [2.0, 5.0, 20.0])


def test_group_by_matches_numpy_reference(rng):
    n = 5000
    table = Table(
        {"k": rng.integers(0, 37, n), "x": rng.normal(size=n)}
    )
    result = table.group_by("k").agg(agg.count(), agg.mean("x"), agg.sum("x"))
    for row, key in enumerate(result["k"]):
        values = table["x"][table["k"] == key]
        assert result["count"][row] == len(values)
        assert result["mean_x"][row] == pytest.approx(np.mean(values))
        assert result["sum_x"][row] == pytest.approx(values.sum())


def test_multi_key_group_by(small):
    result = small.group_by("g", "who").agg(agg.count())
    # (2,1) appears twice; every other (g, who) pair once.
    assert result.num_rows == 5
    pair_counts = {
        (int(g), int(w)): int(c)
        for g, w, c in zip(result["g"], result["who"], result["count"])
    }
    assert pair_counts[(2, 1)] == 2


def test_empty_group_by():
    empty = Table({"k": np.zeros(0, dtype=np.int64), "x": np.zeros(0)})
    result = empty.group_by("k").agg(agg.count(), agg.mean("x"))
    assert result.num_rows == 0


def test_lag_basic():
    table = Table(
        {
            "part": np.array([1, 1, 1, 2, 2]),
            "t": np.array([1.0, 2.0, 3.0, 1.0, 2.0]),
            "x": np.array([10.0, 20.0, 30.0, 40.0, 50.0]),
        }
    )
    prev = table.lag("x", "part", "t", 1, -1.0)
    assert np.array_equal(prev, [-1.0, 10.0, 20.0, -1.0, 40.0])
    nxt = table.lag("x", "part", "t", -1, -1.0)
    assert np.array_equal(nxt, [20.0, 30.0, -1.0, 50.0, -1.0])


def test_lag_respects_order_not_row_position():
    # Rows shuffled: lag must follow timestamps, and results align with the
    # table's (shuffled) row order.
    table = Table(
        {
            "part": np.array([1, 1, 1]),
            "t": np.array([3.0, 1.0, 2.0]),
            "x": np.array([30.0, 10.0, 20.0]),
        }
    )
    prev = table.lag("x", "part", "t", 1, np.nan)
    assert prev[0] == 20.0  # before t=3 comes t=2
    assert np.isnan(prev[1])
    assert prev[2] == 10.0


def test_lag_zero_offset_is_identity(small):
    out = small.lag("v", "g", "v", 0, -1.0)
    assert np.array_equal(out, small["v"])
