"""HyperLogLog: cardinality accuracy, merging, grouped estimates."""

import numpy as np

from repro.minidb import Table, agg
from repro.minidb.hll import (
    HyperLogLog,
    grouped_approx_count_distinct,
    grouped_register_pairs,
    merge_register_pairs,
)


def _oracle_merge_register_pairs(keys, rho):
    """The ``(key, rho)`` lexsort reduction the run-merging sort replaced:
    the last row of each key run carries the max rank."""
    keys = np.asarray(keys, dtype=np.int64)
    rho = np.asarray(rho, dtype=np.int64)
    order = np.lexsort((rho, keys))
    sorted_keys = keys[order]
    sorted_rho = rho[order]
    last = np.ones(len(sorted_keys), dtype=bool)
    last[:-1] = sorted_keys[:-1] != sorted_keys[1:]
    return sorted_keys[last], sorted_rho[last]


def _assert_same_pairs(ours, oracle):
    for a, b in zip(ours, oracle):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_cardinality_within_error(rng):
    values = rng.integers(0, 500_000, 200_000)
    true = len(np.unique(values))
    sketch = HyperLogLog()
    sketch.add_array(values)
    estimate = sketch.cardinality()
    assert abs(estimate - true) / true < 0.05  # p=12 => ~1.6% std error


def test_small_cardinality_nearly_exact(rng):
    values = rng.integers(0, 50, 10_000)
    sketch = HyperLogLog()
    sketch.add_array(values)
    assert abs(sketch.cardinality() - 50) <= 2


def test_incremental_add_matches_bulk(rng):
    values = rng.integers(0, 1000, 200)
    bulk = HyperLogLog().add_array(values)
    one_by_one = HyperLogLog()
    for v in values:
        one_by_one.add(int(v))
    assert bulk.cardinality() == one_by_one.cardinality()


def test_merge_equals_union(rng):
    a_values = rng.integers(0, 10_000, 30_000)
    b_values = rng.integers(5_000, 15_000, 30_000)
    a = HyperLogLog().add_array(a_values)
    b = HyperLogLog().add_array(b_values)
    union = HyperLogLog().add_array(np.concatenate([a_values, b_values]))
    a.merge(b)
    assert a.cardinality() == union.cardinality()


def test_grouped_estimates_track_truth(rng):
    n = 100_000
    codes = rng.integers(0, 50, n)
    values = rng.integers(0, 2_000, n)
    estimates = grouped_approx_count_distinct(codes, 50, values)
    for group in range(0, 50, 7):
        true = len(np.unique(values[codes == group]))
        assert abs(estimates[group] - true) / true < 0.1


def test_agg_approx_vs_exact(rng):
    n = 50_000
    table = Table(
        {"k": rng.integers(0, 20, n), "v": rng.integers(0, 5_000, n)}
    )
    result = table.group_by("k").agg(
        agg.count_distinct("v").alias("exact"),
        agg.approx_count_distinct("v").alias("approx"),
    )
    relative = np.abs(result["approx"] - result["exact"]) / result["exact"]
    assert relative.max() < 0.1


def test_merge_register_pairs_matches_oracle_on_unsorted_duplicates(rng):
    """Unsorted keys, each repeated with tied and distinct ranks."""
    for _ in range(50):
        size = int(rng.integers(1, 400))
        keys = rng.integers(0, max(size // 4, 1), size)
        rho = rng.integers(0, 4, size)  # few ranks: many ties per key
        _assert_same_pairs(
            merge_register_pairs(keys, rho), _oracle_merge_register_pairs(keys, rho)
        )


def test_merge_register_pairs_on_empty_input():
    empty = np.empty(0, dtype=np.int64)
    ours = merge_register_pairs(empty, empty)
    _assert_same_pairs(ours, _oracle_merge_register_pairs(empty, empty))
    assert ours[0].size == 0 and ours[1].size == 0


def test_merge_register_pairs_of_three_states_matches_oracle_and_one_pass(rng):
    """k >= 3 pre-reduced states (each sorted, keys unique) merge to what
    the oracle gives and to the state of one pass over all their rows."""
    codes = rng.integers(0, 30, 9_000)
    values = rng.integers(0, 2_000, 9_000)
    chunks = np.array_split(np.arange(codes.size), 4)
    states = [grouped_register_pairs(codes[c], values[c]) for c in chunks]
    keys = np.concatenate([k for k, _ in states])
    rho = np.concatenate([r for _, r in states])
    merged = merge_register_pairs(keys, rho)
    _assert_same_pairs(merged, _oracle_merge_register_pairs(keys, rho))
    _assert_same_pairs(merged, grouped_register_pairs(codes, values))
