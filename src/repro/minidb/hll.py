"""HyperLogLog cardinality sketches.

Two shapes are provided:

- :class:`HyperLogLog` -- a single dense sketch with vectorised
  :meth:`~HyperLogLog.add_array` ingestion, used for whole-column distinct
  estimates and for the substrate benchmark.
- :func:`grouped_approx_count_distinct` -- a *sparse* grouped estimator used
  by ``approx_count_distinct`` inside group-by.  It never materialises a
  ``groups x registers`` matrix (200k near-singleton groups would need
  gigabytes); instead it sorts ``(group, register)`` pairs and reduces with
  ``bincount``, so memory stays O(rows).

Both use the classic Flajolet et al. estimator with the small-range
(linear counting) correction.
"""

import numpy as np

__all__ = [
    "HyperLogLog",
    "estimate_from_register_pairs",
    "grouped_approx_count_distinct",
    "grouped_register_pairs",
    "hash_array",
    "merge_register_pairs",
]

#: Default precision: 2**12 registers, ~1.6% relative standard error.
DEFAULT_P = 12


def _splitmix64(x):
    """SplitMix64 finaliser over a uint64 array (wrapping arithmetic)."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> 27)) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> 31)


def hash_array(values):
    """Hash an arbitrary 1-D array to uint64 (vectorised for numeric dtypes)."""
    values = np.asarray(values)
    if values.dtype.kind in "iub":
        raw = values.astype(np.uint64, copy=False)
    elif values.dtype.kind == "f":
        raw = values.astype(np.float64, copy=False).view(np.uint64)
    else:
        # Object/str fallback: per-element Python hash (stable within a run).
        raw = np.array([hash(v) for v in values.tolist()], dtype=np.int64).astype(
            np.uint64
        )
    return _splitmix64(raw)


def _alpha(m):
    if m >= 128:
        return 0.7213 / (1.0 + 1.079 / m)
    if m == 64:
        return 0.709
    if m == 32:
        return 0.697
    return 0.673


def _register_parts(hashes, p):
    """Split hashes into register indices and rank-of-first-one values.

    The low ``64 - p`` bits drive the rank.  With ``p >= 11`` those fit a
    float64 mantissa exactly, so ``frexp`` gives exact bit lengths.
    """
    q = 64 - p
    idx = (hashes >> np.uint64(q)).astype(np.int64)
    low = (hashes & np.uint64((1 << q) - 1)).astype(np.float64)
    _, exponent = np.frexp(low)
    rho = np.where(low == 0.0, q + 1, q + 1 - exponent).astype(np.uint8)
    return idx, rho


def _estimate(m, sum_pow, zeros):
    """Raw HLL estimate with the linear-counting small-range correction."""
    est = _alpha(m) * m * m / sum_pow
    small = (est <= 2.5 * m) & (zeros > 0)
    with np.errstate(divide="ignore"):
        linear = m * np.log(np.where(zeros > 0, m / np.maximum(zeros, 1e-300), 1.0))
    return np.where(small, linear, est)


class HyperLogLog:
    """Dense HyperLogLog sketch with ``2**p`` uint8 registers."""

    def __init__(self, p=DEFAULT_P):
        if not 5 <= p <= 16:
            raise ValueError("p must be in [5, 16]")
        self.p = p
        self.m = 1 << p
        self.registers = np.zeros(self.m, dtype=np.uint8)

    def add(self, value):
        """Add a single value."""
        self.add_array(np.asarray([value]))

    def add_array(self, values):
        """Vectorised bulk insert of a 1-D array of values."""
        idx, rho = _register_parts(hash_array(values), self.p)
        np.maximum.at(self.registers, idx, rho)
        return self

    def merge(self, other):
        """Union this sketch with another of the same precision, in place."""
        if other.p != self.p:
            raise ValueError("cannot merge sketches of different precision")
        np.maximum(self.registers, other.registers, out=self.registers)
        return self

    def cardinality(self):
        """Estimated number of distinct values added."""
        powers = np.ldexp(1.0, -self.registers.astype(np.int64))
        zeros = int(np.count_nonzero(self.registers == 0))
        return float(_estimate(self.m, powers.sum(), np.asarray(zeros)))


def merge_register_pairs(keys, rho):
    """Max-reduce sparse ``(register key, rank)`` pairs onto unique keys.

    The sparse pair representation *is* the mergeable HLL state: states
    union by concatenating their pairs and re-reducing, and the reduced
    pairs are identical whether the rows arrived in one pass or many --
    the property the shard-and-merge fit relies on for exact equivalence.
    Returns ``(keys, rho)`` sorted by key.

    Merged states arrive as concatenated runs that are each sorted
    already, which the stable (run-merging) key sort exploits; the max
    rank of each key run is then one ``maximum.reduceat``.
    """
    keys = np.asarray(keys, dtype=np.int64)
    rho = np.asarray(rho, dtype=np.int64)
    if not keys.size:
        return keys, rho
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    first = np.ones(len(sorted_keys), dtype=bool)
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    starts = np.flatnonzero(first)
    return sorted_keys[starts], np.maximum.reduceat(rho[order], starts)


def grouped_register_pairs(codes, values, p=DEFAULT_P):
    """Sparse per-group HLL state: ``(group * m + register, max rank)`` pairs."""
    codes = np.asarray(codes, dtype=np.int64)
    m = 1 << p
    idx, rho = _register_parts(hash_array(values), p)
    return merge_register_pairs(codes * m + idx, rho.astype(np.int64))


def estimate_from_register_pairs(keys, rho, num_groups, p=DEFAULT_P):
    """Per-group cardinality estimates from reduced register pairs."""
    m = 1 << p
    group_of_reg = keys // m
    sum_pow = np.bincount(
        group_of_reg, weights=np.ldexp(1.0, -rho), minlength=num_groups
    )
    occupied = np.bincount(group_of_reg, minlength=num_groups)
    zeros = m - occupied
    sum_pow = sum_pow + zeros  # absent registers contribute 2**0 each
    return _estimate(m, sum_pow, zeros)


def grouped_approx_count_distinct(codes, num_groups, values, p=DEFAULT_P):
    """Per-group HLL distinct estimates without dense register matrices.

    ``codes`` assigns each row to a group in ``[0, num_groups)``.  Returns a
    float64 array of estimates, one per group.
    """
    keys, rho = grouped_register_pairs(codes, values, p)
    return estimate_from_register_pairs(keys, rho, num_groups, p)
