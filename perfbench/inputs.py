"""Seeded benchmark inputs: held-out gaps, the follow feed, and DTW.

The fleet the server is fitted on (KIEL at the bench scale, dataset
seed :data:`FLEET_SEED`) and the follow feed (KIEL at dataset seed
:data:`FEED_SEED`) are fixed, so every ``--seed`` measures the same
model and the same ingest work; the seed chooses the read traffic --
which held-out windows become gaps, their durations, which carry a
point budget, and which served paths are recomputed offline.

Accuracy is scored here rather than through ``repro.eval``: DTW is the
total alignment cost in metres between a served path and the hidden
positions of its gap, and the straight-line baseline samples the chord
between the endpoints at the model's output spacing.
"""

from dataclasses import dataclass

import numpy as np

#: Dataset, scale and seed of the fitted fleet (``BENCH_SCALES["KIEL"]``).
DATASET = "KIEL"
SCALE = 0.15
FLEET_SEED = 0
FEED_SEED = 1

#: Gap durations are drawn over this range (seconds).
MIN_GAP_S = 1800.0
MAX_GAP_S = 4 * 3600.0

#: Trip context kept on each side of a gap (seconds).
LEAD_S = 300.0

#: Output point spacing of the default model (``HabitConfig.resample_m``);
#: the straight-line baseline is sampled at the same spacing.
SPACING_M = 250.0

_M_PER_DEG = 111_320.0


@dataclass(frozen=True)
class Gap:
    """A held-out window: visible endpoints plus the hidden truth."""

    start: tuple
    end: tuple
    truth_lats: np.ndarray
    truth_lngs: np.ndarray


class GapSampler:
    """Draws never-repeated gaps from held-out test trips.

    Each call to :meth:`draw` spreads its durations evenly over
    ``[MIN_GAP_S, MAX_GAP_S]`` (one jittered draw per stratum, then
    shuffled) so small samples keep the same duration mix across seeds;
    the trip and the window's start are uniform.  A window, named by
    ``(trip, first row, last row)``, is never handed out twice.
    """

    def __init__(self, test_table, rng):
        t = np.asarray(test_table.column("t"), dtype=np.float64)
        lat = np.asarray(test_table.column("lat"), dtype=np.float64)
        lng = np.asarray(test_table.column("lon"), dtype=np.float64)
        trip = np.asarray(test_table.column("trip_id"), dtype=np.int64)
        self.trips = []
        for trip_id in np.unique(trip):
            rows = np.flatnonzero(trip == trip_id)
            rows = rows[np.argsort(t[rows], kind="stable")]
            if len(rows) >= 4:
                self.trips.append((t[rows], lat[rows], lng[rows]))
        self.rng = rng
        self._used = set()

    def draw(self, n):
        fractions = (np.arange(n) + self.rng.random(n)) / n
        self.rng.shuffle(fractions)
        return [self._one(MIN_GAP_S + f * (MAX_GAP_S - MIN_GAP_S)) for f in fractions]

    def _one(self, duration_s):
        eligible = [
            k for k, (t, _, _) in enumerate(self.trips)
            if t[-1] - t[0] >= duration_s + 2 * LEAD_S
        ]
        if not eligible:
            raise ValueError(f"no held-out trip spans a {duration_s:.0f} s gap")
        for _ in range(1000):
            k = eligible[int(self.rng.integers(len(eligible)))]
            t, lat, lng = self.trips[k]
            t0 = self.rng.uniform(t[0] + LEAD_S, t[-1] - LEAD_S - duration_s)
            i = int(np.searchsorted(t, t0, side="right")) - 1
            j = int(np.searchsorted(t, t0 + duration_s, side="left"))
            if i < 1 or j > len(t) - 2 or j - i < 2 or (k, i, j) in self._used:
                continue
            self._used.add((k, i, j))
            return Gap(
                start=(float(lat[i]), float(lng[i])),
                end=(float(lat[j]), float(lng[j])),
                truth_lats=lat[i : j + 1],
                truth_lngs=lng[i : j + 1],
            )
        raise ValueError("could not draw an unused gap window")


def feed_slices(table, slices):
    """The feed as CSV: ``(header line, [(slice bytes, slice table), ...])``.

    Rows are sorted by time, as a receiver replaying its outage buffer
    would send them, and cut into *slices* equal row ranges.  Floats are
    written with ``repr`` so the server parses back the exact values the
    slice table holds.
    """
    columns = ("vessel_id", "t", "lat", "lon", "sog", "cog", "vessel_type")
    order = np.argsort(np.asarray(table.column("t")), kind="stable")
    table = table.take(order)
    rows = [
        ",".join(repr(v) if isinstance(v, float) else str(v) for v in row)
        for row in zip(*(np.asarray(table.column(c)).tolist() for c in columns))
    ]
    bounds = np.linspace(0, len(rows), slices + 1).astype(int)
    out = [
        ("".join(r + "\n" for r in rows[a:b]).encode(), table.take(np.arange(a, b)))
        for a, b in zip(bounds[:-1], bounds[1:])
    ]
    return ",".join(columns) + "\n", out


def _xy_m(lats, lngs, lat0):
    scale = _M_PER_DEG * np.cos(np.radians(lat0))
    return np.asarray(lngs, dtype=np.float64) * scale, np.asarray(lats) * _M_PER_DEG


def dtw_many(pairs, group=32):
    """Unconstrained DTW (steps down, right, diagonal), total cost in m,
    of each ``(lats_a, lngs_a, lats_b, lngs_b)`` path pair.

    Row by row: with ``a[j] = min(D[i-1, j-1], D[i-1, j])`` the left
    dependency ``D[i, j] = c[j] + min(a[j], D[i, j-1])`` unrolls into a
    prefix minimum, ``D[i, :] = C + minimum.accumulate(a - (C - c))``
    with ``C`` the row's cumulative cost.  Pairs of similar length run
    together, *group* at a time, as rows of one zero-padded array: a
    padded column never feeds a real one (dependencies run left to
    right) and each pair's answer is taken at its own last row.
    """
    out = np.empty(len(pairs))
    order = sorted(range(len(pairs)), key=lambda k: len(pairs[k][0]))
    for first in range(0, len(order), group):
        ks = np.asarray(order[first : first + group])
        costs = [_cost_m(*pairs[k]) for k in ks]
        n_rows = np.asarray([c.shape[0] for c in costs])
        n_cols = np.asarray([c.shape[1] for c in costs])
        padded = np.zeros((len(ks), n_rows.max(), n_cols.max()))
        for g, c in enumerate(costs):
            padded[g, : c.shape[0], : c.shape[1]] = c
        prev = np.full((len(ks), n_cols.max() + 1), np.inf)
        prev[:, 0] = 0.0
        for i in range(n_rows.max()):
            c = padded[:, i, :]
            a = np.minimum(prev[:, :-1], prev[:, 1:])
            cumulative = np.cumsum(c, axis=1)
            prev[:, 1:] = cumulative + np.minimum.accumulate(a - (cumulative - c), axis=1)
            prev[:, 0] = np.inf
            done = n_rows == i + 1
            out[ks[done]] = prev[done, n_cols[done]]
    return out


def _cost_m(lats_a, lngs_a, lats_b, lngs_b):
    lat0 = float((np.mean(lats_a) + np.mean(lats_b)) / 2.0)
    xa, ya = _xy_m(lats_a, lngs_a, lat0)
    xb, yb = _xy_m(lats_b, lngs_b, lat0)
    return np.hypot(xa[:, None] - xb[None, :], ya[:, None] - yb[None, :])


def straight_line(start, end):
    """The chord between two endpoints, sampled every ``SPACING_M``."""
    lat0 = (start[0] + end[0]) / 2.0
    x, y = _xy_m([start[0], end[0]], [start[1], end[1]], lat0)
    n = max(2, int(np.ceil(np.hypot(x[1] - x[0], y[1] - y[0]) / SPACING_M)) + 1)
    return np.linspace(start[0], end[0], n), np.linspace(start[1], end[1], n)
