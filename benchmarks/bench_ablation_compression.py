"""Ablation: fitting HABIT on compressed vs raw trips, and the
DTW-vs-size Pareto of budget compression.

The annotation framework (Fikioris et al. 2022) can compress trajectories
to their critical points.  Fitting HABIT on the compressed stream shrinks
the input massively but thins cell support -- this ablation measures both
sides (build time here; model sizes in extra_info).

The second half benchmarks *budget* compression quality: for each point
budget, real KIEL trips are compressed three ways -- the online
SQUISH-style :func:`repro.geo.compress_to_budget` (one pass, never more
than the budget buffered) and the two offline fixed-threshold
simplifiers, RDP and Visvalingam-Whyatt, each binary-searched to the
same output size -- and judged by DTW against the original trip.  The
aggregates land in ``BENCH_compression.json`` (committed from a
representative run; rides CI's ``BENCH_*.json`` artifact glob), and the
regression gate at the bottom pins the tentpole's quality claim: the
online compressor at budget *b* stays within ``ONLINE_VS_RDP_FACTOR`` of
size-matched offline RDP on mean DTW.  The Pareto section runs entirely
under ``--benchmark-disable`` -- it measures geometry, not wall time.
"""

import json
import platform
from pathlib import Path

import numpy as np
import pytest

from repro.ais.schema import LAT, LON, T, TRIP_ID
from repro.core import HabitConfig, HabitImputer, annotate_events, compress_trajectory
from repro.eval.metrics import dtw_distance_m
from repro.geo import compress_to_budget, latlng_to_xy_m, rdp_simplify, vw_simplify
from repro.geo.simplify import rdp_keep_indices_batch


@pytest.fixture(scope="module")
def compressed_trips(kiel):
    annotated = annotate_events(kiel.train)
    compressed = compress_trajectory(annotated)
    for column in (
        "ev_stop", "ev_gap_before", "ev_turn", "ev_slow", "ev_speed_change",
    ):
        compressed = compressed.drop(column)
    return compressed


@pytest.mark.benchmark(group="ablation-compression")
def test_fit_on_raw(benchmark, kiel):
    imputer = benchmark.pedantic(
        lambda: HabitImputer(HabitConfig(resolution=9)).fit_from_trips(kiel.train),
        rounds=2, iterations=1,
    )
    benchmark.extra_info["rows"] = kiel.train.num_rows
    benchmark.extra_info["model_mb"] = imputer.storage_size_bytes() / 1e6


@pytest.mark.benchmark(group="ablation-compression")
def test_fit_on_compressed(benchmark, kiel, compressed_trips):
    imputer = benchmark.pedantic(
        lambda: HabitImputer(HabitConfig(resolution=9)).fit_from_trips(compressed_trips),
        rounds=2, iterations=1,
    )
    benchmark.extra_info["rows"] = compressed_trips.num_rows
    benchmark.extra_info["compression_ratio"] = (
        kiel.train.num_rows / max(compressed_trips.num_rows, 1)
    )
    benchmark.extra_info["model_mb"] = imputer.storage_size_bytes() / 1e6


def test_compression_preserves_trips(kiel, compressed_trips):
    """Sanity: compression keeps every trip represented."""
    import numpy as np

    raw_trips = set(np.unique(kiel.train.column(TRIP_ID)).tolist())
    kept_trips = set(np.unique(compressed_trips.column(TRIP_ID)).tolist())
    assert kept_trips == raw_trips


# -- DTW-vs-size Pareto: online budget compression vs offline simplifiers --

#: Point budgets swept for the Pareto comparison.
BUDGETS = (8, 12, 20, 32)
#: Documented quality gate: mean DTW of the online compressor at budget b
#: must stay within this factor of offline RDP binary-searched to the
#: same output size.  Measured ~0.5-0.8x on KIEL trips -- the one-pass
#: heap actually *beats* offline RDP here, because SED's time-synced
#: error tracks DTW's alignment far better than RDP's perpendicular
#: distance, and RDP's threshold staircase often undershoots the budget.
#: 1.5 is deliberately loose headroom: the gate exists to catch a real
#: quality regression (a broken heap keeps arbitrary points), not to pin
#: dataset-seed noise.
ONLINE_VS_RDP_FACTOR = 1.5


@pytest.fixture(scope="module")
def pareto_trips(kiel):
    """Real KIEL trips long enough to compress at every swept budget."""
    table = kiel.train
    trip_ids = np.asarray(table.column(TRIP_ID))
    lats = np.asarray(table.column(LAT), dtype=np.float64)
    lngs = np.asarray(table.column(LON), dtype=np.float64)
    ts = np.asarray(table.column(T), dtype=np.float64)
    trips = []
    for tid in np.unique(trip_ids):
        mask = trip_ids == tid
        if int(mask.sum()) < max(BUDGETS) + 16:
            continue
        # Cap the trip length: DTW is O(n*m) and the Pareto needs many
        # (trip, budget, method) cells, not a handful of huge ones.
        trips.append((lats[mask][:240], lngs[mask][:240], ts[mask][:240]))
        if len(trips) == 12:
            break
    assert len(trips) >= 4, "KIEL bench scale produced too few long trips"
    return trips


def _smallest_threshold_within(budget, size_at, lo, hi, iters=48):
    """Geometric bisection for the smallest threshold with size <= budget.

    The smallest admissible threshold keeps the output as close to the
    budget as the simplifier's size-vs-threshold staircase allows -- the
    fairest offline competitor for a hard point budget.
    """
    best = None
    for _ in range(iters):
        mid = (lo * hi) ** 0.5
        size = size_at(mid)
        if size <= budget:
            best = mid
            hi = mid
        else:
            lo = mid
    return best if best is not None else hi


def _compress_one(lat, lng, t, budget):
    """One trip at one budget through all three methods; DTW vs original."""
    x, y = latlng_to_xy_m(lat, lng)

    online = compress_to_budget(x, y, budget, t=t)
    online_lat, online_lng = lat[online.indices], lng[online.indices]

    rdp_tol = _smallest_threshold_within(
        budget, lambda tol: len(rdp_keep_indices_batch([(x, y)], tol)[0]), 1e-2, 1e6
    )
    rdp_lat, rdp_lng = rdp_simplify(lat, lng, rdp_tol)

    vw_area = _smallest_threshold_within(
        budget, lambda area: len(vw_simplify(lat, lng, area)[0]), 1e-4, 1e12
    )
    vw_lat, vw_lng = vw_simplify(lat, lng, vw_area)

    return {
        "online": {
            "size": int(online.points_out),
            "dtw_m": float(dtw_distance_m(lat, lng, online_lat, online_lng)),
            "max_sed_m": float(online.max_sed_m),
        },
        "rdp": {
            "size": len(rdp_lat),
            "dtw_m": float(dtw_distance_m(lat, lng, rdp_lat, rdp_lng)),
        },
        "vw": {
            "size": len(vw_lat),
            "dtw_m": float(dtw_distance_m(lat, lng, vw_lat, vw_lng)),
        },
    }


@pytest.fixture(scope="module")
def pareto_sweep(pareto_trips):
    """budget -> method -> {mean_dtw_m, mean_size, ...} over all trips."""
    sweep = {}
    for budget in BUDGETS:
        cells = [_compress_one(lat, lng, t, budget) for lat, lng, t in pareto_trips]
        per_method = {}
        for method in ("online", "rdp", "vw"):
            dtws = np.array([c[method]["dtw_m"] for c in cells])
            sizes = np.array([c[method]["size"] for c in cells])
            per_method[method] = {
                "mean_dtw_m": round(float(dtws.mean()), 2),
                "max_dtw_m": round(float(dtws.max()), 2),
                "mean_size": round(float(sizes.mean()), 2),
                "max_size": int(sizes.max()),
            }
        per_method["online"]["mean_max_sed_m"] = round(
            float(np.mean([c["online"]["max_sed_m"] for c in cells])), 2
        )
        sweep[budget] = per_method
    return sweep


def test_compression_pareto_artifact(pareto_trips, pareto_sweep):
    """Write BENCH_compression.json: the committed DTW-vs-size Pareto."""
    payload = {
        "machine": platform.machine(),
        "python": platform.python_version(),
        "trips": len(pareto_trips),
        "trip_points": [len(lat) for lat, _, _ in pareto_trips],
        "budgets": list(BUDGETS),
        "online_vs_rdp_factor": ONLINE_VS_RDP_FACTOR,
        "source": (
            "KIEL bench trips; online = repro.geo.compress_to_budget, "
            "rdp/vw = offline simplifiers binary-searched to the same size"
        ),
        "pareto": {str(budget): pareto_sweep[budget] for budget in BUDGETS},
    }
    out = Path(__file__).parent / "BENCH_compression.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nDTW-vs-size Pareto ({len(pareto_trips)} trips) -> {out}")
    for budget in BUDGETS:
        row = pareto_sweep[budget]
        print(
            f"  b={budget:>3}: online {row['online']['mean_dtw_m']:>9.1f}m "
            f"(n={row['online']['mean_size']:.1f})  "
            f"rdp {row['rdp']['mean_dtw_m']:>9.1f}m "
            f"(n={row['rdp']['mean_size']:.1f})  "
            f"vw {row['vw']['mean_dtw_m']:>9.1f}m "
            f"(n={row['vw']['mean_size']:.1f})"
        )


def test_gate_budgets_respected(pareto_sweep):
    """Every method's size-matched output actually fits the budget."""
    for budget, row in pareto_sweep.items():
        for method in ("online", "rdp", "vw"):
            assert row[method]["max_size"] <= budget, (budget, method, row[method])


def test_gate_online_within_factor_of_offline_rdp(pareto_sweep):
    """The tentpole's quality claim: one-pass budgeted compression stays
    within ONLINE_VS_RDP_FACTOR of size-matched offline RDP on mean DTW,
    at every swept budget."""
    for budget, row in pareto_sweep.items():
        online, rdp = row["online"]["mean_dtw_m"], row["rdp"]["mean_dtw_m"]
        assert online <= ONLINE_VS_RDP_FACTOR * rdp, (
            f"budget {budget}: online mean DTW {online:.1f}m exceeds "
            f"{ONLINE_VS_RDP_FACTOR}x offline RDP ({rdp:.1f}m)"
        )
