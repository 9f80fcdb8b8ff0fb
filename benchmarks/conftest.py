"""Shared benchmark fixtures and the machine-readable results emitter.

Benchmarks run on miniature datasets (generated once per session into a
temporary cache) so the whole ``pytest benchmarks/ --benchmark-only`` run
finishes in minutes.  The *relative* numbers -- HABIT vs GTI latency,
resolution scaling, heuristic speedups -- are the reproduction targets;
absolute magnitudes depend on dataset scale.

Benchmark groups listed in ``BENCH_JSON_GROUPS`` additionally emit a
``BENCH_<name>.json`` artefact next to this file at session end (timing
stats + ``extra_info`` per benchmark), so the perf trajectory of the hot
paths is recorded run over run -- CI uploads them, and one
representative run per change is committed.  Runs with
``--benchmark-disable`` skip emission (there are no timings to record).
"""

import json
import platform
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import GTIConfig, GTIImputer
from repro.core import HabitConfig, HabitImputer
from repro.experiments import common

#: benchmark group -> BENCH_<name>.json artefact written at session end.
BENCH_JSON_GROUPS = {
    "table4-latency": "table4",
    "search-variants": "search",
    "batch-kernel": "search",
}


def _stats_dict(bench):
    stats = getattr(bench.stats, "stats", bench.stats)  # Metadata -> Stats
    return {
        "name": bench.name,
        "group": bench.group,
        "mean_us": stats.mean * 1e6,
        "median_us": stats.median * 1e6,
        "min_us": stats.min * 1e6,
        "stddev_us": stats.stddev * 1e6,
        "rounds": stats.rounds,
        "extra_info": dict(bench.extra_info),
    }


def pytest_sessionfinish(session, exitstatus):
    """Write ``BENCH_*.json`` for every registered group that ran."""
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None or getattr(bench_session, "benchmarks", None) is None:
        return
    by_file = {}
    for bench in bench_session.benchmarks:
        name = BENCH_JSON_GROUPS.get(bench.group)
        if name is None or bench.stats is None:
            continue
        by_file.setdefault(name, []).append(_stats_dict(bench))
    here = Path(__file__).resolve().parent
    for name, records in by_file.items():
        payload = {
            "machine": platform.node(),
            "python": platform.python_version(),
            "benchmarks": sorted(records, key=lambda r: r["name"]),
        }
        (here / f"BENCH_{name}.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )

#: Benchmark dataset scales (smaller than experiment scales).
BENCH_SCALES = {"DAN": 0.03, "KIEL": 0.15, "SAR": 0.015}


@pytest.fixture(scope="session")
def bench_cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("bench_data"))


@pytest.fixture(scope="session")
def kiel(bench_cache):
    return common.prepare("KIEL", scale=BENCH_SCALES["KIEL"], cache_dir=bench_cache)


@pytest.fixture(scope="session")
def sar(bench_cache):
    return common.prepare("SAR", scale=BENCH_SCALES["SAR"], cache_dir=bench_cache)


@pytest.fixture(scope="session")
def dan(bench_cache):
    return common.prepare("DAN", scale=BENCH_SCALES["DAN"], cache_dir=bench_cache)


@pytest.fixture(scope="session")
def kiel_gaps(kiel):
    gaps = kiel.gaps(3600.0)
    assert gaps, "benchmark dataset produced no gaps"
    return gaps


@pytest.fixture(scope="session")
def habit_r9(kiel):
    return HabitImputer(HabitConfig(resolution=9)).fit_from_trips(kiel.train)


@pytest.fixture(scope="session")
def habit_r10(kiel):
    return HabitImputer(HabitConfig(resolution=10)).fit_from_trips(kiel.train)


@pytest.fixture(scope="session")
def gti_kiel(kiel):
    config = GTIConfig(rd_deg=5e-4, downsample_s=common.GTI_DOWNSAMPLE_S)
    return GTIImputer(config).fit_from_trips(kiel.train)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(42)
