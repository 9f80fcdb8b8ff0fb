"""Socket-to-socket benchmark of the imputation service, through its CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every launch starts the real daemon,
``python -m repro.service --fit KIEL --resolution 10 --serve --port 0
--follow DUMP ...``, through the thin launcher ``serve.py``, and one
client process drives it over at most two keep-alive connections from
at most two threads.  Workloads (see README.md for why each exists):

- ``warm_repeat``: 2 connections, closed loop, singleton POSTs cycling
  over a primed pool of 64 held-out gaps; every answer must be a
  path-cache hit, so transport and encoding are the whole cost.
- ``cold_fleet``: 2 connections, closed loop, POSTs of 16 never-repeated
  held-out gaps (30 min to 4 h), half with ``max_points: 32``.
- ``refresh_catchup``: the daemon follows an initially empty dump; the
  timed phase appends a KIEL feed of another dataset seed as 24 outage
  backlogs, each written once the previous one is folded in, while 1
  connection sends singleton repeats from the warm pool.

Each run launches the CLI twice and reports the median
launch-to-first-answer time as ``setup_s``; the last launch runs the
workload.  After the timed phase a seed-chosen accuracy set of 256
held-out gaps is scored by DTW against the hidden positions, 16 served
paths are compared with an offline ``HabitImputer.load(...).impute``,
and, on the two read workloads, eight feed backlogs are folded in with
no read traffic (``ingest_rows_per_s``).  Every response is checked; a
failed check counts in ``failed`` and the exit code is 1.

With ``--trace 1`` the run adds one more launch in which ``serve.py``
wraps each layer's entry points in spans; the last output line then
carries the per-layer metrics (see layers.py) instead of the end-to-end
ones, including the tracing overhead against the untraced launch.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.  The full record -- machine fingerprint, seed,
raw latency samples, ``/metrics`` deltas per phase -- is written to
``perfbench/results/``.
"""

import argparse
import itertools
import json
import os
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

import numpy as np

# Siblings: the script's own directory is first on sys.path.
from client import Connection, Server, ServerError, fingerprint
from inputs import (
    DATASET, FEED_SEED, FLEET_SEED, SCALE, GapSampler, dtw_many, feed_slices, straight_line,
)
from layers import delta_json, metrics_delta, per_layer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("warm_repeat", "cold_fleet", "refresh_catchup")

#: CLI launches per run; setup_s is their median.
SETUP_LAUNCHES = 2
#: Held-out gaps in the warm pool.
POOL_SIZE = 64
#: Gaps per cold_fleet POST, and the point budget half of them carry.
FLEET_BATCH = 16
BUDGET = 32
#: cold_fleet POSTs generated per measured second (an upper bound on
#: what the server can answer; a run that exhausts them ends early).
FLEET_POSTS_PER_S = 60
#: Held-out gaps scored for accuracy, and how many of them are
#: recomputed offline for the served-equals-offline check.
ACCURACY_GAPS = 256
SPOT_CHECKS = 16
#: Feed backlogs (refresh_catchup times them all; the read workloads
#: time IDLE_BACKLOGS of them, from the first that closes a trip, after
#: their timed phase), and the follow daemon's settings.
FEED_SLICES = 24
IDLE_BACKLOGS = 8
CHUNK_ROWS = 5000
POLL_INTERVAL_S = 0.05
#: Seconds one backlog may take to fold in before the run fails.
DRAIN_TIMEOUT_S = 60.0
#: Model config every request carries (the CLI fits the same one).
CONFIG = {"resolution": 10}

#: End-to-end metric -> unit, in output order.
E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "gaps_per_s": "gaps/s",
    "bytes_per_gap": "bytes",
    "peak_rss_mb": "MB",
    "dtw_median_m": "m",
    "dtw_vs_straight": "ratio",
    "ingest_rows_per_s": "rows/s",
}


class Phase:
    """Client-side tally of checked requests."""

    def __init__(self):
        self.samples_ms = []
        self.bytes = 0
        self.gaps = 0
        self.attempted = 0
        self.failed = 0
        self.problems = {}

    def add(self, seconds, nbytes, ngaps, problem):
        self.attempted += 1
        if problem is not None:
            self.fail(problem)
            return
        self.samples_ms.append(seconds * 1e3)
        self.bytes += nbytes
        self.gaps += ngaps

    def fail(self, problem):
        self.failed += 1
        self.problems[problem] = self.problems.get(problem, 0) + 1

    def merge(self, other):
        self.samples_ms += other.samples_ms
        self.bytes += other.bytes
        self.gaps += other.gaps
        self.attempted += other.attempted
        self.failed += other.failed
        for problem, count in other.problems.items():
            self.problems[problem] = self.problems.get(problem, 0) + count
        return self


def impute_body(gaps, budgets):
    requests = []
    for k, (gap, budget) in enumerate(zip(gaps, budgets)):
        item = {"dataset": DATASET, "id": f"g{k}", "start": list(gap.start),
                "end": list(gap.end)}
        if budget is not None:
            item["max_points"] = budget
        requests.append(item)
    return json.dumps({"requests": requests, "config": CONFIG}).encode()


def batch(gaps, budgets=None):
    budgets = budgets or [None] * len(gaps)
    return impute_body(gaps, budgets), gaps, budgets


def check(status, data, gaps, budgets, want_tier=None):
    """``(problem or None, parsed response)`` for one /impute answer."""
    if status is None:
        return "transport failure", None
    if status != 200:
        return f"status {status}", None
    doc = json.loads(data)
    results, features = doc["results"], doc["geojson"]["features"]
    if not doc["count"] == len(results) == len(features) == len(gaps):
        return "count differs from batch length", None
    for k, (gap, budget, result, feature) in enumerate(zip(gaps, budgets, results, features)):
        coords = feature["geometry"]["coordinates"]
        provenance = result["provenance"]
        if result["request_id"] != f"g{k}":
            return "results out of request order", None
        if coords[0] != [gap.start[1], gap.start[0]] or coords[-1] != [gap.end[1], gap.end[0]]:
            return "endpoints differ from the request", None
        if budget is not None and max(len(coords), provenance["points_out"]) > budget:
            return "points exceed max_points", None
        if want_tier is not None and provenance["path_cache"] != want_tier:
            return f"path_cache tier {provenance['path_cache']}, expected {want_tier}", None
    return None, doc


def read_loop(conn, items, deadline, phase, want_tier=None, stop=None, revision=None):
    """Closed loop: POST each item, wait, check, repeat until *deadline*.

    *revision*, a one-item list, turns on the never-decreasing model
    revision check across the answers this loop sees."""
    for body, gaps, budgets in items:
        if time.perf_counter() >= deadline or (stop is not None and stop.is_set()):
            return
        status, data, seconds = conn.post("/impute", body)
        problem, doc = check(status, data, gaps, budgets, want_tier)
        if problem is None and revision is not None:
            seen = [r["provenance"]["revision"] for r in doc["results"]]
            if min(seen) < revision[0]:
                problem = "model revision decreased"
            revision[0] = max(revision[0], *seen)
        phase.add(seconds, len(data), len(gaps), problem)


def model_entry(conn):
    """The fitted model's row of the /models feed."""
    models = conn.get_json("/models")["models"]
    return next(m for m in models if m["dataset"].upper() == DATASET)


def wait_drained(conn, rows, trips):
    """Poll /healthz until the follow daemon has read *rows* rows and
    closed *trips* trips; returns a problem string or None."""
    deadline = time.perf_counter() + DRAIN_TIMEOUT_S
    while True:
        follow = conn.get_json("/healthz")["follow"]
        if follow["last_error"]:
            return f"follow daemon failed: {follow['last_error']}"
        if follow["rows_read"] > rows or follow["trips_closed"] > trips:
            return "follow daemon read or closed more than was appended"
        if follow["rows_read"] == rows and follow["trips_closed"] == trips:
            return None
        if time.perf_counter() > deadline:
            return "backlog not folded in before the drain timeout"


def run_threads(*fns):
    """Run *fns* concurrently: the first on this thread, the rest on one
    helper thread each; re-raises the first exception."""
    errors = []

    def guard(fn):
        try:
            fn()
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=guard, args=(fn,)) for fn in fns[1:]]
    for thread in threads:
        thread.start()
    guard(fns[0])
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def shared(items):
    """A factory of iterators that together hand out *items* once."""
    counter = itertools.count()

    def take():
        for i in iter(counter.__next__, None):
            if i >= len(items):
                return
            yield items[i]

    return take


class Benchmark:
    """One run: seeded inputs, the launches, and their record."""

    def __init__(self, args, work):
        from repro.core import StreamingSegmenter, clean_messages
        from repro.experiments import common
        from repro.sim.datasets import build_dataset

        self.args = args
        self.work = work
        self.data_dir = work / "data"
        prepared = common.prepare(DATASET, scale=SCALE, cache_dir=self.data_dir, seed=FLEET_SEED)
        self.cli_base = [
            "--fit", DATASET, "--scale", str(SCALE), "--seed", str(FLEET_SEED),
            "--resolution", str(CONFIG["resolution"]), "--data-cache", str(self.data_dir),
            "--serve", "--port", "0", "--refresh-interval", "0",
            "--poll-interval", str(POLL_INTERVAL_S), "--chunk-rows", str(CHUNK_ROWS),
        ]
        rng = np.random.default_rng(args.seed)
        sampler = GapSampler(prepared.test, rng)
        self.probe = batch(sampler.draw(1))
        self.accuracy = sampler.draw(ACCURACY_GAPS)
        self.spot = sorted(int(k) for k in rng.choice(ACCURACY_GAPS, SPOT_CHECKS, replace=False))
        self.pool = [batch([gap]) for gap in sampler.draw(POOL_SIZE)]
        self.fleet = []
        if args.workload == "cold_fleet":
            for _ in range(args.seconds * FLEET_POSTS_PER_S):
                gaps = sampler.draw(FLEET_BATCH)
                self.fleet.append(batch(gaps, [BUDGET if k % 2 else None for k in range(len(gaps))]))
        feed = build_dataset(DATASET, scale=SCALE, seed=FEED_SEED).table
        self.header, slices = feed_slices(feed, FEED_SLICES)
        # What the daemon must reach after each backlog: cumulative rows
        # read and trips closed, from the same segmentation run offline.
        segmenter = StreamingSegmenter(1800.0, 5000.0, 2)  # the daemon's defaults
        rows = trips = 0
        self.backlogs = []
        for text, table in slices:
            closed = segmenter.push(clean_messages(table))
            rows += table.num_rows
            trips += len(np.unique(np.asarray(closed.column("trip_id"))))
            self.backlogs.append((text, rows, trips))
        self.checks = Phase()  # checks outside the timed phases

    # -- launches -----------------------------------------------------------

    def launch(self, name, spans=None):
        workdir = self.work / name
        workdir.mkdir(parents=True)
        dump = workdir / "feed.csv"
        dump.write_text(self.header)
        args = self.cli_base + ["--registry", str(workdir / "registry"), "--follow", str(dump)]
        launched_ns = time.monotonic_ns()
        server = Server(workdir, args, spans=spans)
        server.dump = dump
        server.registry = workdir / "registry"
        try:
            server.setup_s = server.wait_ready(self.probe[0])
        except BaseException:
            server.stop()
            raise
        server.setup_window = (launched_ns, time.monotonic_ns())
        return server

    def fetch(self, server, path):
        """GET on a fresh connection (keep-alive stalls stay out of polls)."""
        conn = Connection(server.host, server.port)
        try:
            return conn.get_json(path)
        finally:
            conn.close()

    def connect(self, server):
        return Connection(server.host, server.port)

    # -- phases -------------------------------------------------------------

    def prime(self, server):
        """Answer the whole pool in one POST, then require path-cache hits
        (the rendered-path memo fills on the first pass too)."""
        conn = self.connect(server)
        pool = batch([gaps[0] for _, gaps, _ in self.pool])
        try:
            read_loop(conn, [pool], float("inf"), self.checks)
            read_loop(conn, [pool], float("inf"), self.checks, want_tier="hit")
        finally:
            conn.close()

    def timed_reads(self, server, out):
        seconds = self.args.seconds
        conns = [self.connect(server) for _ in range(2)]
        phases = [Phase(), Phase()]
        before = self.fetch(server, "/metrics?format=json")
        t0, t0_ns = time.perf_counter(), time.monotonic_ns()
        deadline = t0 + seconds
        try:
            if self.args.workload == "warm_repeat":
                half = len(self.pool) // 2
                run_threads(
                    lambda: read_loop(conns[0], itertools.cycle(self.pool), deadline,
                                      phases[0], want_tier="hit"),
                    lambda: read_loop(conns[1],
                                      itertools.cycle(self.pool[half:] + self.pool[:half]),
                                      deadline, phases[1], want_tier="hit"),
                )
            else:
                take = shared(self.fleet)
                run_threads(
                    lambda: read_loop(conns[0], take(), deadline, phases[0]),
                    lambda: read_loop(conns[1], take(), deadline, phases[1]),
                )
        finally:
            for conn in conns:
                conn.close()
        elapsed, t1_ns = time.perf_counter() - t0, time.monotonic_ns()
        after = self.fetch(server, "/metrics?format=json")
        out["read"] = phases[0].merge(phases[1])
        out["read_elapsed_s"] = elapsed
        out["read_window"] = (t0_ns, t1_ns)
        out["read_delta"] = metrics_delta(after, before)

    def catch_up(self, server, out, first, last, stop=None):
        """Append backlogs ``first:last``, each once the previous one is
        folded in; backlogs before *first* go in untimed, as one write.

        A backlog is folded in when the daemon has read all its rows and
        closed every trip the offline segmentation closes by then.  The
        append of the next one is due at that moment; ``generator_lag_ms``
        is how late the writes landed.  ``ingest_rows_per_s`` is the
        median, over the backlogs that close trips (and so refresh the
        model), of rows per second from write to fold-in.  Progress is
        polled over one keep-alive connection, so no poll spawns a server
        thread.  Sets *stop* when done."""
        slices = Phase()
        backlogs = self.backlogs[first:last]
        poll = self.connect(server)
        if first:
            with open(server.dump, "ab") as dump:
                dump.write(b"".join(text for text, _, _ in self.backlogs[:first]))
            _, rows, trips = self.backlogs[first - 1]
            self.checks.add(0.0, 0, 0, wait_drained(poll, rows, trips))
        before = self.fetch(server, "/metrics?format=json")
        ingested_before = model_entry(poll).get("rows_ingested") or 0
        revision = model_entry(poll)["revision"]
        lags, rates = [], []
        _, done_rows, done_trips = self.backlogs[first - 1] if first else (None, 0, 0)
        t0, t0_ns = time.perf_counter(), time.monotonic_ns()
        try:
            with open(server.dump, "ab", buffering=0) as dump:
                due = time.perf_counter()
                for text, rows, trips in backlogs:
                    dump.write(text)
                    written = time.perf_counter()
                    lags.append(written - due)
                    # Sample the feed while the daemon works on the backlog.
                    current = model_entry(poll)["revision"]
                    problem = wait_drained(poll, rows, trips)
                    due = time.perf_counter()
                    if problem is None and current < revision:
                        problem = "/models revision decreased"
                    revision = max(revision, current)
                    slices.add(due - written, 0, 0, problem)
                    if problem is not None:
                        break
                    if trips > done_trips:  # this backlog refreshed the model
                        rates.append((rows - done_rows) / (due - written))
                    done_rows, done_trips = rows, trips
            elapsed, t1_ns = time.perf_counter() - t0, time.monotonic_ns()
            ingested = (model_entry(poll).get("rows_ingested") or 0) - ingested_before
        finally:
            poll.close()
            if stop is not None:
                stop.set()
        delta = metrics_delta(self.fetch(server, "/metrics?format=json"), before)
        if delta.get(("repro_follow_pending_rows", ()), 0) != 0:
            slices.fail("pending rows after the drain")
        out["ingest"] = slices
        out["ingest_elapsed_s"] = elapsed
        out["ingest_window"] = (t0_ns, t1_ns)
        out["ingest_delta"] = delta
        out["rows_ingested"] = ingested
        # The median backlog: one slow second on a noisy host moves one
        # backlog's rate, not the metric.
        out["ingest_rows_per_s"] = statistics.median(rates) if rates else 0.0
        out["generator_lag_ms"] = statistics.fmean(lags) * 1e3

    def refresh_phase(self, server, out):
        """refresh_catchup: one reader on the warm pool beside the writer."""
        conn = self.connect(server)
        stop = threading.Event()
        phase = Phase()
        t0 = time.perf_counter()
        try:
            run_threads(
                lambda: read_loop(conn, itertools.cycle(self.pool), float("inf"), phase,
                                  stop=stop, revision=[0]),
                lambda: self.catch_up(server, out, 0, len(self.backlogs), stop=stop),
            )
        finally:
            conn.close()
        out["read"] = phase
        out["read_elapsed_s"] = time.perf_counter() - t0
        out["read_window"] = out["ingest_window"]
        out["read_delta"] = out["ingest_delta"]

    def score(self, server, out):
        """DTW of the accuracy set, then the served-equals-offline check."""
        from repro.core import HabitImputer

        conn = self.connect(server)
        served = []
        try:
            for k in range(0, len(self.accuracy), FLEET_BATCH):
                body, gaps, budgets = batch(self.accuracy[k : k + FLEET_BATCH])
                status, data, seconds = conn.post("/impute", body)
                problem, doc = check(status, data, gaps, budgets)
                self.checks.add(seconds, len(data), len(gaps), problem)
                if problem is not None:
                    out["dtw_median_m"] = out["dtw_vs_straight"] = 0.0
                    return
                served += [
                    (f["geometry"]["coordinates"], r["provenance"])
                    for r, f in zip(doc["results"], doc["geojson"]["features"])
                ]
        finally:
            conn.close()
        lines = [straight_line(gap.start, gap.end) for gap in self.accuracy]
        paths = [np.asarray(coords) for coords, _ in served]
        habit = dtw_many([(p[:, 1], p[:, 0], g.truth_lats, g.truth_lngs)
                          for p, g in zip(paths, self.accuracy)])
        straight = dtw_many([(line[0], line[1], g.truth_lats, g.truth_lngs)
                             for line, g in zip(lines, self.accuracy)])
        out["dtw_median_m"] = float(np.median(habit))
        out["dtw_vs_straight"] = out["dtw_median_m"] / float(np.median(straight))
        model_id = served[0][1]["model_id"]
        model = HabitImputer.load(server.registry / f"{model_id}.npz")
        for k in self.spot:
            gap, (coords, provenance) = self.accuracy[k], served[k]
            path = model.impute(gap.start, gap.end)
            offline = [[float(lng), float(lat)] for lat, lng in zip(path.lats, path.lngs)]
            problem = None
            if provenance["revision"] != model.revision:
                problem = "published model revision differs from the served one"
            elif coords != offline:
                problem = "served path differs from offline impute"
            self.checks.add(0.0, 0, 0, problem)

    def drive(self, server):
        """The workload on one ready launch; returns its run dict."""
        out = {"setup_s": server.setup_s, "setup_window": server.setup_window}
        out["setup_delta"] = self.fetch(server, "/metrics?format=json")
        self.prime(server)
        if self.args.workload == "refresh_catchup":
            self.refresh_phase(server, out)
            self.score(server, out)
        else:
            self.timed_reads(server, out)
            self.score(server, out)
            # The backlogs before the first closed trip are only read and
            # segmented; the timed idle catch-up starts where refreshes do.
            first = next(k for k, (_, _, trips) in enumerate(self.backlogs) if trips)
            self.catch_up(server, out, first, first + IDLE_BACKLOGS)
        out["peak_rss_mb"] = server.peak_rss_mb()
        return out

    def launch_and_drive(self, name, spans=None):
        server = self.launch(name, spans=spans)
        try:
            out = self.drive(server)
        finally:
            server.stop()
        return out

    def run(self):
        setups = []
        for i in range(SETUP_LAUNCHES - 1):
            server = self.launch(f"setup{i}")
            setups.append(server.setup_s)
            server.stop()
        untraced = self.launch_and_drive("measured")
        setups.append(untraced["setup_s"])
        runs = {"untraced": untraced}
        untraced["metrics"] = end_to_end(untraced, setups)
        if self.args.trace:
            spans_path = self.work / "spans.json"
            traced = self.launch_and_drive("traced", spans=spans_path)
            traced["metrics"] = end_to_end(traced, [traced["setup_s"]])
            runs["traced"] = traced
            for run in (untraced, traced):
                run.update(run["metrics"])
                run["client_mean_ms"] = statistics.fmean(run["read"].samples_ms)
            traced["setup_metrics"] = metrics_delta(traced["setup_delta"], {})
            with open(spans_path, encoding="utf-8") as handle:
                spans = json.load(handle)["spans"]
            metrics = per_layer(spans, traced, untraced)
        else:
            metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in untraced["metrics"].items()}
        return self.record(runs, setups, metrics)

    def record(self, runs, setups, metrics):
        tallies = Phase().merge(self.checks)
        phases = {}
        for name, run in runs.items():
            tallies.merge(run["read"]).merge(run["ingest"])
            phases[name] = {
                "setup_s": run["setup_s"],
                "read": phase_json(run["read"], run["read_elapsed_s"]),
                "read_metrics_delta": delta_json(run["read_delta"]),
                "ingest": phase_json(run["ingest"], run["ingest_elapsed_s"]),
                "ingest_metrics_delta": delta_json(run["ingest_delta"]),
                "rows_ingested": run["rows_ingested"],
                "generator_lag_ms": run["generator_lag_ms"],
                "end_to_end": run["metrics"],
            }
        return {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "seconds": self.args.seconds,
            "trace": self.args.trace,
            "machine": fingerprint(),
            "setup_s_samples": setups,
            "runs": phases,
            "other_checks": phase_json(self.checks, None),
            "correct": tallies.failed == 0,
            "attempted": tallies.attempted,
            "failed": tallies.failed,
            "problems": tallies.problems,
            "metrics": metrics,
        }


def end_to_end(run, setups):
    read = run["read"]
    samples = read.samples_ms or [0.0, 0.0]  # no answer passed its checks
    return {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": statistics.median(samples),
        "latency_p90_ms": statistics.quantiles(samples, n=10, method="inclusive")[8],
        "gaps_per_s": read.gaps / run["read_elapsed_s"],
        "bytes_per_gap": read.bytes / max(read.gaps, 1),
        "peak_rss_mb": run["peak_rss_mb"],
        "dtw_median_m": run["dtw_median_m"],
        "dtw_vs_straight": run["dtw_vs_straight"],
        "ingest_rows_per_s": run["ingest_rows_per_s"],
    }


def phase_json(phase, elapsed):
    return {
        "elapsed_s": elapsed,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "problems": phase.problems,
        "gaps": phase.gaps,
        "bytes": phase.bytes,
        "latency_samples_ms": phase.samples_ms,
    }


def report(record):
    """Human-readable lines (stdout, before the JSON result line)."""
    machine = record["machine"]
    print(f"{record['workload']} seed={record['seed']} trace={record['trace']} "
          f"on {machine['nproc']} x {machine['cpu_model']} "
          f"(Python {machine['python']}, NumPy {machine['numpy']})")
    for name, run in record["runs"].items():
        read, ingest = run["read"], run["ingest"]
        n = len(read["latency_samples_ms"])
        print(f"  [{name}] POSTs {read['attempted']} attempted, {read['failed']} failed, "
              f"error_rate {read['failed'] / max(read['attempted'], 1):.4f} failed/attempted; "
              f"{n} latency samples; backlogs {ingest['attempted']}, "
              f"rows_ingested {run['rows_ingested']}, "
              f"generator_lag_ms {run['generator_lag_ms']:.3f}")
        for metric, value in run["end_to_end"].items():
            print(f"    {metric:<20} {value:>14.4f} {E2E_UNITS[metric]}")
    print(f"  setup_s samples: {', '.join(f'{s:.4f}' for s in record['setup_s_samples'])}")
    if record["trace"]:
        for metric, entry in record["metrics"].items():
            print(f"    {metric:<34} {entry['value']:>14.4f} {entry['unit']}")
    if record["problems"]:
        print(f"  FAILED CHECKS: {record['problems']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "service" / "__main__.py").is_file():
        print(f"error: no service package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        record = Benchmark(args, work).run()
    except ServerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    report(record)
    print(f"  record: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
