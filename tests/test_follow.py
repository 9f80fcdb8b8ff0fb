"""Live refresh: CsvFollower tailing and the FollowDaemon loop.

The daemon test is the acceptance criterion for follow mode: a server
started over a growing dump picks up appended rows and bumps the model
revision visible at ``/models`` without restarting.  When the
``REPRO_MODELS_FEED`` environment variable names a file, the final
``/models`` payload is written there (CI uploads it as an artifact).
"""

import json
import os
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.ais import CsvFollower, read_csv
from repro.ais.reader import AISFormatError
from repro.minidb import Table
from repro.service import FollowDaemon, GapRequest, ModelRegistry, make_server

HEADER = "vessel_id,t,lat,lon,sog,cog,vessel_type\n"


def _trip_rows(vessel_id, t0, n=12, lat0=54.4, lon0=10.3):
    """One plausible cargo trip at ~30 s cadence plus a far-future lone
    report that seals it at the next poll (the lone report itself stays
    open and is eventually dropped by min_points)."""
    rows = [
        f"{vessel_id},{t0 + 30 * i},{lat0 + 0.001 * i:.6f},{lon0 + 0.001 * i:.6f},8.0,45.0,cargo\n"
        for i in range(n)
    ]
    rows.append(f"{vessel_id},{t0 + 7200},{lat0:.6f},{lon0:.6f},8.0,45.0,cargo\n")
    return rows


# -- CsvFollower ----------------------------------------------------------


def test_follower_consumes_only_complete_lines(tmp_path):
    path = tmp_path / "dump.csv"
    follower = CsvFollower(path, chunk_rows=100)
    assert follower.poll() == []  # file does not exist yet
    path.write_text(HEADER + "1,1000,54.0,10.0,5.0,90.0,cargo\n" + "2,1000,54.1")
    (chunk,) = follower.poll()
    assert chunk.num_rows == 1  # the torn row stays unread
    with open(path, "a") as handle:
        handle.write(",10.1,5.0,90.0,tanker\n")
    (chunk,) = follower.poll()
    assert chunk.num_rows == 1
    assert np.asarray(chunk.column("vessel_id")).tolist() == [2]
    assert follower.poll() == []  # nothing new


def test_follower_chunks_and_matches_read_csv(tmp_path):
    path = tmp_path / "dump.csv"
    path.write_text(HEADER)
    follower = CsvFollower(path, chunk_rows=5)
    collected = []
    for batch in range(3):
        with open(path, "a") as handle:
            for i in range(7):
                handle.write(f"{batch + 1},{1000 + 30 * i},54.{i},10.{i},5.0,90.0,cargo\n")
        chunks = follower.poll()
        assert [c.num_rows for c in chunks] == [5, 2]
        collected.extend(chunks)
    assert follower.rows_read == 21
    merged = Table.concat(collected)
    direct = read_csv(path)
    for name in direct.column_names:
        assert np.array_equal(
            np.asarray(merged.column(name)), np.asarray(direct.column(name))
        ), name


def test_follower_rejects_truncation(tmp_path):
    path = tmp_path / "dump.csv"
    path.write_text(HEADER + "1,1000,54.0,10.0,5.0,90.0,cargo\n")
    follower = CsvFollower(path)
    follower.poll()
    path.write_text(HEADER)  # rotation: file shrank under the offset
    with pytest.raises(AISFormatError, match="shrank"):
        follower.poll()


def test_follower_rejects_replacement_file(tmp_path):
    path = tmp_path / "dump.csv"
    path.write_text(HEADER + "1,1000,54.0,10.0,5.0,90.0,cargo\n")
    follower = CsvFollower(path)
    follower.poll()
    # Create-mode rotation: new inode, regrown past the old offset --
    # size alone would not notice.  (Rename keeps the old inode alive so
    # the filesystem cannot hand the replacement the same one.)
    path.rename(path.with_suffix(".1"))
    path.write_text(HEADER + "".join(
        f"2,{2000 + i},54.0,10.0,5.0,90.0,cargo\n" for i in range(50)
    ))
    with pytest.raises(AISFormatError, match="replaced"):
        follower.poll()


def test_follower_allows_replacement_before_consumption(tmp_path):
    """A writer atomically publishing the first real content over an
    empty placeholder (tmp + rename) must not read as a rotation."""
    path = tmp_path / "dump.csv"
    path.write_text("")
    follower = CsvFollower(path)
    assert follower.poll() == []
    tmp = tmp_path / "dump.csv.tmp"
    tmp.write_text(HEADER + "1,1000,54.0,10.0,5.0,90.0,cargo\n")
    tmp.rename(path)
    (chunk,) = follower.poll()
    assert chunk.num_rows == 1


def test_follower_validates_header_on_first_sight(tmp_path):
    path = tmp_path / "dump.csv"
    path.write_text("just,some,columns\n1,2,3\n")
    with pytest.raises(AISFormatError, match="required columns"):
        CsvFollower(path).poll()


# -- FollowDaemon against a live server -----------------------------------


@pytest.fixture()
def followed_service(tmp_path, service_model):
    """A registry with the KIEL model, a growing dump, a follow daemon,
    and an HTTP server wired together -- the full ``--serve --follow``
    stack on an ephemeral port."""
    registry = ModelRegistry(tmp_path / "models", capacity=4)
    registry.publish("KIEL", service_model)
    dump = tmp_path / "live.csv"
    dump.write_text(HEADER)
    daemon = FollowDaemon(
        registry,
        dump,
        "KIEL",
        config=service_model.config,
        refresh_interval_s=0.05,
        poll_interval_s=0.02,
    ).start()
    server = make_server(registry, port=0, follow=daemon)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", dump, registry
    daemon.stop()
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _get_json(base, path):
    with urllib.request.urlopen(base + path, timeout=10) as response:
        return json.loads(response.read())


def _wait_for_revision(base, target, timeout_s=20.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        (entry,) = _get_json(base, "/models")["models"]
        if entry["revision"] is not None and entry["revision"] >= target:
            return entry
        time.sleep(0.05)
    raise AssertionError(f"revision never reached {target}; last entry: {entry}")


def test_follow_daemon_bumps_revision_as_dump_grows(followed_service, service_model):
    base, dump, _ = followed_service
    (entry,) = _get_json(base, "/models")["models"]
    assert entry["revision"] == 1 and entry["rows_ingested"] == 0

    with open(dump, "a") as handle:
        handle.writelines(_trip_rows(901, t0=1_000_000))
    entry = _wait_for_revision(base, 2)
    assert entry["rows_ingested"] > 0 and entry["last_refresh"] is not None

    # Appending more rows bumps the revision again -- no restart anywhere.
    with open(dump, "a") as handle:
        handle.writelines(_trip_rows(902, t0=1_100_000, lat0=54.41, lon0=10.31))
    entry = _wait_for_revision(base, 3)

    health = _get_json(base, "/healthz")
    follow = health["follow"]
    assert follow["running"] is True and follow["last_error"] is None
    assert follow["refreshes"] >= 2 and follow["trips_closed"] >= 2
    assert follow["rows_read"] > 0 and follow["revision"] == entry["revision"]
    assert health["cache"]["refreshes"] >= 2

    # Queries served now carry the refreshed revision in provenance.
    gap_payload = {"dataset": "KIEL", "start": [54.4, 10.3], "end": [54.45, 10.35]}
    request = urllib.request.Request(
        base + "/impute",
        data=json.dumps(gap_payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        body = json.loads(response.read())
    assert body["results"][0]["provenance"]["revision"] == entry["revision"]

    artifact = os.environ.get("REPRO_MODELS_FEED")
    if artifact:
        with open(artifact, "w") as handle:
            json.dump(_get_json(base, "/models"), handle, indent=2)


def test_follow_refresh_changes_served_paths(tmp_path, service_model, tiny_kiel):
    """A refresh is visible on the request path: the snap-and-path cache
    invalidates (new revision key) and re-searches the refreshed graph."""
    from repro.service import BatchImputationEngine

    registry = ModelRegistry(tmp_path / "models", capacity=4)
    registry.publish("KIEL", service_model)
    engine = BatchImputationEngine(registry)
    gap = tiny_kiel.gaps(3600.0)[0]
    request = [GapRequest("KIEL", gap.start, gap.end, "r0")]
    engine.run(request, service_model.config)
    (warm,) = engine.run(request, service_model.config)
    assert warm.provenance.path_cache == "hit" and warm.provenance.revision == 1

    dump = tmp_path / "live.csv"
    dump.write_text(HEADER)
    daemon = FollowDaemon(
        registry,
        dump,
        "KIEL",
        config=service_model.config,
        refresh_interval_s=0.05,
        poll_interval_s=0.02,
    ).start()
    try:
        with open(dump, "a") as handle:
            handle.writelines(_trip_rows(903, t0=2_000_000))
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline and daemon.status()["refreshes"] < 1:
            time.sleep(0.05)
        assert daemon.status()["refreshes"] >= 1, daemon.status()
    finally:
        daemon.stop()
    (after,) = engine.run(request, service_model.config)
    assert after.provenance.revision == 2
    assert after.provenance.path_cache == "miss"  # stale route never served


def test_follow_daemon_restart_resumes_without_reingesting(tmp_path, service_model):
    """A restarted daemon continues from the persisted byte offset --
    re-ingesting the dump from byte 0 would fold every historical trip
    into the model a second time."""
    registry = ModelRegistry(tmp_path / "models", capacity=4)
    registry.publish("KIEL", service_model)
    dump = tmp_path / "live.csv"
    dump.write_text(HEADER)

    def run_daemon_until_refresh(expected_refreshes=1):
        daemon = FollowDaemon(
            registry, dump, "KIEL", config=service_model.config,
            refresh_interval_s=0.05, poll_interval_s=0.02,
        ).start()
        deadline = time.monotonic() + 20.0
        while (
            time.monotonic() < deadline
            and daemon.status()["refreshes"] < expected_refreshes
        ):
            time.sleep(0.05)
        daemon.stop()
        status = daemon.status()
        assert status["last_error"] is None, status
        return status

    with open(dump, "a") as handle:
        handle.writelines(_trip_rows(911, t0=1_000_000))
    first = run_daemon_until_refresh()
    assert first["refreshes"] == 1
    (entry,) = registry.list_models()
    assert entry["revision"] == 2 and entry["rows_ingested"] == 12

    # Restart with a *new* daemon object: nothing already ingested is
    # re-read (rows_read resumes), and only freshly appended rows refresh.
    with open(dump, "a") as handle:
        handle.writelines(_trip_rows(912, t0=1_100_000, lat0=54.41))
    second = run_daemon_until_refresh()
    assert second["rows_read"] > first["rows_read"]  # resumed, then read new
    (entry,) = registry.list_models()
    assert entry["revision"] == 3
    # Only the new trip's source rows were re-parsed; the refresh
    # ingested its 12 closed-trip rows on top of the first daemon's 12.
    assert entry["rows_ingested"] == 24


def test_follow_daemon_surfaces_refresh_errors(tmp_path):
    """A poisoned feed (here: no resolvable model) stops the loop and
    lands in status.last_error instead of spinning or crashing serving."""
    registry = ModelRegistry(tmp_path / "empty")
    dump = tmp_path / "live.csv"
    dump.write_text(HEADER)
    daemon = FollowDaemon(
        registry, dump, "ATLANTIS", refresh_interval_s=0.05, poll_interval_s=0.02
    ).start()
    try:
        with open(dump, "a") as handle:
            handle.writelines(_trip_rows(904, t0=3_000_000))
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline and daemon.status()["last_error"] is None:
            time.sleep(0.05)
    finally:
        daemon.stop()
    status = daemon.status()
    assert status["last_error"] is not None and "ATLANTIS" in status["last_error"]
    assert status["running"] is False


def _lane_rows(vessel_id, t0, n=400):
    """A long curved single-vessel lane at 30 s cadence: steady eastward
    progress with a gentle cross-track sinusoid, never breaking the
    gap/jump thresholds -- one ever-growing open trip."""
    rows = []
    for i in range(n):
        lat = 54.4 + 0.002 * np.sin(i / 40.0)
        lon = 10.3 + 0.0005 * i
        rows.append(f"{vessel_id},{t0 + 30 * i},{lat:.6f},{lon:.6f},8.0,45.0,cargo\n")
    return rows


def test_follow_buffer_budget_bounds_open_trips(tmp_path, service_model):
    """--buffer-budget holds the open-trip buffer at the budget while the
    refreshed model still covers the vessel's lane cells (fit quality
    degrades gracefully, not catastrophically)."""
    from repro.hexgrid import latlng_to_cell_array

    budget = 60
    t0 = 5_000_000
    lane = _lane_rows(921, t0=t0)
    sealing = f"921,{t0 + 7 * 86_400},54.4,10.3,8.0,45.0,cargo\n"

    def run(name, buffer_budget):
        registry = ModelRegistry(tmp_path / name, capacity=4)
        registry.publish("KIEL", service_model)
        dump = tmp_path / f"{name}.csv"
        dump.write_text(HEADER + "".join(lane))
        daemon = FollowDaemon(
            registry,
            dump,
            "KIEL",
            config=service_model.config,
            refresh_interval_s=0.05,
            poll_interval_s=0.02,
            chunk_rows=64,
            buffer_budget=buffer_budget,
        ).start()
        try:
            # The whole lane is one open trip; wait for it to be buffered.
            # status open_rows is only ever published post-compaction, so a
            # bounded run may never report more than the budget.
            expected_open = budget if buffer_budget else len(lane)
            observed_max = 0
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                status = daemon.status()
                observed_max = max(observed_max, status["open_rows"])
                if (
                    status["rows_read"] >= len(lane)
                    and status["open_rows"] == expected_open
                ):
                    break
                time.sleep(0.02)
            status = daemon.status()
            assert status["open_rows"] == expected_open, status
            assert status["last_error"] is None, status
            if buffer_budget:
                assert observed_max <= budget
                assert status["buffer_budget"] == budget
            # Seal the trip; the refresh folds the buffered rows in.
            with open(dump, "a") as handle:
                handle.write(sealing)
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline and daemon.status()["refreshes"] < 1:
                time.sleep(0.02)
            status = daemon.status()
            assert status["refreshes"] >= 1 and status["last_error"] is None, status
        finally:
            daemon.stop()
        imputer, _, _ = registry.get("KIEL", service_model.config)
        return set(np.asarray(imputer.graph.cells).tolist())

    unbounded_cells = run("unbounded", None)
    bounded_cells = run("bounded", budget)

    resolution = service_model.config.resolution
    lane_lat = 54.4 + 0.002 * np.sin(np.arange(len(lane)) / 40.0)
    lane_lon = 10.3 + 0.0005 * np.arange(len(lane))
    lane_cells = set(latlng_to_cell_array(lane_lat, lane_lon, resolution).tolist())
    baseline = set(np.asarray(service_model.graph.cells).tolist())

    # Coverage the refresh contributed along the lane, bounded vs not.
    gained_unbounded = (unbounded_cells - baseline) & lane_cells
    gained_bounded = (bounded_cells - baseline) & lane_cells
    assert gained_unbounded, "unbounded refresh never covered the lane"
    overlap = len(gained_bounded & gained_unbounded) / len(gained_unbounded)
    assert overlap >= 0.5, (
        f"budgeted refresh covers {overlap:.0%} of the lane cells the "
        f"unbounded run learned ({len(gained_bounded)} vs {len(gained_unbounded)})"
    )
