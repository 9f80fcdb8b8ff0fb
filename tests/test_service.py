"""Service layer: registry LRU, batch engine provenance, HTTP transport."""

import dataclasses
import gc
from contextlib import contextmanager
import json
import socket
import subprocess
import sys
import threading
import tracemalloc
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.core import HabitConfig, HabitImputer, ModelFormatError, config_hash
from repro.geo import compress_to_budget, latlng_to_xy_m
from repro.geo.simplify import off_chord_mask
from repro.obs import METRICS
from repro.service import (
    BatchImputationEngine,
    GapRequest,
    ModelNotFound,
    ModelRegistry,
    SchemaError,
    make_server,
    parse_impute_payload,
)
from repro.service.engine import _MISSING, _Answer, _PathCache
from repro.service.http import impute_body, impute_response


@pytest.fixture()
def registry(tmp_path, service_model):
    reg = ModelRegistry(tmp_path / "models", capacity=4)
    reg.publish("KIEL", service_model)
    return reg


def _gap_requests(dataset, gaps, n=4):
    return [
        GapRequest(
            dataset=dataset,
            start=gaps[i % len(gaps)].start,
            end=gaps[i % len(gaps)].end,
            request_id=f"r{i}",
        )
        for i in range(n)
    ]


# -- registry ------------------------------------------------------------


def test_model_id_is_stable_and_config_sensitive():
    a = HabitConfig(resolution=9)
    assert config_hash(a) == config_hash(HabitConfig(resolution=9))
    assert config_hash(a) != config_hash(HabitConfig(resolution=8))
    assert ModelRegistry.model_id("kiel", a) == f"KIEL_{config_hash(a)}"


def test_config_hash_digests_are_pinned():
    """Golden digests: model files on disk are named by these, so they
    move only with a model-format version bump (v9 hashes the three-field
    ``asdict``)."""
    assert config_hash(HabitConfig()) == "566dd8c0f20a"
    assert config_hash(HabitConfig(resolution=10)) == "82f8770d3f45"


def test_registry_resolution_tiers(registry, service_model):
    config = service_model.config
    # publish() left the model warm.
    _, model_id, source = registry.get("KIEL", config)
    assert source == "hit"
    registry.evict_all()
    imputer, _, source = registry.get("KIEL", config)
    assert source == "load"
    assert imputer.graph.num_nodes == service_model.graph.num_nodes
    _, _, source = registry.get("KIEL", config)
    assert source == "hit"
    stats = registry.stats
    assert stats.hits == 2 and stats.loads == 1


def test_registry_miss_raises_model_not_found(registry):
    with pytest.raises(ModelNotFound, match="DAN"):
        registry.get("DAN", HabitConfig())


def test_registry_lru_eviction(tmp_path, tiny_kiel):
    reg = ModelRegistry(tmp_path / "lru", capacity=2)
    configs = [HabitConfig(resolution=r) for r in (7, 8, 9)]
    for config in configs:
        reg.publish("KIEL", HabitImputer(config).fit_from_trips(tiny_kiel.train))
    assert reg.stats.evictions == 1
    assert len(reg.loaded_ids) == 2
    # The oldest model fell out of memory but survives on disk.
    _, _, source = reg.get("KIEL", configs[0])
    assert source == "load"
    # Recency order: touching a model protects it from the next eviction.
    reg.get("KIEL", configs[2])
    reg.get("KIEL", configs[1])  # evicts configs[0] again
    assert ModelRegistry.model_id("KIEL", configs[0]) not in reg.loaded_ids


def test_registry_concurrent_misses_dedupe_to_one_load(registry, service_model):
    registry.evict_all()
    loads_before = registry.stats.loads
    with ThreadPoolExecutor(max_workers=8) as pool:
        outcomes = list(
            pool.map(lambda _: registry.get("KIEL", service_model.config)[2], range(8))
        )
    # One thread loaded, the rest waited on the model lock and hit.
    assert registry.stats.loads - loads_before == 1
    assert sorted(outcomes) == ["hit"] * 7 + ["load"]


def test_registry_list_models(registry, service_model):
    entries = registry.list_models()
    assert len(entries) == 1
    entry = entries[0]
    assert entry["dataset"] == "KIEL"
    assert entry["model_id"] == ModelRegistry.model_id("KIEL", service_model.config)
    assert entry["loaded"] is True and entry["size_bytes"] > 0


# -- batch engine --------------------------------------------------------


def test_engine_batch_order_and_provenance(registry, service_model, tiny_kiel):
    gaps = tiny_kiel.gaps(3600.0)
    requests = _gap_requests("KIEL", gaps, n=6)
    results = BatchImputationEngine(registry).run(requests, service_model.config)
    assert [r.request.request_id for r in results] == [r.request_id for r in requests]
    expected_id = ModelRegistry.model_id("KIEL", service_model.config)
    for result in results:
        assert result.provenance.model_id == expected_id
        assert result.provenance.cache == "hit"
        assert result.provenance.elapsed_ms > 0.0
        assert result.provenance.path_length_m > 0.0
        assert result.num_points >= 2
        if not result.provenance.fallback:
            assert result.provenance.num_cells > 0


def test_engine_flags_straight_line_fallback(registry, service_model):
    # Mid-Atlantic endpoints: snapping is rejected, the path degrades.
    request = GapRequest("KIEL", (10.0, -40.0), (11.0, -41.0), "ocean")
    (result,) = BatchImputationEngine(registry).run([request], service_model.config)
    assert result.provenance.fallback is True
    assert result.provenance.method == "fallback"
    assert result.provenance.num_cells == 0


def test_engine_unknown_dataset_raises(registry, service_model):
    request = GapRequest("ATLANTIS", (54.0, 10.0), (55.0, 11.0), "x")
    with pytest.raises(ModelNotFound):
        BatchImputationEngine(registry).run([request], service_model.config)


def test_peek_revision_rejects_unloadable_files(tmp_path, service_model):
    """The cheap revision probe must not trust a file a real load()
    would reject -- such files fall through to get(), which raises
    ModelFormatError for them."""
    reg = ModelRegistry(tmp_path / "reg")
    config = service_model.config
    # Valid zip with a readable revision but no graph arrays.
    np.savez(
        reg.path_for("KIEL", config),
        format=np.array(["habit-npz", "4"]),
        revision=np.array([3]),
    )
    _, revision = reg.peek_revision("KIEL", config)
    assert revision is None
    # A file tagged as another kind (the removed typed models') with a
    # readable revision: load() rejects it, so the peek must too.
    np.savez(
        reg.path_for("KIEL", config),
        format=np.array(["typed-habit-npz", "9"]),
        revision=np.array([3]),
    )
    _, revision = reg.peek_revision("KIEL", config)
    assert revision is None
    # A genuinely loadable publish peeks its real revision.
    reg.publish("KIEL", service_model)
    reg.evict_all()
    _, revision = reg.peek_revision("KIEL", config)
    assert revision == service_model.revision


def test_result_feature_carries_provenance(registry, service_model, tiny_kiel):
    gap = tiny_kiel.gaps(3600.0)[0]
    request = GapRequest("KIEL", gap.start, gap.end, "g0")
    (result,) = BatchImputationEngine(registry).run([request], service_model.config)
    feature = impute_response([result], 1.0)["geojson"]["features"][0]
    assert feature["geometry"]["type"] == "LineString"
    assert len(feature["geometry"]["coordinates"]) == result.num_points
    props = feature["properties"]
    assert props["request_id"] == "g0" and props["dataset"] == "KIEL"
    assert props["model_id"] and "elapsed_ms" in props and "fallback" in props
    json.dumps(feature)  # must be JSON-serialisable as-is


# -- typed models are gone ----------------------------------------------


@pytest.mark.parametrize(
    ("field", "value"),
    [
        pytest.param("typed", True, id="typed-true"),
        pytest.param("typed", False, id="typed-false"),
        pytest.param("vessel_type", "cargo", id="vessel_type"),
    ],
)
def test_http_typed_request_fields_are_422(server, tiny_kiel, field, value):
    """A request item naming a typed-model field gets a 422 that names
    the field: answering it from the one model per dataset would give a
    global answer without saying so."""
    gap = tiny_kiel.gaps(3600.0)[0]
    item = {"dataset": "KIEL", "start": list(gap.start), "end": list(gap.end)}
    for payload in ({**item, field: value}, {"requests": [item, {**item, field: value}]}):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(server, "/impute", payload)
        assert err.value.code == 422
        error = json.loads(err.value.read())["error"]
        assert f"].{field} is not accepted" in error and "typed models were removed" in error


def test_cli_typed_flag_is_a_usage_error():
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-m", "repro.service", "--typed"],
        env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 2
    assert "unrecognized arguments: --typed" in result.stderr


def test_typed_model_file_is_listed_but_never_loaded(registry, server, tiny_kiel):
    """A typed-format file left in the registry directory is listed by
    ``/models`` as an untrusted artefact (``revision: null``, no
    ``typed`` key) and is never loaded or served: KIEL requests are
    answered by the plain model, and the file's own id fails to load."""
    config = HabitConfig()
    stale = registry.root / f"KIEL_TYPED_{config_hash(config)}.npz"
    np.savez(
        stale,
        format=np.array(["typed-habit-npz", "9"]),
        config=np.array(["9", "100.0", "center"]),
        revision=np.array([1]),
        groups=np.array(["cargo"]),
    )
    status, models = _get(server, "/models")
    assert status == 200
    by_id = {entry["model_id"]: entry for entry in models["models"]}
    entry = by_id[stale.stem]
    assert entry["revision"] is None and entry["loaded"] is False
    assert all("typed" not in entry for entry in by_id.values())
    gap = tiny_kiel.gaps(3600.0)[0]
    status, body = _post(
        server, "/impute", {"dataset": "KIEL", "start": list(gap.start), "end": list(gap.end)}
    )
    assert status == 200
    assert body["results"][0]["provenance"]["model_id"] == ModelRegistry.model_id(
        "KIEL", config
    )
    with pytest.raises(urllib.error.HTTPError):
        _post(
            server,
            "/impute",
            {"dataset": "KIEL_TYPED", "start": list(gap.start), "end": list(gap.end)},
        )
    assert stale.stem not in registry.loaded_ids
    assert registry.stats.loads == 0


# -- incremental refresh -------------------------------------------------


def test_registry_refresh_bumps_revision_in_provenance(registry, service_model, tiny_kiel):
    config = service_model.config
    gap = tiny_kiel.gaps(3600.0)[0]
    (before,) = BatchImputationEngine(registry).run(
        [GapRequest("KIEL", gap.start, gap.end, "r0")], config
    )
    assert before.provenance.revision == 1
    refreshed, model_id, revision = registry.refresh("KIEL", tiny_kiel.test, config)
    assert revision == 2 and refreshed.revision == 2
    assert registry.stats.refreshes == 1
    (after,) = BatchImputationEngine(registry).run(
        [GapRequest("KIEL", gap.start, gap.end, "r1")], config
    )
    assert after.provenance.revision == 2
    # The refreshed model (and its revision) survive a cold process.
    other = ModelRegistry(registry.root)
    loaded, _, source = other.get("KIEL", config)
    assert source == "load" and loaded.revision == 2


def test_refresh_grows_coverage_not_mutating_served_instance(
    registry, service_model, tiny_kiel
):
    config = service_model.config
    served, _, _ = registry.get("KIEL", config)
    nodes_before = served.graph.num_nodes
    refreshed, _, _ = registry.refresh("KIEL", tiny_kiel.test, config)
    assert refreshed is not served  # replace semantics, never in-place
    assert served.graph.num_nodes == nodes_before
    assert refreshed.graph.num_nodes >= nodes_before


def test_models_feed_reports_revision_and_refresh(registry, service_model, tiny_kiel):
    (entry,) = registry.list_models()
    assert entry["revision"] == 1
    assert entry["last_refresh"] is None and entry["rows_ingested"] == 0
    registry.refresh("KIEL", tiny_kiel.test, service_model.config)
    (entry,) = registry.list_models()
    assert entry["revision"] == 2 and entry["refreshes"] == 1
    assert entry["rows_ingested"] == tiny_kiel.test.num_rows
    assert entry["last_refresh"] is not None
    # A cold registry on the same directory reads the revision from the
    # file (refresh bookkeeping is daemon-local and starts over).
    (cold,) = ModelRegistry(registry.root).list_models()
    assert cold["revision"] == 2 and cold["loaded"] is False
    assert cold["rows_ingested"] == 0


# -- schema validation ---------------------------------------------------


@pytest.mark.parametrize(
    "payload, fragment",
    [
        ([], "JSON object"),
        ({}, "requests"),
        ({"requests": []}, "non-empty"),
        ({"requests": [{"start": [1, 2], "end": [3, 4]}]}, "dataset"),
        ({"requests": [{"dataset": "KIEL", "start": [1], "end": [3, 4]}]}, "start"),
        (
            {"requests": [{"dataset": "KIEL", "start": [95.0, 2], "end": [3, 4]}]},
            "out of range",
        ),
        (
            {"requests": [{"dataset": "KIEL", "start": ["a", "b"], "end": [3, 4]}]},
            "two numbers",
        ),
        (
            {"dataset": "KIEL", "start": [1, 2], "end": [3, 4], "config": {"nope": 1}},
            "unknown config fields",
        ),
        (
            {"dataset": "KIEL", "start": [1, 2], "end": [3, 4], "config": [1]},
            "config must be",
        ),
        (
            {"dataset": "KIEL", "start": [1, 2], "end": [3, 4], "max_points": 0},
            "max_points",
        ),
        (
            {"dataset": "KIEL", "start": [1, 2], "end": [3, 4], "max_points": -3},
            "max_points",
        ),
        (
            {"dataset": "KIEL", "start": [1, 2], "end": [3, 4], "max_points": "ten"},
            "max_points",
        ),
        (
            {"dataset": "KIEL", "start": [1, 2], "end": [3, 4], "max_points": 2.5},
            "max_points",
        ),
        (
            {"dataset": "KIEL", "start": [1, 2], "end": [3, 4], "max_points": True},
            "max_points",
        ),
    ],
)
def test_parse_impute_payload_rejects(payload, fragment):
    with pytest.raises(SchemaError, match=fragment):
        parse_impute_payload(payload)


def test_parse_impute_payload_shorthand_and_config():
    requests, config = parse_impute_payload(
        {
            "dataset": "KIEL",
            "start": [54.0, 10.0],
            "end": [55.0, 11.0],
            "config": {"resolution": 8, "tolerance_m": 50},
        }
    )
    assert len(requests) == 1
    assert requests[0].dataset == "KIEL"
    assert requests[0].start == (54.0, 10.0)
    assert config == HabitConfig(resolution=8, tolerance_m=50.0)


# -- HTTP transport ------------------------------------------------------


def _post(base, path, payload):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode() if not isinstance(payload, bytes) else payload,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


def _get(base, path):
    with urllib.request.urlopen(base + path, timeout=10) as response:
        return response.status, json.loads(response.read())


@contextmanager
def _serving(registry):
    """Serve *registry* on an ephemeral port; yields the base URL."""
    server = make_server(registry, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture()
def server(registry):
    with _serving(registry) as base:
        yield base


def test_http_impute_returns_geojson_with_provenance(server, tiny_kiel, service_model):
    gap = tiny_kiel.gaps(3600.0)[0]
    status, body = _post(
        server,
        "/impute",
        {"dataset": "KIEL", "start": list(gap.start), "end": list(gap.end)},
    )
    assert status == 200 and body["count"] == 1
    assert body["results"][0]["provenance"]["model_id"] == ModelRegistry.model_id(
        "KIEL", service_model.config
    )
    feature = body["geojson"]["features"][0]
    assert feature["geometry"]["type"] == "LineString"
    assert len(feature["geometry"]["coordinates"]) >= 2
    assert feature["properties"]["fallback"] in (False, True)


def test_impute_response_bytes_match_asdict_construction(registry, service_model, tiny_kiel):
    # The /impute body builds each provenance dict once and shares it
    # between results[] and the feature properties; the bytes must equal
    # the original construction (dataclasses.asdict per use, per-point
    # float() coordinates) for routed, budgeted and fallback answers,
    # from the dict builder and from the bytes writer alike.
    from dataclasses import asdict

    from repro.io import feature_collection

    gap = tiny_kiel.gaps(3600.0)[0]
    requests = [
        GapRequest("KIEL", gap.start, gap.end, "plain"),
        GapRequest("KIEL", gap.start, gap.end, "budgeted", max_points=5),
        GapRequest("KIEL", (10.0, -30.0), (11.0, -31.0), "offshore"),
    ]
    results = BatchImputationEngine(registry).run(requests, service_model.config)
    assert results[1].provenance.points_in > 0 and results[2].provenance.fallback

    def old_feature(r):
        return {
            "type": "Feature",
            "geometry": {
                "type": "LineString",
                "coordinates": [
                    [float(lng), float(lat)] for lat, lng in zip(r.lats, r.lngs)
                ],
            },
            "properties": {
                "request_id": r.request.request_id,
                "dataset": r.request.dataset,
                **asdict(r.provenance),
            },
        }

    old = {
        "count": len(results),
        "elapsed_ms": 12.25,
        "results": [
            {
                "request_id": r.request.request_id,
                "dataset": r.request.dataset,
                "num_points": r.num_points,
                "provenance": asdict(r.provenance),
            }
            for r in results
        ],
        "geojson": feature_collection(old_feature(r) for r in results),
    }
    assert json.dumps(impute_response(results, 12.25)) == json.dumps(old)
    assert impute_body(results, 12.25) == json.dumps(old).encode()


def test_http_render_zero_length_gap_is_two_point_linestring(server, service_model):
    node = [float(service_model.graph.lats[0]), float(service_model.graph.lngs[0])]
    status, body = _post(server, "/impute", {"dataset": "KIEL", "start": node, "end": node})
    assert status == 200
    assert body["results"][0]["provenance"]["method"] == "ch"
    geometry = body["geojson"]["features"][0]["geometry"]
    assert geometry["coordinates"] == [node[::-1], node[::-1]]


def test_http_health_and_models(server):
    status, health = _get(server, "/healthz")
    assert status == 200 and health["status"] == "ok"
    assert set(health["cache"]) == {"hits", "loads", "evictions", "refreshes"}
    assert {"hits", "misses", "entries", "capacity"} <= set(health["path_cache"])
    assert "executor" not in health
    assert "follow" not in health  # no daemon attached to this server
    status, models = _get(server, "/models")
    assert status == 200 and len(models["models"]) == 1
    entry = models["models"][0]
    assert {"revision", "last_refresh", "rows_ingested"} <= set(entry)
    assert entry["revision"] == 1


def test_http_error_statuses(server):
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(server, "/impute", b"this is not json")
    assert err.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(server, "/impute", {"requests": []})
    assert err.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(
            server,
            "/impute",
            {"dataset": "ATLANTIS", "start": [54.0, 10.0], "end": [55.0, 11.0]},
        )
    assert err.value.code == 404
    with pytest.raises(urllib.error.HTTPError) as err:
        _get(server, "/nope")
    assert err.value.code == 404


@pytest.mark.parametrize(
    "start",
    [
        pytest.param("[1" + "0" * 399 + ", 10.0]", id="integer-too-large-for-a-float"),
        pytest.param('["54.3", "10.1"]', id="numeric-strings"),
        pytest.param("[true, false]", id="booleans"),
    ],
)
def test_http_endpoint_coordinates_must_be_finite_numbers(server, start):
    """Endpoint coordinates are checked like config fields, never coerced:
    an integer too large for a float (once an OverflowError and a 500),
    numeric strings and booleans are each a 400 naming the field."""
    body = '{"dataset": "KIEL", "start": %s, "end": [54.4, 10.2]}' % start
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(server, "/impute", body.encode())
    assert err.value.code == 400
    assert "requests[0].start must hold two numbers" in json.loads(err.value.read())["error"]


@pytest.mark.parametrize("length", ["-1", "-5"])
def test_http_negative_content_length_is_400(server, length):
    """A negative Content-Length on an open keep-alive connection gets a
    prompt 400 instead of pinning the handler in a read to EOF."""
    host, port = server.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=2.0) as sock:
        sock.sendall(
            (
                "POST /impute HTTP/1.1\r\n"
                f"Host: {host}\r\n"
                "Connection: keep-alive\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {length}\r\n\r\n"
            ).encode()
        )
        # The server closes the unframeable connection after answering;
        # a socket.timeout here means the handler is stuck reading.
        response = b""
        while chunk := sock.recv(4096):
            response += chunk
    head, _, body = response.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 "), response
    assert json.loads(body) == {"error": "invalid Content-Length"}


@pytest.mark.parametrize(
    ("field", "value"),
    [
        # Unknown fields, including ones earlier model formats had.
        pytest.param("search", "bogus", id="search"),
        pytest.param("resample_m", 500.0, id="resample_m"),
        pytest.param("edge_weight", "bogus", id="edge_weight"),
        pytest.param("approx_distinct", "false", id="approx_distinct-str"),
        pytest.param("projection", "bogus", id="projection"),
        # Mistyped values are rejected, never coerced.
        pytest.param("resolution", 9.5, id="resolution-float"),
        pytest.param("resolution", True, id="resolution-bool"),
        pytest.param("resolution", "9", id="resolution-str"),
        pytest.param("tolerance_m", "100", id="tolerance_m-str"),
        pytest.param("tolerance_m", float("nan"), id="tolerance_m-nan"),
        # Well-typed, but a value HabitConfig rejects.
        pytest.param("tolerance_m", -1, id="tolerance_m-negative"),
        # Off the hex grid's resolution range.
        pytest.param("resolution", 16, id="resolution-16"),
    ],
)
def test_http_bad_config_value_is_400_and_publishes_nothing(tmp_path, field, value):
    """An unknown or mistyped config value is a client error: 400, and no
    stray model file appears in the registry."""
    root = tmp_path / "reg"
    with _serving(ModelRegistry(root)) as base:
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(
                base,
                "/impute",
                {
                    "dataset": "KIEL",
                    "start": [54.4, 10.2],
                    "end": [54.5, 10.3],
                    "config": {"resolution": 8, field: value},
                },
            )
        assert err.value.code == 400
        error = json.loads(err.value.read())["error"]
        if field in {f.name for f in dataclasses.fields(HabitConfig)}:
            assert field in error
        else:
            assert error.startswith(f"unknown config fields: {field};"), error
    assert not list(root.glob("*.npz"))


def test_http_torn_model_file_is_503_until_republished(
    tmp_path, service_model, odd_half_model, tiny_kiel
):
    """A torn model file answers 503 naming the model and the offline
    refit, not the catch-all 500; another model on the same server keeps
    answering, and a published refit answers from its own graph."""
    registry = ModelRegistry(tmp_path / "models")
    registry.publish("KIEL", service_model)
    registry.publish("DAN", service_model)
    config = service_model.config
    registry.path_for("KIEL", config).write_bytes(b"torn")
    registry.evict_all()
    gap = _replaced_gap(tiny_kiel, service_model, odd_half_model)

    def impute(base, dataset):
        return _post(
            base, "/impute", {"dataset": dataset, "start": list(gap.start), "end": list(gap.end)}
        )

    with _serving(registry) as base:
        with pytest.raises(urllib.error.HTTPError) as err:
            impute(base, "KIEL")
        assert err.value.code == 503
        error = json.loads(err.value.read())["error"]
        assert ModelRegistry.model_id("KIEL", config) in error
        assert "python -m repro.service --fit" in error
        status, body = impute(base, "DAN")
        assert status == 200 and body["results"][0]["provenance"]["cache"] == "load"
        registry.publish("KIEL", odd_half_model)
        status, body = impute(base, "KIEL")
    assert status == 200
    expected = odd_half_model.impute(gap.start, gap.end)
    assert body["geojson"]["features"][0]["geometry"]["coordinates"] == [
        [float(lng), float(lat)] for lat, lng in zip(expected.lats, expected.lngs)
    ]


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_cli_rejects_bad_tolerance_at_parse_time(capsys, value):
    from repro.service.__main__ import _build_parser

    with pytest.raises(SystemExit) as exit_info:
        _build_parser().parse_args(["--serve", "--tolerance-m", value])
    assert exit_info.value.code == 2
    assert "tolerance_m" in capsys.readouterr().err


def test_http_concurrent_imputes(server, tiny_kiel):
    gaps = tiny_kiel.gaps(3600.0)

    def one(i):
        gap = gaps[i % len(gaps)]
        payload = {
            "requests": [
                {
                    "dataset": "KIEL",
                    "start": list(gap.start),
                    "end": list(gap.end),
                    "id": f"c{i}",
                }
            ]
        }
        status, body = _post(server, "/impute", payload)
        return status, body["results"][0]["request_id"]

    with ThreadPoolExecutor(max_workers=8) as pool:
        outcomes = list(pool.map(one, range(16)))
    assert all(status == 200 for status, _ in outcomes)
    assert [rid for _, rid in outcomes] == [f"c{i}" for i in range(16)]


# -- CLI -----------------------------------------------------------------


def test_cli_fit_populates_registry(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.service",
            "--fit",
            "KIEL",
            "--scale",
            "0.02",
            "--registry",
            str(tmp_path / "models"),
            "--data-cache",
            str(tmp_path / "data"),
        ],
        env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "fitted KIEL_" in result.stdout
    published = list((tmp_path / "models").glob("KIEL_*.npz"))
    assert len(published) == 1
    restored = HabitImputer.load(published[0])
    assert restored.graph.num_nodes > 0


def test_cli_requires_an_action():
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-m", "repro.service"],
        env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode != 0
    assert "nothing to do" in result.stderr


def test_engine_results_are_finite(registry, service_model, tiny_kiel):
    gaps = tiny_kiel.gaps(3600.0)
    results = BatchImputationEngine(registry).run(
        _gap_requests("KIEL", gaps, n=3), service_model.config
    )
    for result in results:
        assert np.all(np.isfinite(result.lats)) and np.all(np.isfinite(result.lngs))


# -- answer cache ---------------------------------------------------------


def test_engine_path_cache_hits_on_repeat(registry, service_model, tiny_kiel):
    gap = tiny_kiel.gaps(3600.0)[0]
    engine = BatchImputationEngine(registry)
    request = [GapRequest("KIEL", gap.start, gap.end, "r0")]
    (first,) = engine.run(request, service_model.config)
    assert first.provenance.path_cache == "miss"
    assert first.provenance.expanded > 0
    (second,) = engine.run(request, service_model.config)
    assert second.provenance.path_cache == "hit"
    # Cached answers are the same answer, and keep the original search effort.
    assert np.array_equal(first.lats, second.lats)
    assert np.array_equal(first.lngs, second.lngs)
    assert second.provenance.expanded == first.provenance.expanded
    assert engine.render_cache.hits == 1 and engine.render_cache.misses == 1
    assert not hasattr(engine, "path_cache")


def test_answer_cache_warm_hit_never_snaps(registry, service_model, tiny_kiel, monkeypatch):
    snaps = []
    snap = HabitImputer.snap_endpoints

    def counting_snap(self, start, end):
        snaps.append((start, end))
        return snap(self, start, end)

    monkeypatch.setattr(HabitImputer, "snap_endpoints", counting_snap)
    gap = tiny_kiel.gaps(3600.0)[0]
    engine = BatchImputationEngine(registry)
    request = [GapRequest("KIEL", gap.start, gap.end, "r0")]
    (cold,) = engine.run(request, service_model.config)
    assert cold.provenance.path_cache == "miss" and len(snaps) == 1
    warm = engine.run(request * 3, service_model.config)
    assert [r.provenance.path_cache for r in warm] == ["hit"] * 3
    assert len(snaps) == 1


def test_answer_cache_nudged_endpoint_is_a_miss(registry, service_model, tiny_kiel):
    """A query that snaps to a cached route but differs in its raw
    endpoints is searched again, and answers what a fresh engine does."""
    gap = tiny_kiel.gaps(3600.0)[0]
    engine = BatchImputationEngine(registry)
    engine.run([GapRequest("KIEL", gap.start, gap.end, "r0")], service_model.config)
    nudged = [
        GapRequest(
            "KIEL",
            (gap.start[0] + 1e-7, gap.start[1]),
            (gap.end[0], gap.end[1] - 1e-7),
            "r1",
        )
    ]
    snap = service_model.snap_endpoints
    assert snap(nudged[0].start, nudged[0].end) == snap(gap.start, gap.end)
    (third,) = engine.run(nudged, service_model.config)
    assert third.provenance.path_cache == "miss"
    assert third.provenance.expanded > 0
    (fresh,) = BatchImputationEngine(registry).run(nudged, service_model.config)
    assert np.array_equal(third.lats, fresh.lats)
    assert np.array_equal(third.lngs, fresh.lngs)
    # The exact endpoints are pinned per request.
    assert third.lats[0] == pytest.approx(gap.start[0] + 1e-7)


def test_path_cache_stats_are_per_engine(registry, service_model, tiny_kiel):
    """``/healthz`` counts are the engine's own, whether or not metrics
    are collected: a second engine that served nothing reports zeros."""
    gap = tiny_kiel.gaps(3600.0)[0]
    request = [GapRequest("KIEL", gap.start, gap.end, "r0")]
    was_enabled = METRICS.enabled
    try:
        for enabled in (True, False):
            METRICS.set_enabled(enabled)
            first = BatchImputationEngine(registry)
            first.run(request, service_model.config)
            first.run(request, service_model.config)
            second = BatchImputationEngine(registry)
            held = first.render_cache.bytes
            assert held > 0
            assert first.path_cache_stats() == {
                "hits": 1,
                "misses": 1,
                "entries": 1,
                "capacity": 4096,
                "bytes": held,
            }
            assert second.path_cache_stats() == {
                "hits": 0,
                "misses": 0,
                "entries": 0,
                "capacity": 4096,
                "bytes": 0,
            }
    finally:
        METRICS.set_enabled(was_enabled)


def test_engine_path_cache_bypasses_fallback(registry, service_model):
    request = [GapRequest("KIEL", (10.0, -40.0), (11.0, -41.0), "ocean")]
    engine = BatchImputationEngine(registry)
    (result,) = engine.run(request, service_model.config)
    assert result.provenance.fallback is True
    assert result.provenance.path_cache == "bypass"
    assert result.provenance.expanded == 0


def test_engine_path_cache_invalidated_by_refresh(registry, service_model, tiny_kiel):
    gap = tiny_kiel.gaps(3600.0)[0]
    engine = BatchImputationEngine(registry)
    request = [GapRequest("KIEL", gap.start, gap.end, "r0")]
    engine.run(request, service_model.config)
    (warm,) = engine.run(request, service_model.config)
    assert warm.provenance.path_cache == "hit"
    registry.refresh("KIEL", tiny_kiel.test, service_model.config)
    (after,) = engine.run(request, service_model.config)
    # New revision => new cache key: the stale route is never served.
    assert after.provenance.revision == 2
    assert after.provenance.path_cache == "miss"


def test_engine_coalesces_identical_routes_in_batch(registry, service_model, tiny_kiel):
    """Identical (model, class, snapped src, snapped dst) requests in one
    batch are searched once: the first is a 'miss', the riders record
    'coalesced', and everyone gets the same route."""
    gap = tiny_kiel.gaps(3600.0)[0]
    engine = BatchImputationEngine(registry)
    requests = _gap_requests("KIEL", [gap], n=4)  # 4 requests, one route
    results = engine.run(requests, service_model.config)
    assert [r.provenance.path_cache for r in results] == [
        "miss",
        "coalesced",
        "coalesced",
        "coalesced",
    ]
    # One search and one render: the answer cache saw exactly one
    # probe-miss and one insert.
    assert engine.render_cache.misses == 1 and len(engine.render_cache) == 1
    for rider in results[1:]:
        assert np.array_equal(rider.lats, results[0].lats)
        assert np.array_equal(rider.lngs, results[0].lngs)
        assert rider.provenance.expanded == results[0].provenance.expanded
        assert rider.provenance.elapsed_ms > 0.0
    # A later batch finds the coalesced answer cached like any other.
    (warm,) = engine.run(requests[:1], service_model.config)
    assert warm.provenance.path_cache == "hit"


def test_engine_coalescing_keeps_distinct_routes_apart(
    registry, service_model, tiny_kiel
):
    gaps = tiny_kiel.gaps(3600.0)
    assert len(gaps) >= 2
    requests = [
        GapRequest("KIEL", gaps[0].start, gaps[0].end, "a0"),
        GapRequest("KIEL", gaps[1].start, gaps[1].end, "b0"),
        GapRequest("KIEL", gaps[0].start, gaps[0].end, "a1"),
    ]
    engine = BatchImputationEngine(registry)
    a0, b0, a1 = engine.run(requests, service_model.config)
    assert a0.provenance.path_cache == "miss"
    assert b0.provenance.path_cache == "miss"
    assert a1.provenance.path_cache == "coalesced"
    assert np.array_equal(a0.lats, a1.lats)
    # Scalar equivalence: the batched engine returns exactly what
    # single-request batches produce.
    solo = [
        BatchImputationEngine(registry).run([r], service_model.config)[0]
        for r in requests
    ]
    for batched, alone in zip((a0, b0, a1), solo):
        assert np.array_equal(batched.lats, alone.lats)
        assert np.array_equal(batched.lngs, alone.lngs)


def test_engine_batch_render_equals_offline_impute(registry, service_model, tiny_kiel):
    """One mixed batch renders every answer exactly as offline ``impute``
    does: an answer-cache hit, searched misses (one nudged off the hit's
    endpoints), coalesced riders (one sharing a render, one nudged), an
    out-of-coverage fallback and a reversed gap, rendered together."""
    gaps = tiny_kiel.gaps(3600.0)
    assert len(gaps) >= 2
    engine = BatchImputationEngine(registry)
    engine.run([GapRequest("KIEL", gaps[0].start, gaps[0].end, "prime")], service_model.config)
    nudge = lambda p: (p[0] + 1e-7, p[1] - 1e-7)  # noqa: E731
    requests = [
        GapRequest("KIEL", gaps[0].start, gaps[0].end, "hit"),
        GapRequest("KIEL", nudge(gaps[0].start), gaps[0].end, "nudged"),
        GapRequest("KIEL", gaps[1].start, gaps[1].end, "miss"),
        GapRequest("KIEL", gaps[1].start, gaps[1].end, "rider"),
        GapRequest("KIEL", gaps[1].start, nudge(gaps[1].end), "nudged-rider"),
        GapRequest("KIEL", (10.0, -40.0), (11.0, -41.0), "ocean"),
        GapRequest("KIEL", gaps[0].end, gaps[0].start, "reversed"),
    ]
    results = engine.run(requests, service_model.config)
    assert [r.provenance.path_cache for r in results] == [
        "hit",
        "miss",
        "miss",
        "coalesced",
        "coalesced",
        "bypass",
        "miss",
    ]
    for request, result in zip(requests, results):
        expected = service_model.impute(request.start, request.end)
        assert np.array_equal(result.lats, expected.lats), request.request_id
        assert np.array_equal(result.lngs, expected.lngs), request.request_id
        assert result.provenance.method == expected.method
        assert result.provenance.elapsed_ms > 0.0


@pytest.fixture(scope="module")
def odd_half_model(tiny_kiel, service_model):
    """The service model's config fitted on the odd trips only: same
    model id, revision 1, other paths."""
    from repro.ais import schema

    ids = np.asarray(tiny_kiel.train.column(schema.TRIP_ID))
    return HabitImputer(service_model.config).fit_from_trips(tiny_kiel.train.filter(ids % 2 == 1))


def _replaced_gap(tiny_kiel, old, new):
    """A held-out gap the two models answer with different paths."""
    for gap in tiny_kiel.gaps(3600.0):
        a, b = old.impute(gap.start, gap.end), new.impute(gap.start, gap.end)
        if a.lats.shape != b.lats.shape or not np.array_equal(a.lats, b.lats):
            return gap
    raise AssertionError("no gap tells the two models apart")


def _assert_answers_like(result, imputer):
    request = result.request
    expected = imputer.impute(request.start, request.end)
    assert np.array_equal(result.lats, expected.lats)
    assert np.array_equal(result.lngs, expected.lngs)
    assert result.provenance.num_cells == len(expected.cells)


def test_answer_cache_never_serves_a_replaced_model(
    registry, service_model, odd_half_model, tiny_kiel
):
    """A model republished under the same id restarts at revision 1, and
    a reload gives it a new graph: the old model's answer is not a hit."""
    config = service_model.config
    gap = _replaced_gap(tiny_kiel, service_model, odd_half_model)
    request = [GapRequest("KIEL", gap.start, gap.end, "r0")]
    engine = BatchImputationEngine(registry)
    (first,) = engine.run(request, config)
    _assert_answers_like(first, service_model)
    registry.publish("KIEL", odd_half_model)
    registry.evict_all()
    (again,) = engine.run(request, config)
    assert again.provenance.cache == "load" and again.provenance.revision == 1
    assert again.provenance.path_cache == "miss"
    _assert_answers_like(again, odd_half_model)
    (fresh,) = BatchImputationEngine(registry).run(request, config)
    assert np.array_equal(again.lats, fresh.lats) and np.array_equal(again.lngs, fresh.lngs)
    # The first model's entry left with its graph.
    assert len(engine.render_cache) == 1


def test_answer_cache_never_serves_a_replaced_refit(
    tmp_path, service_model, odd_half_model, tiny_kiel
):
    """A torn model file is refused until a refit is published over it;
    the refit answers from its own graph, never from its predecessor's
    cached entry."""
    registry = ModelRegistry(tmp_path / "models")
    registry.publish("KIEL", service_model)
    config = service_model.config
    gap = _replaced_gap(tiny_kiel, service_model, odd_half_model)
    request = [GapRequest("KIEL", gap.start, gap.end, "r0")]
    engine = BatchImputationEngine(registry)
    (first,) = engine.run(request, config)
    assert first.provenance.path_cache == "miss"
    _assert_answers_like(first, service_model)
    registry.path_for("KIEL", config).write_bytes(b"torn")
    registry.evict_all()
    with pytest.raises(ModelFormatError):
        engine.run(request, config)
    registry.publish("KIEL", odd_half_model)
    (again,) = engine.run(request, config)
    assert again.provenance.cache == "hit" and again.provenance.revision == 1
    assert again.provenance.path_cache == "miss"
    _assert_answers_like(again, odd_half_model)


def _node_gaps(graph, rng, count):
    """Gaps whose endpoints sit just off random nodes of *graph*."""
    pairs = [rng.choice(graph.num_nodes, 2, replace=False) for _ in range(count)]
    return [
        (
            (float(graph.lats[a]) + 1e-4, float(graph.lngs[a])),
            (float(graph.lats[b]), float(graph.lngs[b]) - 1e-4),
        )
        for a, b in pairs
    ]


def _cached_serials(engine):
    return {key[0] for key in engine.render_cache._entries}


def test_answer_cache_evicts_dead_entries_after_refresh(
    registry, service_model, tiny_kiel, rng, monkeypatch
):
    """After ``registry.refresh`` the first request on the new graph
    drops every entry of the old one, and a batch still holding the old
    model answers from it but stores nothing."""
    config = service_model.config
    engine = BatchImputationEngine(registry)
    gaps = _node_gaps(service_model.graph, rng, 5)
    warm = [GapRequest("KIEL", *gap, f"w{i}") for i, gap in enumerate(gaps)]
    engine.run(warm, config)
    assert _cached_serials(engine) == {service_model.graph.serial} and len(engine.render_cache) == 5
    late, fresh = _node_gaps(service_model.graph, rng, 2)
    submit = engine.dispatcher.submit
    refreshed = []

    def refresh_mid_batch(entries):
        # While the late batch searches, the model is refreshed and
        # another request is answered on the new graph.
        if not refreshed:
            refreshed.append(registry.refresh("KIEL", tiny_kiel.test, config)[0])
            (other,) = engine.run([GapRequest("KIEL", *fresh, "fresh")], config)
            assert other.provenance.revision == 2 and other.provenance.path_cache == "miss"
        return submit(entries)

    monkeypatch.setattr(engine.dispatcher, "submit", refresh_mid_batch)
    (stale,) = engine.run([GapRequest("KIEL", *late, "late")], config)
    assert stale.provenance.revision == 1 and stale.provenance.path_cache == "miss"
    _assert_answers_like(stale, service_model)
    new_serial = refreshed[0].graph.serial
    assert _cached_serials(engine) == {new_serial} and len(engine.render_cache) == 1
    # The old graph's answers are gone; the warm gaps are searched anew.
    again = engine.run(warm, config)
    assert [r.provenance.path_cache for r in again] == ["miss"] * 5
    assert len(engine.render_cache) == 6


def test_answer_cache_bytes_per_cold_answer_are_bounded(tmp_path, r10_model, rng):
    """A cold answer is a compact entry: its RDP-kept vertex block and a
    small fixed record, at most 1 KB in all (~0.6 KB measured) on a
    resolution-10 model.  Samples at 250 m spacing (16 B a point) or a
    per-cell sequence (at least 32 B a cell) would blow the bound."""
    registry = ModelRegistry(tmp_path / "models")
    registry.publish("KIEL", r10_model)
    config = r10_model.config
    gaps = _node_gaps(r10_model.graph, rng, 64)
    requests = [GapRequest("KIEL", *gap, f"g{i}") for i, gap in enumerate(gaps)]
    # Warm every metric series on another engine.
    BatchImputationEngine(registry).run(requests, config)
    engine = BatchImputationEngine(registry)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        answered = []
        for lo in range(0, len(requests), 16):
            answered += engine.run(requests[lo : lo + 16], config)
        points = sum(result.num_points for result in answered)
        del answered
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    entries = list(engine.render_cache._entries.values())
    assert len(entries) == len(requests)
    assert all(entry.lats is None for entry in entries)
    cells = sum(entry.num_cells for entry in entries)
    assert cells >= 64 * len(entries)  # a cell tuple would outweigh the bound
    assert points * 16 > 1024 * len(entries)  # and so would the samples
    assert grown <= 1024 * len(entries)


def _held_bytes(cache):
    return sum(
        array.nbytes
        for entry in cache._entries.values()
        for array in (entry.vertices, entry.lats, entry.lngs)
        if array is not None
    )


def test_answer_cache_bytes_track_entries(tmp_path, r10_model, tiny_kiel, rng):
    """``/healthz`` ``bytes`` is a running sum that equals the arrays the
    entries hold after a mixed batch, an inflating hit, an LRU eviction
    and a refresh's dead-serial drop."""
    registry = ModelRegistry(tmp_path / "models")
    registry.publish("KIEL", r10_model)
    config = r10_model.config
    engine = BatchImputationEngine(registry)
    cache = engine.render_cache
    gaps = [
        gap for gap in _node_gaps(r10_model.graph, rng, 40) if r10_model.impute(*gap).method == "ch"
    ][:5]
    mixed = [
        GapRequest("KIEL", *gaps[0], "a"),
        GapRequest("KIEL", *gaps[0], "rider"),
        GapRequest("KIEL", *gaps[1], "budget", max_points=4),
        GapRequest("KIEL", (10.0, -30.0), (11.0, -31.0), "offshore"),
    ]
    engine.run(mixed, config)
    compact = cache.bytes
    assert len(cache) == 3 and compact == _held_bytes(cache) > 0
    engine.run(mixed[:1], config)
    assert cache.bytes == _held_bytes(cache) > compact
    assert engine.path_cache_stats()["bytes"] == cache.bytes
    cache.capacity = 3
    engine.run([GapRequest("KIEL", *gap, f"e{i}") for i, gap in enumerate(gaps[2:4])], config)
    assert len(cache) == 3 and cache.bytes == _held_bytes(cache)
    registry.refresh("KIEL", tiny_kiel.test, config)
    engine.run([GapRequest("KIEL", *gaps[4], "after")], config)
    assert len(cache) == 1 and cache.bytes == _held_bytes(cache)
    assert engine.path_cache_stats()["bytes"] == cache.bytes


def test_answer_cache_stress_keeps_only_the_newest_graph():
    """Threads racing through graph serials 1..N of one model: every
    entry left belongs to serial N, so no put or re-render of a replaced
    graph slipped past a drop, and the byte count lost no update."""
    cache = _PathCache(1 << 16)
    last = 40

    def worker(tid):
        for serial in range(1, last + 1):
            cache.track(("KIEL", ""), serial)
            for k in range(5):
                key = (serial, tid, k)
                vertices = np.zeros((4, 2 + serial % 3))
                cache.put(key, _Answer(vertices, None, None, "ch", 0, 0, 0.0))
                entry = cache.get(key)
                if entry is not _MISSING:
                    samples = np.zeros(3 + k)
                    sampled = entry._replace(vertices=None, lats=samples, lngs=samples)
                    cache.inflate(key, entry, sampled)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(tid,)) for tid in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert {key[0] for key in cache._entries} == {last}
    assert len(cache) == 8 * 5
    assert cache.bytes == _held_bytes(cache)

# -- budget compression (max_points) --------------------------------------


def _compressible_gap(engine, config, gaps, min_points=6):
    """First gap whose rendered path is long enough to actually compress."""
    for gap in gaps:
        (probe,) = engine.run([GapRequest("KIEL", gap.start, gap.end, "probe")], config)
        if probe.num_points >= min_points and not probe.provenance.fallback:
            return gap, probe
    pytest.skip(f"no rendered KIEL path reaches {min_points} points")


def test_engine_max_points_compresses_and_reports(registry, service_model, tiny_kiel):
    engine = BatchImputationEngine(registry)
    gap, full = _compressible_gap(engine, service_model.config, tiny_kiel.gaps(3600.0))
    budget = max(2, full.num_points // 2)
    (squeezed,) = engine.run(
        [GapRequest("KIEL", gap.start, gap.end, "r0", max_points=budget)],
        service_model.config,
    )
    assert squeezed.num_points <= budget
    prov = squeezed.provenance
    assert prov.points_in == full.num_points
    assert prov.points_out == squeezed.num_points
    assert prov.max_sed_m > 0.0
    # Endpoints are pinned through compression; the chord can only shrink.
    assert squeezed.lats[0] == full.lats[0] and squeezed.lats[-1] == full.lats[-1]
    assert squeezed.lngs[0] == full.lngs[0] and squeezed.lngs[-1] == full.lngs[-1]
    assert prov.path_length_m <= full.provenance.path_length_m + 1e-6
    # The output is a subsequence of the uncompressed rendering.
    positions = {(lat, lng) for lat, lng in zip(full.lats, full.lngs)}
    assert all((lat, lng) in positions for lat, lng in zip(squeezed.lats, squeezed.lngs))


def test_engine_max_points_noop_is_bit_identical(registry, service_model, tiny_kiel):
    engine = BatchImputationEngine(registry)
    gap, _ = _compressible_gap(engine, service_model.config, tiny_kiel.gaps(3600.0))
    plain_req = [GapRequest("KIEL", gap.start, gap.end, "r0")]
    engine.run(plain_req, service_model.config)  # warm route cache + memo
    (reference,) = engine.run(plain_req, service_model.config)
    assert reference.provenance.path_cache == "hit"
    (capped,) = engine.run(
        [GapRequest("KIEL", gap.start, gap.end, "r0", max_points=10_000)],
        service_model.config,
    )
    # Over-large budget: memo still hit (the very same cached arrays come
    # back) and the response is bit-identical to omitting max_points.
    assert capped.provenance.path_cache == "hit"
    assert capped.lats is reference.lats and capped.lngs is reference.lngs
    ref_dict = reference.provenance.to_dict()
    cap_dict = capped.provenance.to_dict()
    ref_dict.pop("elapsed_ms"), cap_dict.pop("elapsed_ms")
    assert cap_dict == ref_dict
    assert cap_dict["points_in"] == 0 and cap_dict["max_sed_m"] == 0.0


def test_http_impute_max_points_bounded(server, tiny_kiel):
    gaps = tiny_kiel.gaps(3600.0)
    for gap in gaps:
        status, body = _post(
            server,
            "/impute",
            {"dataset": "KIEL", "start": list(gap.start), "end": list(gap.end)},
        )
        n = len(body["geojson"]["features"][0]["geometry"]["coordinates"])
        if n >= 6 and not body["results"][0]["provenance"]["fallback"]:
            break
    else:
        pytest.skip("no rendered KIEL path reaches 6 points")
    budget = max(2, n // 2)
    status, body = _post(
        server,
        "/impute",
        {
            "dataset": "KIEL",
            "start": list(gap.start),
            "end": list(gap.end),
            "max_points": budget,
        },
    )
    assert status == 200
    coords = body["geojson"]["features"][0]["geometry"]["coordinates"]
    prov = body["results"][0]["provenance"]
    assert len(coords) <= budget
    assert prov["points_in"] == n
    assert prov["points_out"] == len(coords)
    assert prov["max_sed_m"] > 0.0


def _served_budget_runs(registry, config, gaps, budgets):
    """(rendered, {budget: budgeted}) results for every routed gap."""
    engine = BatchImputationEngine(registry)
    plain = engine.run(
        [GapRequest("KIEL", g.start, g.end, f"g{k}") for k, g in enumerate(gaps)], config
    )
    keep = [k for k, r in enumerate(plain) if not r.provenance.fallback]
    budgeted = {
        budget: engine.run(
            [
                GapRequest("KIEL", gaps[k].start, gaps[k].end, f"g{k}", max_points=budget)
                for k in keep
            ],
            config,
        )
        for budget in budgets
    }
    return [plain[k] for k in keep], budgeted


def _subsequence_indices(full, part):
    """Indices of *part*'s points in *full*, matched in order."""
    out = []
    j = 0
    for lat, lng in zip(part.lats, part.lngs):
        while full.lats[j] != lat or full.lngs[j] != lng:
            j += 1  # IndexError: not a subsequence
        out.append(j)
        j += 1
    return np.asarray(out)


def _index_synced_sed(x, y, kept):
    """SED of every dropped point against the kept polyline, by index."""
    worst = 0.0
    for u, v in zip(kept[:-1], kept[1:]):
        for d in range(u + 1, v):
            frac = (d - u) / (v - u)
            sx = x[u] + frac * (x[v] - x[u])
            sy = y[u] + frac * (y[v] - y[u])
            worst = max(worst, float(np.hypot(x[d] - sx, y[d] - sy)))
    return worst


@pytest.mark.parametrize("resolution", [9, 10])
def test_engine_max_points_contract(tmp_path, tiny_kiel, resolution):
    # The served max_points contract: a subsequence of the rendered path
    # with both endpoints, at most max_points long, never keeping a point
    # on its rendered neighbours' chord (so often shorter), and max_sed_m
    # the exact index-synchronised SED over every dropped rendered point.
    model = HabitImputer(HabitConfig(resolution=resolution)).fit_from_trips(tiny_kiel.train)
    registry = ModelRegistry(tmp_path / "models", capacity=2)
    registry.publish("KIEL", model)
    gaps = [g for d in (1800.0, 3600.0, 7200.0) for g in tiny_kiel.gaps(d, max_per_trip=4)]
    full, budgeted = _served_budget_runs(registry, model.config, gaps, (2, 4, 8, 32, 64))
    assert len(full) >= 10
    for budget, results in budgeted.items():
        for rendered, squeezed in zip(full, results):
            n = rendered.num_points
            prov = squeezed.provenance
            if n <= budget:
                assert prov.points_in == 0 and prov.max_sed_m == 0.0
                assert np.array_equal(squeezed.lats, rendered.lats)
                continue
            kept = _subsequence_indices(rendered, squeezed)
            assert kept[0] == 0 and kept[-1] == n - 1
            assert np.all(np.diff(kept) > 0)
            assert prov.points_in == n
            assert prov.points_out == len(kept) <= budget
            x, y = latlng_to_xy_m(rendered.lats, rendered.lngs)
            assert off_chord_mask(x, y)[kept].all()
            assert abs(prov.max_sed_m - _index_synced_sed(x, y, kept)) <= 1e-9


def test_engine_max_points_sed_against_squish_e(tmp_path, tiny_kiel):
    # On the served r10 model (few RDP turns per path), ranking only the
    # turn points never loses to SQUISH-E over the whole rendered path at
    # budgets >= 32, and is no worse in median at budgets 4 and 8.
    model = HabitImputer(HabitConfig(resolution=10)).fit_from_trips(tiny_kiel.train)
    registry = ModelRegistry(tmp_path / "models", capacity=2)
    registry.publish("KIEL", model)
    gaps = [g for d in (1800.0, 3600.0, 7200.0) for g in tiny_kiel.gaps(d, max_per_trip=4)]
    full, budgeted = _served_budget_runs(registry, model.config, gaps, (4, 8, 32, 64))
    for budget, results in budgeted.items():
        served, squish = [], []
        for rendered, squeezed in zip(full, results):
            if rendered.num_points <= budget:
                continue
            x, y = latlng_to_xy_m(rendered.lats, rendered.lngs)
            served.append(squeezed.provenance.max_sed_m)
            squish.append(compress_to_budget(x, y, budget).max_sed_m)
        assert served
        if budget >= 32:
            assert all(s <= q + 1e-9 for s, q in zip(served, squish))
        else:
            assert np.median(served) <= np.median(squish) + 1e-9


def test_http_invalid_max_points_is_400(server):
    for bad in (0, -3, "ten", 2.5, True):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(
                server,
                "/impute",
                {
                    "dataset": "KIEL",
                    "start": [54.0, 10.0],
                    "end": [55.0, 11.0],
                    "max_points": bad,
                },
            )
        assert err.value.code == 400
        assert "max_points" in err.value.read().decode()
