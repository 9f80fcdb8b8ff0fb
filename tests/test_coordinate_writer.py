"""The vectorised coordinate writer equals ``float.__repr__`` and the
``/impute`` bytes writer equals the stdlib encoding.

``repro.io.geojson.linestring_coordinates`` is checked against
``json.dumps`` of the ``[[lng, lat], ...]`` lists on over a million
doubles drawn with fixed seeds; a failure names the family, the seed
and the first differing value (with its ``float.hex``), so it replays.
``repro.service.http.impute_body`` is checked against
``_ENCODER.encode(impute_response(...))``, which stays the reference.
"""

import json
import threading
import urllib.error
import urllib.request
from dataclasses import replace

import numpy as np
import pytest

from repro.io import feature_collection, linestring_features
from repro.io.geojson import REPR_RANGE, linestring_collection_bytes, linestring_coordinates
from repro.service import BatchImputationEngine, GapRequest, ModelRegistry, make_server
from repro.service.http import _ENCODER, impute_body, impute_response

SEED = 20260


def _families(rng):
    """``name -> float64 array``, about 1.8M values in all."""
    lo, hi = (np.float64(v).view(np.int64) for v in REPR_RANGE)
    bits = rng.integers(lo, hi, 300_000).view(np.float64)
    binade = np.ldexp(1.0, np.arange(-13, 54))
    tens = 10.0 ** np.arange(-4, 17)
    edges = np.concatenate(
        [binade, tens]
        + [np.nextafter(v, d) for v in (binade, tens) for d in (np.inf, -np.inf)]
    )
    scale = 10.0 ** rng.integers(0, 6, 100_000)
    short = np.round(rng.uniform(0.0, 1000.0, 100_000) * scale) / scale
    decimals = np.array(
        [
            float(f"{m}e{e}")
            for m, e in zip(rng.integers(10**14, 10**17, 60_000), rng.integers(-20, 1, 60_000))
        ]
    )
    round_up = np.array([9.9999999999999995, 99.99999999999999, 0.00099999999999999999])
    families = {
        "uniform lat": rng.uniform(-90.0, 90.0, 200_000),
        "uniform lng": rng.uniform(-180.0, 180.0, 200_000),
        "random bits": bits,
        "negative bits": -bits,
        "binade bottoms and powers of ten +- 1 ulp": edges,
        "short decimals": np.concatenate([short, [54.25, 2.0**50 + 0.25, 2.0**50 + 0.75]]),
        "integers": np.arange(1.0, 100_000.0),
        # Where interval ends are integers: spacing 2, then 1, then 0.5.
        "around 2**53": 2.0**53 + np.arange(-100_000.0, 100_000.0, 1.0),
        "around 2**52": 2.0**52 + np.arange(-50_000.0, 50_000.0, 0.5),
        "neighbours of 15-17 digit decimals": np.concatenate(
            [decimals, np.nextafter(decimals, np.inf), np.nextafter(decimals, -np.inf)]
        ),
        "round up to a power of ten": np.concatenate([round_up, -round_up]),
    }
    return {
        name: v[(np.abs(v) >= REPR_RANGE[0]) & (np.abs(v) < REPR_RANGE[1])]
        for name, v in families.items()
    }


def _json_paths(lats, lngs):
    return [json.dumps(np.column_stack((b, a)).tolist()).encode() for a, b in zip(lats, lngs)]


def _first_mismatch(values, paths):
    """The first of *values* (in ``lng, lat, lng, ...`` order) whose
    text in the written *paths* differs from its ``repr``."""
    pairs = b", ".join(p[1:-1] for p in paths if p != b"[]").decode()[1:-1].split("], [")
    written = [text for pair in pairs for text in pair.split(", ")]
    for value, got in zip(values.tolist(), written):
        if got != repr(value):
            return f"{value!r} ({value.hex()}) written as {got!r}"
    return f"{len(written)} texts for {len(values)} values"


def test_coordinate_writer_matches_float_repr_on_a_million_doubles():
    rng = np.random.default_rng(SEED)
    total = 0
    for name, values in _families(rng).items():
        if len(values) % 2:
            values = np.append(values, values[0])
        # Uneven paths, so slicing the batch's text is checked too.
        lngs = np.split(values[0::2], [1, 2, len(values) // 5])
        lats = np.split(values[1::2], [1, 2, len(values) // 5])
        paths = linestring_coordinates(lats, lngs)
        assert paths is not None, f"{name} (seed {SEED}): reported out of range"
        ok = paths == _json_paths(lats, lngs)
        assert ok, f"{name} (seed {SEED}): " + _first_mismatch(values, paths)
        total += len(values)
    assert total >= 1_000_000


@pytest.mark.parametrize(
    "values",
    [[0.0], [-0.0], [5e-5], [1e16], [-1e17], [np.nan], [np.inf], [54.1, 1e-5]],
)
def test_coordinate_writer_reports_values_outside_its_range(values):
    inside = np.full(len(values), 10.5)
    assert linestring_coordinates([np.array(values)], [inside]) is None
    assert linestring_coordinates([inside], [np.array(values)]) is None
    assert linestring_collection_bytes([np.array(values)], [inside], [{}]) is None


def test_linestring_coordinates_equal_json_dumps():
    rng = np.random.default_rng(SEED)
    sizes = [0, 3, 1, 0, 7]
    lats = [rng.uniform(-89.0, 89.0, n) for n in sizes]
    lngs = [rng.uniform(-179.0, 179.0, n) for n in sizes]
    assert linestring_coordinates(lats, lngs) == _json_paths(lats, lngs)
    assert linestring_coordinates([], []) == []


def test_linestring_collection_bytes_equal_json_dumps():
    rng = np.random.default_rng(SEED)
    sizes = [4, 0, 2]
    lats = [rng.uniform(-89.0, 89.0, n) for n in sizes]
    lngs = [rng.uniform(-179.0, 179.0, n) for n in sizes]
    properties = [{"request_id": "caf\u00e9", "n": 1}, {}, {"fallback": True, "x": None}]
    want = json.dumps(feature_collection(linestring_features(lats, lngs, properties)))
    assert linestring_collection_bytes(lats, lngs, properties) == want.encode()
    empty = json.dumps(feature_collection([])).encode()
    assert linestring_collection_bytes([], [], []) == empty


def _stdlib_body(results, elapsed_ms):
    return _ENCODER.encode(impute_response(results, elapsed_ms)).encode("utf-8")


def test_impute_body_equals_stdlib_for_every_answer_kind(tmp_path, service_model, tiny_kiel):
    """Routed, budgeted, coalesced, hit, no-route, zero-length and
    offshore answers in one batch."""
    registry = ModelRegistry(tmp_path / "models")
    registry.publish("KIEL", service_model)
    graph = service_model.graph
    sink = int(np.flatnonzero(np.diff(graph.indptr) == 0)[0])
    other = (sink + 1) % graph.num_nodes
    no_route = (
        (float(graph.lats[sink]), float(graph.lngs[sink])),
        (float(graph.lats[other]), float(graph.lngs[other])),
    )
    node = (float(graph.lats[0]), float(graph.lngs[0]))
    gap = tiny_kiel.gaps(3600.0)[0]
    # Endpoints nudged off the warm gap's are fresh answer-cache keys.
    nudged = [((gap.start[0] + k * 1e-6, gap.start[1]), gap.end) for k in (1, 2)]
    engine = BatchImputationEngine(registry)
    engine.run([GapRequest("KIEL", gap.start, gap.end, "warm")], service_model.config)
    requests = [
        GapRequest("KIEL", gap.start, gap.end, "hit"),
        GapRequest("KIEL", *nudged[0], "routed"),
        GapRequest("KIEL", *nudged[0], "coalesced"),
        GapRequest("KIEL", *nudged[1], "budgeted", max_points=4),
        GapRequest("KIEL", *no_route, "no-route"),
        GapRequest("KIEL", node, node, "zero-length"),
        GapRequest("KIEL", (10.0, -30.0), (11.0, -31.0), "offshore"),
    ]
    results = engine.run(requests, service_model.config)
    tiers = [r.provenance.path_cache for r in results]
    assert tiers[0] == "hit" and tiers[2] == "coalesced"
    assert results[3].provenance.points_in > 0 and results[6].provenance.fallback
    assert linestring_coordinates([r.lats for r in results], [r.lngs for r in results])
    assert impute_body(results, 12.25) == _stdlib_body(results, 12.25)
    assert impute_body(results[:1], 0.0) == _stdlib_body(results[:1], 0.0)
    assert impute_body([], 0.5) == _stdlib_body([], 0.5)


def test_impute_body_falls_back_on_a_zero_coordinate(registry, service_model, tiny_kiel):
    gap = tiny_kiel.gaps(3600.0)[0]
    (result,) = BatchImputationEngine(registry).run(
        [GapRequest("KIEL", gap.start, gap.end, "equator")], service_model.config
    )
    lats = result.lats.copy()
    lats[0] = 0.0
    results = [replace(result, lats=lats)]
    assert linestring_coordinates([lats], [result.lngs]) is None
    assert impute_body(results, 1.0) == _stdlib_body(results, 1.0)


@pytest.fixture()
def registry(tmp_path, service_model):
    registry = ModelRegistry(tmp_path / "models")
    registry.publish("KIEL", service_model)
    return registry


def _serve(registry):
    server = make_server(registry, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    return server, thread, f"http://{host}:{port}"


def _raw_post(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(), method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def test_socket_body_equals_stdlib_encoding(registry, tiny_kiel):
    """Through ``make_server``: the served bytes, re-encoded by the stdlib
    from the parsed body, are the same bytes."""
    gaps = tiny_kiel.gaps(3600.0)[:4]
    payload = {
        "requests": [
            {"dataset": "KIEL", "id": f"g{k}", "start": list(g.start), "end": list(g.end)}
            for k, g in enumerate(gaps)
        ]
    }
    server, thread, base = _serve(registry)
    try:
        status, body = _raw_post(base + "/impute", payload)
        assert status == 200
        assert body == _ENCODER.encode(json.loads(body)).encode("utf-8")
        # A query string does not change the route.
        status, again = _raw_post(base + "/impute?x=1", payload)
        assert status == 200 and json.loads(again)["count"] == len(gaps)
        status, _ = _raw_post(base + "/other?x=1", payload)
        assert status == 404
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
