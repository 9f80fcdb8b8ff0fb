"""Evaluation harness and GeoJSON export."""

import json

import numpy as np

from repro.baselines import StraightLineImputer
from repro.eval import evaluate_imputer
from repro.experiments.common import Gap
from repro.io import feature_collection, linestring_feature, point_feature, write_geojson


def _fake_gaps(n=3):
    gaps = []
    for i in range(n):
        lats = 55.0 + i * 0.01 + np.linspace(0.0, 0.02, 9)
        lngs = 10.0 + np.linspace(0.0, 0.03, 9)
        gaps.append(
            Gap(
                start=(float(lats[0]), float(lngs[0])),
                end=(float(lats[-1]), float(lngs[-1])),
                truth_lats=lats,
                truth_lngs=lngs,
                duration_s=3600.0,
                trip_id=i,
            )
        )
    return gaps


def test_evaluate_imputer_aggregates():
    gaps = _fake_gaps()
    result = evaluate_imputer(StraightLineImputer(), gaps, "SLI")
    assert result.name == "SLI"
    assert result.num_gaps == 3
    assert len(result.dtw_m) == 3
    assert np.all(np.isfinite(result.dtw_m))
    assert result.mean_dtw_m >= 0.0
    assert result.mean_latency_s >= 0.0
    assert result.storage_bytes == 0
    assert result.fallback_rate == 0.0


def test_evaluate_without_storage():
    result = evaluate_imputer(
        StraightLineImputer(), _fake_gaps(1), "SLI", measure_storage=False
    )
    assert result.storage_bytes is None


def test_geojson_shapes(tmp_path):
    line = linestring_feature([55.0, 55.1], [10.0, 10.1], {"name": "truth"})
    assert line["geometry"]["type"] == "LineString"
    # GeoJSON is [lng, lat] ordered.
    assert line["geometry"]["coordinates"][0] == [10.0, 55.0]
    point = point_feature(55.0, 10.0, {"kind": "endpoint"})
    assert point["geometry"]["coordinates"] == [10.0, 55.0]
    collection = feature_collection([line, point])
    assert collection["type"] == "FeatureCollection"
    path = write_geojson(collection, tmp_path / "case.geojson")
    assert path.exists()
    loaded = json.loads(path.read_text())
    assert loaded["features"][0]["properties"]["name"] == "truth"


def test_linestring_coordinates_serialise_like_per_point_floats():
    # The served GeoJSON must round-trip exactly, so the vectorised
    # coordinate builder has to emit the same JSON bytes as converting
    # each point with float(): signed zeros, subnormals and values that
    # need all 17 significant digits included.
    rng = np.random.default_rng(11)
    specials = np.array([-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e-310,
                         0.1 + 0.2, 54.123456789012345, -179.99999999999997])
    for n in (0, 1, 2, 17, 300):
        lats = rng.uniform(-90.0, 90.0, n)
        lngs = rng.uniform(-180.0, 180.0, n)
        if n:
            lats[: min(n, len(specials))] = specials[:n]
            lngs[-min(n, len(specials)):] = specials[::-1][:n]
        coords = linestring_feature(lats, lngs)["geometry"]["coordinates"]
        old = [[float(lng), float(lat)] for lat, lng in zip(lats, lngs)]
        assert json.dumps(coords) == json.dumps(old)
        assert all(type(v) is float for point in coords for v in point)
