"""Model-format compatibility matrix: v3, v4 and v5 files all load.

Format v5 added the contraction-hierarchy arrays; v4 added the search
config fields (and ALT landmark tables, since removed); v3 is the floor
(``MIN_MODEL_FORMAT_VERSION``).  The matrix pinned here:

- files saved at every supported version load into a working imputer;
- pre-v5 files (no CH payload) rebuild the hierarchy on first demand;
- v4/v5 files written with the removed ``"alt"`` / ``"bidirectional"``
  search load as ``"ch"`` (landmark arrays ignored), are listed by the
  registry and answer at Dijkstra's cost;
- plain and typed round-trips preserve every CH array **bit-exactly**
  (the CH build is deterministic, so save -> load -> rebuild agrees);
- new saves are stamped ``format_version == 5``.
"""

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

import repro.core.habit as habit_mod
from repro.core import HabitConfig, HabitImputer, TypedHabitImputer
from repro.service import ModelRegistry


@pytest.fixture(scope="module")
def ch_model(tiny_kiel):
    """Default-config model: search='ch', hierarchy built at finalize."""
    model = HabitImputer(HabitConfig(resolution=9)).fit_from_trips(tiny_kiel.train)
    assert model.config.search == "ch" and model.graph.has_ch
    return model


def _downgrade(saved_path, out_path, version):
    """Rewrite a saved v5 model file as an earlier-version equivalent."""
    with np.load(saved_path) as data:
        payload = {key: data[key] for key in data.files}
    payload["format"] = np.array([habit_mod.MODEL_FORMAT, str(version)])
    if version == 3:
        payload["config"] = payload["config"][:8]  # v3 configs had 8 fields
    for key in habit_mod._CH_KEYS:  # pre-v5: everything but the hierarchy
        payload.pop(key, None)
    np.savez(out_path, **payload)
    return out_path


@pytest.mark.parametrize("version", [3, 4, 5])
def test_every_supported_version_loads_and_serves(ch_model, tiny_kiel, tmp_path, version):
    saved = ch_model.save(tmp_path / "v5.npz")
    path = (
        saved
        if version == 5
        else _downgrade(saved, tmp_path / f"v{version}.npz", version)
    )
    restored = HabitImputer.load(path)
    assert restored.graph.num_nodes == ch_model.graph.num_nodes
    # v5 carries the hierarchy; older files must come back without one.
    assert restored.graph.has_ch == (version == 5)
    gap = tiny_kiel.gaps(3600.0)[0]
    result = restored.impute(gap.start, gap.end)
    assert result.num_points >= 2 and result.method == "ch"
    assert restored.graph.has_ch  # pre-v5 loads rebuilt it on demand


def _legacy_search_file(saved_path, root, version, search):
    """Rewrite a saved model as a v4/v5 file written with a removed
    search variant: *search* in config slot 8, synthesised landmark
    tables, and the registry file name that config hashed to."""
    with np.load(saved_path) as data:
        payload = {key: data[key] for key in data.files}
    payload["format"] = np.array([habit_mod.MODEL_FORMAT, str(version)])
    if version == 4:
        for key in habit_mod._CH_KEYS:
            payload.pop(key)
    config = payload["config"].tolist()
    payload["config"] = np.array(config[:8] + [search, "8"])
    n = len(payload["cells"])
    rng = np.random.default_rng(version)
    payload["landmarks"] = np.array([0, n - 1], dtype=np.int32)
    payload["landmark_from"] = rng.uniform(0.0, 50.0, (2, n))
    payload["landmark_to"] = rng.uniform(0.0, 50.0, (2, n))
    fields = {
        **asdict(HabitConfig(resolution=9)),
        "search": search,
        "num_landmarks": 8,
    }
    digest = hashlib.sha256(
        json.dumps(fields, sort_keys=True).encode("ascii")
    ).hexdigest()[:12]
    path = root / f"KIEL_{digest}.npz"
    np.savez(path, **payload)
    return path


@pytest.mark.parametrize("search", ["alt", "bidirectional"])
@pytest.mark.parametrize("version", [4, 5])
def test_legacy_search_files_load_as_ch(ch_model, tiny_kiel, tmp_path, version, search):
    root = tmp_path / "registry"
    root.mkdir()
    path = _legacy_search_file(ch_model.save(tmp_path / "v5.npz"), root, version, search)
    (entry,) = ModelRegistry(root).list_models()
    assert entry["model_id"] == path.stem and entry["revision"] == 1
    restored = HabitImputer.load(path)
    assert restored.config == HabitConfig(resolution=9)  # search reads as "ch"
    assert restored.graph.has_ch == (version == 5)
    checked = 0
    for gap in tiny_kiel.gaps(3600.0):
        snapped = restored.snap_endpoints(gap.start, gap.end)
        oracle = snapped and restored.graph.find_path(*snapped, "dijkstra")
        if not oracle:
            continue
        result = restored.route(*snapped)
        assert result.method == "ch"
        assert result.cost == pytest.approx(oracle.cost, rel=1e-9)
        assert restored.impute(gap.start, gap.end).method == "ch"
        checked += 1
    assert checked > 0


def test_prev5_rebuild_matches_persisted_hierarchy(ch_model, tmp_path):
    """The on-demand rebuild after a v4 load equals the persisted arrays."""
    saved = ch_model.save(tmp_path / "v5.npz")
    v4 = _downgrade(saved, tmp_path / "v4.npz", 4)
    restored = HabitImputer.load(v4)
    restored.graph.ensure_ch()
    for key in habit_mod._CH_KEYS:
        assert np.array_equal(getattr(restored.graph, key), getattr(ch_model.graph, key)), key


def test_plain_round_trip_preserves_ch_arrays_bit_exactly(ch_model, tmp_path):
    restored = HabitImputer.load(ch_model.save(tmp_path / "m.npz"))
    assert restored.graph.has_ch
    for key in habit_mod._CH_KEYS:
        ours, theirs = getattr(ch_model.graph, key), getattr(restored.graph, key)
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), key


def test_typed_round_trip_preserves_ch_arrays_bit_exactly(tiny_kiel, tmp_path):
    typed = TypedHabitImputer(HabitConfig(resolution=9)).fit_from_trips(
        tiny_kiel.train
    )
    assert typed.fallback.graph.has_ch  # default search builds CH per class
    restored = TypedHabitImputer.load(typed.save(tmp_path / "typed.npz"))
    graph_pairs = [(typed.fallback.graph, restored.fallback.graph)]
    assert sorted(restored.by_type) == sorted(typed.by_type)
    graph_pairs += [
        (typed.by_type[name].graph, restored.by_type[name].graph)
        for name in sorted(typed.by_type)
    ]
    for ours, theirs in graph_pairs:
        assert theirs.has_ch
        for key in habit_mod._CH_KEYS:
            a, b = getattr(ours, key), getattr(theirs, key)
            assert a.dtype == b.dtype and np.array_equal(a, b), key


def test_new_saves_are_stamped_version_5(ch_model, tmp_path):
    path = ch_model.save(tmp_path / "m.npz")
    with np.load(path) as data:
        tag = data["format"]
        assert str(tag[0]) == habit_mod.MODEL_FORMAT and str(tag[1]) == "5"
        for key in habit_mod._CH_KEYS:
            assert key in data.files, key


def test_versions_outside_the_window_are_rejected(ch_model, tmp_path):
    saved = ch_model.save(tmp_path / "v5.npz")
    with np.load(saved) as data:
        payload = {key: data[key] for key in data.files}
    for bad in ("2", "6"):
        payload["format"] = np.array([habit_mod.MODEL_FORMAT, bad])
        bad_path = tmp_path / f"bad{bad}.npz"
        np.savez(bad_path, **payload)
        with pytest.raises(ValueError, match="format version"):
            HabitImputer.load(bad_path)
