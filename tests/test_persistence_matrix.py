"""Model-format matrix: format v10 is the only version the loaders read.

The matrix pinned here:

- a saved v10 file loads into a working imputer with its hierarchy
  installed (no rebuild at the first query);
- files tagged with any other version, and malformed v10 files (missing
  or short config, a config value the imputer rejects, a missing
  revision, a missing or malformed fit state), raise
  :class:`ModelFormatError` -- which a registry raises on every request
  for the file's model, never serving it, until a publish replaces it;
- a round-trip preserves every CH array **bit-exactly**, and the
  deterministic CH build reproduces the persisted arrays;
- new saves are stamped ``format_version == 10`` with every CH array and
  the fit state.
"""

import numpy as np
import pytest

import repro.core.habit as habit_mod
from repro.core import HabitConfig, HabitImputer, ModelFormatError
from repro.service import ModelRegistry


@pytest.fixture(scope="module")
def ch_model(tiny_kiel):
    """Default-config model: hierarchy built at finalize."""
    model = HabitImputer(HabitConfig(resolution=9)).fit_from_trips(tiny_kiel.train)
    assert model.graph.has_ch
    return model


def _assert_refused_until_republished(registry, model):
    """The registry raises :class:`ModelFormatError` for the bad file at
    *model*'s path on every request, caching and serving nothing, and a
    publish of *model* heals the id on disk."""
    for _ in range(2):
        with pytest.raises(ModelFormatError):
            registry.get("KIEL", model.config)
    assert registry.loaded_ids == [] and registry.stats.loads == 0
    registry.publish("KIEL", model)
    registry.evict_all()
    _, _, source = registry.get("KIEL", model.config)
    assert source == "load"
    with np.load(registry.path_for("KIEL", model.config)) as data:
        assert str(data["format"][1]) == str(habit_mod.MODEL_FORMAT_VERSION)


def _payload(path):
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def test_current_version_loads_and_serves(ch_model, tiny_kiel, tmp_path):
    restored = HabitImputer.load(ch_model.save(tmp_path / "m.npz"))
    assert restored.graph.num_nodes == ch_model.graph.num_nodes
    assert restored.graph.has_ch  # installed by the load, not rebuilt
    gap = tiny_kiel.gaps(3600.0)[0]
    result = restored.impute(gap.start, gap.end)
    assert result.num_points >= 2 and result.method == "ch"


def test_ch_rebuild_matches_persisted_hierarchy(ch_model, tmp_path):
    """``compute_ch()`` on a loaded graph reproduces the persisted arrays."""
    restored = HabitImputer.load(ch_model.save(tmp_path / "m.npz"))
    restored.graph.compute_ch()
    for key in habit_mod._CH_KEYS:
        ours, rebuilt = getattr(ch_model.graph, key), getattr(restored.graph, key)
        assert np.array_equal(ours, rebuilt), key


def test_file_whose_shortcuts_never_unpack_is_rejected(ch_model, tmp_path):
    """Middle nodes that are their own arc's tail would make every CH
    path unpack forever; such a file fails to load like any bad model,
    so the registry rejects it instead of pinning a thread."""
    payload = _payload(ch_model.save(tmp_path / "m.npz"))
    indptr = payload["ch_up_indptr"]
    tails = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    payload["ch_up_middle"] = tails.astype(np.int32)
    crafted = tmp_path / "crafted.npz"
    np.savez(crafted, **payload)
    with pytest.raises(ModelFormatError, match="middle"):
        HabitImputer.load(crafted)


def test_plain_round_trip_preserves_ch_arrays_bit_exactly(ch_model, tmp_path):
    restored = HabitImputer.load(ch_model.save(tmp_path / "m.npz"))
    assert restored.graph.has_ch
    for key in habit_mod._CH_KEYS:
        ours, theirs = getattr(ch_model.graph, key), getattr(restored.graph, key)
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), key


def test_new_saves_are_stamped_version_10(ch_model, tmp_path):
    with np.load(ch_model.save(tmp_path / "m.npz")) as data:
        tag = data["format"]
        assert str(tag[0]) == habit_mod.MODEL_FORMAT and str(tag[1]) == "10"
        for key in habit_mod._CH_KEYS:
            assert key in data.files, key
        state = ch_model._state.payload(habit_mod._STATE_PREFIX)
        for key in state:
            assert key in data.files, key


def test_versions_outside_the_window_are_rejected(ch_model, tmp_path):
    payload = _payload(ch_model.save(tmp_path / "m.npz"))
    for bad in ("2", "3", "4", "5", "6", "7", "8", "9", "11"):
        payload["format"] = np.array([habit_mod.MODEL_FORMAT, bad])
        bad_path = tmp_path / f"bad{bad}.npz"
        np.savez(bad_path, **payload)
        with pytest.raises(ModelFormatError, match="format version"):
            HabitImputer.load(bad_path)


def _v9_config(payload):
    """*payload*'s config in the v9 layout: ``tolerance_m`` (its 100 m
    default) between resolution and projection."""
    return np.insert(payload["config"], 1, "100.0")


def test_v7_file_in_registry_is_refused_until_republished(ch_model, tmp_path):
    """A default-config file from the t-digest era, planted at the path a
    registry looks up, is refused for its stale version until a refit is
    published over it."""
    config = HabitConfig()
    assert ch_model.config == config
    registry = ModelRegistry(tmp_path / "registry")
    payload = _payload(ch_model.save(tmp_path / "good.npz"))
    payload["format"] = np.array([habit_mod.MODEL_FORMAT, "7"])
    np.savez(registry.path_for("KIEL", config), **payload)
    _assert_refused_until_republished(registry, ch_model)


def test_v8_file_in_registry_is_refused_until_republished(ch_model, tmp_path):
    """A file in the v8 layout -- five config slots (``edge_weight`` and
    ``approx_distinct`` included) and a three-entry state meta -- at the
    path a registry looks up is refused, never served, until a refit is
    published over it."""
    registry = ModelRegistry(tmp_path / "registry")
    path = registry.path_for("KIEL", ch_model.config)
    payload = _payload(ch_model.save(tmp_path / "good.npz"))
    payload["format"] = np.array([habit_mod.MODEL_FORMAT, "8"])
    payload["config"] = np.append(_v9_config(payload), ["transitions", "1"])
    resolution, positions = payload["state_meta"]
    payload["state_meta"] = np.array([resolution, "1", positions])
    np.savez(path, **payload)
    with pytest.raises(ModelFormatError, match="format version 8"):
        HabitImputer.load(path)
    _assert_refused_until_republished(registry, ch_model)
    with np.load(path) as data:
        assert len(data["config"]) == 2


def test_v9_file_in_registry_is_refused_until_republished(ch_model, tmp_path):
    """A file in the v9 layout -- three config slots, ``tolerance_m``
    included, and otherwise today's arrays -- at the path a registry looks
    up is refused, never served, until a refit is published over it."""
    registry = ModelRegistry(tmp_path / "registry")
    path = registry.path_for("KIEL", ch_model.config)
    payload = _payload(ch_model.save(tmp_path / "good.npz"))
    payload["format"] = np.array([habit_mod.MODEL_FORMAT, "9"])
    payload["config"] = _v9_config(payload)
    np.savez(path, **payload)
    with pytest.raises(ModelFormatError, match="format version 9"):
        HabitImputer.load(path)
    _assert_refused_until_republished(registry, ch_model)
    with np.load(path) as data:
        assert list(data["config"]) == ["9", "center"]


def _set_config_slot(slot, value):
    def plant(payload):
        payload["config"][slot] = value

    return plant


def _drop(key):
    return lambda payload: payload.pop(key)


def _shorten_config(payload):
    payload["config"] = payload["config"][:1]


def _drop_state(payload):
    for key in [key for key in payload if key.startswith("state_")]:
        del payload[key]


def _set_array(key, value):
    def plant(payload):
        payload[key] = value

    return plant


_DEFECTS = {
    "no_config": _drop("config"),
    "no_revision": _drop("revision"),
    "short_config": _shorten_config,
    "resolution_x": _set_config_slot(0, "x"),
    "resolution_99": _set_config_slot(0, "99"),
    "no_state": _drop_state,
}
_PLAIN_DEFECTS = {
    "no_state_cell_counts": _drop("state_cell_counts"),
    "no_state_tr_manifest": _drop("state_tr_manifest"),
    "bad_state_cell_manifest": _set_array("state_cell_manifest", np.array(["{"])),
    "short_state_meta": _set_array("state_meta", np.array(["9"])),
}
_ALL_DEFECTS = {**_DEFECTS, **_PLAIN_DEFECTS}


@pytest.mark.parametrize(
    "defect", _ALL_DEFECTS, ids=[f"plain-{name}" for name in _ALL_DEFECTS]
)
def test_malformed_files_raise_format_error_and_refit(ch_model, tmp_path, defect):
    """A malformed model file is a :class:`ModelFormatError`, never a bare
    ``KeyError``/``IndexError``/``ValueError`` -- so the registry refuses
    it (a 503 over HTTP) and a published refit heals its id."""
    registry = ModelRegistry(tmp_path / "registry")
    path = registry.path_for("KIEL", ch_model.config)
    payload = _payload(ch_model.save(tmp_path / "good.npz"))
    _ALL_DEFECTS[defect](payload)
    np.savez(path, **payload)
    with pytest.raises(ModelFormatError):
        HabitImputer.load(path)
    _assert_refused_until_republished(registry, ch_model)
