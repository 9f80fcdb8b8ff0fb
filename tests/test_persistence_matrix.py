"""Model-format matrix: format v7 is the only version the loaders read.

The matrix pinned here:

- a saved v7 file loads into a working imputer with its hierarchy
  installed (no rebuild at the first query);
- files tagged with any other version, and malformed v7 files (missing
  or short config, a config value the imputer rejects, missing
  revision or typed header arrays, a listed class graph that is
  absent, a missing or malformed fit state), raise
  :class:`ModelFormatError` -- and a registry with a fitter refits them
  instead of failing every request;
- plain and typed round-trips preserve every CH array **bit-exactly**,
  and the deterministic CH build reproduces the persisted arrays;
- new saves are stamped ``format_version == 7`` with every CH array and
  the fit state.
"""

import numpy as np
import pytest

import repro.core.habit as habit_mod
from repro.core import HabitConfig, HabitImputer, ModelFormatError, TypedHabitImputer
from repro.service import ModelRegistry


@pytest.fixture(scope="module")
def ch_model(tiny_kiel):
    """Default-config model: hierarchy built at finalize."""
    model = HabitImputer(HabitConfig(resolution=9)).fit_from_trips(tiny_kiel.train)
    assert model.graph.has_ch
    return model


@pytest.fixture(scope="module")
def typed_model(tiny_kiel):
    """Typed model with at least one class graph (``g0_*`` arrays)."""
    model = TypedHabitImputer(HabitConfig(resolution=9), min_group_rows=100)
    model.fit_from_trips(tiny_kiel.train)
    assert model.fitted_groups
    return model


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
    so the registry refits or rejects it instead of pinning a thread."""
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


def test_typed_round_trip_preserves_ch_arrays_bit_exactly(typed_model, tmp_path):
    typed = typed_model
    assert typed.fallback.graph.has_ch  # finalize builds CH per class
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


def test_new_saves_are_stamped_version_7(ch_model, tmp_path):
    with np.load(ch_model.save(tmp_path / "m.npz")) as data:
        tag = data["format"]
        assert str(tag[0]) == habit_mod.MODEL_FORMAT and str(tag[1]) == "7"
        for key in habit_mod._CH_KEYS:
            assert key in data.files, key
        state = ch_model._state.payload(habit_mod._STATE_PREFIX)
        for key in state:
            assert key in data.files, key


def test_versions_outside_the_window_are_rejected(ch_model, tmp_path):
    payload = _payload(ch_model.save(tmp_path / "m.npz"))
    for bad in ("2", "3", "4", "5", "6", "8"):
        payload["format"] = np.array([habit_mod.MODEL_FORMAT, bad])
        bad_path = tmp_path / f"bad{bad}.npz"
        np.savez(bad_path, **payload)
        with pytest.raises(ModelFormatError, match="format version"):
            HabitImputer.load(bad_path)


def _set_config_slot(slot, value):
    def plant(payload):
        payload["config"][slot] = value

    return plant


def _drop(key):
    return lambda payload: payload.pop(key)


def _shorten_config(payload):
    payload["config"] = payload["config"][:3]


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
_TYPED_DEFECTS = {
    "no_min_group_rows": _drop("min_group_rows"),
    "no_groups": _drop("groups"),
    "no_g0_cells": _drop("g0_cells"),
    "no_state_c0_meta": _drop("state_c0_meta"),
    "no_state_fallback_cell_counts": _drop("state_fallback_cell_counts"),
    "no_class_states": _set_array("state_groups", np.array([], dtype=np.str_)),
}
_ALL_DEFECTS = {**_DEFECTS, **_PLAIN_DEFECTS, **_TYPED_DEFECTS}
_CASES = [(False, name) for name in {**_DEFECTS, **_PLAIN_DEFECTS}] + [
    (True, name) for name in {**_DEFECTS, **_TYPED_DEFECTS}
]


@pytest.mark.parametrize(
    "typed,defect",
    _CASES,
    ids=[f"{'typed' if typed else 'plain'}-{name}" for typed, name in _CASES],
)
def test_malformed_files_raise_format_error_and_refit(
    ch_model, typed_model, tmp_path, typed, defect
):
    """A malformed model file is a :class:`ModelFormatError`, never a bare
    ``KeyError``/``IndexError``/``ValueError`` -- so a registry with a
    fitter refits it instead of failing every request for its id."""
    model = typed_model if typed else ch_model
    registry = ModelRegistry(
        tmp_path / "registry", fitter=lambda dataset, config, typed=False: model
    )
    path = registry.path_for("KIEL", model.config, typed)
    payload = _payload(model.save(tmp_path / "good.npz"))
    _ALL_DEFECTS[defect](payload)
    np.savez(path, **payload)
    loader = TypedHabitImputer if typed else HabitImputer
    with pytest.raises(ModelFormatError):
        loader.load(path)
    _, _, source = registry.get("KIEL", model.config, typed=typed)
    assert source == "fit"
