"""Vessel-type-aware HABIT: one cell graph per traffic class.

Mixed-traffic waters (the SAR dataset) blend motion patterns -- a fishing
vessel's loops teach a cargo router bad habits.  :class:`TypedHabitImputer`
fits one :class:`repro.core.habit.HabitImputer` per vessel type with
enough support, plus a global fallback for thin classes and untyped
queries.  This is the paper's future-work extension, ablated in
``bench_ablation_typed``.

Fitting mirrors the plain imputer's incremental shape:
:meth:`TypedHabitImputer.fit_partial` splits each chunk by vessel class
and folds it into per-class :class:`repro.core.statistics.StatisticsState`s
(held by per-class ``HabitImputer``s) plus the global fallback state;
:meth:`TypedHabitImputer.finalize` freezes a graph for every class whose
*accumulated* support reached ``min_group_rows`` -- so a thin class can be
promoted to its own graph once enough of its traffic has streamed in --
and :meth:`TypedHabitImputer.update` refreshes all graphs from new trips
without ever re-reading history.  Every per-class state rides inside
the typed ``.npz`` container, so a loaded typed model keeps refreshing --
and so does every class graph's contraction hierarchy, so a loaded
typed model answers its first query without paying per-class
preprocessing.
"""

from pathlib import Path

import numpy as np

from repro.ais import schema
from repro.core.habit import (
    HabitConfig,
    HabitImputer,
    ModelFormatError,
    _atomic_savez,
    _check_format,
    _config_from_npz,
    _config_payload,
    _format_array,
    _graph_arrays,
    _graph_from_npz,
    _graph_payload,
    _normalize_npz_path,
    _open_npz,
    _state_from_npz,
)

__all__ = ["TypedHabitImputer"]

#: Format tag for the typed multi-graph ``.npz`` layout -- distinct from
#: the single-graph ``habit-npz`` so loading one as the other fails with
#: a clear :class:`repro.core.habit.ModelFormatError`.
TYPED_MODEL_FORMAT = "typed-habit-npz"

#: Prefixes under which the mergeable per-class fit states live in the
#: container.  ``state_groups`` lists every class carrying a state
#: (a superset of ``groups``: thin classes accumulate state before they
#: earn a graph); class *i* of that list stores under ``state_c{i}_``,
#: the fallback under ``state_fallback_``.
_STATE_GROUPS_KEY = "state_groups"
_FALLBACK_STATE_PREFIX = "state_fallback_"

#: Arrays every typed model file carries ahead of its class graphs.
_HEADER_ARRAYS = (
    "config",
    "min_group_rows",
    "revision",
    "groups",
    *_graph_arrays("fallback_"),
    _STATE_GROUPS_KEY,
    _FALLBACK_STATE_PREFIX + "meta",
)


class TypedHabitImputer:
    """Routes each gap query on its vessel class's own transition graph.

    Fit either one-shot (:meth:`fit_from_trips`) or incrementally
    (:meth:`fit_partial` per chunk, then :meth:`finalize`); after a fit,
    :meth:`update` folds newly arrived trips into every class state and
    rebuilds only the (cheap) graphs, bumping ``revision``.  Queries
    resolve a class graph via :meth:`resolve` and never mutate the model.
    """

    def __init__(self, config=None, min_group_rows=1000):
        self.config = config or HabitConfig()
        self.min_group_rows = min_group_rows
        #: Vessel classes that earned their own graph (support >=
        #: ``min_group_rows``): class name -> finalised ``HabitImputer``.
        self.by_type = {}
        self.fallback = None
        #: Every class seen so far, promoted or not: class name ->
        #: state-carrying ``HabitImputer`` (graph only once promoted).
        #: ``by_type`` values are aliases into this dict.
        self._partials = {}
        #: Incremental-refresh counter, mirrored onto every class imputer
        #: at :meth:`finalize` so serve-path cache keys (which read the
        #: class imputer's revision) invalidate on typed refreshes too.
        self.revision = 1

    @property
    def fitted_groups(self):
        """Vessel types that received their own graph, sorted."""
        return sorted(self.by_type)

    # -- fitting ----------------------------------------------------------

    def fit_partial(self, trips):
        """Fold one chunk of segmented trips into the per-class fit states.

        The chunk is split by vessel class; each class's rows land in its
        own mergeable state (created on first sight) and every row also
        feeds the global fallback state.  No graphs are touched; call
        :meth:`finalize` once every chunk is in.  Chunks must hold whole
        trips.  Returns self.
        """
        if self.fallback is None:
            self.fallback = HabitImputer(self.config)
        self.fallback.fit_partial(trips)
        types = np.asarray(trips.column(schema.VESSEL_TYPE))
        for vessel_type in np.unique(types):
            group = trips.filter(types == vessel_type)
            name = str(vessel_type)
            if name not in self._partials:
                self._partials[name] = HabitImputer(self.config)
            self._partials[name].fit_partial(group)
        return self

    def merge(self, other):
        """Absorb another typed imputer's accumulated fit states; returns self.

        Class states present on both sides merge; classes only *other*
        has seen are adopted (states are immutable, so they are shared,
        never copied).  Both imputers must carry states.
        """
        if not isinstance(other, TypedHabitImputer):
            raise TypeError("TypedHabitImputer.merge expects a TypedHabitImputer")
        if self.fallback is None:
            raise ValueError("cannot merge into a typed imputer with no fit state")
        if other.fallback is None:
            raise ValueError("cannot merge a typed imputer with no fit state")
        self.fallback.merge(other.fallback)
        for name, imputer in other._partials.items():
            if name in self._partials:
                self._partials[name].merge(imputer)
            else:
                adopted = HabitImputer(self.config)
                adopted._state = imputer._state
                self._partials[name] = adopted
        return self

    def finalize(self):
        """Freeze graphs: the fallback plus every class with enough support.

        Promotion is by *accumulated* support: a class reaches its own
        graph as soon as its states total ``min_group_rows`` rows, even
        if no single chunk did.  Classes whose state is untouched since
        their last finalize keep their existing graph -- a refresh whose
        chunk only carried cargo traffic does not pay N-1 other classes'
        graph (and hierarchy) rebuilds -- and keep their ``revision``
        too, so their serve-path cache entries stay warm; only rebuilt
        imputers take the typed model's new revision.  Returns self.
        """
        if self.fallback is None:
            raise RuntimeError("TypedHabitImputer.finalize called with no fit state")
        refreshed = []
        if (
            self.fallback.graph is None
            or self.fallback._state is not self.fallback._finalized_state
        ):
            self.fallback.finalize()
            refreshed.append(self.fallback)
        self.by_type = {}
        for name in sorted(self._partials):
            imputer = self._partials[name]
            if imputer._state.num_positions < self.min_group_rows:
                continue
            if imputer.graph is None or imputer._state is not imputer._finalized_state:
                imputer.finalize()
                refreshed.append(imputer)
            self.by_type[name] = imputer
        # Only rebuilt imputers take the new revision: an untouched
        # class's graph (and therefore every cached route on it) is
        # byte-identical, and bumping its revision would invalidate the
        # serve-path cache for nothing.
        for imputer in refreshed:
            imputer.revision = self.revision
        return self

    def fit_from_trips(self, trips):
        """Fit per-type graphs plus the global fallback; returns self."""
        self.fallback = None
        self.by_type = {}
        self._partials = {}
        self.revision = 1
        return self.fit_partial(trips).finalize()

    def update(self, trips):
        """Incremental refresh across every class: merge new trips into
        the per-class states, rebuild the graphs, bump ``revision``.

        Results are equivalent to a full refit on the concatenated
        history (exactly for graph topology and transition counts,
        within t-digest tolerance for median projections).
        """
        self.fit_partial(trips)
        self.revision += 1
        return self.finalize()

    def fork(self):
        """A fresh, unfinalised typed imputer sharing every class state.

        The registry's refresh path forks the served model, updates the
        fork, and swaps it in -- in-flight queries keep the old graphs.
        """
        fresh = TypedHabitImputer(self.config, min_group_rows=self.min_group_rows)
        fresh.fallback = self.fallback.fork()
        fresh._partials = {name: imp.fork() for name, imp in self._partials.items()}
        fresh.revision = self.revision
        return fresh

    # -- querying ---------------------------------------------------------

    def resolve(self, vessel_type=None):
        """Pick the graph for a vessel class: ``(imputer, class_tag)``.

        ``class_tag`` is the resolved group name (``""`` for the global
        fallback) -- the serving layer folds it into its path-cache key
        so two classes never share cached routes.
        """
        if self.fallback is None:
            raise RuntimeError("TypedHabitImputer.impute called before fit_from_trips")
        key = str(vessel_type) if vessel_type is not None else None
        imputer = self.by_type.get(key)
        if imputer is None:
            return self.fallback, ""
        return imputer, key

    def impute(self, start, end, vessel_type=None):
        """Impute on the type's graph, falling back to the global one."""
        imputer, _ = self.resolve(vessel_type)
        return imputer.impute(start, end)

    def storage_size_bytes(self):
        """Total footprint across the fallback and all typed graphs."""
        if self.fallback is None:
            raise RuntimeError("TypedHabitImputer not fitted")
        total = self.fallback.storage_size_bytes()
        return total + sum(i.storage_size_bytes() for i in self.by_type.values())

    # -- persistence ------------------------------------------------------

    def save(self, path):
        """Serialise the fallback and every per-type graph to one ``.npz``.

        Every class's mergeable fit state -- including classes still
        below ``min_group_rows`` -- rides along in the container, so a
        loaded typed model keeps refreshing incrementally.
        """
        if self.fallback is None or self.fallback.graph is None:
            raise RuntimeError(
                "TypedHabitImputer not fitted (finalize() accumulated "
                "partial fits before saving)"
            )
        # A graph paired with a *newer* state must never be persisted:
        # load() records each persisted graph as built from the persisted
        # state, and the refresh path's skip-untouched-classes check
        # would then keep serving the stale graph forever.
        for imputer in (self.fallback, *self._partials.values()):
            if imputer.graph is not None and imputer._state is not imputer._finalized_state:
                raise RuntimeError(
                    "TypedHabitImputer has partial fits newer than its "
                    "graphs; call finalize() before save()"
                )
        path = _normalize_npz_path(path)
        groups = self.fitted_groups
        state_groups = sorted(self._partials)
        payload = {
            "format": _format_array(TYPED_MODEL_FORMAT),
            "config": _config_payload(self.config),
            "min_group_rows": np.array([self.min_group_rows], dtype=np.int64),
            "revision": np.array([self.revision], dtype=np.int64),
            # dtype=str sizes the array to the longest name -- never truncate.
            "groups": np.array(groups, dtype=np.str_),
            **_graph_payload(self.fallback.graph, "fallback_"),
            _STATE_GROUPS_KEY: np.array(state_groups, dtype=np.str_),
            **self.fallback._state.payload(_FALLBACK_STATE_PREFIX),
        }
        for i, name in enumerate(groups):
            payload.update(_graph_payload(self.by_type[name].graph, f"g{i}_"))
        for i, name in enumerate(state_groups):
            payload.update(self._partials[name]._state.payload(f"state_c{i}_"))
        _atomic_savez(path, payload)
        return path

    @classmethod
    def load(cls, path):
        """Restore a model saved with :meth:`save`.

        Raises :class:`repro.core.habit.ModelFormatError` on kind/version
        mismatch, missing arrays (:func:`_required_arrays`), a bad config
        or a bad fit state.  A loaded typed model comes back fully
        refreshable, thin classes included.
        """
        path = Path(path)
        with _open_npz(path) as data:
            _check_format(data, TYPED_MODEL_FORMAT, path, _required_arrays(data))
            config = _config_from_npz(data["config"], path)
            typed = cls(config, min_group_rows=int(data["min_group_rows"][0]))
            typed.revision = int(data["revision"][0])
            typed.fallback = HabitImputer(config)
            typed.fallback.graph = _graph_from_npz(data, path, "fallback_")
            typed.fallback._state = _state_from_npz(data, path, _FALLBACK_STATE_PREFIX)
            for i, name in enumerate(data[_STATE_GROUPS_KEY]):
                imputer = HabitImputer(config)
                imputer._state = _state_from_npz(data, path, f"state_c{i}_")
                typed._partials[str(name)] = imputer
            for i, name in enumerate(map(str, data["groups"])):
                imputer = typed._partials.get(name)
                if imputer is None:
                    raise ModelFormatError(f"{path}: class {name!r} has no fit state")
                imputer.graph = _graph_from_npz(data, path, f"g{i}_")
                typed.by_type[name] = imputer
            for imputer in (typed.fallback, *typed._partials.values()):
                imputer.revision = typed.revision
                if imputer.graph is not None:
                    # The persisted graph was built from this very state.
                    imputer._finalized_state = imputer._state
        return typed


def _required_arrays(data):
    """Every array a typed file must carry: the fixed header, the
    fallback graph and state, and the graph of each class ``groups``
    lists; the per-class states are checked by ``_state_from_npz``."""
    groups = data["groups"] if "groups" in data.files else ()
    return _HEADER_ARRAYS + tuple(
        key for i in range(len(groups)) for key in _graph_arrays(f"g{i}_")
    )
