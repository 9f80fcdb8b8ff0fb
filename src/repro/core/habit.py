"""HABIT: the paper's data-driven, grid-based trajectory imputer.

Fitting aggregates historical trips into cell/transition statistics and
freezes them into a :class:`repro.core.graph.CellGraph`; queries only
read the graph, so fitted models can be shared, cached, or sharded
freely (a property the serving layer relies on).

Fitting is incremental: :meth:`HabitImputer.fit_partial` folds one shard
or streamed chunk of trips into a mergeable
:class:`repro.core.statistics.StatisticsState`, :meth:`HabitImputer.merge`
absorbs another imputer's (or raw) state, and
:meth:`HabitImputer.finalize` freezes the accumulated state into the
graph.  :meth:`HabitImputer.fit_from_trips` is the one-shot wrapper, and
:meth:`HabitImputer.update` refreshes an already-finalised model in place
from new trips -- only the (cheap) graph rebuild is repeated, never the
pass over historical rows.  ``revision`` counts those refreshes and rides
into serving provenance.

A query snaps both gap endpoints to graph nodes (memoized per graph),
routes over the CSR search engine (``HabitConfig.search`` picks the
variant: Dijkstra, A*, or the default contraction-hierarchy search --
all provably equal-cost), projects the
cell path to positions (cell centres
or per-cell medians), simplifies with RDP at ``tolerance_m``, and pins
the exact endpoints.  The three stages are public --
:meth:`HabitImputer.snap_endpoints`, :meth:`HabitImputer.route`,
:meth:`HabitImputer.render_path` -- so the serving layer can cache
search results keyed by snapped endpoints.  When no route exists the
imputer degrades to a straight line, flagged in ``ImputedPath.method``.
"""

import hashlib
import json
import os
import threading
import zipfile
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.core.graph import EDGE_WEIGHTS, PROJECTIONS, SEARCH_METHODS, CellGraph
from repro.core.path import ImputedPath, resample_polyline_xy, straight_line_path
from repro.core.statistics import StatisticsState, partial_statistics
from repro.geo.proj import latlng_to_xy_m
from repro.geo.simplify import rdp_keep_indices
from repro.hexgrid import grid_distance, latlng_to_cell
from repro.obs import METRICS

_FIT_SECONDS = METRICS.histogram(
    "repro_fit_seconds",
    "Fit-pipeline stage duration in seconds (partial fold, state merge, "
    "graph finalize including search preprocessing).",
    ("stage",),
)

__all__ = ["HabitConfig", "HabitImputer", "ModelFormatError", "config_hash"]

#: On-disk model format tag and version.  Bumped whenever the ``.npz``
#: layout changes; version-1 files predate the tag and are rejected with
#: a clear error instead of being mis-read.  Version 3 added the model
#: revision and the optional mergeable fit state that powers
#: :meth:`HabitImputer.update` after a load.  Version 4 added the search
#: config fields (and ALT landmark tables, a search variant since
#: removed: loaders ignore the arrays).  Version 5 added the optional
#: contraction-hierarchy arrays (node order + upward/downward shortcut
#: CSRs with middle-node back-pointers).  Version-3/-4 files still
#: load; a hierarchy their payload lacks is rebuilt on demand at the
#: first query that needs it.
MODEL_FORMAT = "habit-npz"
MODEL_FORMAT_VERSION = 5
MIN_MODEL_FORMAT_VERSION = 3

#: Prefix under which a model's mergeable fit state is stored in the npz.
_STATE_PREFIX = "state_"

#: The flat arrays that fully describe a :class:`CellGraph`, in the
#: positional order of its constructor.
_GRAPH_KEYS = (
    "cells",
    "lats",
    "lngs",
    "edge_src",
    "edge_dst",
    "edge_cost",
    "edge_count",
)


#: The landmark count of the removed ALT search, frozen at its old
#: default: :func:`config_hash` still hashes it and model files still
#: store it in config slot 9, so digests -- and with them every
#: ``{DATASET}_{hash}.npz`` already on disk -- stay unchanged.
_LEGACY_NUM_LANDMARKS = 8

#: Stored search variants that no longer exist, read back as the
#: equal-cost default (the hierarchy is rebuilt on demand).
_LEGACY_SEARCH = {"alt": "ch", "bidirectional": "ch"}


class ModelFormatError(ValueError):
    """A model file is not a readable, current-version ``.npz`` artefact."""


def config_hash(config):
    """Stable 12-hex digest of a :class:`HabitConfig`.

    Hashes the JSON-serialised field dict (plus the frozen legacy
    ``num_landmarks`` entry), so the digest is identical across
    processes and Python versions (unlike ``hash()``, which is salted
    per run).  Registries and caches key fitted models on
    ``(dataset, config_hash)``.
    """
    fields = {**asdict(config), "num_landmarks": _LEGACY_NUM_LANDMARKS}
    payload = json.dumps(fields, sort_keys=True)
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:12]


# -- shared .npz payload helpers (also used by the typed variant) ---------


def _format_array(kind):
    return np.array([kind, str(MODEL_FORMAT_VERSION)])


def _check_format(data, kind, path):
    """Validate the format tag of an opened ``np.load`` mapping.

    Returns the (integer) format version so loaders can branch on it;
    versions ``MIN_MODEL_FORMAT_VERSION..MODEL_FORMAT_VERSION`` are
    readable, anything else fails loudly.
    """
    if "format" not in data.files:
        raise ModelFormatError(
            f"{path}: no format tag; not a {kind!r} model "
            "(or written by a pre-versioning release)"
        )
    tag = data["format"]
    name, version = str(tag[0]), str(tag[1])
    if name != kind:
        raise ModelFormatError(f"{path}: format {name!r}, expected {kind!r}")
    try:
        parsed = int(version)
    except ValueError:
        parsed = -1
    if not MIN_MODEL_FORMAT_VERSION <= parsed <= MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: format version {version}, this build reads versions "
            f"{MIN_MODEL_FORMAT_VERSION}..{MODEL_FORMAT_VERSION}"
        )
    return parsed


#: Optional per-graph contraction-hierarchy arrays (format v5+), in the
#: positional order of :meth:`repro.core.graph.CellGraph.set_ch`; absent
#: in pre-v5 files and in models whose graphs never built the hierarchy
#: (it is then rebuilt on demand at the first ``"ch"`` query).
_CH_KEYS = (
    "ch_rank",
    "ch_up_indptr",
    "ch_up_indices",
    "ch_up_costs",
    "ch_up_middle",
    "ch_down_indptr",
    "ch_down_indices",
    "ch_down_costs",
    "ch_down_middle",
)


def _graph_payload(graph, prefix=""):
    payload = {prefix + key: getattr(graph, key) for key in _GRAPH_KEYS}
    if graph.has_ch:
        payload.update({prefix + key: getattr(graph, key) for key in _CH_KEYS})
    return payload


def _graph_from_npz(data, path, prefix=""):
    missing = [key for key in _GRAPH_KEYS if prefix + key not in data.files]
    if missing:
        raise ModelFormatError(f"{path}: missing graph arrays {missing}")
    graph = CellGraph(*(data[prefix + key] for key in _GRAPH_KEYS))
    if all(prefix + key in data.files for key in _CH_KEYS):
        graph.set_ch(*(data[prefix + key] for key in _CH_KEYS))
    return graph


def _config_payload(config):
    return np.array(
        [
            str(config.resolution),
            str(config.tolerance_m),
            config.projection,
            config.edge_weight,
            str(int(config.approx_distinct)),
            str(config.snap_max_ring),
            str(config.snap_limit_cells),
            str(config.resample_m),
            config.search,
            str(_LEGACY_NUM_LANDMARKS),
        ]
    )


def _config_from_npz(raw):
    kwargs = dict(
        resolution=int(raw[0]),
        tolerance_m=float(raw[1]),
        projection=str(raw[2]),
        edge_weight=str(raw[3]),
        approx_distinct=bool(int(raw[4])),
        snap_max_ring=int(raw[5]),
        snap_limit_cells=int(raw[6]),
        resample_m=float(raw[7]),
    )
    if len(raw) > 8:  # format v4+; v3 configs fall back to field defaults
        search = str(raw[8])
        kwargs["search"] = _LEGACY_SEARCH.get(search, search)
    return HabitConfig(**kwargs)


def _open_npz(path):
    """``np.load`` with unreadable archives mapped to ModelFormatError.

    Non-zip bytes surface as ``ValueError`` (numpy's pickle fallback),
    truncated/corrupt zips as ``zipfile.BadZipFile``; both mean the same
    thing to callers.  Missing files keep raising ``OSError``.
    """
    try:
        return np.load(path)
    except (ValueError, zipfile.BadZipFile) as exc:
        raise ModelFormatError(f"{path}: not an .npz model archive ({exc})") from exc


def _normalize_npz_path(path):
    """Mirror ``np.savez``'s suffix handling so the returned path is real."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


def _atomic_savez(path, payload):
    """``np.savez`` via a same-directory temp file + ``os.replace``.

    Model files are republished *in place* by the registry's refresh
    path while other processes (pool workers, sibling daemons) may be
    loading them; a write-in-place ``np.savez`` would expose truncated
    zips to those readers.  The rename is atomic on POSIX, so readers
    see either the old or the new artefact, never a torn one.  The temp
    name is pid *and* thread unique -- two threads of one daemon (say, a
    publish racing a follow refresh) must not interleave writes into a
    shared temp file either.
    """
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}-{threading.get_ident()}")
    try:
        with open(tmp, "wb") as handle:
            np.savez(handle, **payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass(frozen=True)
class HabitConfig:
    """Tuning knobs for :class:`HabitImputer`.

    - ``resolution``: hex grid resolution (paper sweep: 6..10).
    - ``tolerance_m``: RDP simplification tolerance; 0 disables smoothing.
    - ``projection``: node placement, ``"center"`` or ``"median"``.
    - ``edge_weight``: ``"transitions"`` (paper) or ``"inverse_frequency"``.
    - ``approx_distinct``: HyperLogLog vs exact distinct vessels in stats.
    - ``snap_max_ring``: hex rings searched before the snap full-scan.
    - ``snap_limit_cells``: reject a snap farther than this many grid
      steps from the query endpoint -- queries far outside the trained
      coverage degrade to the straight-line fallback instead of routing
      through an arbitrarily distant corridor.
    - ``resample_m``: output point spacing; simplified paths are resampled
      back to AIS-like density so point-to-point metrics stay comparable.
    - ``search``: query search variant -- ``"ch"`` (default; contraction
      hierarchy precomputed at :meth:`HabitImputer.finalize`, the fewest
      expansions per query), ``"astar"`` (the paper's query), or
      ``"dijkstra"`` (the cost oracle).  All return equal-cost paths;
      they differ only in nodes expanded per query.

    An unknown ``projection``, ``edge_weight`` or ``search`` raises
    ``ValueError`` at construction, before any fit can start.
    """

    resolution: int = 9
    tolerance_m: float = 100.0
    projection: str = "center"
    edge_weight: str = "transitions"
    approx_distinct: bool = True
    snap_max_ring: int = 8
    snap_limit_cells: int = 200
    resample_m: float = 250.0
    search: str = "ch"

    def __post_init__(self):
        for name, choices in (
            ("projection", PROJECTIONS),
            ("edge_weight", EDGE_WEIGHTS),
            ("search", SEARCH_METHODS),
        ):
            value = getattr(self, name)
            if value not in choices:
                raise ValueError(
                    f"unknown {name} {value!r}; expected one of {choices}"
                )


class HabitImputer:
    """Imputes trajectory gaps by routing over learned cell transitions."""

    def __init__(self, config=None):
        self.config = config or HabitConfig()
        self.graph = None
        self.cell_stats = None
        self.transition_stats = None
        #: Accumulated mergeable fit state (None until a partial fit).
        self._state = None
        #: The state the current graph was built from -- states are
        #: immutable and rebound on every fold, so identity against
        #: ``_state`` is an exact "graph is stale" test (the typed
        #: refresh path uses it to skip rebuilding untouched classes).
        self._finalized_state = None
        #: Bumped by every :meth:`update`; surfaced in serving provenance.
        self.revision = 1

    # -- fitting ----------------------------------------------------------

    def fit_partial(self, trips):
        """Fold one shard/chunk of segmented trips into the fit state.

        Does not touch the graph; call :meth:`finalize` once every shard
        is in.  Chunks must hold whole trips (see
        :mod:`repro.core.statistics`).  Returns self.
        """
        with _FIT_SECONDS.time(("partial",)):
            state = partial_statistics(trips, self.config)
            if self._state is None:
                self._state = state
            else:
                self._state = StatisticsState.merged([self._state, state])
        return self

    def merge(self, other):
        """Absorb another imputer's (or a raw) partial fit state; returns self.

        *other* is a :class:`repro.core.statistics.StatisticsState` or a
        :class:`HabitImputer` carrying one.  States are never mutated, so
        the donor keeps working.
        """
        state = other._state if isinstance(other, HabitImputer) else other
        if state is None:
            raise ValueError("cannot merge an imputer with no fit state")
        with _FIT_SECONDS.time(("merge",)):
            if self._state is None:
                self._state = state
            else:
                self._state = StatisticsState.merged([self._state, state])
        return self

    def finalize(self):
        """Freeze the accumulated state into statistics + cell graph."""
        if self._state is None:
            raise RuntimeError("HabitImputer.finalize called with no fit state")
        with _FIT_SECONDS.time(("finalize",)):
            cell_stats, transition_stats = self._state.finalize()
            self.cell_stats = cell_stats
            self.transition_stats = transition_stats
            self.graph = CellGraph.from_statistics(
                cell_stats,
                transition_stats,
                projection=self.config.projection,
                edge_weight=self.config.edge_weight,
            )
            if self.config.search == "ch":
                # Pay hierarchy preprocessing once at fit time; it rides
                # in the (v5) model payload so loads skip this.
                self.graph.ensure_ch()
            self._finalized_state = self._state
        return self

    def fit_from_trips(self, trips):
        """Learn the cell graph from a segmented trip table; returns self."""
        self._state = None
        self.revision = 1
        return self.fit_partial(trips).finalize()

    def update(self, trips):
        """Incremental refresh: merge new trips, rebuild the graph, bump
        ``revision``.  Only the graph rebuild repeats -- historical rows
        live on solely as merged sketch state.  Returns self.
        """
        if self.graph is not None and self._state is None:
            raise ValueError(
                "model was saved without its fit state and cannot be "
                "updated incrementally; refit from the full history"
            )
        self.fit_partial(trips)
        self.revision += 1
        return self.finalize()

    def fork(self):
        """A fresh, unfinalised imputer sharing this model's fit state.

        The serving registry's refresh path never mutates a served
        instance: it forks the model, folds new data into the fork via
        :meth:`update`, and swaps the fork in.  States are immutable, so
        sharing one between the original and the fork is safe; the
        built graph rides along too (queries never mutate it beyond its
        own locked memos), which lets a typed refresh skip rebuilding
        classes the new chunk never touched.  Raises ``ValueError`` on a
        model saved without its fit state (there is nothing refreshable
        to share).
        """
        if self._state is None:
            raise ValueError(
                "model was saved without its fit state and cannot be "
                "refreshed incrementally; refit from the full history"
            )
        fresh = type(self)(self.config)
        fresh._state = self._state
        fresh._finalized_state = self._finalized_state
        fresh.graph = self.graph
        fresh.cell_stats = self.cell_stats
        fresh.transition_stats = self.transition_stats
        fresh.revision = self.revision
        return fresh

    def _require_fitted(self):
        if self.graph is None:
            raise RuntimeError("HabitImputer.impute called before fit_from_trips")

    # -- querying ---------------------------------------------------------

    def snap_endpoints(self, start, end):
        """Snap both ``(lat, lng)`` gap endpoints to graph node cells.

        Returns ``(src_cell, dst_cell)``, or ``None`` when the graph is
        empty or either snap lands beyond ``snap_limit_cells`` (the
        caller degrades to the straight-line fallback).  Snaps are
        memoized on the graph, so repeated endpoints cost a dict probe.
        """
        self._require_fitted()
        config = self.config
        if self.graph.num_nodes == 0:
            return None
        src_cell = latlng_to_cell(start[0], start[1], config.resolution)
        dst_cell = latlng_to_cell(end[0], end[1], config.resolution)
        src = self.graph.nearest_node(src_cell, config.snap_max_ring)
        dst = self.graph.nearest_node(dst_cell, config.snap_max_ring)
        if (
            grid_distance(src_cell, src) > config.snap_limit_cells
            or grid_distance(dst_cell, dst) > config.snap_limit_cells
        ):
            return None
        return src, dst

    def route(self, src_node, dst_node, method=None):
        """Search the cell graph between two snapped node cells.

        *method* defaults to ``config.search``; returns the
        :class:`repro.core.graph.SearchResult` (or ``None`` when no route
        exists).  This is the cacheable stage: the result depends only on
        the graph and the snapped endpoints, never on the raw query
        positions.
        """
        self._require_fitted()
        method = method or self.config.search
        if method == "ch":
            self.graph.ensure_ch()
        return self.graph.find_path(src_node, dst_node, method)

    def route_batch(self, pairs, method=None):
        """Search many snapped ``(src, dst)`` node-cell pairs in one call.

        The batch analogue of :meth:`route`: *method* defaults to
        ``config.search``, and with the default ``"ch"`` every
        non-degenerate pair is answered by one vectorised kernel sweep
        (:meth:`repro.core.graph.CellGraph.find_paths_batch`) instead of
        a Python heap loop per pair.  Returns a list aligned with
        *pairs* of :class:`repro.core.graph.SearchResult` (or ``None``
        for unreachable pairs) -- cost-identical to calling
        :meth:`route` per pair, which is what the serving layer's batch
        engine relies on when it caches the results individually.
        """
        self._require_fitted()
        method = method or self.config.search
        if method == "ch":
            self.graph.ensure_ch()
        return self.graph.find_paths_batch(pairs, method)

    def render_path(self, start, end, result):
        """Project a search result into an :class:`ImputedPath`.

        Positions come straight from the graph's flat arrays (no dict
        lookups), then RDP at ``tolerance_m``, resampling to
        ``resample_m``, and exact endpoint pinning.  ``None`` renders the
        flagged straight-line fallback.
        """
        if result is None:
            return straight_line_path(start, end, method="fallback")
        config = self.config
        graph = self.graph
        idx = np.asarray(result.node_indices, dtype=np.int64)
        lats = np.empty(len(idx) + 2)
        lngs = np.empty(len(idx) + 2)
        lats[0], lngs[0] = float(start[0]), float(start[1])
        lats[-1], lngs[-1] = float(end[0]), float(end[1])
        lats[1:-1] = graph.lats[idx]
        lngs[1:-1] = graph.lngs[idx]
        # One projection feeds both simplification and resampling.
        x = y = None
        if config.tolerance_m > 0.0 and len(lats) > 2:
            x, y = latlng_to_xy_m(lats, lngs)
            kept = rdp_keep_indices(x, y, config.tolerance_m)
            lats, lngs, x, y = lats[kept], lngs[kept], x[kept], y[kept]
        if config.resample_m > 0.0 and len(lats) >= 2:
            if x is None:
                x, y = latlng_to_xy_m(lats, lngs)
            lats, lngs = resample_polyline_xy(lats, lngs, x, y, config.resample_m)
        return ImputedPath(
            lats=lats,
            lngs=lngs,
            method=result.method,
            cells=result.cells,
            expanded=result.expanded,
        )

    def impute(self, start, end, use_heuristic=True, method=None):
        """Reconstruct the path between two ``(lat, lng)`` gap endpoints.

        *method* overrides the configured search variant for this query;
        ``use_heuristic=False`` is the legacy spelling for ``"dijkstra"``
        (the A* ablation's control arm).
        """
        self._require_fitted()
        snapped = self.snap_endpoints(start, end)
        if snapped is None:
            return straight_line_path(start, end, method="fallback")
        if method is None:
            method = self.config.search if use_heuristic else "dijkstra"
        return self.render_path(start, end, self.route(snapped[0], snapped[1], method))

    # -- persistence ------------------------------------------------------

    def storage_size_bytes(self):
        """Model footprint: the graph's flat arrays."""
        self._require_fitted()
        return self.graph.storage_size_bytes()

    def save(self, path, include_state=True):
        """Serialise the fitted model to an ``.npz`` file; returns the path.

        With *include_state* (the default) the mergeable fit state rides
        along, so a loaded model can keep absorbing new data via
        :meth:`update`; pass ``False`` for a leaner, serve-only artefact.
        """
        self._require_fitted()
        path = _normalize_npz_path(path)
        payload = {
            "format": _format_array(MODEL_FORMAT),
            "config": _config_payload(self.config),
            "revision": np.array([self.revision], dtype=np.int64),
            **_graph_payload(self.graph),
        }
        if include_state and self._state is not None:
            payload.update(self._state.payload(_STATE_PREFIX))
        _atomic_savez(path, payload)
        return path

    @classmethod
    def load(cls, path):
        """Restore a model saved with :meth:`save`.

        Raises :class:`ModelFormatError` when *path* is not a readable
        habit model (wrong kind, out-of-range version, missing arrays,
        or not an ``.npz`` archive at all).  Format-v3 files load with
        default search settings; v4+ files restore the stored search
        variant (a removed ``"alt"`` or ``"bidirectional"`` reads as
        ``"ch"``, and landmark arrays are ignored); v5 files also
        restore the contraction hierarchy, which is otherwise rebuilt
        on demand at the first query that needs it.  Models
        saved with their fit state come back refreshable; state-less
        artefacts load fine but reject :meth:`update`.
        """
        path = Path(path)
        with _open_npz(path) as data:
            _check_format(data, MODEL_FORMAT, path)
            imputer = cls(_config_from_npz(data["config"]))
            imputer.graph = _graph_from_npz(data, path)
            imputer.revision = int(data["revision"][0])
            if _STATE_PREFIX + "meta" in data.files:
                imputer._state = StatisticsState.from_payload(data, _STATE_PREFIX)
                # The persisted graph was built from this very state.
                imputer._finalized_state = imputer._state
        return imputer
