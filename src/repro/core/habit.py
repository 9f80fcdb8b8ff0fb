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

A query snaps both gap endpoints to graph nodes, routes over the
graph's contraction hierarchy (built at :meth:`HabitImputer.finalize`),
projects the cell path to positions (cell centres or per-cell mean
positions), pins the exact endpoints, simplifies with RDP at
:data:`RDP_TOLERANCE_M` and resamples to :data:`repro.core.path.RESAMPLE_M`.
The stages -- :meth:`HabitImputer.snap_endpoints`,
:meth:`HabitImputer.route_batch`, :meth:`HabitImputer.render_paths`
(itself :meth:`HabitImputer.simplify_paths`, then the resample) --
are public and form one sequence, which :meth:`HabitImputer.impute_batch`
runs offline (:meth:`HabitImputer.impute` is its one-gap form) and the
serving engine runs around its answer cache.  When no route exists the
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

from repro.core.graph import PROJECTIONS, CellGraph
from repro.core.path import ImputedPath, resample_blocks
from repro.core.statistics import StatisticsState, partial_statistics
from repro.geo.proj import polylines_xy_m
from repro.geo.simplify import rdp_keep_indices_concat
from repro.hexgrid import grid_distance, latlng_to_cell
from repro.hexgrid.cells import _MAX_RES
from repro.obs import METRICS

_FIT_SECONDS = METRICS.histogram(
    "repro_fit_seconds",
    "Fit-pipeline stage duration in seconds (partial fold, state merge, "
    "graph finalize including search preprocessing).",
    ("stage",),
)

__all__ = ["HabitConfig", "HabitImputer", "ModelFormatError", "config_hash"]

#: On-disk model format tag and version.  Bumped whenever the ``.npz``
#: layout or the :func:`config_hash` digests change; this build reads
#: only the current version (an older file raises
#: :class:`ModelFormatError` until a refit replaces it).  Version 10 has
#: one layout: the two-field config, the model revision, the graph with
#: its contraction hierarchy and the mergeable fit state that powers
#: :meth:`HabitImputer.update` after a load -- all always present.
MODEL_FORMAT = "habit-npz"
MODEL_FORMAT_VERSION = 10

#: Prefix under which a model's mergeable fit state is stored in the npz.
_STATE_PREFIX = "state_"

#: A snap farther than this many grid steps from its query endpoint is
#: rejected, so queries far outside the trained coverage degrade to the
#: straight-line fallback instead of routing through a distant corridor.
SNAP_LIMIT_CELLS = 200

#: RDP tolerance, in metres, of every rendered path.  A render setting,
#: not part of a model's identity: the graph and fit state never depend
#: on it, and the paper's Figure 4 finds accuracy flat in it.  It is
#: 100 m because every served path has been rendered at 100 m, and a
#: new value moves served paths.  At r9 it keeps about half of a path's
#: cells; whether it should be one cell edge is ROADMAP item 12, gated
#: on the accuracy artefact.
RDP_TOLERANCE_M = 100.0

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

#: The graph's contraction-hierarchy arrays, in the positional order of
#: :meth:`repro.core.graph.CellGraph.set_ch`; every saved graph carries
#: them, so a loaded model answers its first query without preprocessing.
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


#: Arrays every model file carries; the fit state's remaining arrays
#: are checked by :func:`_state_from_npz`.
_REQUIRED_ARRAYS = ("config", "revision", *_GRAPH_KEYS, *_CH_KEYS, _STATE_PREFIX + "meta")


class ModelFormatError(ValueError):
    """A model file is not a readable, current-version ``.npz`` artefact."""


def config_hash(config):
    """Stable 12-hex digest of a :class:`HabitConfig`.

    Hashes the JSON-serialised field dict, so the digest is identical
    across processes and Python versions (unlike ``hash()``, which is
    salted per run).  Registries and caches key fitted models on
    ``(dataset, config_hash)``.
    """
    payload = json.dumps(asdict(config), sort_keys=True)
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:12]


# -- .npz payload helpers --------------------------------------------------


def _check_format(data, path):
    """Validate an opened ``np.load`` mapping before anything is parsed.

    The format tag must name :data:`MODEL_FORMAT` at
    :data:`MODEL_FORMAT_VERSION`, and every array in
    :data:`_REQUIRED_ARRAYS` must be present; anything else raises
    :class:`ModelFormatError`.  :meth:`HabitImputer.load` and the
    registry's revision peek share this check, so the peek accepts
    exactly what loads.
    """
    if "format" not in data.files:
        raise ModelFormatError(
            f"{path}: no format tag; not a {MODEL_FORMAT!r} model "
            "(or written by a pre-versioning release)"
        )
    tag = data["format"]
    name, version = str(tag[0]), str(tag[1])
    if name != MODEL_FORMAT:
        raise ModelFormatError(f"{path}: format {name!r}, expected {MODEL_FORMAT!r}")
    if version != str(MODEL_FORMAT_VERSION):
        raise ModelFormatError(
            f"{path}: format version {version}, this build reads only "
            f"version {MODEL_FORMAT_VERSION}"
        )
    missing = [key for key in _REQUIRED_ARRAYS if key not in data.files]
    if missing:
        raise ModelFormatError(f"{path}: missing arrays {missing}")


def _graph_payload(graph):
    graph.ensure_ch()
    return {key: getattr(graph, key) for key in _GRAPH_KEYS + _CH_KEYS}


def _graph_from_npz(data, path):
    """The saved graph (hierarchy and kernel tables installed); the
    arrays' presence was checked by :func:`_check_format`.  Edge costs
    that are not finite and positive, like a hierarchy ``set_ch``
    rejects, raise :class:`ModelFormatError`."""
    graph = CellGraph(*(data[key] for key in _GRAPH_KEYS))
    if not (np.isfinite(graph.edge_cost) & (graph.edge_cost > 0)).all():
        raise ModelFormatError(f"{path}: edge_cost must be finite and positive")
    try:
        graph.set_ch(*(data[key] for key in _CH_KEYS))
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
    return graph


def _config_payload(config):
    return np.array(
        [
            str(config.resolution),
            config.projection,
        ]
    )


def _config_from_npz(raw, path):
    """The :class:`HabitConfig` stored in *raw*; a short config or a
    value the config rejects raises :class:`ModelFormatError`."""
    try:
        return HabitConfig(
            resolution=int(raw[0]),
            projection=str(raw[1]),
        )
    except (IndexError, ValueError) as exc:
        raise ModelFormatError(f"{path}: bad config ({exc})") from exc


def _state_from_npz(data, path, prefix):
    """The fit state saved under *prefix*; a missing array or an
    unparseable value raises :class:`ModelFormatError`."""
    try:
        return StatisticsState.from_payload(data, prefix)
    except (KeyError, IndexError, ValueError) as exc:
        raise ModelFormatError(f"{path}: bad fit state {prefix!r} ({exc!r})") from exc


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
    - ``projection``: node placement, ``"center"`` or ``"mean"``.

    Edges are weighted by transition count and distinct vessels are
    estimated with HyperLogLog, as in the paper.  An unknown
    ``projection`` or a ``resolution`` outside the hex grid's ``[0, 15]``
    raises ``ValueError`` at construction, before any fit can start.
    The RDP tolerance is a render setting, not a config field (see
    :data:`RDP_TOLERANCE_M`).
    """

    resolution: int = 9
    projection: str = "center"

    def __post_init__(self):
        if not 0 <= self.resolution <= _MAX_RES:
            raise ValueError(
                f"resolution must be in [0, {_MAX_RES}], got {self.resolution!r}"
            )
        if self.projection not in PROJECTIONS:
            raise ValueError(
                f"unknown projection {self.projection!r}; expected one of {PROJECTIONS}"
            )


class HabitImputer:
    """Imputes trajectory gaps by routing over learned cell transitions."""

    def __init__(self, config=None):
        self.config = config or HabitConfig()
        self.graph = None
        #: Accumulated mergeable fit state (None until a partial fit).
        self._state = None
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
        """Freeze the accumulated state into the cell graph."""
        if self._state is None:
            raise RuntimeError("HabitImputer.finalize called with no fit state")
        with _FIT_SECONDS.time(("finalize",)):
            self.graph = CellGraph.from_statistics(
                *self._state.finalize(), projection=self.config.projection
            )
            # Pay hierarchy preprocessing once at fit time, kernel tables
            # included, so the published graph is serve-ready; the
            # hierarchy rides in the model payload so loads skip it.
            self.graph.ensure_ch()
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
        own locked memos) until :meth:`update` replaces it.
        """
        fresh = type(self)(self.config)
        fresh._state = self._state
        fresh.graph = self.graph
        fresh.revision = self.revision
        return fresh

    def _require_fitted(self):
        if self.graph is None:
            raise RuntimeError("HabitImputer.impute called before fit_from_trips")

    # -- querying ---------------------------------------------------------

    def snap_endpoints(self, start, end):
        """Snap both ``(lat, lng)`` gap endpoints to graph node cells.

        Returns ``(src_cell, dst_cell)``, or ``None`` when the graph is
        empty or either snap lands beyond :data:`SNAP_LIMIT_CELLS` (the
        caller degrades to the straight-line fallback).  An endpoint
        whose cell is a graph node snaps to itself with one lookup.
        """
        self._require_fitted()
        config = self.config
        if self.graph.num_nodes == 0:
            return None
        src_cell = latlng_to_cell(start[0], start[1], config.resolution)
        dst_cell = latlng_to_cell(end[0], end[1], config.resolution)
        src = self.graph.nearest_node(src_cell)
        dst = self.graph.nearest_node(dst_cell)
        if (
            grid_distance(src_cell, src) > SNAP_LIMIT_CELLS
            or grid_distance(dst_cell, dst) > SNAP_LIMIT_CELLS
        ):
            return None
        return src, dst

    def route_batch(self, pairs):
        """Search many snapped ``(src, dst)`` node-cell pairs in one call.

        Every non-degenerate pair is answered by one vectorised CH kernel
        sweep (:meth:`repro.core.graph.CellGraph.find_paths_batch`)
        instead of a Python heap loop per pair.  Returns a list aligned
        with *pairs* of :class:`repro.core.graph.SearchResult` (or
        ``None`` for unreachable pairs) -- the results a one-pair
        :meth:`~repro.core.graph.CellGraph.find_path` returns, which is
        what lets one kernel call answer a whole batch of gaps.
        """
        self._require_fitted()
        return self.graph.find_paths_batch(pairs)

    def render_path(self, start, end, result):
        """Project one search result into an :class:`ImputedPath`.

        The one-path form of :meth:`render_paths`; ``None`` renders the
        flagged straight-line fallback.  No query calls it: it stays
        because perfbench's traced runs wrap it by name.
        """
        return self.render_paths([start], [end], [result])[0]

    def simplify_paths(self, starts, ends, results, *, tolerance_m=RDP_TOLERANCE_M):
        """The geometry stage of :meth:`render_paths`: each search
        result's RDP-kept vertices.

        Returns a list aligned with *results*: a ``(4, k)`` float64
        block per routed result -- rows lat, lng and the path's own
        projection x, y -- and ``None`` where the result is ``None``.
        Positions come straight from the graph's flat arrays, gathered
        for every path with one concatenation of the results'
        node-index arrays, with the exact endpoints pinned at both ends;
        the routed paths are then projected once
        (:func:`repro.geo.proj.polylines_xy_m`, each path about its own
        mean latitude) and simplified in one
        :func:`repro.geo.simplify.rdp_keep_indices_concat` pass at
        *tolerance_m* (0 keeps every vertex).  Both keep every reduction
        per path, so a path's block does not depend on the others in the
        call.  The blocks are column slices of one array built for this
        call.
        """
        blocks = [None] * len(results)
        routed = [i for i, result in enumerate(results) if result is not None]
        if not routed:
            return blocks
        graph = self.graph
        sizes = np.array([len(results[i].node_indices) + 2 for i in routed])
        heads = np.cumsum(sizes) - sizes
        tails = heads + sizes - 1
        inner = np.ones(int(sizes.sum()), dtype=bool)
        inner[heads] = False
        inner[tails] = False
        nodes = np.concatenate([results[i].node_indices for i in routed])
        lats = np.empty(len(inner))
        lngs = np.empty(len(inner))
        lats[inner] = graph.lats[nodes]
        lngs[inner] = graph.lngs[nodes]
        lats[heads] = [float(starts[i][0]) for i in routed]
        lngs[heads] = [float(starts[i][1]) for i in routed]
        lats[tails] = [float(ends[i][0]) for i in routed]
        lngs[tails] = [float(ends[i][1]) for i in routed]
        # One projection feeds both simplification and resampling.
        x, y = polylines_xy_m(lats, lngs, sizes)
        if tolerance_m > 0.0:
            kept = rdp_keep_indices_concat(x, y, sizes, tolerance_m)
            sizes = np.diff(np.searchsorted(kept, tails + 1), prepend=0)
            lats, lngs, x, y = lats[kept], lngs[kept], x[kept], y[kept]
        block = np.stack((lats, lngs, x, y))
        bounds = np.cumsum(sizes).tolist()
        for i, lo, hi in zip(routed, [0, *bounds], bounds):
            blocks[i] = block[:, lo:hi]
        return blocks

    def render_paths(self, starts, ends, results, *, tolerance_m=RDP_TOLERANCE_M):
        """Project many search results into :class:`ImputedPath` objects.

        Returns the paths aligned with *results*: the two stages
        composed, :meth:`simplify_paths`' vertex blocks at *tolerance_m*
        sampled by :func:`repro.core.path.resample_blocks` (one
        :func:`repro.core.path.resample_polylines_xy` call to
        :data:`repro.core.path.RESAMPLE_M` spacing).  Both stages keep
        their reductions per path, so a path's render does not depend on
        the others in the call.  A ``None`` result renders the flagged
        straight-line fallback.
        """
        blocks = self.simplify_paths(starts, ends, results, tolerance_m=tolerance_m)
        return [
            ImputedPath(lats, lngs, method="fallback")
            if result is None
            else ImputedPath(lats, lngs, result.method, result.cells, result.expanded)
            for (lats, lngs), result in zip(resample_blocks(starts, ends, blocks), results)
        ]

    def impute_batch(self, starts, ends, *, tolerance_m=RDP_TOLERANCE_M):
        """Reconstruct many gaps from their ``(lat, lng)`` endpoints.

        The served sequence: one :meth:`snap_endpoints` per gap, one
        :meth:`route_batch` over the snapped pairs and one
        :meth:`render_paths` call, in which a gap that did not snap
        renders the flagged straight-line fallback.  Returns the
        :class:`ImputedPath` list aligned with *starts*; every path
        equals a one-gap :meth:`impute`'s bit for bit.  *tolerance_m*
        overrides the render's :data:`RDP_TOLERANCE_M` offline (0 skips
        RDP); serving always renders at the constant.
        """
        self._require_fitted()
        snapped = [self.snap_endpoints(s, e) for s, e in zip(starts, ends)]
        pairs = [pair for pair in snapped if pair is not None]
        searched = iter(self.route_batch(pairs) if pairs else ())
        results = [None if pair is None else next(searched) for pair in snapped]
        return self.render_paths(starts, ends, results, tolerance_m=tolerance_m)

    def impute(self, start, end, *, tolerance_m=RDP_TOLERANCE_M):
        """Reconstruct the path between two ``(lat, lng)`` gap endpoints."""
        return self.impute_batch([start], [end], tolerance_m=tolerance_m)[0]

    # -- persistence ------------------------------------------------------

    def storage_size_bytes(self):
        """Model footprint: the graph's flat arrays."""
        self._require_fitted()
        return self.graph.storage_size_bytes()

    def save(self, path):
        """Serialise the fitted model to an ``.npz`` file; returns the path.

        The mergeable fit state rides along, so a loaded model keeps
        absorbing new data via :meth:`update`.
        """
        self._require_fitted()
        path = _normalize_npz_path(path)
        payload = {
            "format": np.array([MODEL_FORMAT, str(MODEL_FORMAT_VERSION)]),
            "config": _config_payload(self.config),
            "revision": np.array([self.revision], dtype=np.int64),
            **_graph_payload(self.graph),
            **self._state.payload(_STATE_PREFIX),
        }
        _atomic_savez(path, payload)
        return path

    @classmethod
    def load(cls, path):
        """Restore a model saved with :meth:`save`.

        Raises :class:`ModelFormatError` when *path* is not a readable
        habit model (wrong kind, any version but
        :data:`MODEL_FORMAT_VERSION`, missing arrays, a bad config or fit
        state, a hierarchy :meth:`~repro.core.graph.CellGraph.set_ch`
        rejects, or not an ``.npz`` archive at all).  A loaded model is
        always refreshable.
        """
        path = Path(path)
        with _open_npz(path) as data:
            _check_format(data, path)
            imputer = cls(_config_from_npz(data["config"], path))
            imputer.graph = _graph_from_npz(data, path)
            imputer.revision = int(data["revision"][0])
            imputer._state = _state_from_npz(data, path, _STATE_PREFIX)
        return imputer
