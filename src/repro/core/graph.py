"""The learned cell-transition graph and its CSR search engine.

Nodes are hex cells with observed support; edges are observed directed
cell transitions.  Edge costs are denominated in *grid steps* and are
always >= the hex grid distance they span, which makes the grid-distance
heuristic exactly admissible (and consistent): every search variant
returns the same cost as plain Dijkstra, just expanding fewer nodes --
the property the A* ablation and the search equivalence tests check.

Internally the graph lives in a compact index space: cell ids are mapped
to dense ``int32`` node indices at construction and edges are stored as
CSR arrays (``indptr`` / ``indices`` / ``costs``), with per-node axial
``(q, r)`` coordinates precomputed so heuristics are two integer
subtractions on arrays instead of a bit-unpack per edge relaxation.  The
legacy dict views (``adjacency``, ``node_attrs``) are built lazily for
compatibility and never touched by the hot path.

Search variants (:meth:`CellGraph.find_path`):

- ``"dijkstra"`` -- no heuristic; the cost oracle.
- ``"astar"`` -- grid-distance heuristic, precomputed for all nodes per
  query as one vectorised pass (the paper's query).
- ``"ch"`` (default) -- contraction hierarchies.  An offline pass
  (:meth:`CellGraph.compute_ch`) contracts nodes in edge-difference
  order (lazy re-evaluation) and records shortcut edges with
  middle-node back-pointers; queries run a bidirectional upward-only
  Dijkstra with stall-on-demand pruning and unpack shortcuts back into
  original cells.  The hierarchy is stored as CSR ``int32`` arrays and
  persisted in format-v5 model files.

Two weight schemes are supported:

- ``"transitions"`` (paper): cost ~ grid span, with a vanishing bonus for
  frequently observed transitions (ties break toward habit).
- ``"inverse_frequency"``: popular edges are up to 2x cheaper per step,
  steering paths onto dominant lanes.
"""

import threading
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from time import perf_counter

import numpy as np

from repro.core.kernel import (
    KERNEL_BATCH_SIZE,
    KERNEL_SECONDS,
    build_kernel_tables,
    initial_cut_counts,
    solve_batch,
)
from repro.hexgrid import (
    cell_axial_array,
    cell_to_latlng_array,
    grid_distance_array,
    ring,
)
from repro.obs import COUNT_BUCKETS, METRICS

__all__ = [
    "CellGraph",
    "EDGE_WEIGHTS",
    "GOAL_DIRECTED_METHODS",
    "PROJECTIONS",
    "SEARCH_METHODS",
    "SearchResult",
]

#: Search variants accepted by :meth:`CellGraph.find_path` (and, through
#: ``HabitConfig.search``, by the imputer's query path).
SEARCH_METHODS = ("dijkstra", "astar", "ch")

#: Node placements accepted by :meth:`CellGraph.from_statistics`.
PROJECTIONS = ("center", "median")

#: Edge weight schemes accepted by :meth:`CellGraph.from_statistics`.
EDGE_WEIGHTS = ("transitions", "inverse_frequency")

#: Below this many non-degenerate lanes, ``find_paths_batch`` answers
#: each pair with the scalar CH query instead of the NumPy sweep: the
#: kernel's fixed per-sweep cost (dense 2n workspace, frontier set-up)
#: only amortises across several lanes, and costs are bit-equal either
#: way.  ``expanded`` keeps its per-variant meaning (settled nodes
#: scalar-side, labelled nodes batch-side).
KERNEL_CROSSOVER_LANES = 4

#: The variants that search *toward* the goal (heuristic- or
#: hierarchy-guided); each must settle no more nodes than plain Dijkstra
#: on any admissible graph -- the bound the property suite asserts.
GOAL_DIRECTED_METHODS = ("astar",)

_INF = float("inf")

_SEARCH_SECONDS = METRICS.histogram(
    "repro_search_seconds",
    "Graph search latency per query in seconds, by search variant.",
    ("method",),
)
_SEARCH_EXPANDED = METRICS.histogram(
    "repro_search_expanded",
    "Nodes settled per search query, by search variant.",
    ("method",),
    buckets=COUNT_BUCKETS,
)
_GRAPH_BUILD_SECONDS = METRICS.histogram(
    "repro_graph_build_seconds",
    "Search-preprocessing build duration, by stage (ch).",
    ("stage",),
)

#: Bound on the per-graph snap memo (the serve path re-snaps identical
#: endpoints constantly; distinct endpoints are bounded by traffic area).
_SNAP_CACHE_SIZE = 1 << 16

#: Bound on the per-target heuristic-vector memo.  Hub-to-hub queries
#: concentrate on few destinations, so the vectorised grid heuristic
#: pass is usually amortised to a dict probe; each entry is O(num_nodes).
_H_CACHE_SIZE = 128

#: Cap on nodes settled per witness search during CH contraction.  The
#: witness search only ever *skips* a shortcut; hitting the cap adds a
#: (redundant but harmless) shortcut, it never loses a necessary one,
#: so correctness is independent of this knob -- only preprocessing
#: time and hierarchy density depend on it.
_CH_WITNESS_LIMIT = 64

#: Relative slack when a witness path is compared against a candidate
#: shortcut.  Costs are float sums in different association orders; a
#: witness within this slack of the shortcut cost still proves the
#: shortcut unnecessary (up to the same slack the equal-cost tests
#: allow), while a genuinely longer witness never passes.
_CH_WITNESS_RTOL = 1e-12


def _edge_costs(grid_spans, counts, scheme):
    spans = np.maximum(grid_spans.astype(np.float64), 1.0)
    counts = counts.astype(np.float64)
    if scheme == "transitions":
        return spans * (1.0 + 1.0 / (1.0 + counts))
    if scheme == "inverse_frequency":
        top = max(float(counts.max()), 1.0) if len(counts) else 1.0
        return spans * (2.0 - counts / top)
    raise ValueError(f"unknown edge weight scheme {scheme!r}")


@dataclass(frozen=True)
class SearchResult:
    """One answered graph query: the path, its cost, and search effort.

    ``cells`` are packed cell ids along the path (src..dst inclusive);
    ``node_indices`` are the same nodes in dense index space (used by the
    imputer to project positions without dict lookups).  ``expanded``
    counts settled nodes -- the heuristic-quality signal surfaced in
    serving provenance and the A* ablation.
    """

    cells: tuple
    cost: float
    expanded: int
    method: str
    node_indices: tuple = field(default=(), repr=False)


class CellGraph:
    """Directed graph over hex cells with metricised transition costs."""

    def __init__(self, cells, lats, lngs, edge_src, edge_dst, edge_cost, edge_count):
        self.cells = np.asarray(cells, dtype=np.int64)
        self.lats = np.asarray(lats, dtype=np.float64)
        self.lngs = np.asarray(lngs, dtype=np.float64)
        self.edge_src = np.asarray(edge_src, dtype=np.int64)
        self.edge_dst = np.asarray(edge_dst, dtype=np.int64)
        self.edge_cost = np.asarray(edge_cost, dtype=np.float64)
        self.edge_count = np.asarray(edge_count, dtype=np.int64)
        n = len(self.cells)
        # Dense index space: cell id -> int32 node index via sorted lookup.
        order = np.argsort(self.cells, kind="stable")
        self._sorted_cells = self.cells[order]
        self._sorted_to_node = order.astype(np.int32)
        # Per-node axial coordinates: the heuristic becomes two integer
        # subtractions on these arrays.
        q, r = cell_axial_array(self.cells)
        self.node_q = q.astype(np.int32)
        self.node_r = r.astype(np.int32)
        # CSR edge storage.  Edges whose endpoints carry no node (possible
        # only in hand-built graphs) are dropped from the index; the flat
        # arrays above stay exactly as given for persistence.
        src_idx = self._node_index_array(self.edge_src)
        dst_idx = self._node_index_array(self.edge_dst)
        valid = (src_idx >= 0) & (dst_idx >= 0)
        src_idx = src_idx[valid]
        eorder = np.argsort(src_idx, kind="stable")  # keeps per-row edge order
        counts = np.bincount(src_idx, minlength=n) if len(src_idx) else np.zeros(n, np.int64)
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=self.indptr[1:])
        self.indices = dst_idx[valid][eorder].astype(np.int32)
        self.costs = self.edge_cost[valid][eorder]
        self._csr_counts = self.edge_count[valid][eorder]
        # Optional contraction hierarchy (``compute_ch``): per-node
        # contraction rank plus upward/downward shortcut CSR arrays with
        # middle-node back-pointers (-1 = original edge).  ``ch_down_*``
        # row u holds the *in*-neighbours of u with higher rank -- the
        # backward query's adjacency and the forward query's stall probe.
        self.ch_rank = None
        self.ch_up_indptr = None
        self.ch_up_indices = None
        self.ch_up_costs = None
        self.ch_up_middle = None
        self.ch_down_indptr = None
        self.ch_down_indices = None
        self.ch_down_costs = None
        self.ch_down_middle = None
        # Lazily built structures (hot-loop adjacency mirrors, legacy
        # dict views, snap memo, CH mirrors) share one reentrant lock;
        # all are pure functions of the frozen arrays, so queries stay
        # read-only in spirit.
        self._lock = threading.RLock()
        self._csr_lists = None
        self._node_attrs = None
        self._adjacency = None
        self._snap_cache = {}
        self._h_cache = {}  # target idx -> python list
        self._ch_up_lists = None  # hot-loop mirrors of the CH CSR arrays
        self._ch_down_lists = None
        self._ch_middle_map = None  # (u, v) -> middle node (unpacking)
        self._ch_kernel_table = None  # sorted augmented-edge table (batch)
        self._in_deg = None  # per-node in-degree (degenerate short-circuit)

    @classmethod
    def from_statistics(cls, cell_stats, transition_stats, projection, edge_weight):
        """Build a graph from :func:`repro.core.statistics.compute_statistics`.

        *projection* places each node at the cell centre (``"center"``) or
        at the median of its observed positions (``"median"``).
        """
        cells = np.asarray(cell_stats.column("cell"), dtype=np.int64)
        if projection == "center":
            lats, lngs = cell_to_latlng_array(cells)
        elif projection == "median":
            lats = np.asarray(cell_stats.column("median_lat"), dtype=np.float64)
            lngs = np.asarray(cell_stats.column("median_lon"), dtype=np.float64)
        else:
            raise ValueError(f"unknown projection {projection!r}")
        src = np.asarray(transition_stats.column("cell"), dtype=np.int64)
        dst = np.asarray(transition_stats.column("next_cell"), dtype=np.int64)
        counts = np.asarray(transition_stats.column("transitions"), dtype=np.int64)
        spans = (
            grid_distance_array(src, dst) if len(src) else np.zeros(0, dtype=np.int64)
        )
        costs = _edge_costs(spans, counts, edge_weight)
        return cls(cells, lats, lngs, src, dst, costs, counts)

    # -- index space -------------------------------------------------------

    def _node_index_array(self, cells):
        """Map cell ids to node indices (int32), -1 where absent."""
        cells = np.asarray(cells, dtype=np.int64)
        if len(self._sorted_cells) == 0:
            return np.full(cells.shape, -1, dtype=np.int32)
        pos = np.searchsorted(self._sorted_cells, cells)
        pos = np.minimum(pos, len(self._sorted_cells) - 1)
        out = self._sorted_to_node[pos].astype(np.int32, copy=True)
        out[self._sorted_cells[pos] != cells] = -1
        return out

    def node_index(self, cell):
        """Dense node index for a cell id, or -1 when not a node."""
        sorted_cells = self._sorted_cells
        if len(sorted_cells) == 0:
            return -1
        pos = int(np.searchsorted(sorted_cells, int(cell)))
        if pos >= len(sorted_cells) or int(sorted_cells[pos]) != int(cell):
            return -1
        return int(self._sorted_to_node[pos])

    # -- legacy dict views (lazy; not used by the hot path) ---------------

    @property
    def node_attrs(self):
        """cell id -> (lat, lng); compat view, built on first access."""
        attrs = self._node_attrs
        if attrs is None:
            with self._lock:
                attrs = self._node_attrs
                if attrs is None:
                    attrs = {
                        int(c): (float(la), float(ln))
                        for c, la, ln in zip(self.cells, self.lats, self.lngs)
                    }
                    self._node_attrs = attrs
        return attrs

    @property
    def adjacency(self):
        """cell id -> [(neighbour cell, cost, count)]; compat view."""
        adj = self._adjacency
        if adj is None:
            with self._lock:
                adj = self._adjacency
                if adj is None:
                    adj = {}
                    cells = self.cells
                    indptr, indices = self.indptr, self.indices
                    for u in range(len(cells)):
                        row = [
                            (
                                int(cells[indices[e]]),
                                float(self.costs[e]),
                                int(self._csr_counts[e]),
                            )
                            for e in range(indptr[u], indptr[u + 1])
                        ]
                        if row:
                            adj[int(cells[u])] = row
                    self._adjacency = adj
        return adj

    # -- shape / size ------------------------------------------------------

    @property
    def num_nodes(self):
        """Number of cells with observed support."""
        return len(self.cells)

    @property
    def num_edges(self):
        """Number of directed transitions."""
        return len(self.edge_src)

    def storage_size_bytes(self):
        """Bytes of the flat arrays that fully describe the graph."""
        return int(
            self.cells.nbytes
            + self.lats.nbytes
            + self.lngs.nbytes
            + self.edge_src.nbytes
            + self.edge_dst.nbytes
            + self.edge_cost.nbytes
            + self.edge_count.nbytes
        )

    # -- hot-loop mirrors --------------------------------------------------

    @staticmethod
    def _neighbour_tuples(indptr, indices, costs):
        """Per-node ``((v, w), ...)`` rows from CSR arrays.

        The search loops iterate neighbours as ``for v, w in adj[u]`` --
        one tuple unpack per edge beats indexed CSR access by ~20% in
        CPython, and the rows are built once per graph.
        """
        indices = indices.tolist()
        costs = costs.tolist()
        bounds = indptr.tolist()
        pairs = list(zip(indices, costs))
        return [
            tuple(pairs[bounds[u] : bounds[u + 1]]) for u in range(len(bounds) - 1)
        ]

    def _forward(self):
        """Hot-loop adjacency mirror of the forward CSR (lazy, cached)."""
        adj = self._csr_lists
        if adj is None:
            with self._lock:
                adj = self._csr_lists
                if adj is None:
                    adj = self._neighbour_tuples(self.indptr, self.indices, self.costs)
                    self._csr_lists = adj
        return adj

    def _grid_h(self, target):
        """Grid distance of every node to *target*, as a memoized list
        (one vectorised pass per target)."""
        entry = self._h_cache.get(target)
        if entry is None:
            dq = self.node_q.astype(np.int64) - int(self.node_q[target])
            dr = self.node_r.astype(np.int64) - int(self.node_r[target])
            entry = ((np.abs(dq) + np.abs(dr) + np.abs(dq + dr)) >> 1).tolist()
            with self._lock:
                if len(self._h_cache) >= _H_CACHE_SIZE:
                    self._h_cache.clear()
                self._h_cache[target] = entry
        return entry

    # -- snapping ----------------------------------------------------------

    def nearest_node(self, cell, max_ring=8):
        """Snap a cell to the nearest graph node.

        Expands hex rings outwards (cheap, local) and falls back to a
        vectorised full scan over all nodes when the rings miss.  Snaps
        are memoized per graph -- the serve path re-snaps identical
        endpoints constantly -- in a bounded memo keyed by
        ``(cell, max_ring)`` (flushed wholesale when full).  Returns
        ``None`` only for an empty graph.
        """
        if self.num_nodes == 0:
            return None
        cell = int(cell)
        if self.node_index(cell) >= 0:
            return cell
        key = (cell, int(max_ring))
        cache = self._snap_cache
        hit = cache.get(key)
        if hit is not None:
            return hit
        snapped = self._nearest_node_uncached(cell, max_ring)
        with self._lock:
            if len(cache) >= _SNAP_CACHE_SIZE:
                cache.clear()
            cache[key] = snapped
        return snapped

    def _nearest_node_uncached(self, cell, max_ring):
        for k in range(1, max_ring + 1):
            candidates = np.asarray(ring(cell, k), dtype=np.int64)
            found = self._node_index_array(candidates) >= 0
            if found.any():
                return int(candidates[found][0])
        # Full scan, broadcasting the scalar query cell (no per-miss
        # np.full_like allocation).
        distances = grid_distance_array(self.cells, np.int64(cell))
        return int(self.cells[int(np.argmin(distances))])

    # -- search ------------------------------------------------------------

    def find_path(self, src, dst, method="astar"):
        """Search for a cheapest *src* -> *dst* path (cell ids).

        Returns a :class:`SearchResult` or ``None`` when either endpoint
        is not a node or no route exists.  All methods return equal-cost
        paths (the heuristics are admissible and consistent).
        """
        if method not in SEARCH_METHODS:
            raise ValueError(
                f"unknown search method {method!r}; expected one of {SEARCH_METHODS}"
            )
        started = perf_counter()
        result = self._find_path(src, dst, method)
        _SEARCH_SECONDS.observe(perf_counter() - started, (method,))
        if result is not None:
            _SEARCH_EXPANDED.observe(result.expanded, (method,))
        return result

    def _find_path(self, src, dst, method):
        si = self.node_index(src)
        di = self.node_index(dst)
        if si < 0 or di < 0:
            return None
        if si == di:
            cell = int(self.cells[si])
            return SearchResult((cell,), 0.0, 0, method, (si,))
        if self._degenerate_unreachable(si, di):
            return None
        if method == "ch":
            self.ensure_ch()
            found = self._ch_query(si, di)
        else:
            h = self._grid_h(di) if method == "astar" else None
            found = self._astar_indices(si, di, h)
        if found is None:
            return None
        path, cost, expanded = found
        cells = tuple(self.cells[path].tolist())
        return SearchResult(cells, cost, expanded, method, tuple(path))

    def _degenerate_unreachable(self, si, di):
        """Cheap provable-unreachable test for a ``si != di`` pair.

        A source with no outgoing edges cannot reach anything and a
        target with no incoming edges cannot be reached, so every
        variant can return ``None`` before touching its heap (or
        triggering a lazy CH build).
        """
        return (
            self.indptr[si + 1] == self.indptr[si] or self._in_degree()[di] == 0
        )

    def _in_degree(self):
        """Per-node in-degree array (lazy, cached)."""
        deg = self._in_deg
        if deg is None:
            with self._lock:
                deg = self._in_deg
                if deg is None:
                    n = self.num_nodes
                    deg = (
                        np.bincount(self.indices, minlength=n)
                        if len(self.indices)
                        else np.zeros(n, np.int64)
                    )
                    self._in_deg = deg
        return deg

    def _astar_indices(self, si, di, h):
        """Unidirectional A* / Dijkstra over the adjacency mirror."""
        adj = self._forward()
        n = self.num_nodes
        g = [_INF] * n
        came = [-1] * n
        closed = bytearray(n)
        g[si] = 0.0
        frontier = [((h[si] if h else 0.0), si)]
        expanded = 0
        while frontier:
            _, u = heappop(frontier)
            if u == di:
                path = [u]
                while came[u] >= 0:
                    u = came[u]
                    path.append(u)
                path.reverse()
                return path, g[di], expanded
            if closed[u]:
                continue
            closed[u] = 1
            expanded += 1
            gu = g[u]
            for v, w in adj[u]:
                if closed[v]:
                    continue
                tentative = gu + w
                if tentative < g[v]:
                    g[v] = tentative
                    came[v] = u
                    heappush(frontier, (tentative + (h[v] if h else 0.0), v))
        return None

    # -- contraction hierarchy ---------------------------------------------

    @property
    def has_ch(self):
        """Whether the contraction hierarchy is present."""
        return self.ch_rank is not None

    def ensure_ch(self):
        """Compute the hierarchy if absent (idempotent, thread-safe)."""
        if self.ch_rank is None:
            with self._lock:
                if self.ch_rank is None:
                    with _GRAPH_BUILD_SECONDS.time(("ch",)):
                        self._compute_ch_locked()
        return self

    def compute_ch(self):
        """(Re)build the contraction hierarchy.

        Contracts every node in edge-difference order (shortcuts added
        minus edges removed, plus a deleted-neighbours term for spatial
        uniformity) with lazy priority re-evaluation: the cheapest node
        is re-scored when popped and contracted only if it still beats
        the next candidate.  Contracting ``w`` adds a shortcut
        ``u -> v`` with cost ``c(u,w) + c(w,v)`` for every in/out
        neighbour pair unless a bounded witness search proves an equally
        cheap detour survives without ``w``; the witness search is
        conservative (a truncated search adds a redundant shortcut, it
        never drops a needed one), so CH distances are *exactly* the
        Dijkstra distances.  The result is stored as upward/downward CSR
        ``int32`` arrays with per-edge middle-node back-pointers for
        path unpacking, persisted in format-v5 model files so loads skip
        this pass.
        """
        with self._lock:
            with _GRAPH_BUILD_SECONDS.time(("ch",)):
                self._compute_ch_locked()
        return self

    def _compute_ch_locked(self):
        n = self.num_nodes
        # Overlay adjacency for the contraction pass, deduplicated to
        # the cheapest parallel edge (what every search relaxes anyway)
        # and self-loop-free (positive costs, never on a cheapest
        # path).  ``out_all`` accumulates every augmented edge with its
        # middle back-pointer for the final rank split; ``out_live`` /
        # ``in_live`` mirror only the *remaining* graph -- contracted
        # nodes are physically removed, so the witness inner loop
        # iterates plain ``{node: cost}`` dicts with no contracted
        # checks or tuple unpacking.
        eu = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(self.indptr.astype(np.int64))
        )
        ev = self.indices.astype(np.int64)
        ec = self.costs
        keep = eu != ev
        eu, ev, ec = eu[keep], ev[keep], ec[keep]
        ekey = eu * n + ev
        order = np.lexsort((ec, ekey))
        ekey = ekey[order]
        first = np.ones(ekey.size, dtype=bool)
        first[1:] = ekey[1:] != ekey[:-1]
        eu, ev, ec = eu[order][first], ev[order][first], ec[order][first]
        fsplit = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(eu, minlength=n), out=fsplit[1:])
        rorder = np.argsort(ev, kind="stable")
        rsplit = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(ev, minlength=n), out=rsplit[1:])
        fv, fc = ev.tolist(), ec.tolist()
        ru, rc = eu[rorder].tolist(), ec[rorder].tolist()
        fb, rb = fsplit.tolist(), rsplit.tolist()
        out_live = [
            dict(zip(fv[fb[u] : fb[u + 1]], fc[fb[u] : fb[u + 1]]))
            for u in range(n)
        ]
        in_live = [
            dict(zip(ru[rb[v] : rb[v + 1]], rc[rb[v] : rb[v + 1]]))
            for v in range(n)
        ]
        out_all = [
            {v: (c, -1) for v, c in row.items()} for row in out_live
        ]
        contracted = bytearray(n)
        rank = np.zeros(n, dtype=np.int32)
        deleted = [0] * n

        # Stamped scratch arrays for the witness searches: one flat
        # distance/version pair per node instead of a fresh dict per
        # search, so the inner relax loop is pure list indexing.
        wdist = [0.0] * n
        wstamp = [0] * n
        wver = 0

        def witness_distances(adj, source, targets, limit):
            """Bounded Dijkstra from *source* over *adj* (the live
            forward or reverse overlay); fills the stamped scratch
            arrays and returns the search's stamp.  The node being
            evaluated must already be detached from *adj* -- the caller
            unlinks its incident edges once per evaluation, which is
            cheaper than a skip test in every relaxation."""
            nonlocal wver
            wver += 1
            ver = wver
            dist = wdist
            stamp = wstamp
            dist[source] = 0.0
            stamp[source] = ver
            heap = [(0.0, source)]
            pop = heappop
            push = heappush
            remaining = len(targets)
            settled = 0
            # Labels beyond the witness cap can never pass a witness
            # comparison (every ``through <= limit``), so pushes past
            # it are pure heap churn -- prune them at the source.
            cap = limit * (1.0 + _CH_WITNESS_RTOL)
            while heap and remaining and settled < _CH_WITNESS_LIMIT:
                d, u = pop(heap)
                if d > limit:
                    break
                if d > dist[u]:
                    continue  # stale heap entry
                if u in targets:
                    remaining -= 1
                settled += 1
                for v, w in adj[u].items():
                    nd = d + w
                    if nd > cap:
                        continue
                    if stamp[v] != ver or nd < dist[v]:
                        dist[v] = nd
                        stamp[v] = ver
                        push(heap, (nd, v))
            return ver

        def scan_pairs(w, din, dout, skip=()):
            """Pending (in, out) pairs of *w* with no trivial witness.

            A live overlay edge between the pair's endpoints is itself
            a witness (shortcut expansions pass only through
            already-contracted nodes, never through live *w*), and most
            remaining witnesses in these near-planar overlays are two
            edges long -- a handful of dict probes settles them far
            cheaper than a heap search.  Survivors are grouped by
            source for ``searched_cuts``.  ``din is None`` scans every
            pair (exact mode); otherwise only pairs touching an edge in
            ``din``/``dout`` are considered.  Pairs in ``skip`` are
            excluded (already-settled verdicts the caller vouches for).
            """
            ins_d = in_live[w]
            outs_d = out_live[w]
            rtol = 1.0 + _CH_WITNESS_RTOL
            exact = din is None
            pend = {}
            tgts = set()
            for a, cuw in ins_d.items():
                adirty = exact or a in din
                if not adirty and not dout:
                    continue
                direct = out_live[a]
                for b, cwb in outs_d.items():
                    if b == a or not (adirty or b in dout):
                        continue
                    if skip and (a, b) in skip:
                        continue
                    through = cuw + cwb
                    cap = through * rtol
                    dbc = direct.get(b)
                    if dbc is not None and dbc <= cap:
                        continue  # the edge itself is a witness
                    hop2 = False
                    for x, cax in direct.items():
                        if x == w or x == b:
                            continue
                        cxb = out_live[x].get(b)
                        if cxb is not None and cax + cxb <= cap:
                            hop2 = True
                            break
                    if hop2:
                        continue
                    pend.setdefault(a, []).append((b, through))
                    tgts.add(b)
            return pend, tgts

        def searched_cuts(w, pend, tgts):
            """Witness searches for the pending pairs of *w*; returns
            the pairs with no witness (the cuts).  Searches run on the
            *smaller* grouping -- forward from each source over
            ``out_live``, or backward from each target over the reverse
            overlay -- with *w* detached so no path routes through it.
            """
            new_cuts = []
            if not pend:
                return new_cuts
            ins_d = in_live[w]
            outs_d = out_live[w]
            rtol = 1.0 + _CH_WITNESS_RTOL
            for a in ins_d:
                del out_live[a][w]
            for b in outs_d:
                del in_live[b][w]
            if len(pend) <= len(tgts):
                for a, pairs in pend.items():
                    ver = witness_distances(
                        out_live,
                        a,
                        [b for b, _ in pairs],
                        max(t for _, t in pairs),
                    )
                    for b, through in pairs:
                        if (
                            wstamp[b] == ver
                            and wdist[b] <= through * rtol
                        ):
                            continue  # a witness survives without w
                        new_cuts.append((a, b, through))
            else:
                back = {}
                for a, pairs in pend.items():
                    for b, through in pairs:
                        back.setdefault(b, []).append((a, through))
                for b, pairs in back.items():
                    ver = witness_distances(
                        in_live,
                        b,
                        [a for a, _ in pairs],
                        max(t for _, t in pairs),
                    )
                    for a, through in pairs:
                        if (
                            wstamp[a] == ver
                            and wdist[a] <= through * rtol
                        ):
                            continue
                        new_cuts.append((a, b, through))
            for a, cuw in ins_d.items():
                out_live[a][w] = cuw
            for b, cwb in outs_d.items():
                in_live[b][w] = cwb
            return new_cuts

        def estimate(w):
            """Estimated cut *count* for *w* -- heap ordering only.

            Runs no witness searches at all.  ``cached`` keeps verdicts
            from the last exact evaluation: its "cut" triples stay
            valid forever (contraction maps every new path to an
            equal-cost older one, so live distances only grow, and a
            pair's ``through`` improving marks it dirty), while pairs
            touching a dirty edge move into ``unver`` -- counted as
            provisional cuts until ``exact_cuts`` resolves them at
            contraction time.  A reused "witnessed" verdict (a pair
            absent from both) can go stale without any of the pair's
            own edges changing -- contracting some other node *x*
            destroys the witness path exactly when *x*'s replacement
            shortcut was suppressed by a witness through *w* itself --
            so cached verdicts order the heap but are never trusted
            for insertion; only cuts survive reuse, and only in
            ``exact_cuts``'s skip set.
            """
            ins_d = in_live[w]
            outs_d = out_live[w]
            din = dirty_in[w]
            dout = dirty_out[w]
            uv = unver[w]
            if din is None and dout is None and deleted[w] == eval_del[w]:
                return len(cached[w]) + (len(uv) if uv else 0)
            eval_del[w] = deleted[w]
            if not ins_d or not outs_d:
                dirty_in[w] = None
                dirty_out[w] = None
                cached[w] = []
                unver[w] = None
                return 0
            din = din or ()
            dout = dout or ()
            dirty_in[w] = None
            dirty_out[w] = None
            cached[w] = retained = [
                t
                for t in cached[w]
                if t[0] in ins_d
                and t[1] in outs_d
                and t[0] not in din
                and t[1] not in dout
            ]
            if uv:
                for a, b in list(uv):
                    if (
                        a not in ins_d
                        or b not in outs_d
                        or a in din
                        or b in dout
                    ):
                        del uv[(a, b)]
            if din or dout:
                pend, _ = scan_pairs(w, din, dout)
                if pend:
                    if uv is None:
                        uv = unver[w] = {}
                    for a, pairs in pend.items():
                        for b, through in pairs:
                            uv[(a, b)] = through
            return len(retained) + (len(uv) if uv else 0)

        def exact_cuts(w):
            """Current witnessed cuts of *w*, recomputed against the
            live overlay -- the only verdicts sound enough to insert as
            shortcuts (see ``estimate`` for why cached "witnessed"
            ones are not).  Cached *cut* verdicts, by contrast, never
            go stale -- contraction maps every new path to an equal-cost
            older one, so live distances (with or without *w*) only
            ever grow, and a pair's ``through`` improving marks it
            dirty -- so the cuts ``estimate`` just filtered to current
            membership are taken verbatim and only the remaining
            pairs are re-proven.  Skipping them drops exactly the most
            expensive searches: a no-witness search exhausts its whole
            cost ball before giving up.
            """
            if not in_live[w] or not out_live[w]:
                return []
            known = cached[w]
            pend, tgts = scan_pairs(
                w, None, (), {(a, b) for a, b, _ in known}
            )
            new_cuts = searched_cuts(w, pend, tgts)
            return known + new_cuts if new_cuts else known

        # Lazy-re-evaluation contraction loop: each popped node is
        # re-scored with the cheap incremental ``estimate`` and
        # contracted only while it still beats the heap's next
        # candidate -- at which point ``exact_cuts`` recomputes the
        # real shortcut set against the live overlay.  The initial
        # pass -- one exact witness evaluation per node on the pristine
        # overlay -- runs as one vectorised multi-lane sweep in the
        # kernel; counts and cut triples are exactly the scalar pass's
        # (see ``initial_cut_counts``), and seed the estimate cache.
        init_counts, (cw, cu, cv, ct) = initial_cut_counts(
            n,
            self.indptr,
            self.indices,
            self.costs,
            _CH_WITNESS_RTOL,
            return_cuts=True,
        )
        heap = [
            (c - len(in_live[w]) - len(out_live[w]), w)
            for w, c in enumerate(init_counts.tolist())
        ]
        heapify(heap)
        cached = [[] for _ in range(n)]  # node -> last exact cut verdicts
        for wi, ui, vi, ti in zip(
            cw.tolist(), cu.tolist(), cv.tolist(), ct.tolist()
        ):
            cached[wi].append((ui, vi, ti))
        unver = [None] * n  # node -> {(a, b): through} awaiting a verdict
        # Endpoints of edges added/improved since a node's last
        # evaluation -- the only pairs ``estimate`` must re-scan --
        # plus the neighbour-contraction count last seen, so a pop
        # with no changes at all returns its count untouched.
        dirty_in = [None] * n
        dirty_out = [None] * n
        eval_del = [0] * n
        aug = []  # every inserted shortcut, flat, for the final split
        next_rank = 0
        while heap:
            _, w = heappop(heap)
            if contracted[w]:
                continue
            degree = len(in_live[w]) + len(out_live[w])
            priority = estimate(w) - degree + deleted[w]
            if heap and priority > heap[0][0]:
                heappush(heap, (priority, w))
                continue
            cuts = exact_cuts(w)
            priority = len(cuts) - degree + deleted[w]
            if heap and priority > heap[0][0]:
                # The estimate was off; the exact verdicts are the
                # freshest estimate there is, so recycle them.
                cached[w] = cuts
                unver[w] = None
                dirty_in[w] = None
                dirty_out[w] = None
                eval_del[w] = deleted[w]
                heappush(heap, (priority, w))
                continue
            for u, v, cost in cuts:
                old = out_all[u].get(v)
                if old is None or cost < old[0]:
                    out_all[u][v] = (cost, w)
                    out_live[u][v] = cost
                    in_live[v][u] = cost
                    aug.append((u, v, cost, w))
                    du = dirty_out[u]
                    if du is None:
                        dirty_out[u] = {v}
                    else:
                        du.add(v)
                    dv = dirty_in[v]
                    if dv is None:
                        dirty_in[v] = {u}
                    else:
                        dv.add(u)
            contracted[w] = 1
            rank[w] = next_rank
            next_rank += 1
            for u in in_live[w]:
                del out_live[u][w]
                deleted[u] += 1
            for v in out_live[w]:
                del in_live[v][w]
                deleted[v] += 1
            out_live[w] = {}
            in_live[w] = {}

        # Split the augmented edge set by rank direction, vectorised:
        # originals plus every appended shortcut, deduplicated to the
        # cheapest per pair with earliest-insertion tie-breaking (the
        # same verdicts the ``out_all`` dicts keep), then one stable
        # sort per direction.  ``up`` rows are outgoing edges to
        # higher-ranked nodes (forward search); ``down`` rows are
        # *incoming* edges from higher-ranked nodes (backward search,
        # and the forward search's stall probe).
        if aug:
            su, sv, sc, sm = zip(*aug)
            au = np.concatenate([eu, np.asarray(su, dtype=np.int64)])
            av = np.concatenate([ev, np.asarray(sv, dtype=np.int64)])
            ac = np.concatenate([ec, np.asarray(sc, dtype=np.float64)])
            am = np.concatenate(
                [
                    np.full(eu.size, -1, dtype=np.int32),
                    np.asarray(sm, dtype=np.int32),
                ]
            )
        else:
            au, av, ac = eu, ev, ec
            am = np.full(eu.size, -1, dtype=np.int32)
        akey = au * n + av
        aorder = np.lexsort((ac, akey))
        akey = akey[aorder]
        akeep = np.ones(akey.size, dtype=bool)
        akeep[1:] = akey[1:] != akey[:-1]
        sel = aorder[akeep]  # sorted by (u, v), cheapest per pair
        au, av, ac, am = au[sel], av[sel], ac[sel], am[sel]
        rank64 = rank.astype(np.int64)
        up_mask = rank64[av] > rank64[au]
        self.ch_rank = rank
        self.ch_up_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(au[up_mask], minlength=n), out=self.ch_up_indptr[1:]
        )
        self.ch_up_indices = av[up_mask].astype(np.int32)
        self.ch_up_costs = ac[up_mask]
        self.ch_up_middle = am[up_mask]
        down = ~up_mask
        dorder = np.argsort(av[down] * n + au[down])  # rows by v, then u
        self.ch_down_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(av[down], minlength=n), out=self.ch_down_indptr[1:]
        )
        self.ch_down_indices = au[down][dorder].astype(np.int32)
        self.ch_down_costs = ac[down][dorder]
        self.ch_down_middle = am[down][dorder]
        self._ch_up_lists = None
        self._ch_down_lists = None
        self._ch_middle_map = None
        self._ch_kernel_table = None

    def set_ch(
        self,
        rank,
        up_indptr,
        up_indices,
        up_costs,
        up_middle,
        down_indptr,
        down_indices,
        down_costs,
        down_middle,
    ):
        """Install precomputed hierarchy arrays (model load path)."""
        rank = np.asarray(rank, dtype=np.int32)
        n = self.num_nodes
        if rank.shape != (n,):
            raise ValueError(f"ch_rank must be shaped ({n},), got {rank.shape}")
        up = _check_ch_csr("ch_up", n, up_indptr, up_indices, up_costs, up_middle)
        down = _check_ch_csr(
            "ch_down", n, down_indptr, down_indices, down_costs, down_middle
        )
        self.ch_rank = rank
        (
            self.ch_up_indptr,
            self.ch_up_indices,
            self.ch_up_costs,
            self.ch_up_middle,
        ) = up
        (
            self.ch_down_indptr,
            self.ch_down_indices,
            self.ch_down_costs,
            self.ch_down_middle,
        ) = down
        self._ch_up_lists = None
        self._ch_down_lists = None
        self._ch_middle_map = None
        self._ch_kernel_table = None
        return self

    def _ch_up(self):
        """Hot-loop mirror of the upward CSR (lazy, cached)."""
        rows = self._ch_up_lists
        if rows is None:
            with self._lock:
                rows = self._ch_up_lists
                if rows is None:
                    rows = self._neighbour_tuples(
                        self.ch_up_indptr, self.ch_up_indices, self.ch_up_costs
                    )
                    self._ch_up_lists = rows
        return rows

    def _ch_down(self):
        """Hot-loop mirror of the downward CSR (lazy, cached)."""
        rows = self._ch_down_lists
        if rows is None:
            with self._lock:
                rows = self._ch_down_lists
                if rows is None:
                    rows = self._neighbour_tuples(
                        self.ch_down_indptr, self.ch_down_indices, self.ch_down_costs
                    )
                    self._ch_down_lists = rows
        return rows

    def _ch_middles(self):
        """``(u, v) -> middle node`` over the augmented edge set (lazy).

        Each augmented edge lives in exactly one of the two CSRs (by
        rank direction), so the union is collision-free.
        """
        middles = self._ch_middle_map
        if middles is None:
            with self._lock:
                middles = self._ch_middle_map
                if middles is None:
                    middles = {}
                    indptr = self.ch_up_indptr.tolist()
                    indices = self.ch_up_indices.tolist()
                    mids = self.ch_up_middle.tolist()
                    for u in range(len(indptr) - 1):
                        for e in range(indptr[u], indptr[u + 1]):
                            middles[(u, indices[e])] = mids[e]
                    indptr = self.ch_down_indptr.tolist()
                    indices = self.ch_down_indices.tolist()
                    mids = self.ch_down_middle.tolist()
                    for u in range(len(indptr) - 1):
                        for e in range(indptr[u], indptr[u + 1]):
                            # down row u holds edges indices[e] -> u.
                            middles[(indices[e], u)] = mids[e]
                    self._ch_middle_map = middles
        return middles

    def _ch_query(self, si, di):
        """Bidirectional upward Dijkstra with stall-on-demand.

        Both searches only relax edges toward higher-ranked nodes (the
        forward one over ``ch_up``, the backward one over ``ch_down``),
        so search spaces are tiny cones under the hierarchy's hubs.  A
        settled node is *stalled* -- counted out of ``expanded`` and not
        relaxed -- when a higher-ranked neighbour already proves its
        label suboptimal in the full graph.  ``mu`` tracks the best
        meeting cost over nodes labelled from both sides; a side stops
        once its queue minimum reaches ``mu`` (labels only grow upward,
        so nothing cheaper can appear), which keeps the stop exact.
        """
        up = self._ch_up()
        down = self._ch_down()
        df = {si: 0.0}
        db = {di: 0.0}
        pf = {si: -1}
        pb = {di: -1}
        donef = set()
        doneb = set()
        heapf = [(0.0, si)]
        heapb = [(0.0, di)]
        mu = _INF
        meet = -1
        expanded = 0
        while True:
            fgo = bool(heapf) and heapf[0][0] < mu
            bgo = bool(heapb) and heapb[0][0] < mu
            if not fgo and not bgo:
                break
            if fgo and (not bgo or heapf[0][0] <= heapb[0][0]):
                d, u = heappop(heapf)
                if u in donef:
                    continue
                donef.add(u)
                stalled = False
                for v, w in down[u]:  # incoming edges from higher ranks
                    dv = df.get(v)
                    if dv is not None and dv + w < d:
                        stalled = True
                        break
                if not stalled:
                    expanded += 1
                    for v, w in up[u]:
                        nd = d + w
                        if nd < df.get(v, _INF):
                            df[v] = nd
                            pf[v] = u
                            heappush(heapf, (nd, v))
                            dbv = db.get(v)
                            if dbv is not None and nd + dbv < mu:
                                mu = nd + dbv
                                meet = v
                dbu = db.get(u)
                if dbu is not None and d + dbu < mu:
                    mu = d + dbu
                    meet = u
            else:
                d, u = heappop(heapb)
                if u in doneb:
                    continue
                doneb.add(u)
                stalled = False
                for v, w in up[u]:  # outgoing edges to higher ranks
                    dv = db.get(v)
                    if dv is not None and dv + w < d:
                        stalled = True
                        break
                if not stalled:
                    expanded += 1
                    for v, w in down[u]:
                        nd = d + w
                        if nd < db.get(v, _INF):
                            db[v] = nd
                            pb[v] = u
                            heappush(heapb, (nd, v))
                            dfv = df.get(v)
                            if dfv is not None and dfv + nd < mu:
                                mu = dfv + nd
                                meet = v
                dfu = df.get(u)
                if dfu is not None and dfu + d < mu:
                    mu = dfu + d
                    meet = u
        if meet < 0:
            return None
        # Augmented up-down path: forward parents back to si, backward
        # parents forward to di, then recursive shortcut unpacking.
        chain = []
        u = meet
        while u != -1:
            chain.append(u)
            u = pf[u]
        chain.reverse()
        u = pb[meet]
        while u != -1:
            chain.append(u)
            u = pb[u]
        middles = self._ch_middles()
        path = [chain[0]]
        for a, b in zip(chain, chain[1:]):
            _ch_unpack(a, b, middles, path)
        return path, mu, expanded

    # -- batch kernel ------------------------------------------------------

    def find_paths_batch(self, pairs, method="ch"):
        """Answer many ``(src, dst)`` cell-id queries in one call.

        With the default ``"ch"`` method every non-degenerate pair runs
        through the vectorised batch kernel
        (:func:`repro.core.kernel.solve_batch`): one NumPy frontier
        sweep answers the whole batch instead of one Python heap loop
        per query, with costs bit-equal to scalar CH.  Batches smaller
        than :data:`KERNEL_CROSSOVER_LANES` fall back to the scalar CH
        query per pair, which wins below the sweep's fixed cost (same
        costs and paths; ``expanded`` counts settled nodes, as for any
        scalar query).  Other methods
        fall back to :meth:`find_path` per pair -- the scalar oracle
        the property suite compares against.  Degenerate pairs
        (missing endpoints, ``src == dst``, provably unreachable) are
        short-circuited before any kernel work, exactly like
        :meth:`find_path`.

        Returns a list aligned with *pairs* of :class:`SearchResult`
        (``expanded`` counts labelled nodes across both sweep
        directions, the batch analogue of settled nodes) or ``None``.
        """
        if method not in SEARCH_METHODS:
            raise ValueError(
                f"unknown search method {method!r}; expected one of {SEARCH_METHODS}"
            )
        pairs = list(pairs)
        KERNEL_BATCH_SIZE.observe(len(pairs))
        started = perf_counter()
        results = [None] * len(pairs)
        lanes = []  # (batch position, src node, dst node) for the kernel
        for i, (src, dst) in enumerate(pairs):
            si = self.node_index(src)
            di = self.node_index(dst)
            if si < 0 or di < 0:
                continue
            if si == di:
                cell = int(self.cells[si])
                results[i] = SearchResult((cell,), 0.0, 0, method, (si,))
                continue
            if self._degenerate_unreachable(si, di):
                continue
            if method == "ch":
                lanes.append((i, si, di))
            else:
                results[i] = self.find_path(src, dst, method)
        if lanes and len(lanes) < KERNEL_CROSSOVER_LANES:
            # Too few lanes for the sweep's fixed cost to amortise: the
            # scalar CH query wins below the crossover, at bit-equal
            # costs (it observes its own search metrics).
            for i, _, _ in lanes:
                results[i] = self.find_path(pairs[i][0], pairs[i][1], "ch")
        elif lanes:
            self.ensure_ch()
            kernel_started = perf_counter()
            paths, costs, expanded = solve_batch(
                self._ch_kernel_tables(),
                np.asarray([si for _, si, _ in lanes], dtype=np.int64),
                np.asarray([di for _, _, di in lanes], dtype=np.int64),
            )
            # Each lane is one search: feed the scalar per-query series
            # too (an equal share of the sweep), so dashboards keep
            # counting searches when serving goes batch-native.
            share = (perf_counter() - kernel_started) / len(lanes)
            for (i, _, _), path, cost, exp in zip(lanes, paths, costs, expanded):
                _SEARCH_SECONDS.observe(share, ("ch",))
                if path is None:
                    continue
                _SEARCH_EXPANDED.observe(int(exp), ("ch",))
                cells = tuple(self.cells[path].tolist())
                results[i] = SearchResult(
                    cells, float(cost), int(exp), "ch", tuple(path)
                )
        KERNEL_SECONDS.observe(perf_counter() - started)
        return results

    def _ch_kernel_tables(self):
        """Preprocessed batch-kernel tables for this hierarchy (lazy).

        Builds the sorted augmented-edge table -- flat ``u * n + v``
        keys paired with middle nodes (-1 = original edge); every
        augmented edge lives in exactly one of the two CSRs, so keys
        are unique -- and hands it plus the raw CSRs to
        :func:`repro.core.kernel.build_kernel_tables`, which derives
        the combined sweep CSRs and precomputed shortcut expansions.
        Cached until the hierarchy changes.
        """
        table = self._ch_kernel_table
        if table is None:
            with self._lock:
                table = self._ch_kernel_table
                if table is None:
                    n = self.num_nodes
                    up_src = np.repeat(
                        np.arange(n, dtype=np.int64), np.diff(self.ch_up_indptr)
                    )
                    # Down row v holds incoming edges u -> v.
                    down_dst = np.repeat(
                        np.arange(n, dtype=np.int64), np.diff(self.ch_down_indptr)
                    )
                    keys = np.concatenate(
                        [
                            up_src * n + self.ch_up_indices,
                            self.ch_down_indices.astype(np.int64) * n + down_dst,
                        ]
                    )
                    vals = np.concatenate(
                        [self.ch_up_middle, self.ch_down_middle]
                    ).astype(np.int32)
                    order = np.argsort(keys, kind="stable")
                    table = build_kernel_tables(
                        n,
                        (self.ch_up_indptr, self.ch_up_indices, self.ch_up_costs),
                        (
                            self.ch_down_indptr,
                            self.ch_down_indices,
                            self.ch_down_costs,
                        ),
                        keys[order],
                        vals[order],
                    )
                    self._ch_kernel_table = table
        return table


# -- CH module helpers -----------------------------------------------------


def _check_ch_csr(name, num_nodes, indptr, indices, costs, middle):
    """Validate one direction's CH CSR arrays (the ``set_ch`` load path)."""
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int32)
    costs = np.asarray(costs, dtype=np.float64)
    middle = np.asarray(middle, dtype=np.int32)
    if indptr.shape != (num_nodes + 1,):
        raise ValueError(
            f"{name}_indptr must be shaped ({num_nodes + 1},), got {indptr.shape}"
        )
    edges = int(indptr[-1]) if len(indptr) else 0
    if not (len(indices) == len(costs) == len(middle) == edges):
        raise ValueError(
            f"{name} arrays must all hold {edges} edges, got "
            f"{len(indices)} / {len(costs)} / {len(middle)}"
        )
    return indptr, indices, costs, middle


def _ch_unpack(a, b, middles, out):
    """Expand one augmented edge ``a -> b`` into original nodes.

    Iterative in-order traversal of the shortcut tree (middle-node
    back-pointers), appending every node after ``a`` to *out* --
    recursion depth would otherwise track shortcut nesting, which is
    unbounded in adversarial graphs.
    """
    stack = [(a, b)]
    while stack:
        u, v = stack.pop()
        m = middles.get((u, v), -1)
        if m < 0:
            out.append(v)
        else:
            # Right half pushed first so the left half unpacks first.
            stack.append((m, v))
            stack.append((u, m))
