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
subtractions on arrays instead of a bit-unpack per edge relaxation.

Search variants (:meth:`CellGraph.find_path`):

- ``"dijkstra"`` -- no heuristic; the cost oracle.
- ``"astar"`` -- grid-distance heuristic, precomputed for all nodes per
  query as one vectorised pass (the paper's query).
- ``"ch"`` (default) -- contraction hierarchies, built witness-free as
  a customizable CH (:meth:`CellGraph.compute_ch`): a nested-dissection
  order on the cells' axial coordinates, chordal completion for the
  shortcut topology, then triangle customisation of the costs, with
  middle-node back-pointers on every shortcut.  Queries run a
  bidirectional upward-only Dijkstra with stall-on-demand pruning and
  unpack shortcuts back into original cells.  The hierarchy is stored as
  CSR ``int32`` arrays and persisted in every model file.

Two weight schemes are supported:

- ``"transitions"`` (paper): cost ~ grid span, with a vanishing bonus for
  frequently observed transitions (ties break toward habit).
- ``"inverse_frequency"``: popular edges are up to 2x cheaper per step,
  steering paths onto dominant lanes.
"""

import threading
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import chain
from time import perf_counter

import numpy as np

from repro.core.kernel import (
    KERNEL_BATCH_SIZE,
    KERNEL_SECONDS,
    _expand_ranges,
    build_kernel_tables,
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
#: ``method=``, by :meth:`repro.core.habit.HabitImputer.impute`).
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
#: scalar-side, labelled nodes batch-side).  Set to the smallest lane
#: count whose kernel row beats the scalar row in ``bench_search.py``'s
#: ``test_crossover_lanes`` sweep (``BENCH_search.json``).
KERNEL_CROSSOVER_LANES = 3

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

#: Largest node set the nested-dissection order ranks as one leaf instead
#: of bisecting it further.  On the KIEL r10 graph, leaves of 4-16 nodes
#: give the same query search space; 32 makes it ~10 % larger.
_CCH_LEAF_SIZE = 8


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
        # Lazily built structures (hot-loop adjacency mirrors, snap
        # memo, CH mirrors) share one reentrant lock; all are pure
        # functions of the frozen arrays, so queries stay read-only in
        # spirit.
        self._lock = threading.RLock()
        self._csr_lists = None
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

        Expands up to *max_ring* hex rings outwards (cheap, local; the
        serving snap keeps the default) and falls back to a vectorised
        full scan over all nodes when the rings miss.  Snaps
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

    def find_path(self, src, dst, method="ch"):
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

        A customizable contraction hierarchy (Dibbelt, Strasser and
        Wagner, ACM JEA 2016), exact by construction with no witness
        search, in four steps:

        1. *Order*: nested dissection by recursive coordinate bisection
           on the axial ``(q, r)`` (:func:`_dissection_rank`).
        2. *Completion*: eliminating nodes in rank order, each node's
           upper neighbours are joined to its lowest upper neighbour,
           giving a chordal supergraph -- the shortcut topology.
        3. *Basic customisation*: bottom-up, every lower triangle
           ``u < v < w`` relaxes ``c(v->w)`` by ``c(v->u) + c(u->w)`` and
           ``c(w->v)`` by ``c(w->u) + c(u->v)``; a triangle that wins
           makes ``u`` the arc's middle node.
        4. *Perfect customisation*: top-down, every arc is lowered to its
           true distance; arcs whose basic cost is above it, or with no
           path at all, are dropped.

        The surviving arcs are stored as upward/downward CSR ``int32``
        arrays with per-edge middle-node back-pointers for path
        unpacking, persisted in every model file so loads skip this
        pass.  The build is deterministic, so a rebuild reproduces the
        persisted arrays bit-exactly.
        """
        with self._lock:
            with _GRAPH_BUILD_SECONDS.time(("ch",)):
                self._compute_ch_locked()
        return self

    def _compute_ch_locked(self):
        n = self.num_nodes
        # Original edges deduplicated to the cheapest parallel edge (what
        # every search relaxes anyway) and self-loop-free (positive
        # costs, never on a cheapest path).
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

        # 1. Order.  Everything below runs in rank space: rank p is node
        # ``node_at[p]``.
        rank = _dissection_rank(self.node_q, self.node_r, eu, ev)
        node_at = np.argsort(rank).astype(np.int64)
        ru = rank[eu].astype(np.int64)
        rv = rank[ev].astype(np.int64)

        # 2. Completion: eliminating ranks bottom-up, a node's upper
        # neighbours all become upper neighbours of its lowest one (its
        # elimination-tree parent).  The result is chordal: any two upper
        # neighbours of a node are adjacent, which is what makes every
        # lower triangle below enumerable.
        upper = [set() for _ in range(n)]
        for a, b in zip(np.minimum(ru, rv).tolist(), np.maximum(ru, rv).tolist()):
            upper[a].add(b)
        rows = []
        parent = [-1] * n
        for p in range(n):
            row = sorted(upper[p])
            rows.append(row)
            if row:
                parent[p] = row[0]
                upper[row[0]].update(row[1:])
        sizes = np.fromiter(map(len, rows), dtype=np.int64, count=n)
        arc_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(sizes, out=arc_ptr[1:])
        num_arcs = int(arc_ptr[-1])
        tail = np.repeat(np.arange(n, dtype=np.int64), sizes)
        head = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=num_arcs)
        arc_key = tail * n + head  # ascending: rows in order, heads sorted
        # Arc ``tail < head`` carries both directions: ``up`` costs
        # tail -> head, ``down`` costs head -> tail; inf = no path yet.
        up = np.full(num_arcs, _INF)
        down = np.full(num_arcs, _INF)
        fwd = ru < rv
        up[np.searchsorted(arc_key, ru[fwd] * n + rv[fwd])] = ec[fwd]
        down[np.searchsorted(arc_key, rv[~fwd] * n + ru[~fwd])] = ec[~fwd]

        def triangles(nodes):
            """Every triangle {u < v < w} with u in *nodes*, as arc
            indices (u,v), (u,w), (v,w): each pair of arcs in one row,
            closed by the arc between their heads (chordality)."""
            arcs = _expand_ranges(arc_ptr[nodes], sizes[nodes])
            later = arc_ptr[tail[arcs] + 1] - arcs - 1
            uv = np.repeat(arcs, later)
            uw = _expand_ranges(arcs + 1, later)
            return uv, uw, np.searchsorted(arc_key, head[uv] * n + head[uw])

        # A node's lower neighbours are its elimination-tree descendants
        # and its upper ones its ancestors, so no two nodes of equal tree
        # height (or depth) are adjacent: relaxing one level's triangles
        # never writes an arc another triangle of that level reads.
        height = [0] * n
        depth = [0] * n
        for p in range(n):
            above = parent[p]
            if above >= 0 and height[above] <= height[p]:
                height[above] = height[p] + 1
        for p in range(n - 1, -1, -1):
            above = parent[p]
            if above >= 0:
                depth[p] = depth[above] + 1

        # 3. Basic customisation, bottom-up: v -> u -> w bounds v -> w
        # (and w -> u -> v bounds w -> v); a strictly cheaper triangle
        # makes u the arc's middle node.
        mid_up = np.full(num_arcs, -1, dtype=np.int64)
        mid_down = np.full(num_arcs, -1, dtype=np.int64)
        for nodes in _level_groups(np.asarray(height, dtype=np.int64)):
            a, b, c = triangles(nodes)
            u = tail[a]
            _relax(up, mid_up, c, down[a] + up[b], u)
            _relax(down, mid_down, c, down[b] + up[a], u)

        # 4. Perfect customisation, top-down: with every arc above u
        # already exact, an arc at u is exact once relaxed through each
        # other upper neighbour of u.  Arcs a cheaper path beats are not
        # needed by any query and are dropped, as are arcs with no path.
        basic_up, basic_down = up.copy(), down.copy()
        for nodes in _level_groups(np.asarray(depth, dtype=np.int64)):
            a, b, c = triangles(nodes)
            np.minimum.at(up, a, basic_up[b] + down[c])
            np.minimum.at(down, a, up[c] + basic_down[b])
            np.minimum.at(up, b, basic_up[a] + up[c])
            np.minimum.at(down, b, down[c] + basic_down[a])
        keep_up = (basic_up == up) & (basic_up < _INF)
        keep_down = (basic_down == down) & (basic_down < _INF)

        # Back to node space.  Both CSRs give each node a row of its
        # higher-ranked neighbours: ``up`` holds the arcs leaving the row
        # node (forward search), ``down`` the arcs entering it (backward
        # search, and the forward search's stall probe).
        low, high = node_at[tail], node_at[head]
        mid_up = np.where(mid_up >= 0, node_at[mid_up], -1)
        mid_down = np.where(mid_down >= 0, node_at[mid_down], -1)
        self.ch_rank = rank
        (
            self.ch_up_indptr,
            self.ch_up_indices,
            self.ch_up_costs,
            self.ch_up_middle,
        ) = _rank_csr(
            n, low[keep_up], high[keep_up], basic_up[keep_up], mid_up[keep_up]
        )
        (
            self.ch_down_indptr,
            self.ch_down_indices,
            self.ch_down_costs,
            self.ch_down_middle,
        ) = _rank_csr(
            n,
            low[keep_down],
            high[keep_down],
            basic_down[keep_down],
            mid_down[keep_down],
        )
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
        """Install precomputed hierarchy arrays (model load path).

        Raises ``ValueError`` unless the arrays form a hierarchy the
        queries can walk: *rank* is a permutation of the nodes, every
        index is in range, every stored arc joins a node to a
        higher-ranked one (up rows climb, down rows hold arcs that
        descend into the row's node), and every middle node is ``-1`` or
        ranked below both endpoints -- which is what makes shortcut
        unpacking terminate.
        """
        rank = np.asarray(rank, dtype=np.int32)
        n = self.num_nodes
        if rank.shape != (n,):
            raise ValueError(f"ch_rank must be shaped ({n},), got {rank.shape}")
        if not np.array_equal(np.sort(rank), np.arange(n)):
            raise ValueError(f"ch_rank must be a permutation of 0..{n - 1}")
        up = _check_ch_csr("ch_up", rank, up_indptr, up_indices, up_costs, up_middle)
        down = _check_ch_csr(
            "ch_down", rank, down_indptr, down_indices, down_costs, down_middle
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

        Equal-cost ties resolve to the lowest node index, both for a
        node's parent among the predecessors that reach its label and
        for the meeting node among those that reach ``mu`` -- the rule
        the batch kernel applies too, so both return the same path.
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
                        old = df.get(v, _INF)
                        if nd < old:
                            df[v] = nd
                            pf[v] = u
                            heappush(heapf, (nd, v))
                            dbv = db.get(v)
                            if dbv is not None and (
                                nd + dbv < mu or nd + dbv == mu and v < meet
                            ):
                                mu = nd + dbv
                                meet = v
                        elif nd == old and u < pf[v]:
                            pf[v] = u
                dbu = db.get(u)
                if dbu is not None and (d + dbu < mu or d + dbu == mu and u < meet):
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
                        old = db.get(v, _INF)
                        if nd < old:
                            db[v] = nd
                            pb[v] = u
                            heappush(heapb, (nd, v))
                            dfv = df.get(v)
                            if dfv is not None and (
                                dfv + nd < mu or dfv + nd == mu and v < meet
                            ):
                                mu = dfv + nd
                                meet = v
                        elif nd == old and u < pb[v]:
                            pb[v] = u
                dfu = df.get(u)
                if dfu is not None and (dfu + d < mu or dfu + d == mu and u < meet):
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

    def find_paths_batch(self, pairs):
        """Answer many ``(src, dst)`` cell-id CH queries in one call.

        Every non-degenerate pair runs through the vectorised batch
        kernel (:func:`repro.core.kernel.solve_batch`): one NumPy
        frontier sweep answers the whole batch instead of one Python
        heap loop per query, with costs bit-equal to scalar CH.  Batches
        smaller than :data:`KERNEL_CROSSOVER_LANES` fall back to the
        scalar CH query per pair, which wins below the sweep's fixed
        cost (same costs and paths; ``expanded`` counts settled nodes,
        as for any scalar query).  Degenerate pairs
        (missing endpoints, ``src == dst``, provably unreachable) are
        short-circuited before any kernel work, exactly like
        :meth:`find_path`.

        Returns a list aligned with *pairs* of :class:`SearchResult`
        (``expanded`` counts labelled nodes across both sweep
        directions, the batch analogue of settled nodes) or ``None``.
        """
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
                results[i] = SearchResult((cell,), 0.0, 0, "ch", (si,))
                continue
            if not self._degenerate_unreachable(si, di):
                lanes.append((i, si, di))
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


def _dissection_rank(q, r, eu, ev):
    """Nested-dissection contraction order by recursive coordinate bisection.

    A node set is split at the median of its longer axial axis (*q* or
    *r*).  The endpoints of the cut edges on the side with fewer of them
    form a separator: the two halves are ranked recursively, then the
    separator above both, so no shortcut ever joins the halves.  Sets of
    at most ``_CCH_LEAF_SIZE`` nodes are ranked in the order they come.
    *eu*/*ev* are the edge endpoints; costs play no part, so the order
    is a pure function of the cells and the edge topology.
    """
    n = q.size
    rank = np.empty(n, dtype=np.int32)
    half = np.zeros(n, dtype=np.int8)
    in_sep = np.zeros(n, dtype=bool)
    next_rank = 0

    def assign(nodes):
        nonlocal next_rank
        rank[nodes] = np.arange(next_rank, next_rank + nodes.size)
        next_rank += nodes.size

    def dissect(nodes, su, sv):
        if nodes.size <= _CCH_LEAF_SIZE:
            assign(nodes)
            return
        nq, nr = q[nodes], r[nodes]
        axis = nq if np.ptp(nq) >= np.ptp(nr) else nr
        nodes = nodes[np.argsort(axis, kind="stable")]
        lo, hi = nodes[: nodes.size // 2], nodes[nodes.size // 2 :]
        half[lo] = 0
        half[hi] = 1
        hu = half[su]
        cut = hu != half[sv]
        ends = np.concatenate([su[cut], sv[cut]])
        lo_ends = np.unique(ends[half[ends] == 0])
        hi_ends = np.unique(ends[half[ends] == 1])
        sep = lo_ends if lo_ends.size <= hi_ends.size else hi_ends
        in_sep[sep] = True
        inner = ~cut & ~in_sep[su] & ~in_sep[sv]
        su, sv, left = su[inner], sv[inner], hu[inner] == 0
        dissect(lo[~in_sep[lo]], su[left], sv[left])
        dissect(hi[~in_sep[hi]], su[~left], sv[~left])
        assign(sep)

    dissect(np.arange(n, dtype=np.int64), eu, ev)
    return rank


def _level_groups(levels):
    """Indices of equal *levels*, lowest level first, ascending within."""
    order = np.argsort(levels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(levels[order])) + 1)


def _relax(cost, middle, arcs, through, via):
    """Lower ``cost[arcs]`` to *through* and, where that strictly wins,
    set ``middle[arcs]`` to the lowest tying *via* node."""
    before = cost[arcs]
    np.minimum.at(cost, arcs, through)
    won = (through < before) & (through == cost[arcs])
    if won.any():
        middle[arcs[won]] = np.iinfo(middle.dtype).max
        np.minimum.at(middle, arcs[won], via[won])


def _rank_csr(n, rows, cols, costs, middles):
    """One hierarchy direction as CSR: a row per node, columns ascending."""
    order = np.lexsort((cols, rows))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return (
        indptr,
        cols[order].astype(np.int32),
        costs[order],
        middles[order].astype(np.int32),
    )


def _check_ch_csr(name, rank, indptr, indices, costs, middle):
    """Validate one direction's CH CSR arrays against *rank* (see ``set_ch``)."""
    num_nodes = rank.size
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int32)
    costs = np.asarray(costs, dtype=np.float64)
    middle = np.asarray(middle, dtype=np.int32)
    if indptr.shape != (num_nodes + 1,):
        raise ValueError(
            f"{name}_indptr must be shaped ({num_nodes + 1},), got {indptr.shape}"
        )
    if indptr[0] != 0 or (np.diff(indptr) < 0).any():
        raise ValueError(f"{name}_indptr must rise from 0")
    edges = int(indptr[-1])
    if not (len(indices) == len(costs) == len(middle) == edges):
        raise ValueError(
            f"{name} arrays must all hold {edges} edges, got "
            f"{len(indices)} / {len(costs)} / {len(middle)}"
        )
    if ((indices < 0) | (indices >= num_nodes)).any() or (
        (middle < -1) | (middle >= num_nodes)
    ).any():
        raise ValueError(f"{name} node indices out of range")
    # Up row u lists heads above u; down row v lists tails above v.
    row_rank = np.repeat(rank, np.diff(indptr))
    if (rank[indices] <= row_rank).any():
        raise ValueError(f"{name} arcs must join each row to higher-ranked nodes")
    shortcut = middle >= 0
    if (rank[middle[shortcut]] >= row_rank[shortcut]).any():
        raise ValueError(f"{name} middle nodes must rank below both endpoints")
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
