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
  middle-node back-pointers on every shortcut.  Every CH query goes
  through :meth:`CellGraph.find_paths_batch` (a one-pair query is a
  one-lane batch) and its vectorised kernel
  (:mod:`repro.core.kernel`): a bidirectional upward-only sweep with
  stall-on-demand pruning, unpacking shortcuts back into original
  cells.  The hierarchy is stored as CSR ``int32`` arrays and persisted
  in every model file; the kernel tables are built with it.

Two weight schemes are supported:

- ``"transitions"`` (paper): cost ~ grid span, with a vanishing bonus for
  frequently observed transitions (ties break toward habit).
- ``"inverse_frequency"``: popular edges are up to 2x cheaper per step,
  steering paths onto dominant lanes.
"""

import threading
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import chain, count
from time import perf_counter

import numpy as np

from repro.core.kernel import (
    KERNEL_BATCH_SIZE,
    KERNEL_SECONDS,
    KERNEL_SWEEP_ITERATIONS,
    _expand_ranges,
    batch_ch_paths,
    build_kernel_tables,
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

#: Search variants accepted by :meth:`CellGraph.find_path`.  Imputation
#: and serving always search with ``"ch"``; ``"astar"`` (the paper's
#: query) and ``"dijkstra"`` (its ablation control) are reached here.
SEARCH_METHODS = ("dijkstra", "astar", "ch")

#: Node placements accepted by :meth:`CellGraph.from_statistics`.
PROJECTIONS = ("center", "mean")

#: Edge weight schemes accepted by :meth:`CellGraph.from_statistics`.
EDGE_WEIGHTS = ("transitions", "inverse_frequency")

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
    "Search-preprocessing build duration, by stage (ch, kernel_tables).",
    ("stage",),
)

#: Source of :attr:`CellGraph.serial`: a counter, not ``id()``, because
#: ids are reused once a graph is garbage-collected.
_GRAPH_SERIALS = count(1)

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

    ``cells`` are packed cell ids along the path (src..dst inclusive),
    ``node_indices`` the same nodes in dense index space (what the
    imputer gathers positions with); both are ``int64`` arrays -- in a
    batch, slices of one gather and of the kernel's output.  ``expanded``
    counts settled nodes for A* and Dijkstra and labelled nodes for CH
    -- the search-effort signal surfaced in serving provenance and the
    A* ablation.
    """

    cells: np.ndarray
    cost: float
    expanded: int
    method: str
    node_indices: np.ndarray = field(repr=False)


class CellGraph:
    """Directed graph over hex cells with metricised transition costs."""

    def __init__(self, cells, lats, lngs, edge_src, edge_dst, edge_cost, edge_count):
        #: Process-unique and increasing in build order, one per built or
        #: loaded graph: the serving engine keys its answers by it, so an
        #: answer is only ever reused on the graph that computed it.
        self.serial = next(_GRAPH_SERIALS)
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
        # ``kernel_tables`` is what CH queries read; it is installed with
        # the arrays.
        self.ch_rank = None
        self.ch_up_indptr = None
        self.ch_up_indices = None
        self.ch_up_costs = None
        self.ch_up_middle = None
        self.ch_down_indptr = None
        self.ch_down_indices = None
        self.ch_down_costs = None
        self.ch_down_middle = None
        self.kernel_tables = None
        # Lazily built structures (the A* adjacency mirror, the
        # heuristic memo, a hand-made graph's hierarchy) share one
        # reentrant lock; all are pure functions of the frozen arrays,
        # so queries stay read-only in spirit.
        self._lock = threading.RLock()
        self._csr_lists = None
        self._h_cache = {}  # target idx -> python list
        self._in_deg = None  # per-node in-degree (degenerate short-circuit)

    @classmethod
    def from_statistics(cls, cell_stats, transition_stats, projection, edge_weight):
        """Build a graph from :func:`repro.core.statistics.compute_statistics`.

        *projection* places each node at the cell centre (``"center"``) or
        at the mean of its observed positions (``"mean"``).
        """
        cells = np.asarray(cell_stats.column("cell"), dtype=np.int64)
        if projection == "center":
            lats, lngs = cell_to_latlng_array(cells)
        elif projection == "mean":
            lats = np.asarray(cell_stats.column("mean_lat"), dtype=np.float64)
            lngs = np.asarray(cell_stats.column("mean_lon"), dtype=np.float64)
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
        full scan over all nodes when the rings miss.  Returns ``None``
        only for an empty graph.
        """
        if self.num_nodes == 0:
            return None
        cell = int(cell)
        if self.node_index(cell) >= 0:
            return cell
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
        paths (the heuristics are admissible and consistent).  A ``"ch"``
        query is ``find_paths_batch([(src, dst)])[0]``: a one-lane batch,
        counted in the metrics like one.
        """
        if method not in SEARCH_METHODS:
            raise ValueError(
                f"unknown search method {method!r}; expected one of {SEARCH_METHODS}"
            )
        if method == "ch":
            return self.find_paths_batch([(src, dst)])[0]
        started = perf_counter()
        result = self._find_path(src, dst, method)
        _SEARCH_SECONDS.observe(perf_counter() - started, (method,))
        if result is not None:
            _SEARCH_EXPANDED.observe(result.expanded, (method,))
        return result

    def _find_path(self, src, dst, method):
        """A* (``"astar"``) or Dijkstra (``"dijkstra"``) over node indices."""
        si = self.node_index(src)
        di = self.node_index(dst)
        if si < 0 or di < 0:
            return None
        if si == di:
            found = ([si], 0.0, 0)
        elif self._degenerate_unreachable(si, di):
            return None
        else:
            h = self._grid_h(di) if method == "astar" else None
            found = self._astar_indices(si, di, h)
        if found is None:
            return None
        path, cost, expanded = found
        path = np.array(path, dtype=np.int64)
        return SearchResult(self.cells[path], cost, expanded, method, path)

    def _degenerate_unreachable(self, si, di):
        """Cheap provable-unreachable test for ``si != di`` pairs.

        A source with no outgoing edges cannot reach anything and a
        target with no incoming edges cannot be reached, so every
        variant can return ``None`` before touching its heap or sweep
        (or building a hand-made graph's hierarchy).  Elementwise:
        *si*/*di* are node indices or aligned index arrays.
        """
        return (self.indptr[si + 1] == self.indptr[si]) | (self._in_degree()[di] == 0)

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
        """Whether the contraction hierarchy (and its kernel tables) is
        installed."""
        return self.kernel_tables is not None

    def ensure_ch(self):
        """Build the hierarchy if absent (idempotent, thread-safe).

        Fitted and loaded graphs already hold one; this builds it for a
        graph made by hand, on its first CH query or save.
        """
        if self.kernel_tables is None:
            with self._lock:
                if self.kernel_tables is None:
                    self.compute_ch()
        return self

    def compute_ch(self):
        """(Re)build the contraction hierarchy and its kernel tables.

        A customizable contraction hierarchy (Dibbelt, Strasser and
        Wagner, ACM JEA 2016), exact by construction with no witness
        search, in four steps:

        1. *Order*: nested dissection by level-synchronous coordinate
           bisection on the axial ``(q, r)`` (:func:`_dissection_rank`).
        2. *Completion*: eliminating nodes in rank order, each node's
           upper neighbours are joined to its lowest upper neighbour,
           giving a chordal supergraph -- the shortcut topology.
        3. *Basic customisation*: bottom-up over elimination-tree
           height levels, every lower triangle ``u < v < w`` relaxes
           ``c(v->w)`` by ``c(v->u) + c(u->w)`` and ``c(w->v)`` by
           ``c(w->u) + c(u->v)``; the triangle that wins makes ``u`` the
           arc's middle node and its arcs at ``u`` the arc's halves.
        4. *Perfect customisation*: top-down over the same height
           levels (every ancestor is taller, so the arcs a level reads
           are already exact), every arc is lowered to its true
           distance; arcs whose basic cost is above it, or with no path
           at all, are dropped -- unless a kept shortcut unpacks through
           them.

        The surviving arcs are stored as upward/downward CSR ``int32``
        arrays with per-edge middle-node back-pointers for path
        unpacking, persisted in every model file so loads skip this
        pass.  The build is deterministic, so a rebuild reproduces the
        persisted arrays bit-exactly.  The batch-kernel tables every CH
        query reads are built from the arrays, with the halves step 3
        found, before this returns.
        """
        with self._lock:
            with _GRAPH_BUILD_SECONDS.time(("ch",)):
                hierarchy = self._hierarchy()
            self._install_ch(*hierarchy)
        return self

    def _hierarchy(self):
        """The ``compute_ch`` arrays: ``(rank, up, down, halves)``, each
        direction an ``(indptr, indices, costs, middle)`` CSR, and
        *halves* each arc's two shortcut halves as rows of the up-then-
        down listing of both CSRs (``-1`` for an original edge)."""
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
        ekey = eu[keep] * n + ev[keep]
        order = np.argsort(ekey)
        ekey = ekey[order]
        first = np.ones(ekey.size, dtype=bool)
        first[1:] = ekey[1:] != ekey[:-1]
        starts = np.flatnonzero(first)
        ec = np.fmin.reduceat(ec[keep][order], starts) if starts.size else ec[:0]
        eu, ev = np.divmod(ekey[starts], n)

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
        # lower triangle below enumerable.  A node's lower neighbours are
        # its elimination-tree descendants and its upper ones its
        # ancestors, and every ancestor is strictly taller, so no two
        # nodes of equal tree height are adjacent: relaxing one height
        # level's triangles never writes an arc another triangle of that
        # level reads.
        upper = [set() for _ in range(n)]
        for a, b in zip(np.minimum(ru, rv).tolist(), np.maximum(ru, rv).tolist()):
            upper[a].add(b)
        rows = []
        height = [0] * n
        for p in range(n):
            above = upper[p]
            row = sorted(above)
            rows.append(row)
            if row:
                parent = row[0]
                above.discard(parent)
                upper[parent] |= above
                if height[parent] <= height[p]:
                    height[parent] = height[p] + 1
        sizes = np.fromiter(map(len, rows), dtype=np.int64, count=n)
        arc_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(sizes, out=arc_ptr[1:])
        num_arcs = int(arc_ptr[-1])
        tail = np.repeat(np.arange(n, dtype=np.int64), sizes)
        head = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=num_arcs)
        del upper, rows  # the completion's Python sets and lists
        arc_key = tail * n + head  # ascending: rows in order, heads sorted
        # Arc ``tail < head`` carries both directions: ``up`` costs
        # tail -> head, ``down`` costs head -> tail; inf = no path yet.
        up = np.full(num_arcs, _INF)
        down = np.full(num_arcs, _INF)
        fwd = ru < rv
        up[np.searchsorted(arc_key, ru[fwd] * n + rv[fwd])] = ec[fwd]
        down[np.searchsorted(arc_key, rv[~fwd] * n + ru[~fwd])] = ec[~fwd]

        # Every triangle {u < v < w} as arc indices (u,v), (u,w), (v,w),
        # enumerated once with the nodes u in height order: each pair of
        # arcs in u's row, closed by the arc between their heads
        # (chordality).  Node u's triangles are one contiguous block, and
        # so is each height level's, ascending in u within it.
        by_height = _level_groups(np.asarray(height, dtype=np.int64))
        nodes = np.concatenate(by_height)
        arcs = _expand_ranges(arc_ptr[nodes], sizes[nodes])
        later = arc_ptr[tail[arcs] + 1] - arcs - 1
        tri_a = np.repeat(arcs, later)
        tri_b = _expand_ranges(arcs + 1, later)
        tri_c = np.searchsorted(arc_key, head[tri_a] * n + head[tri_b])
        tri_u = tail[tri_a]
        count = (sizes * (sizes - 1) // 2)[nodes]
        tri_end = np.concatenate([[0], np.cumsum(count)])
        bounds = tri_end[np.cumsum([0] + [group.size for group in by_height])].tolist()
        levels = list(zip(bounds[:-1], bounds[1:]))

        # 3. Basic customisation, bottom-up: v -> u -> w bounds v -> w
        # (and w -> u -> v bounds w -> v).  Each arc records the triangle
        # that last strictly lowered it: the lowest tying index, which
        # within a level is the lowest tying u.  That u is the arc's
        # middle node, and the triangle's other two arcs are its halves.
        win_up = np.full(num_arcs, -1, dtype=np.int64)
        win_down = np.full(num_arcs, -1, dtype=np.int64)
        for lo, hi in levels:
            a, b, c = tri_a[lo:hi], tri_b[lo:hi], tri_c[lo:hi]
            tri = np.arange(lo, hi)
            _relax(up, win_up, c, down[a] + up[b], tri)
            _relax(down, win_down, c, down[b] + up[a], tri)

        # 4. Perfect customisation, top-down over the same height levels:
        # every upper neighbour of u is taller than u, so with the taller
        # levels done every arc above u is exact, and an arc at u is exact
        # once relaxed through each other upper neighbour of u.  Arcs a
        # cheaper path beats are not needed by any query and are dropped,
        # as are arcs with no path.
        basic_up, basic_down = up.copy(), down.copy()
        for lo, hi in reversed(levels):
            a, b, c = tri_a[lo:hi], tri_b[lo:hi], tri_c[lo:hi]
            np.minimum.at(up, a, basic_up[b] + down[c])
            np.minimum.at(down, a, up[c] + basic_down[b])
            np.minimum.at(up, b, basic_up[a] + up[c])
            np.minimum.at(down, b, down[c] + basic_down[a])
        keep_up = (basic_up == up) & (basic_up < _INF)
        keep_down = (basic_down == down) & (basic_down < _INF)
        # Float re-association can leave a half of a kept shortcut an ulp
        # above its exact cost, which drops it, yet unpacking the
        # shortcut needs it.  So every arc a kept shortcut unpacks
        # through stays, at its basic cost: a closure over the halves,
        # grown from the kept shortcuts until no new arc joins.  Shortcut
        # v -> w through u is v -> u (down on arc (u, v)) then u -> w (up
        # on arc (u, w)); w -> v through u is w -> u then u -> v.
        up_todo = np.flatnonzero(keep_up & (win_up >= 0))
        down_todo = np.flatnonzero(keep_down & (win_down >= 0))
        while up_todo.size or down_todo.size:
            t_up, t_down = win_up[up_todo], win_down[down_todo]
            new_up = np.concatenate([tri_b[t_up], tri_a[t_down]])
            new_down = np.concatenate([tri_a[t_up], tri_b[t_down]])
            new_up = new_up[~keep_up[new_up]]
            new_down = new_down[~keep_down[new_down]]
            keep_up[new_up] = True
            keep_down[new_down] = True
            up_todo = new_up[win_up[new_up] >= 0]
            down_todo = new_down[win_down[new_down] >= 0]

        # Back to node space.  Both CSRs give each node a row of its
        # higher-ranked neighbours: ``up`` holds the arcs leaving the row
        # node (forward search), ``down`` the arcs entering it (backward
        # search, and the forward search's stall probe).
        low, high = node_at[tail], node_at[head]

        def direction(keep, cost, win):
            arcs = np.flatnonzero(keep)
            middle = np.full(arcs.size, -1, dtype=np.int64)
            won = win[arcs] >= 0
            middle[won] = node_at[tri_u[win[arcs[won]]]]
            order, csr = _rank_csr(n, low[arcs], high[arcs], cost[arcs], middle)
            return arcs[order], csr

        up_arcs, up_csr = direction(keep_up, basic_up, win_up)
        down_arcs, down_csr = direction(keep_down, basic_down, win_down)
        # Each shortcut's halves as rows of the up-then-down CSR listing
        # (-1 for original edges and for a half that was not kept); the
        # first half always runs down an arc, the second up.
        up_row = np.full(num_arcs, -1, dtype=np.int64)
        down_row = np.full(num_arcs, -1, dtype=np.int64)
        up_row[up_arcs] = np.arange(up_arcs.size)
        down_row[down_arcs] = np.arange(down_arcs.size) + up_arcs.size
        halves = np.full((up_arcs.size + down_arcs.size, 2), -1, dtype=np.int64)
        for base, win, to_u, from_u in (
            (0, win_up[up_arcs], tri_a, tri_b),
            (up_arcs.size, win_down[down_arcs], tri_b, tri_a),
        ):
            won = np.flatnonzero(win >= 0)
            halves[base + won, 0] = down_row[to_u[win[won]]]
            halves[base + won, 1] = up_row[from_u[win[won]]]
        return rank, up_csr, down_csr, halves

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
        descend into the row's node), every middle node is ``-1`` or
        ranked below both endpoints -- which is what makes shortcut
        unpacking terminate -- every cost is finite and positive, as a
        search over non-negative lengths needs, and every arc unpacks to
        edges of the graph: both halves of each shortcut are stored arcs,
        and each arc marked original (``-1``) is an edge.  The kernel
        tables are built here, so a loaded graph answers its first query
        without preprocessing.
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
        self._install_ch(rank, up, down)
        return self

    def _install_ch(self, rank, up, down, halves=None):
        """Install hierarchy arrays and the kernel tables built from
        them (*halves* as :meth:`_hierarchy` returns them, or ``None`` to
        look them up by key).  The tables go in last, so a query never
        reads a half-installed hierarchy; when their build raises
        ``ValueError`` (:func:`_kernel_tables`), nothing is installed."""
        with _GRAPH_BUILD_SECONDS.time(("kernel_tables",)):
            tables = _kernel_tables(self, up, down, halves)
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
        self.kernel_tables = tables

    # -- batch queries -----------------------------------------------------

    def find_paths_batch(self, pairs):
        """Answer many ``(src, dst)`` cell-id CH queries in one call.

        Every non-degenerate pair runs through the vectorised batch
        kernel (:func:`repro.core.kernel.batch_ch_paths`): one NumPy
        frontier sweep answers the whole batch instead of one Python
        heap loop per query.  Degenerate pairs (missing endpoints,
        ``src == dst``, provably unreachable) are short-circuited before
        any kernel work.  This is the one CH entry point: a one-pair
        :meth:`find_path` is a one-lane call of it.

        Returns a list aligned with *pairs* of :class:`SearchResult`
        (``expanded`` counts labelled nodes across both sweep
        directions) or ``None``.
        """
        pairs = list(pairs)
        KERNEL_BATCH_SIZE.observe(len(pairs))
        started = perf_counter()
        results = [None] * len(pairs)
        ends = self._node_index_array(
            np.asarray(pairs, dtype=np.int64).reshape(len(pairs), 2)
        ).astype(np.int64)
        si, di = ends[:, 0], ends[:, 1]
        found = (si >= 0) & (di >= 0)
        for i in np.flatnonzero(found & (si == di)).tolist():
            node = si[i : i + 1]
            results[i] = SearchResult(self.cells[node], 0.0, 0, "ch", node)
        lanes = np.flatnonzero(found & (si != di))
        live = ~self._degenerate_unreachable(si[lanes], di[lanes])
        lanes = lanes[live]
        if lanes.size:
            self.ensure_ch()
            kernel_started = perf_counter()
            indptr, nodes, costs, expanded, rounds = batch_ch_paths(
                self.kernel_tables, si[lanes], di[lanes]
            )
            KERNEL_SWEEP_ITERATIONS.observe(rounds)
            # Each lane is one search: feed the per-query series too (an
            # equal share of the sweep), so dashboards count searches.
            share = (perf_counter() - kernel_started) / lanes.size
            _SEARCH_SECONDS.observe_many([share] * lanes.size, ("ch",))
            reached = np.flatnonzero(np.isfinite(costs))
            labelled = expanded[reached].tolist()
            _SEARCH_EXPANDED.observe_many(labelled, ("ch",))
            cells = self.cells[nodes]
            bounds = indptr.tolist()
            for j, lane, cost, effort in zip(
                reached.tolist(), lanes[reached].tolist(), costs[reached].tolist(), labelled
            ):
                lo, hi = bounds[j], bounds[j + 1]
                results[lane] = SearchResult(cells[lo:hi], cost, effort, "ch", nodes[lo:hi])
        KERNEL_SECONDS.observe(perf_counter() - started)
        return results


# -- CH module helpers -----------------------------------------------------


def _dissection_rank(q, r, eu, ev):
    """Nested-dissection contraction order by coordinate bisection.

    A node set (a *part*) is split at the median of its longer axial
    axis (*q* or *r*, *q* on a tie).  The endpoints of the cut edges on
    the side with fewer of them form a separator: the lower half is
    ranked first, then the upper half, then the separator above both in
    ascending node id, so no shortcut ever joins the halves.  Parts of
    at most ``_CCH_LEAF_SIZE`` nodes are ranked in the order they came.
    *eu*/*ev* are the edge endpoints; costs play no part, so the order
    is a pure function of the cells and the edge topology.

    The bisection is level-synchronous: each pass splits every open part
    at once.  Open nodes stay grouped by part, in arrival order within
    it, and one stable sort by ``(part, axis)`` splits them all; each
    part's rank range is fixed top-down from the sizes of its halves.
    """
    n = q.size
    rank = np.empty(n, dtype=np.int32)
    owner = np.zeros(n, dtype=np.int64)  # part of each open node, -1 once ranked
    half = np.zeros(n, dtype=bool)  # True on the upper half of its part
    ends = np.zeros(n, dtype=bool)  # endpoint of a cut edge this pass
    nodes = np.arange(n, dtype=np.int64)
    sizes = np.array([n] if n else [], dtype=np.int64)
    bases = np.zeros(sizes.size, dtype=np.int64)  # first rank of each part
    su, sv = eu, ev
    while nodes.size:
        # Leaves take their part's ranks in arrival order.
        small = sizes <= _CCH_LEAF_SIZE
        leaf = np.repeat(small, sizes)
        done = nodes[leaf]
        rank[done] = (np.repeat(bases, sizes) + _run_positions(sizes))[leaf]
        owner[done] = -1
        nodes, sizes, bases = nodes[~leaf], sizes[~small], bases[~small]
        if not nodes.size:
            break
        num = sizes.size
        starts = np.cumsum(sizes) - sizes
        part = np.repeat(np.arange(num, dtype=np.int64), sizes)
        owner[nodes] = part
        # Only edges inside one open part can be cut.
        eo = owner[su]
        inside = (eo >= 0) & (eo == owner[sv])
        su, sv = su[inside], sv[inside]
        # Split every part at the median of its longer axis.
        nq, nr = q[nodes], r[nodes]
        use_q = np.maximum.reduceat(nq, starts) - np.minimum.reduceat(nq, starts) >= (
            np.maximum.reduceat(nr, starts) - np.minimum.reduceat(nr, starts)
        )
        # One stable sort by (part, axis) as a single int64 key.
        axis = np.where(use_q[part], nq, nr).astype(np.int64)
        axis -= axis.min()
        nodes = nodes[np.argsort(part * (int(axis.max()) + 1) + axis, kind="stable")]
        upper = _run_positions(sizes) >= np.repeat(sizes // 2, sizes)
        half[nodes] = upper
        # The separator: the side with fewer cut-edge endpoints.
        cut = half[su] != half[sv]
        ends[su[cut]] = True
        ends[sv[cut]] = True
        marked = ends[nodes]
        ends[nodes] = False
        lo_ends = np.bincount(part[marked & ~upper], minlength=num)
        hi_ends = np.bincount(part[marked & upper], minlength=num)
        sep = marked & (upper == (lo_ends > hi_ends)[part])
        lo_size = np.bincount(part[~upper & ~sep], minlength=num)
        hi_size = np.bincount(part[upper & ~sep], minlength=num)
        # Separators rank above both halves, in ascending node id.
        sep_nodes, sep_part = nodes[sep], part[sep]
        by_id = np.argsort(sep_part * n + sep_nodes)  # unique keys
        sep_nodes, sep_part = sep_nodes[by_id], sep_part[by_id]
        sep_pos = _run_positions(np.bincount(sep_part, minlength=num))
        rank[sep_nodes] = bases[sep_part] + lo_size[sep_part] + hi_size[sep_part] + sep_pos
        owner[sep_nodes] = -1
        # Each part's halves become the next pass's parts, lower first.
        nodes = nodes[~sep]
        sizes = np.stack((lo_size, hi_size), axis=1).ravel()
        bases = np.stack((bases, bases + lo_size), axis=1).ravel()
        live = sizes > 0
        sizes, bases = sizes[live], bases[live]
    return rank


def _run_positions(sizes):
    """Each element's position within its run, for runs of *sizes*."""
    return np.arange(int(sizes.sum())) - np.repeat(np.cumsum(sizes) - sizes, sizes)


def _level_groups(levels):
    """Indices of equal *levels*, lowest level first, ascending within."""
    order = np.argsort(levels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(levels[order])) + 1)


def _relax(cost, win, arcs, through, via):
    """Lower ``cost[arcs]`` to *through* and, where that strictly wins,
    set ``win[arcs]`` to the lowest tying *via*."""
    before = cost[arcs]
    np.minimum.at(cost, arcs, through)
    won = (through < before) & (through == cost[arcs])
    if won.any():
        win[arcs[won]] = np.iinfo(win.dtype).max
        np.minimum.at(win, arcs[won], via[won])


def _rank_csr(n, rows, cols, costs, middles):
    """One hierarchy direction as CSR: a row per node, columns ascending.
    Returns ``(order, csr)``, *order* placing the inputs in CSR order."""
    order = np.argsort(rows * n + cols)  # (row, column) pairs are unique
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return order, (
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
    if not (np.isfinite(costs) & (costs > 0)).all():
        raise ValueError(f"{name}_costs must be finite and positive")
    return indptr, indices, costs, middle



def _kernel_tables(graph, up, down, halves=None):
    """The batch-kernel tables for one hierarchy of *graph*.

    Sorts the arcs of both directions into one table -- flat ``u * n +
    v`` keys paired with middle nodes (-1 = original edge); every arc
    lives in exactly one direction, so keys are unique -- and hands it
    with the ``(indptr, indices, costs)`` CSRs to
    :func:`repro.core.kernel.build_kernel_tables`.  *halves* (from
    :meth:`CellGraph._hierarchy`) name each shortcut's halves as rows of
    the up-then-down arc listing; without them the kernel looks the
    halves up by key.  Raises ``ValueError`` unless every arc unpacks to
    edges of *graph*: an arc marked original must be an edge, and
    (checked by the kernel) both halves of every shortcut must be arcs.
    """
    n = graph.num_nodes
    rows = np.arange(n, dtype=np.int64)
    keys = np.concatenate(
        [
            np.repeat(rows, np.diff(up[0])) * n + up[1],
            # Down row v holds incoming arcs u -> v.
            down[1].astype(np.int64) * n + np.repeat(rows, np.diff(down[0])),
        ]
    )
    middles = np.concatenate([up[3], down[3]]).astype(np.int32)
    edges = np.sort(np.repeat(rows, np.diff(graph.indptr)) * n + graph.indices)
    original = keys[middles < 0]
    if (np.searchsorted(edges, original) == np.searchsorted(edges, original, "right")).any():
        raise ValueError("ch_middle: an arc marked original (-1) is no edge of the graph")
    order = np.argsort(keys, kind="stable")
    middles = middles[order]
    if halves is not None:
        # Listing rows -> table rows, for the shortcuts in table order.
        at = np.empty_like(order)
        at[order] = np.arange(order.size)
        halves = halves[order[middles >= 0]]
        halves = np.where(halves >= 0, at[halves], -1)
    return build_kernel_tables(n, up[:3], down[:3], keys[order], middles, halves)
