"""The heap-based CH query the batch kernel replaced, kept as its oracle.

Every CH query now runs through the vectorised kernel
(``repro.core.kernel``).  This module keeps the scalar bidirectional
upward Dijkstra with stall-on-demand it replaced -- tuple rows over the
hierarchy's CSR arrays, a ``(u, v) -> middle`` dict and an iterative
shortcut unpacker -- so the property suites can hold the kernel to the
same paths, node for node, and the same float costs, bit for bit.
"""

from heapq import heappop, heappush

_INF = float("inf")


def _rows(indptr, indices, costs):
    """Per-node ``((v, w), ...)`` rows of one CSR direction."""
    bounds = indptr.tolist()
    pairs = list(zip(indices.tolist(), costs.tolist()))
    return [tuple(pairs[bounds[u] : bounds[u + 1]]) for u in range(len(bounds) - 1)]


def ch_middles(graph):
    """``(u, v) -> middle node`` over the hierarchy's arcs (-1 = original).

    Up row u holds arcs u -> v; down row v holds arcs u -> v.  Each arc
    lives in exactly one direction, so the union is collision-free.
    """
    middles = {}
    for name, row_is_tail in (("up", True), ("down", False)):
        indptr = getattr(graph, f"ch_{name}_indptr").tolist()
        indices = getattr(graph, f"ch_{name}_indices").tolist()
        mids = getattr(graph, f"ch_{name}_middle").tolist()
        for row in range(len(indptr) - 1):
            for e in range(indptr[row], indptr[row + 1]):
                arc = (row, indices[e]) if row_is_tail else (indices[e], row)
                middles[arc] = mids[e]
    return middles


def ch_unpack(a, b, middles, out):
    """Expand one arc ``a -> b`` into original nodes, appending every
    node after ``a`` to *out* (iterative in-order walk of the shortcut
    tree; an arc the table lacks counts as an original edge)."""
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


class ScalarCH:
    """The scalar CH query over one graph's hierarchy (built if absent)."""

    def __init__(self, graph):
        graph.ensure_ch()
        self.graph = graph
        self.up = _rows(graph.ch_up_indptr, graph.ch_up_indices, graph.ch_up_costs)
        self.down = _rows(
            graph.ch_down_indptr, graph.ch_down_indices, graph.ch_down_costs
        )
        self.middles = ch_middles(graph)

    def find_path(self, src, dst):
        """``(cells, cost)`` of the cheapest *src* -> *dst* path (cell
        ids), or ``None`` when an endpoint is no node or no path exists."""
        graph = self.graph
        si, di = graph.node_index(src), graph.node_index(dst)
        if si < 0 or di < 0:
            return None
        if si == di:
            return (int(graph.cells[si]),), 0.0
        found = self.query(si, di)
        if found is None:
            return None
        path, cost, _ = found
        return tuple(graph.cells[path].tolist()), cost

    def query(self, si, di):
        """Bidirectional upward Dijkstra with stall-on-demand.

        Both searches only relax arcs toward higher-ranked nodes.  A
        settled node is *stalled* -- counted out of ``expanded`` and not
        relaxed -- when a higher-ranked neighbour already proves its
        label suboptimal.  ``mu`` tracks the best meeting cost; a side
        stops once its queue minimum reaches ``mu``.  Equal-cost ties
        resolve to the lowest node index, both for a node's parent and
        for the meeting node.  Returns ``(node path, cost, settled)``.
        """
        up, down = self.up, self.down
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
                stalled = any(
                    df.get(v) is not None and df[v] + w < d for v, w in down[u]
                )
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
                stalled = any(
                    db.get(v) is not None and db[v] + w < d for v, w in up[u]
                )
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
        # Up-down arc chain: forward parents back to si, backward parents
        # on to di, then shortcut unpacking.
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
        path = [chain[0]]
        for a, b in zip(chain, chain[1:]):
            ch_unpack(a, b, self.middles, path)
        return path, mu, expanded
