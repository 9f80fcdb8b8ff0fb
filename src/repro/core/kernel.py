"""Vectorised batch query kernel over contraction-hierarchy CSR arrays.

This kernel answers every CH query, through its one caller
:meth:`~repro.core.graph.CellGraph.find_paths_batch` (a one-pair
:meth:`~repro.core.graph.CellGraph.find_path` is a one-lane batch).  A
query labels ~70 nodes on the r10 customizable hierarchy, so a Python
heap loop would spend nearly all of its latency on interpreter overhead
(~8 us per settled node).  This module removes the interpreter from the per-node
path by answering *many* ``(src, dst)`` queries in one NumPy sweep:

- **One combined bidirectional sweep.**  Upward CH edges go strictly to
  higher-ranked nodes, so each directed search space is a DAG and a
  label-correcting sweep converges without any priority queue.  Forward
  and backward searches run as *one* sweep over a doubled node space:
  lane ``q`` holds its forward labels at ``[0, n)`` and its backward
  labels at ``[n, 2n)`` of the same row, seeded with both endpoints at
  once.  Each round relaxes every outgoing edge of the active frontier
  for all queries with one ``np.minimum.at`` scatter; rounds stop at
  the fixpoint, after max(longest up chain, longest down chain) rounds
  instead of their sum.
- **Vectorised stall-on-demand.**  Before expanding, frontier entries
  whose label a higher-ranked in-neighbour already beats are masked out
  of the round (their labels are provably not on a shortest up-down
  path), pruning the cones exactly like a heap query's stall test.
- **One argmin meet.**  Forward and backward label tables meet in a
  single ``(dist_f + dist_b).argmin(axis=1)`` reduction per chunk.
- **Precomputed shortcut expansions.**  ``build_kernel_tables`` unrolls
  every augmented edge's full original-edge expansion once per
  hierarchy (a CSR keyed by the sorted augmented-edge table), so
  unpacking all result paths is one ``np.searchsorted`` plus one gather
  -- O(total output nodes), with no per-path Python and no repeated
  passes over nested shortcuts.

Label values are left-associated float sums (``label(parent) +
edge_cost``, minimised over parents), and the stalled up-DAG fixpoint
has the label set of a bidirectional heap Dijkstra with stall-on-demand,
so costs are *bit-equal* to that heap query's -- the property suites
keep it as a test oracle and assert exactly that, node for node.

The kernel is pure NumPy -- no graph imports (the graph layer calls in
with raw arrays and slices ``SearchResult`` objects out of the returned
node CSR), no new dependencies.  Batches are processed in chunks so
the dense workspace stays bounded (see :data:`BATCH_CHUNK_CELLS`).

Instrumentation (:mod:`repro.obs`), fed by ``find_paths_batch``:
``repro_kernel_batch_size`` (pairs per call),
``repro_kernel_sweep_iterations`` (relaxation rounds per kernel call,
summed over its chunks), and ``repro_kernel_seconds`` (wall time per
call).
"""

from collections import namedtuple

import numpy as np

from repro.obs import COUNT_BUCKETS, METRICS

__all__ = [
    "BATCH_CHUNK_CELLS",
    "KernelTables",
    "batch_ch_paths",
    "build_kernel_tables",
]

#: Upper bound on ``chunk_queries * (2 * num_nodes)`` for the dense
#: distance / parent workspace -- 2**21 cells keeps peak kernel memory
#: around a few tens of MB while still fitting hundreds of queries per
#: chunk on r10-sized graphs.  Larger batches run in chunks of this.
BATCH_CHUNK_CELLS = 1 << 21

KERNEL_BATCH_SIZE = METRICS.histogram(
    "repro_kernel_batch_size",
    "Query pairs per batch-kernel invocation.",
    buckets=COUNT_BUCKETS,
)
KERNEL_SWEEP_ITERATIONS = METRICS.histogram(
    "repro_kernel_sweep_iterations",
    "Frontier relaxation rounds per batch-kernel call, summed over its chunks.",
    buckets=COUNT_BUCKETS,
)
KERNEL_SECONDS = METRICS.histogram(
    "repro_kernel_seconds",
    "Batch-kernel wall time per invocation in seconds.",
)

_INF = np.inf

#: Preprocessed per-hierarchy arrays consumed by :func:`batch_ch_paths`.
#: ``relax_*``/``stall_*`` are the combined doubled-node-space CSRs
#: (forward half relaxes upward edges and stalls on downward ones,
#: backward half vice versa, offset by ``n``); ``mid_keys`` is the
#: sorted augmented-edge key table (``u * n + v``) and
#: ``exp_indptr``/``exp_nodes`` its per-edge original-node expansions.
KernelTables = namedtuple(
    "KernelTables",
    [
        "num_nodes",
        "relax_indptr",
        "relax_indices",
        "relax_costs",
        "stall_indptr",
        "stall_indices",
        "stall_costs",
        "mid_keys",
        "exp_indptr",
        "exp_nodes",
    ],
)


def _expand_ranges(starts, counts):
    """Concatenated ``arange(start, start + count)`` blocks (CSR gather).

    The standard vectorised trick: one global ``arange`` shifted per
    block, so gathering every frontier node's edge slice costs O(total
    edges) with no Python loop.
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    out = np.arange(total, dtype=np.int64)
    out += np.repeat(starts - (ends - counts), counts)
    return out


def _expand_all(mid_keys, mid_vals, n, halves=None):
    """Unroll every augmented edge into its original-edge node chain.

    A shortcut ``a -> b`` with middle ``m`` expands to the expansion of
    ``a -> m`` followed by that of ``m -> b``.  *halves*, when given,
    holds each shortcut's two halves as table rows (one ``(a -> m, m ->
    b)`` pair per shortcut, in table order; -1 for a half the table
    lacks), as the hierarchy build found them; otherwise both halves
    are looked up in the table by key.  Rows are then filled in Kahn
    levels (original edges first): a shortcut is ready once both of its
    halves are, and is filled by copying them, so no edge is expanded
    twice.  Returns ``(exp_indptr, exp_nodes)``: row ``i`` of the CSR
    lists the path nodes after the tail of edge ``mid_keys[i]``, in
    order, ending at its head.  Raises ``ValueError`` when a shortcut's
    half is not in the table.
    """
    num = mid_keys.size
    exp_indptr = np.zeros(num + 1, dtype=np.int64)
    if not num:
        return exp_indptr, np.empty(0, dtype=np.int32)
    a = mid_keys // n
    b = mid_keys - a * n
    rows = np.flatnonzero(mid_vals >= 0)  # shortcuts
    if halves is None:
        m = mid_vals[rows].astype(np.int64)
        keys = np.stack((a[rows] * n + m, m * n + b[rows]), axis=1)
        pos = np.minimum(np.searchsorted(mid_keys, keys), num - 1)
        halves = np.where(mid_keys[pos] == keys, pos, -1)
    if (halves < 0).any():
        raise ValueError("ch_middle: a shortcut unpacks through an arc the hierarchy lacks")
    # Kahn levels over the shortcuts: ``users`` lists, per shortcut, the
    # shortcuts that have it as a half; ``waiting`` counts each one's
    # unfinished shortcut halves.
    shortcut = np.full(num, -1, dtype=np.int64)
    shortcut[rows] = np.arange(rows.size)
    inner = shortcut[halves].ravel()
    nested = inner >= 0
    user_of = np.repeat(np.arange(rows.size), 2)[nested]
    inner = inner[nested]
    users = user_of[np.argsort(inner, kind="stable")]
    user_ptr = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(inner, minlength=rows.size), out=user_ptr[1:])
    waiting = np.bincount(user_of, minlength=rows.size)
    length = np.ones(num, dtype=np.int64)
    levels = []
    ready = np.flatnonzero(waiting == 0)
    while ready.size:
        levels.append(ready)
        length[rows[ready]] = length[halves[ready]].sum(axis=1)
        freed = np.bincount(
            users[_expand_ranges(user_ptr[ready], user_ptr[ready + 1] - user_ptr[ready])],
            minlength=rows.size,
        )
        waiting -= freed
        ready = np.flatnonzero((freed > 0) & (waiting == 0))
    np.cumsum(length, out=exp_indptr[1:])
    exp_nodes = np.empty(int(exp_indptr[-1]), dtype=np.int32)
    original = mid_vals < 0
    exp_nodes[exp_indptr[:-1][original]] = b[original]
    for level in levels:
        src = halves[level].ravel()
        nodes = exp_nodes[_expand_ranges(exp_indptr[src], length[src])]
        dst = rows[level]
        exp_nodes[_expand_ranges(exp_indptr[dst], length[dst])] = nodes
    return exp_indptr, exp_nodes


def build_kernel_tables(n, up, down, mid_keys, mid_vals, halves=None):
    """Preprocess a hierarchy's CSRs for :func:`batch_ch_paths`.

    *up*/*down* are the ``(indptr, indices, costs)`` upward and
    downward shortcut CSRs (down row ``v`` lists in-neighbours ``u``
    with higher rank and cost ``c(u, v)``); *mid_keys*/*mid_vals* the
    sorted augmented-edge table mapping ``u * n + v`` to the shortcut's
    middle node (``-1`` for original edges); *halves*, if known, each
    shortcut's two half rows in that table (see :func:`_expand_all`).

    Builds the combined doubled-node-space CSRs -- rows ``[0, n)`` are
    the forward search (relax upward, stall on downward), rows
    ``[n, 2n)`` the backward search (relax downward, stall on upward,
    indices offset by ``n``) -- plus the precomputed shortcut-expansion
    CSR.  Called once per hierarchy, when the graph layer installs it.
    """
    up_indptr, up_indices, up_costs = up
    down_indptr, down_indices, down_costs = down
    up_indptr = np.asarray(up_indptr, dtype=np.int64)
    down_indptr = np.asarray(down_indptr, dtype=np.int64)
    relax_indptr = np.concatenate([up_indptr, up_indptr[-1] + down_indptr[1:]])
    relax_indices = np.concatenate(
        [up_indices.astype(np.int64), down_indices.astype(np.int64) + n]
    )
    relax_costs = np.concatenate([up_costs, down_costs])
    stall_indptr = np.concatenate([down_indptr, down_indptr[-1] + up_indptr[1:]])
    stall_indices = np.concatenate(
        [down_indices.astype(np.int64), up_indices.astype(np.int64) + n]
    )
    stall_costs = np.concatenate([down_costs, up_costs])
    exp_indptr, exp_nodes = _expand_all(mid_keys, mid_vals, n, halves)
    return KernelTables(
        n,
        relax_indptr,
        relax_indices,
        relax_costs,
        stall_indptr,
        stall_indices,
        stall_costs,
        mid_keys,
        exp_indptr,
        exp_nodes,
    )


def _sweep(tables, num_q, srcs, dsts):
    """Combined forward+backward label-correcting sweep for a chunk.

    Lane ``q`` owns ``2n`` cells: forward labels (from ``srcs[q]``,
    following upward edges) in ``[0, 2n * q + n)`` and backward labels
    (from ``dsts[q]``, following downward edges) in the upper half.
    Returns ``(dist, parent, labelled, rounds)`` where *dist*/*parent*
    are flat ``(num_q * 2n)`` workspaces (parent values are combined
    node ids), *labelled* counts each lane's finite labels (the
    query's ``expanded``), and *rounds* counts
    relaxation iterations until the fixpoint.
    """
    n2 = 2 * tables.num_nodes
    relax_indptr = tables.relax_indptr
    relax_indices = tables.relax_indices
    relax_costs = tables.relax_costs
    stall_indptr = tables.stall_indptr
    stall_indices = tables.stall_indices
    stall_costs = tables.stall_costs
    dist = np.full(num_q * n2, _INF)
    parent = np.full(num_q * n2, -1, dtype=np.int32)
    seen = np.zeros(num_q * n2, dtype=bool)
    labelled = np.full(num_q, 2, dtype=np.int64)
    qids = np.arange(num_q, dtype=np.int64)
    fq = np.concatenate([qids, qids])
    fv = np.concatenate([srcs, dsts + tables.num_nodes])
    fkey = fq * n2 + fv
    dist[fkey] = 0.0
    seen[fkey] = True
    rounds = 0
    while fv.size:
        rounds += 1
        base = dist[fkey]
        # Stall-on-demand: drop (query, node) pairs whose label a
        # higher-ranked neighbour already beats.  Their labels stay
        # (safe upper bounds for the meet); they simply stop
        # propagating, exactly like a heap query's stall test.
        sdeg = stall_indptr[fv + 1] - stall_indptr[fv]
        if sdeg.any():
            eids = _expand_ranges(stall_indptr[fv], sdeg)
            bound = (
                dist[np.repeat(fq, sdeg) * n2 + stall_indices[eids]]
                + stall_costs[eids]
            )
            hits = np.bincount(
                np.repeat(np.arange(fv.size), sdeg),
                weights=bound < np.repeat(base, sdeg),
                minlength=fv.size,
            )
            keep = hits == 0
            if not keep.all():
                fq, fv, base = fq[keep], fv[keep], base[keep]
                if not fv.size:
                    break
        deg = relax_indptr[fv + 1] - relax_indptr[fv]
        eids = _expand_ranges(relax_indptr[fv], deg)
        if not eids.size:
            break
        key = np.repeat(fq, deg) * n2 + relax_indices[eids]
        nd = np.repeat(base, deg) + relax_costs[eids]
        before = dist[key]
        np.minimum.at(dist, key, nd)
        after = dist[key]
        improved = after < before
        # Every candidate equal to its key's label is a shortest-path
        # predecessor; the parent is the lowest node id among them, this
        # round's or an earlier round's -- the heap oracle's tie-break,
        # so both return the same path, not just the same cost.
        tied = nd == after
        parent[key[improved]] = n2
        np.minimum.at(parent, key[tied], np.repeat(fv, deg)[tied].astype(np.int32))
        # Sort + adjacent-compare dedup of the improved keys (same
        # result as ``np.unique`` at a fraction of the cost).
        fkey = key[improved]
        if fkey.size:
            fkey.sort(kind="stable")
            mask = np.empty(fkey.size, dtype=bool)
            mask[0] = True
            np.not_equal(fkey[1:], fkey[:-1], out=mask[1:])
            fkey = fkey[mask]
        fq = fkey // n2
        fv = fkey - fq * n2
        fresh = ~seen[fkey]
        if fresh.any():
            seen[fkey[fresh]] = True
            labelled += np.bincount(fq[fresh], minlength=num_q)
    return dist, parent, labelled, rounds


def _trace_steps(parent, n2, qids, start):
    """Walk many parent chains in lock-step.

    Returns a ``(rounds, qids.size)`` array: row ``k`` holds each
    chain's ``k``-th ancestor (row 0 is *start*), ``-1`` once the chain
    is exhausted.  Each round is one vectorised gather, so the cost is
    O(longest chain), not O(total nodes) Python steps.
    """
    steps = []
    qn = qids * n2
    cur = start
    while True:
        steps.append(cur)
        nxt = np.where(
            cur >= 0, parent[qn + np.maximum(cur, 0)].astype(np.int64), -1
        )
        if not (nxt >= 0).any():
            break
        cur = nxt
    return np.stack(steps)


def _unpack_edges(tables, qid, a, b):
    """Expand augmented path edges via the precomputed expansion table.

    ``qid``/``a``/``b`` are parallel arrays of augmented edges in path
    order (query-major), each an arc of the hierarchy and so a row of
    the table.  One ``searchsorted`` finds each edge's row in the
    expansion CSR; one gather emits every original tail node.
    """
    pos = np.searchsorted(tables.mid_keys, a * tables.num_nodes + b)
    counts = tables.exp_indptr[pos + 1] - tables.exp_indptr[pos]
    tails = tables.exp_nodes[_expand_ranges(tables.exp_indptr[pos], counts)]
    return np.repeat(qid, counts), tails.astype(np.int64)


def _chains(steps, n):
    """Assemble lock-step parent walks into per-lane augmented chains.

    *steps* is :func:`_trace_steps` over ``2 * lanes`` walks from every
    lane's meet: the first half walks its forward labels back to the
    source, the second its backward labels (combined ids, offset by
    *n*) on to the target.  Laid out lane-major -- the forward walk
    reversed, then the backward walk past the meet -- each lane's
    source-to-target chain is its row's valid entries in order, so one
    mask flattens all chains at once.  Returns ``(nodes, counts)``: the
    concatenated chains and each lane's chain length.
    """
    lanes = steps.shape[1] // 2
    table = np.concatenate((steps[::-1, :lanes], steps[1:, lanes:] - n)).T
    valid = table >= 0
    return table[valid], valid.sum(axis=1)


def batch_ch_paths(tables, srcs, dsts):
    """Answer ``len(srcs)`` CH queries with one vectorised sweep each chunk.

    *tables* comes from :func:`build_kernel_tables`; *srcs*/*dsts* are
    valid, pairwise-distinct node indices (the graph layer
    short-circuits degenerate pairs first).

    Returns ``(indptr, nodes, costs, expanded, rounds)``: every query's
    node-index path as one CSR -- query ``i``'s path is
    ``nodes[indptr[i]:indptr[i + 1]]``, empty when unreachable --
    float costs (``inf`` when unreachable), per-query labelled-node
    counts (the query's ``expanded``; 0 when unreachable), and total
    relaxation rounds
    across chunks.
    """
    n = tables.num_nodes
    n2 = 2 * n
    srcs = np.asarray(srcs, dtype=np.int64)
    dsts = np.asarray(dsts, dtype=np.int64)
    num = len(srcs)
    lengths = np.zeros(num, dtype=np.int64)
    pieces = []
    costs = np.full(num, _INF)
    expanded = np.zeros(num, dtype=np.int64)
    total_rounds = 0
    chunk = max(1, BATCH_CHUNK_CELLS // max(n2, 1))
    for lo in range(0, num, chunk):
        hi = min(lo + chunk, num)
        q = hi - lo
        dist, parent, labelled, rounds = _sweep(
            tables, q, srcs[lo:hi], dsts[lo:hi]
        )
        total_rounds += rounds
        table = dist.reshape(q, n2)
        total = table[:, :n] + table[:, n:]
        meets = np.argmin(total, axis=1)
        chunk_costs = total[np.arange(q), meets]
        rq = np.flatnonzero(np.isfinite(chunk_costs))
        if not rq.size:
            continue
        meets_r = meets[rq].astype(np.int64)
        # Trace all reachable queries' parent chains in both directions
        # in lock-step (one gather per chain hop); forward chains walk
        # from the meet back to the source, backward chains live in the
        # upper half of the combined node space.
        chain, sizes = _chains(
            _trace_steps(
                parent,
                n2,
                np.concatenate((rq, rq)),
                np.concatenate((meets_r, meets_r + n)),
            ),
            n,
        )
        # Consecutive chain nodes of one lane are its augmented edges.
        lane = np.repeat(np.arange(rq.size, dtype=np.int64), sizes)
        inner = lane[1:] == lane[:-1]
        qid, tail = _unpack_edges(
            tables, lane[1:][inner], chain[:-1][inner], chain[1:][inner]
        )
        # Each lane's path: its source, then its unpacked edge tails (a
        # stable sort by lane keeps both in order).
        owner = np.concatenate((np.arange(rq.size), qid))
        heads = chain[np.cumsum(sizes) - sizes]
        pieces.append(np.concatenate((heads, tail))[np.argsort(owner, kind="stable")])
        lengths[lo + rq] = np.bincount(owner, minlength=rq.size)
        costs[lo + rq] = chunk_costs[rq]
        expanded[lo + rq] = labelled[rq]
    indptr = np.zeros(num + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    nodes = np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)
    return indptr, nodes, costs, expanded, total_rounds
