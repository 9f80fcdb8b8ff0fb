"""The array-native hierarchy passes equal the code they replaced.

The nested-dissection order (``graph._dissection_rank``) bisects every
open part of a level at once; the customisation walks height-level
slices of one triangle enumeration, bottom-up and then top-down, and
records each arc's winning triangle so shortcut halves are gathers; the
kernel's shortcut expansion (``kernel._expand_all``) fills rows in Kahn
levels of its shortcuts.  This module keeps the recursive bisection,
the depth-scheduled build that looked halves up by key, and the
round-by-round splitter as oracles and asserts bit-equality: ranks, the
whole ``compute_ch`` output (rank plus all eight CSR arrays, dtypes
included) and the kernel tables, on every ``graphgen`` topology and on
the miniature KIEL graphs.  The ``compute_ch`` output and the kernel
tables are also pinned by digest, so a change to the customisation
passes that moves any array fails here too.
"""

import hashlib
from itertools import chain

import numpy as np
import pytest

import graphgen
import repro.core.graph as graph_mod
from graphgen import TOPOLOGIES, hop_costs, random_graph
from repro.core import HabitConfig, HabitImputer, kernel
from repro.core.graph import (
    _CCH_LEAF_SIZE,
    _INF,
    _dissection_rank,
    _expand_ranges,
    _level_groups,
    _relax,
)
from repro.core.habit import _CH_KEYS
from repro.experiments import common

# -- oracles: the recursive code the array passes replaced ---------------


def _oracle_dissection_rank(q, r, eu, ev):
    """Recursive coordinate bisection, one part per call."""
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


def _oracle_expand_all(mid_keys, mid_vals, n, halves=None):
    """Split every shortcut into its halves, all rows per round, until
    only original edges remain (looked up by key; *halves* is unused)."""
    num = mid_keys.size
    eid = np.arange(num, dtype=np.int64)
    a = mid_keys // n
    b = mid_keys - a * n
    while num and a.size:
        pos = np.minimum(np.searchsorted(mid_keys, a * n + b), num - 1)
        key = a * n + b
        mid = np.where(mid_keys[pos] == key, mid_vals[pos], -1)
        shortcut = mid >= 0
        if not shortcut.any():
            break
        rep = np.where(shortcut, 2, 1)
        starts = np.cumsum(rep) - rep
        na = np.repeat(a, rep)
        nb = np.repeat(b, rep)
        eid = np.repeat(eid, rep)
        nb[starts[shortcut]] = mid[shortcut]  # first half: a -> mid
        na[starts[shortcut] + 1] = mid[shortcut]  # second half: mid -> b
        a, b = na, nb
    counts = np.bincount(eid, minlength=num)
    exp_indptr = np.zeros(num + 1, dtype=np.int64)
    np.cumsum(counts, out=exp_indptr[1:])
    return exp_indptr, b.astype(np.int32)


def _oracle_hierarchy(graph):
    """The ``compute_ch`` build that schedules the perfect pass by
    elimination-tree depth, gathers each level's triangles through the
    per-node block table, and finds shortcut halves by key search.
    Returns ``(rank, up, down, None)``: no halves, so the kernel tables
    look them up by key too."""
    n = graph.num_nodes
    eu = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr.astype(np.int64)))
    ev = graph.indices.astype(np.int64)
    ec = graph.costs
    keep = eu != ev
    ekey = eu[keep] * n + ev[keep]
    order = np.argsort(ekey)
    ekey = ekey[order]
    first = np.ones(ekey.size, dtype=bool)
    first[1:] = ekey[1:] != ekey[:-1]
    starts = np.flatnonzero(first)
    ec = np.fmin.reduceat(ec[keep][order], starts) if starts.size else ec[:0]
    eu, ev = np.divmod(ekey[starts], n)
    rank = graph_mod._dissection_rank(graph.node_q, graph.node_r, eu, ev)
    node_at = np.argsort(rank).astype(np.int64)
    ru = rank[eu].astype(np.int64)
    rv = rank[ev].astype(np.int64)
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
    arc_key = tail * n + head
    up = np.full(num_arcs, _INF)
    down = np.full(num_arcs, _INF)
    fwd = ru < rv
    up[np.searchsorted(arc_key, ru[fwd] * n + rv[fwd])] = ec[fwd]
    down[np.searchsorted(arc_key, rv[~fwd] * n + ru[~fwd])] = ec[~fwd]
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
    by_height = _level_groups(np.asarray(height, dtype=np.int64))
    nodes = np.concatenate(by_height)
    arcs = _expand_ranges(arc_ptr[nodes], sizes[nodes])
    later = arc_ptr[tail[arcs] + 1] - arcs - 1
    tri_a = np.repeat(arcs, later)
    tri_b = _expand_ranges(arcs + 1, later)
    tri_c = np.searchsorted(arc_key, head[tri_a] * n + head[tri_b])
    count = sizes * (sizes - 1) // 2
    block = np.empty(n, dtype=np.int64)
    block[nodes] = np.cumsum(count[nodes]) - count[nodes]

    def triangles(nodes):
        tri = _expand_ranges(block[nodes], count[nodes])
        return tri_a[tri], tri_b[tri], tri_c[tri]

    mid_up = np.full(num_arcs, -1, dtype=np.int64)
    mid_down = np.full(num_arcs, -1, dtype=np.int64)
    for nodes in by_height:
        a, b, c = triangles(nodes)
        u = tail[a]
        _relax(up, mid_up, c, down[a] + up[b], u)
        _relax(down, mid_down, c, down[b] + up[a], u)
    basic_up, basic_down = up.copy(), down.copy()
    for nodes in _level_groups(np.asarray(depth, dtype=np.int64)):
        a, b, c = triangles(nodes)
        np.minimum.at(up, a, basic_up[b] + down[c])
        np.minimum.at(down, a, up[c] + basic_down[b])
        np.minimum.at(up, b, basic_up[a] + up[c])
        np.minimum.at(down, b, down[c] + basic_down[a])
    keep_up = (basic_up == up) & (basic_up < _INF)
    keep_down = (basic_down == down) & (basic_down < _INF)
    up_todo = np.flatnonzero(keep_up & (mid_up >= 0))
    down_todo = np.flatnonzero(keep_down & (mid_down >= 0))
    while up_todo.size or down_todo.size:
        arcs = np.concatenate([up_todo, down_todo])
        u = np.concatenate([mid_up[up_todo], mid_down[down_todo]])
        to_v = np.searchsorted(arc_key, u * n + tail[arcs])
        to_w = np.searchsorted(arc_key, u * n + head[arcs])
        k = up_todo.size
        new_up = np.concatenate([to_w[:k], to_v[k:]])
        new_down = np.concatenate([to_v[:k], to_w[k:]])
        new_up = new_up[~keep_up[new_up]]
        new_down = new_down[~keep_down[new_down]]
        keep_up[new_up] = True
        keep_down[new_down] = True
        up_todo = new_up[mid_up[new_up] >= 0]
        down_todo = new_down[mid_down[new_down] >= 0]
    low, high = node_at[tail], node_at[head]
    mid_up = np.where(mid_up >= 0, node_at[mid_up], -1)
    mid_down = np.where(mid_down >= 0, node_at[mid_down], -1)

    def csr(rows, cols, costs, middles):
        order = np.argsort(rows * n + cols)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return indptr, cols[order].astype(np.int32), costs[order], middles[order].astype(np.int32)

    return (
        rank,
        csr(low[keep_up], high[keep_up], basic_up[keep_up], mid_up[keep_up]),
        csr(low[keep_down], high[keep_down], basic_down[keep_down], mid_down[keep_down]),
        None,
    )


# -- helpers ---------------------------------------------------------------


def _edges(graph):
    """The CSR edges as ``(eu, ev)`` node-index arrays, self-loops dropped."""
    eu = np.repeat(np.arange(graph.num_nodes, dtype=np.int64), np.diff(graph.indptr))
    ev = graph.indices.astype(np.int64)
    keep = eu != ev
    return eu[keep], ev[keep]


def _assert_ranks_match(q, r, eu, ev):
    q = np.asarray(q, dtype=np.int32)
    r = np.asarray(r, dtype=np.int32)
    eu = np.asarray(eu, dtype=np.int64)
    ev = np.asarray(ev, dtype=np.int64)
    ours = _dissection_rank(q, r, eu, ev)
    oracle = _oracle_dissection_rank(q, r, eu, ev)
    assert ours.dtype == oracle.dtype
    assert np.array_equal(ours, oracle)


def _ch_arrays(graph):
    graph.compute_ch()
    return {key: getattr(graph, key) for key in _CH_KEYS}


def _assert_same_arrays(ours, oracle):
    for key in oracle:
        assert ours[key].dtype == oracle[key].dtype, key
        assert np.array_equal(ours[key], oracle[key]), key


@pytest.fixture(scope="module")
def kiel_graphs(tiny_kiel):
    """The miniature KIEL graph at r9 and r10, by resolution."""
    return {
        res: HabitImputer(HabitConfig(resolution=res)).fit_from_trips(tiny_kiel.train).graph
        for res in (9, 10)
    }


# -- dissection ------------------------------------------------------------


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_dissection_matches_recursive_oracle_on_every_topology(topology):
    for seed in range(6):
        for size in (48, 300):
            rng = np.random.default_rng(seed)
            graph = random_graph(rng, topology, num_nodes=size, num_edges=3 * size)
            _assert_ranks_match(graph.node_q, graph.node_r, *_edges(graph))


def test_dissection_edge_cases_match_oracle():
    rng = np.random.default_rng(5)
    none = np.empty(0, dtype=np.int64)
    # No nodes; at most one leaf; nodes without edges.
    _assert_ranks_match([], [], none, none)
    for n in (1, _CCH_LEAF_SIZE - 1, _CCH_LEAF_SIZE, _CCH_LEAF_SIZE + 1):
        q, r = rng.integers(-5, 5, n), rng.integers(-5, 5, n)
        _assert_ranks_match(q, r, *rng.integers(0, n, (2, 2 * n)))
    q, r = rng.integers(-40, 40, (2, 200))
    _assert_ranks_match(q, r, none, none)
    # Two components far apart.
    q = np.concatenate([rng.integers(0, 20, 60), rng.integers(500, 520, 60)])
    r = rng.integers(0, 20, 120)
    eu = np.concatenate([rng.integers(0, 60, 150), rng.integers(60, 120, 150)])
    ev = np.concatenate([rng.integers(0, 60, 150), rng.integers(60, 120, 150)])
    _assert_ranks_match(q, r, eu, ev)


@pytest.mark.parametrize("slope", [1, -1, 0])
def test_dissection_on_collinear_cells_matches_oracle(slope):
    """Cells on one line give equal ``ptp`` on both axes (slope +-1, the
    tie that picks *q*) or a zero-span axis; repeated coordinates make
    the stable sort's arrival order decide the split."""
    rng = np.random.default_rng(11)
    q = np.repeat(np.arange(40), 3)[rng.permutation(120)]
    r = slope * q
    chain = np.arange(119)
    _assert_ranks_match(q, r, chain, chain + 1)
    _assert_ranks_match(q, r, *rng.integers(0, 120, (2, 300)))


def test_dissection_on_dense_coordinate_ties_matches_oracle():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(9, 400))
        q, r = rng.integers(0, 6, (2, n))
        _assert_ranks_match(q, r, *rng.integers(0, n, (2, int(rng.integers(0, 4 * n)))))


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_dissection_compute_ch_equals_oracle_build(topology, monkeypatch):
    """The whole hierarchy -- rank and all eight CSR arrays -- equals a
    build with the recursive order monkeypatched in."""
    for seed in range(4):
        ours = _ch_arrays(random_graph(np.random.default_rng(seed), topology))
        with monkeypatch.context() as patch:
            patch.setattr(graph_mod, "_dissection_rank", _oracle_dissection_rank)
            oracle = _ch_arrays(random_graph(np.random.default_rng(seed), topology))
        _assert_same_arrays(ours, oracle)


#: sha256 prefixes of the ``compute_ch`` arrays (dtype and bytes, in
#: ``_CH_KEYS`` order) over ``graphgen`` seeds 0-3, per topology.  A
#: deliberate change to the hierarchy updates these.
_CH_DIGESTS = {
    "lane": "617d938c64738c71",
    "multi_component": "ceeda8860dcd2749",
    "no_edges": "aa4211a4c6a78418",
    "single_node": "bd433bef88842728",
    "uniform": "8b5c6f9caba66c65",
}

#: sha256 prefixes of the kernel tables ``compute_ch`` installs (dtype
#: and bytes of every ``KernelTables`` field in order, ``num_nodes`` as
#: an int64 scalar) over the same seeds, per topology.
_TABLE_DIGESTS = {
    "lane": "ac930f238e344565",
    "multi_component": "8f24d2527f5432da",
    "no_edges": "ec875bbb3e25ff1b",
    "single_node": "2320517dbe28dd7b",
    "uniform": "63045828186c1a6d",
}


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_dissection_and_customisation_output_is_pinned(topology):
    digest = hashlib.sha256()
    for seed in range(4):
        for array in _ch_arrays(random_graph(np.random.default_rng(seed), topology)).values():
            digest.update(array.dtype.str.encode())
            digest.update(array.tobytes())
    assert digest.hexdigest()[:16] == _CH_DIGESTS[topology]


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_kernel_tables_are_pinned(topology):
    digest = hashlib.sha256()
    for seed in range(4):
        graph = random_graph(np.random.default_rng(seed), topology).ensure_ch()
        for value in graph.kernel_tables:
            array = np.asarray(value)
            digest.update(array.dtype.str.encode())
            digest.update(array.tobytes())
    assert digest.hexdigest()[:16] == _TABLE_DIGESTS[topology]


@pytest.mark.parametrize("resolution", [9, 10])
def test_dissection_compute_ch_equals_oracle_build_on_kiel(
    kiel_graphs, resolution, monkeypatch
):
    graph = kiel_graphs[resolution]
    _assert_ranks_match(graph.node_q, graph.node_r, *_edges(graph))
    ours = _ch_arrays(graph)
    monkeypatch.setattr(graph_mod, "_dissection_rank", _oracle_dissection_rank)
    _assert_same_arrays(ours, _ch_arrays(graph))


# -- customisation schedule and shortcut halves ----------------------------


def _assert_same_tables(ours, oracle):
    for name, a, b in zip(ours._fields, ours, oracle):
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        else:
            assert a == b, name


def _assert_schedule_matches_oracle(graph, monkeypatch):
    """``compute_ch`` (height slices both ways, halves from the winning
    triangles) equals the depth-scheduled oracle build whose kernel
    tables look the halves up by key: every array and every table."""
    ours = _ch_arrays(graph)
    tables = graph.kernel_tables
    with monkeypatch.context() as patch:
        patch.setattr(graph_mod.CellGraph, "_hierarchy", _oracle_hierarchy)
        oracle = _ch_arrays(graph)
    _assert_same_arrays(ours, oracle)
    _assert_same_tables(tables, graph.kernel_tables)


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_schedule_compute_ch_equals_depth_oracle_build(topology, monkeypatch):
    for seed in range(6):
        graph = random_graph(np.random.default_rng(seed), topology)
        _assert_schedule_matches_oracle(graph, monkeypatch)


@pytest.mark.parametrize("resolution", [9, 10])
def test_schedule_compute_ch_equals_depth_oracle_build_on_kiel(
    kiel_graphs, resolution, monkeypatch
):
    _assert_schedule_matches_oracle(kiel_graphs[resolution], monkeypatch)


def test_schedule_compute_ch_equals_depth_oracle_build_without_triangles(monkeypatch):
    """Small chains and stars, the two-node ones with arcs but an empty
    triangle table (no shortcut can exist)."""
    rng = np.random.default_rng(4)
    for size in (2, 3, 6):
        cells = graphgen._random_cells(rng, size, 0.05)
        chain = np.arange(size - 1)
        for src, dst in ((chain, chain + 1), (np.zeros(size - 1, dtype=int), chain + 1)):
            graph = graphgen._build(rng, cells, np.r_[src, dst], np.r_[dst, src])
            _assert_schedule_matches_oracle(graph, monkeypatch)
            if size == 2:
                assert graph.ch_up_indices.size + graph.ch_down_indices.size == 2
                assert (graph.ch_up_middle == -1).all() and (graph.ch_down_middle == -1).all()


def test_build_halves_reject_an_absent_half(kiel_graphs):
    """The build path's halves get the key lookup's check: a shortcut
    with a half that is not a kept arc is refused, and nothing is
    installed."""
    graph = kiel_graphs[9]
    rank, up, down, halves = graph._hierarchy()
    shortcuts = np.flatnonzero(halves[:, 0] >= 0)
    assert shortcuts.size
    assert (halves[halves[:, 0] < 0] == -1).all()
    installed = graph.kernel_tables
    for column in (0, 1):
        broken = halves.copy()
        broken[shortcuts[-1], column] = -1
        with pytest.raises(ValueError, match="ch_middle"):
            graph._install_ch(rank, up, down, broken)
        assert graph.kernel_tables is installed


# -- shortcut expansion ----------------------------------------------------


def _kernel_tables(graph):
    graph.ensure_ch()
    parts = ("indptr", "indices", "costs", "middle")
    up, down = (
        tuple(getattr(graph, f"ch_{name}_{part}") for part in parts) for name in ("up", "down")
    )
    return graph_mod._kernel_tables(graph, up, down)


def _assert_expand_all_matches(graph, monkeypatch):
    ours = _kernel_tables(graph)
    with monkeypatch.context() as patch:
        patch.setattr(kernel, "_expand_all", _oracle_expand_all)
        oracle = _kernel_tables(graph)
    _assert_same_tables(ours, oracle)


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_expand_all_matches_splitter_oracle(topology, monkeypatch):
    for seed in range(6):
        graph = random_graph(np.random.default_rng(seed), topology)
        _assert_expand_all_matches(graph, monkeypatch)


@pytest.mark.parametrize("resolution", [9, 10])
def test_expand_all_matches_splitter_oracle_on_kiel(kiel_graphs, resolution, monkeypatch):
    _assert_expand_all_matches(kiel_graphs[resolution], monkeypatch)


def test_expand_all_rejects_absent_halves():
    """A shortcut whose halves the table lacks would unpack to a hop
    between cells that share no edge, so the table build refuses it (the
    loader turns that into a refit).  An empty table still builds."""
    n = 6
    keys = np.array([0 * n + 2, 2 * n + 1, 3 * n + 5], dtype=np.int64)
    vals = np.array([4, -1, 1], dtype=np.int32)
    with pytest.raises(ValueError, match="ch_middle"):
        kernel._expand_all(keys, vals, n)
    # One present and one absent half is refused too.
    keys = np.array([0 * n + 1, 0 * n + 2, 1 * n + 2], dtype=np.int64)
    vals = np.array([-1, 1, -1], dtype=np.int32)
    assert kernel._expand_all(keys, vals, n)[1].tolist() == [1, 1, 2, 2]
    with pytest.raises(ValueError, match="ch_middle"):
        kernel._expand_all(keys, np.array([-1, 3, -1], dtype=np.int32), n)
    empty = np.empty(0, dtype=np.int64)
    ours = kernel._expand_all(empty, empty.astype(np.int32), n)
    oracle = _oracle_expand_all(empty, empty.astype(np.int32), n)
    assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(ours, oracle))


def test_expand_all_halves_exist_on_sar_r9(tiny_cache):
    """Perfect customisation keeps every arc a kept shortcut unpacks
    through, even one an ulp above its exact cost (float re-association
    in the basic pass).  The SAR r9 graph at scale 0.02 has three such
    halves; dropped, its kernel paths would hop between cells that share
    no edge."""
    sar = common.prepare("SAR", scale=0.02, cache_dir=tiny_cache)
    graph = HabitImputer(HabitConfig(resolution=9)).fit_from_trips(sar.train).graph
    n = graph.num_nodes
    arcs = {}
    for name, row_is_tail in (("up", True), ("down", False)):
        rows = np.repeat(np.arange(n), np.diff(getattr(graph, f"ch_{name}_indptr")))
        cols = getattr(graph, f"ch_{name}_indices")
        tails, heads = (rows, cols) if row_is_tail else (cols, rows)
        mids = getattr(graph, f"ch_{name}_middle")
        arcs.update(zip(zip(tails.tolist(), heads.tolist()), mids.tolist()))
    absent = [
        (u, v, m) for (u, v), m in arcs.items()
        if m >= 0 and ((u, m) not in arcs or (m, v) not in arcs)
    ]
    assert not absent
    edges = hop_costs(graph)
    rng = np.random.default_rng(9)
    pairs = [tuple(int(c) for c in rng.choice(graph.cells, 2)) for _ in range(400)]
    routed = [r for r in graph.find_paths_batch(pairs) if r is not None]
    assert len(routed) > 100
    for result in routed:
        for hop in zip(result.cells, result.cells[1:]):
            assert hop in edges, hop
