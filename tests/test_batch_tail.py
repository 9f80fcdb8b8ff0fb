"""The batch-native tail after the kernel sweep equals its per-path oracles.

Everything after ``kernel._sweep`` handles a whole batch in array
passes: kernel result assembly, render (projection, resampling, metric
lengths), budget compression and the ``/impute`` body.  This module
keeps the per-lane / per-path code those passes replaced as oracles and
asserts bit-equality -- node paths, costs and ``expanded``; rendered
coordinates and lengths; and finally the bytes of a mixed ``/impute``
body with ``elapsed_ms`` zeroed.  Offline batch imputation is pinned to
one-gap ``impute`` the same way.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from graphgen import TOPOLOGIES, random_graph
from repro.baselines import GTIImputer, StraightLineImputer
from repro.core import HabitImputer, kernel
from repro.core.graph import _SEARCH_SECONDS, SearchResult
from repro.core.path import (
    RESAMPLE_M,
    ImputedPath,
    resample_blocks,
    resample_polyline,
    resample_polylines_xy,
    straight_line_path,
)
from repro.geo.budget import compress_rendered_path
from repro.geo.proj import latlng_to_xy_m, path_length_m, path_lengths_m, polylines_xy_m
from repro.geo.simplify import rdp_keep_indices_batch
from repro.io import feature_collection
from repro.io.geojson import linestring_coordinates
from repro.service import BatchImputationEngine, GapRequest, ModelRegistry
from repro.service.engine import _MISSING
from repro.service.http import _ENCODER, impute_body, impute_response

# -- oracles: the per-lane / per-path code the batch passes replaced -------


def _oracle_trace(parent, n2, qids, start):
    steps = []
    qn = qids * n2
    cur = start
    while True:
        steps.append(cur)
        nxt = np.where(cur >= 0, parent[qn + np.maximum(cur, 0)].astype(np.int64), -1)
        if not (nxt >= 0).any():
            break
        cur = nxt
    return steps


def _oracle_batch_ch_paths(tables, srcs, dsts):
    """Kernel results assembled one lane at a time, in Python lists."""
    n = tables.num_nodes
    n2 = 2 * n
    num = len(srcs)
    paths = [None] * num
    costs = np.full(num, np.inf)
    expanded = np.zeros(num, dtype=np.int64)
    total_rounds = 0
    chunk = max(1, kernel.BATCH_CHUNK_CELLS // max(n2, 1))
    for lo in range(0, num, chunk):
        hi = min(lo + chunk, num)
        q = hi - lo
        dist, parent, labelled, rounds = kernel._sweep(tables, q, srcs[lo:hi], dsts[lo:hi])
        total_rounds += rounds
        table = dist.reshape(q, n2)
        total = table[:, :n] + table[:, n:]
        meets = np.argmin(total, axis=1)
        chunk_costs = total[np.arange(q), meets]
        rq = np.flatnonzero(np.isfinite(chunk_costs))
        if not rq.size:
            continue
        meets_r = meets[rq].astype(np.int64)
        fcols = [s.tolist() for s in _oracle_trace(parent, n2, rq, meets_r)]
        bcols = [s.tolist() for s in _oracle_trace(parent, n2, rq, meets_r + n)[1:]]
        flat_q, flat_a, flat_b, firsts = [], [], [], []
        for j in range(rq.size):
            chain = [c[j] for c in reversed(fcols) if c[j] >= 0]
            chain += [c[j] - n for c in bcols if c[j] >= 0]
            firsts.append(chain[0])
            flat_q.extend([j] * (len(chain) - 1))
            flat_a.extend(chain[:-1])
            flat_b.extend(chain[1:])
        qid, tail = kernel._unpack_edges(
            tables,
            np.asarray(flat_q, dtype=np.int64),
            np.asarray(flat_a, dtype=np.int64),
            np.asarray(flat_b, dtype=np.int64),
        )
        counts = np.bincount(qid, minlength=rq.size)
        bounds = np.cumsum(counts)
        tail = tail.tolist()
        for j, i in enumerate(rq.tolist()):
            paths[lo + i] = [firsts[j], *tail[bounds[j] - counts[j] : bounds[j]]]
            costs[lo + i] = chunk_costs[i]
            expanded[lo + i] = labelled[i]
    return paths, costs, expanded, total_rounds


def _oracle_find_paths_batch(graph, pairs):
    """Graph-level batch answers built pair by pair (two node_index calls,
    the scalar degenerate test, one SearchResult per oracle lane)."""
    results = [None] * len(pairs)
    lanes = []
    for i, (src, dst) in enumerate(pairs):
        si, di = graph.node_index(src), graph.node_index(dst)
        if si < 0 or di < 0:
            continue
        if si == di:
            results[i] = SearchResult((int(graph.cells[si]),), 0.0, 0, "ch", (si,))
        elif not graph._degenerate_unreachable(si, di):
            lanes.append((i, si, di))
    if lanes:
        paths, costs, expanded, _ = _oracle_batch_ch_paths(
            graph.kernel_tables,
            np.asarray([si for _, si, _ in lanes], dtype=np.int64),
            np.asarray([di for _, _, di in lanes], dtype=np.int64),
        )
        for (i, _, _), path, cost, exp in zip(lanes, paths, costs, expanded):
            if path is not None:
                cells = tuple(graph.cells[path].tolist())
                results[i] = SearchResult(cells, float(cost), int(exp), "ch", tuple(path))
    return results


def _oracle_resample(lats, lngs, x, y):
    seg = np.hypot(np.diff(x), np.diff(y))
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    length = float(cum[-1])
    if length <= 0.0:
        return lats[[0, -1]], lngs[[0, -1]]
    num = max(2, int(np.ceil(length / RESAMPLE_M)) + 1)
    along = np.linspace(0.0, length, num)
    return np.interp(along, cum, lats), np.interp(along, cum, lngs)


def _oracle_length(lats, lngs):
    x, y = latlng_to_xy_m(lats, lngs)
    return float(np.hypot(np.diff(x), np.diff(y)).sum())


def _oracle_render(imputer, start, end, result):
    if result is None:
        return straight_line_path(start, end, method="fallback")
    idx = np.asarray(result.node_indices, dtype=np.int64)
    lats = np.empty(len(idx) + 2)
    lngs = np.empty(len(idx) + 2)
    lats[0], lngs[0] = float(start[0]), float(start[1])
    lats[-1], lngs[-1] = float(end[0]), float(end[1])
    lats[1:-1] = imputer.graph.lats[idx]
    lngs[1:-1] = imputer.graph.lngs[idx]
    x, y = latlng_to_xy_m(lats, lngs)
    if imputer.config.tolerance_m > 0.0:
        keep = rdp_keep_indices_batch([(x, y)], imputer.config.tolerance_m)[0]
        lats, lngs, x, y = lats[keep], lngs[keep], x[keep], y[keep]
    lats, lngs = _oracle_resample(lats, lngs, x, y)
    return ImputedPath(
        lats=lats, lngs=lngs, method=result.method, cells=result.cells, expanded=result.expanded
    )


def _oracle_feature(result, provenance):
    coords = np.column_stack(
        (np.asarray(result.lngs, dtype=np.float64), np.asarray(result.lats, dtype=np.float64))
    ).tolist()
    return {
        "type": "Feature",
        "geometry": {"type": "LineString", "coordinates": coords},
        "properties": {
            "request_id": result.request.request_id,
            "dataset": result.request.dataset,
            **provenance,
        },
    }


def _oracle_response(results, elapsed_ms):
    provenances = [r.provenance.to_dict() for r in results]
    return {
        "count": len(results),
        "elapsed_ms": elapsed_ms,
        "results": [
            {
                "request_id": r.request.request_id,
                "dataset": r.request.dataset,
                "num_points": r.num_points,
                "provenance": provenance,
            }
            for r, provenance in zip(results, provenances)
        ],
        "geojson": feature_collection(
            _oracle_feature(r, provenance) for r, provenance in zip(results, provenances)
        ),
    }


def _bits_equal(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_result(got, want):
    """Field-by-field :class:`SearchResult` equality, paths as arrays."""
    if got is None or want is None:
        return got is want
    return (
        np.array_equal(got.cells, want.cells)
        and np.array_equal(got.node_indices, want.node_indices)
        and (got.cost, got.expanded, got.method) == (want.cost, want.expanded, want.method)
    )


# -- kernel assembly -----------------------------------------------------


@pytest.mark.parametrize("chunk_cells", [kernel.BATCH_CHUNK_CELLS, 1])
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_kernel_assembly_matches_per_lane_oracle(monkeypatch, topology, chunk_cells):
    """Array-pass chain assembly returns the per-lane oracle's paths,
    costs, ``expanded`` and rounds bit for bit, chunked or not."""
    monkeypatch.setattr(kernel, "BATCH_CHUNK_CELLS", chunk_cells)
    for seed in range(6):
        rng = np.random.default_rng(4100 + seed)
        graph = random_graph(rng, topology)
        n = graph.num_nodes
        if n < 2:
            continue
        graph.ensure_ch()
        tables = graph.kernel_tables
        srcs = rng.integers(0, n, 40)
        dsts = (srcs + rng.integers(1, n, 40)) % n  # pairwise distinct
        paths, costs, expanded, rounds = _oracle_batch_ch_paths(tables, srcs, dsts)
        indptr, nodes, got_costs, got_expanded, got_rounds = kernel.batch_ch_paths(
            tables, srcs, dsts
        )
        where = f"{topology} seed {seed}"
        assert got_rounds == rounds, where
        assert _bits_equal(got_costs, costs), where
        assert got_expanded.tolist() == expanded.tolist(), where
        for i, path in enumerate(paths):
            got = nodes[indptr[i] : indptr[i + 1]].tolist()
            assert got == (path or []), f"{where} lane {i}"


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_kernel_assembly_find_paths_batch_matches_oracle(topology):
    """Graph-level batch answers (vectorised endpoint mapping and
    degenerate test included) equal the pair-by-pair oracle's."""
    for seed in range(6):
        rng = np.random.default_rng(5200 + seed)
        graph = random_graph(rng, topology)
        cells = graph.cells.tolist()
        pairs = [tuple(int(c) for c in rng.choice(cells, 2)) for _ in range(30)]
        pairs += [(cells[0], cells[0]), (cells[0], -5), (123, cells[-1])]
        graph.ensure_ch()
        got = graph.find_paths_batch(pairs)
        want = _oracle_find_paths_batch(graph, pairs)
        assert len(got) == len(want), f"{topology} seed {seed}"
        for k, (a, b) in enumerate(zip(got, want)):
            assert _same_result(a, b), f"{topology} seed {seed} pair {k}"


def test_kernel_assembly_skips_degenerate_pairs(monkeypatch):
    """The vectorised degenerate test keeps every provably unreachable
    pair (no out-edges at the source, no in-edges at the target) out of
    the kernel, however many there are."""
    graph = random_graph(np.random.default_rng(61), "uniform")
    n = graph.num_nodes
    sinks = np.flatnonzero(np.diff(graph.indptr) == 0)
    sources = np.flatnonzero(np.bincount(graph.indices, minlength=n) == 0)
    if not (sinks.size and sources.size):
        pytest.skip("draw produced no sink/source node")
    cells = graph.cells.tolist()
    sink, source = cells[sinks[0]], cells[sources[0]]
    others = [c for c in cells if c not in (sink, source)][:4]
    pairs = [(sink, c) for c in others] + [(c, source) for c in others]

    def poisoned(*args, **kwargs):
        raise AssertionError("degenerate pair reached the kernel")

    monkeypatch.setattr("repro.core.graph.batch_ch_paths", poisoned)
    assert graph.find_paths_batch(pairs) == [None] * len(pairs)


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_kernel_assembly_one_pair_ch_is_a_one_lane_batch(topology):
    """A one-pair CH ``find_path`` is ``find_paths_batch([(src, dst)])[0]``,
    field by field, and is counted like one: one ``repro_kernel_batch_size``
    observation per query, and one ``repro_search_seconds`` observation
    per query that reaches the kernel, routed or not (a degenerate pair
    -- ``src == dst``, a source with no out-edge, a target with no
    in-edge -- is answered before any search, as in a batch)."""
    for seed in range(6):
        rng = np.random.default_rng(6300 + seed)
        graph = random_graph(rng, topology)
        out_deg = np.diff(graph.indptr)
        in_deg = np.bincount(graph.indices, minlength=graph.num_nodes)
        pairs = [tuple(rng.integers(0, graph.num_nodes, 2).tolist()) for _ in range(16)]
        for si, di in pairs + [(0, 0)]:
            src, dst = int(graph.cells[si]), int(graph.cells[di])
            lane = si != di and out_deg[si] > 0 and in_deg[di] > 0
            where = f"{topology} seed {seed} {src}->{dst}"
            searches = _SEARCH_SECONDS.count(("ch",))
            batches = kernel.KERNEL_BATCH_SIZE.count()
            single = graph.find_path(src, dst, "ch")
            assert _SEARCH_SECONDS.count(("ch",)) == searches + lane, where
            assert kernel.KERNEL_BATCH_SIZE.count() == batches + 1, where
            (batched,) = graph.find_paths_batch([(src, dst)])
            assert _same_result(single, batched), where
            if single is not None:
                assert single.cells.dtype == single.node_indices.dtype == np.int64, where


# -- batch resample, projection and lengths ------------------------------


def _random_polylines(rng, count):
    lats, lngs = [], []
    for k in range(count):
        size = int(rng.integers(2, 40))
        lat = 54.0 + np.cumsum(rng.normal(0.0, 0.01, size))
        lng = 10.0 + np.cumsum(rng.normal(0.0, 0.02, size))
        if k % 7 == 3:  # zero-length: every point equal
            lat[:] = lat[0]
            lng[:] = lng[0]
        if k % 5 == 1:  # a repeated vertex: a zero-length segment
            lat[1] = lat[0]
            lng[1] = lng[0]
        lats.append(lat)
        lngs.append(lng)
    return lats, lngs


def test_batch_resample_matches_per_path_oracle(rng):
    """One concatenated resample equals the per-path oracle bit for bit,
    as do the one-path wrapper, the batch projection and the batch
    lengths."""
    lats, lngs = _random_polylines(rng, 60)
    sizes = [len(a) for a in lats]
    flat_lats, flat_lngs = np.concatenate(lats), np.concatenate(lngs)
    x, y = polylines_xy_m(flat_lats, flat_lngs, sizes)
    got_lats, got_lngs = resample_polylines_xy(flat_lats, flat_lngs, x, y, sizes)
    lo = 0
    for k, (lat, lng) in enumerate(zip(lats, lngs)):
        hi = lo + len(lat)
        px, py = latlng_to_xy_m(lat, lng)
        assert _bits_equal(x[lo:hi], px) and _bits_equal(y[lo:hi], py), k
        want_lats, want_lngs = _oracle_resample(lat, lng, px, py)
        assert _bits_equal(got_lats[k], want_lats), k
        assert _bits_equal(got_lngs[k], want_lngs), k
        one_lats, one_lngs = resample_polyline(lat, lng)
        assert _bits_equal(one_lats, want_lats) and _bits_equal(one_lngs, want_lngs), k
        lo = hi
    lengths = path_lengths_m(got_lats, got_lngs)
    want = [_oracle_length(a, b) for a, b in zip(got_lats, got_lngs)]
    assert lengths == want
    assert [path_length_m(a, b) for a, b in zip(got_lats, got_lngs)] == want
    assert path_lengths_m([], []) == []
    assert resample_polylines_xy([], [], [], [], []) == ([], [])


# -- render --------------------------------------------------------------


def _endpoint_requests(imputer, rng, count):
    """Gap endpoints near random graph nodes (snapping lands nearby)."""
    graph = imputer.graph
    out = []
    for _ in range(count):
        a, b = rng.choice(graph.num_nodes, 2, replace=False)
        start = (float(graph.lats[a]) + 1e-3, float(graph.lngs[a]) - 1e-3)
        end = (float(graph.lats[b]) - 1e-3, float(graph.lngs[b]) + 1e-3)
        out.append((start, end))
    return out


@pytest.mark.parametrize("tolerance_m", [100.0, 0.0])
def test_render_paths_match_per_path_oracle(service_model, rng, tolerance_m):
    """Batch render: coordinates and lengths equal the per-path oracle's,
    fallbacks and zero-length routes included."""
    imputer = service_model.fork()
    imputer.config = replace(service_model.config, tolerance_m=tolerance_m)
    gaps = _endpoint_requests(imputer, rng, 24)
    node = (float(imputer.graph.lats[0]), float(imputer.graph.lngs[0]))
    gaps.append((node, node))
    starts, ends = [s for s, _ in gaps], [e for _, e in gaps]
    snapped = [imputer.snap_endpoints(s, e) for s, e in gaps]
    results = imputer.route_batch([p for p in snapped if p is not None])
    results = iter(results)
    results = [next(results) if p is not None else None for p in snapped]
    results[3] = None  # a straight-line fallback mid-batch
    paths, lengths = imputer.render_paths(starts, ends, results)
    assert len(paths) == len(lengths) == len(gaps)
    for k, (start, end, result) in enumerate(zip(starts, ends, results)):
        want = _oracle_render(imputer, start, end, result)
        got = paths[k]
        assert _bits_equal(got.lats, want.lats) and _bits_equal(got.lngs, want.lngs), k
        assert (got.method, got.expanded) == (want.method, want.expanded)
        assert np.array_equal(got.cells, want.cells), k
        assert lengths[k] == _oracle_length(want.lats, want.lngs), k
    assert paths[-1].num_points == 2  # the zero-length route
    assert imputer.render_path(starts[0], ends[0], results[0]).lats.tobytes() == (
        paths[0].lats.tobytes()
    )


# -- offline batch imputation ---------------------------------------------


@pytest.fixture(scope="module")
def fitted_gti(tiny_kiel):
    return GTIImputer().fit_from_trips(tiny_kiel.train)


def _edge_case_gaps(imputer, tiny_kiel, rng):
    """Routed gaps, each twice, plus an out-of-coverage gap, a zero-length
    gap on a node and a pair that snaps but has no route (out of a node
    with no outgoing edge)."""
    graph = imputer.graph
    routed = [(g.start, g.end) for g in tiny_kiel.gaps(3600.0)]
    routed += _endpoint_requests(imputer, rng, 6)
    node = (float(graph.lats[0]), float(graph.lngs[0]))
    sink = int(np.flatnonzero(~np.isin(graph.cells, graph.edge_src))[0])
    dead_end = (float(graph.lats[sink]), float(graph.lngs[sink]))
    unreachable = (dead_end, (float(graph.lats[sink - 1]), float(graph.lngs[sink - 1])))
    snapped = imputer.snap_endpoints(*unreachable)
    assert snapped is not None and graph.find_path(*snapped) is None
    far = ((10.0, -40.0), (11.0, -41.0))
    assert imputer.snap_endpoints(*far) is None
    return routed + [far, (node, node), unreachable] + routed


@pytest.mark.parametrize("kind", ["habit", "sli", "gti"])
def test_impute_batch_equals_one_gap_impute(service_model, fitted_gti, tiny_kiel, rng, kind):
    """``impute_batch`` equals one ``impute`` per gap bit for bit, with
    equal ``method``, ``cells`` and ``expanded``, for every imputer the
    evaluation harness drives."""
    imputer = {"habit": service_model, "sli": StraightLineImputer(), "gti": fitted_gti}[kind]
    gaps = _edge_case_gaps(service_model, tiny_kiel, rng)
    starts, ends = [s for s, _ in gaps], [e for _, e in gaps]
    batch = imputer.impute_batch(starts, ends)
    assert len(batch) == len(gaps)
    for k, (got, (start, end)) in enumerate(zip(batch, gaps)):
        want = imputer.impute(start, end)
        assert _bits_equal(got.lats, want.lats) and _bits_equal(got.lngs, want.lngs), k
        assert (got.method, got.expanded) == (want.method, want.expanded)
        assert np.array_equal(got.cells, want.cells), k
    if kind == "habit":
        mid = (len(gaps) - 3) // 2
        far, zero, unreachable = batch[mid : mid + 3]
        assert far.method == unreachable.method == "fallback"
        assert zero.method == "ch" and zero.num_points == 2
        assert "ch" in {path.method for path in batch[:mid]}
        with pytest.raises(RuntimeError):
            HabitImputer().impute_batch([], [])
    assert imputer.impute_batch([], []) == []


# -- golden /impute body -------------------------------------------------


def _cached_samples(entry, request):
    """An answer-cache entry's samples: attached once it has been hit,
    else resampled from its vertex block (or the straight line)."""
    if entry.lats is not None:
        return entry.lats, entry.lngs
    return resample_blocks([request.start], [request.end], [entry.vertices])[0]


def _oracle_result(engine, registry, config, result):
    """*result* with its geometry, length and budget fields recomputed by
    the per-path oracles; the engine's answer cache must hold the
    request's pre-budget answer, whose samples -- attached, or
    resampled from its vertices -- equal the oracle's render."""
    request = result.request
    imputer, _, _ = registry.get(request.dataset, config)
    cached = engine.render_cache.get((imputer.graph.serial, request.start, request.end))
    assert cached is not _MISSING
    cached_lats, cached_lngs = _cached_samples(cached, request)
    snapped = imputer.snap_endpoints(request.start, request.end)
    if snapped is None:
        path = straight_line_path(request.start, request.end, method="fallback")
    else:
        (route,) = imputer.route_batch([snapped])
        # ``expanded`` counts what the engine's shared kernel sweep
        # settled for this lane, so it is read from the cached answer.
        path = replace(
            _oracle_render(imputer, request.start, request.end, route),
            expanded=cached.expanded,
        )
    assert _bits_equal(cached_lats, path.lats) and _bits_equal(cached_lngs, path.lngs)
    assert cached.length_m == _oracle_length(path.lats, path.lngs)
    assert cached.num_cells == len(path.cells)
    length = _oracle_length(path.lats, path.lngs)
    budget = (0, 0, 0.0)
    if request.max_points is not None and path.num_points > request.max_points:
        x, y = latlng_to_xy_m(path.lats, path.lngs)
        squeezed = compress_rendered_path(x, y, request.max_points)
        path = replace(
            path, lats=path.lats[squeezed.indices], lngs=path.lngs[squeezed.indices]
        )
        length = _oracle_length(path.lats, path.lngs)
        budget = (squeezed.points_in, squeezed.points_out, squeezed.max_sed_m)
    provenance = replace(
        result.provenance,
        method=path.method,
        fallback=path.method == "fallback",
        num_cells=len(path.cells),
        path_length_m=length,
        elapsed_ms=0.0,
        expanded=path.expanded,
        points_in=budget[0],
        points_out=budget[1],
        max_sed_m=budget[2],
    )
    return replace(result, lats=path.lats, lngs=path.lngs, provenance=provenance)


def _mixed_batch_setup(tmp_path, service_model):
    """A registry serving the KIEL model, and a gap between two nodes
    with no route (out of a sink node)."""
    registry = ModelRegistry(tmp_path / "models")
    registry.publish("KIEL", service_model)
    graph = service_model.graph
    sink = int(np.flatnonzero(np.diff(graph.indptr) == 0)[0])
    other = (sink + 1) % graph.num_nodes
    no_route = (
        (float(graph.lats[sink]), float(graph.lngs[sink])),
        (float(graph.lats[other]), float(graph.lngs[other])),
    )
    return registry, no_route


def test_golden_body_matches_per_path_oracle(tmp_path, service_model, rng):
    """A mixed ``/impute`` batch -- miss, answer-cache hit, a miss nudged
    off the hit's endpoints, coalesced rider, out-of-coverage fallback,
    cached no-route, zero-length gap, budget no-op and compressed
    budget -- encodes to the same bytes as the per-path oracles' body
    once ``elapsed_ms`` is zeroed."""
    config = service_model.config
    registry, no_route = _mixed_batch_setup(tmp_path, service_model)
    graph = service_model.graph
    node = (float(graph.lats[0]), float(graph.lngs[0]))
    warm, *fresh = _endpoint_requests(service_model, rng, 7)
    engine = BatchImputationEngine(registry)
    engine.run(
        [
            GapRequest("KIEL", *warm, "warm"),
            GapRequest("KIEL", *no_route, "no-route-warm"),
        ],
        config,
    )
    # The nudged gap shares the warm gap's route but not its raw
    # endpoints, so only the exact repeat is a hit.
    nudged = tuple((lat + 1e-6, lng) for lat, lng in warm)
    requests = [
        GapRequest("KIEL", *fresh[0], "miss"),
        GapRequest("KIEL", *warm, "hit"),
        GapRequest("KIEL", *nudged, "nudged"),
        GapRequest("KIEL", *fresh[1], "rider-a"),
        GapRequest("KIEL", *fresh[1], "rider-b"),
        GapRequest("KIEL", (10.0, -30.0), (11.0, -31.0), "offshore"),
        GapRequest("KIEL", *no_route, "no-route"),
        GapRequest("KIEL", node, node, "zero-length"),
        GapRequest("KIEL", *fresh[3], "roomy", max_points=100_000),
        GapRequest("KIEL", *fresh[4], "squeezed", max_points=4),
        GapRequest("KIEL", *fresh[5], "plain"),
    ]
    results = engine.run(requests, config)
    results = [
        replace(r, provenance=replace(r.provenance, elapsed_ms=0.0)) for r in results
    ]
    oracle = [_oracle_result(engine, registry, config, r) for r in results]
    prov = {r.request.request_id: r.provenance for r in results}
    assert prov["miss"].path_cache == "miss" and prov["hit"].path_cache == "hit"
    assert prov["nudged"].path_cache == "miss"
    assert prov["rider-b"].path_cache == "coalesced"
    assert prov["offshore"].path_cache == "bypass" and prov["offshore"].fallback
    assert prov["no-route"].path_cache == "hit" and prov["no-route"].fallback
    assert results[7].num_points == 2
    assert prov["roomy"].points_in == 0 and prov["squeezed"].points_in > 0
    got = _ENCODER.encode(impute_response(results, 0.0)).encode("utf-8")
    want = json.dumps(_oracle_response(oracle, 0.0)).encode("utf-8")
    assert got == want
    # The served bytes writer, on its coordinate-writer path.
    assert linestring_coordinates([r.lats for r in results], [r.lngs for r in results])
    assert impute_body(results, 0.0) == want


# -- the answer cache ----------------------------------------------------


def _zeroed_body(results, tier):
    """The ``/impute`` body bytes with ``elapsed_ms`` zeroed and every
    answer-cache tier set to *tier*."""
    results = [
        replace(r, provenance=replace(r.provenance, elapsed_ms=0.0, path_cache=tier))
        for r in results
    ]
    return _ENCODER.encode(impute_response(results, 0.0)).encode("utf-8")


def test_answer_cache_out_of_coverage_repeat_is_a_hit(tmp_path, service_model):
    """An exactly repeated out-of-coverage gap is answered from the cache:
    ``bypass`` once, then ``hit``, with the same body otherwise."""
    registry = ModelRegistry(tmp_path / "models")
    registry.publish("KIEL", service_model)
    request = [GapRequest("KIEL", (10.0, -30.0), (11.0, -31.0), "offshore")]
    engine = BatchImputationEngine(registry)
    (first,) = engine.run(request, service_model.config)
    (again,) = engine.run(request, service_model.config)
    assert first.provenance.path_cache == "bypass" and first.provenance.fallback
    assert again.provenance.path_cache == "hit" and again.provenance.fallback
    assert _zeroed_body([first], "") == _zeroed_body([again], "")


def test_answer_cache_holds_only_rendered_answers(tmp_path, r10_model, rng):
    """After a mixed batch the one cache holds one compact answer per
    distinct request -- fallbacks and no-routes included: a vertex block
    (none for a straight line) and scalars, no samples, never a search
    result or a per-cell sequence."""
    config = r10_model.config
    registry, no_route = _mixed_batch_setup(tmp_path, r10_model)
    gaps = _endpoint_requests(r10_model, rng, 2)
    requests = [
        GapRequest("KIEL", *gaps[0], "miss"),
        GapRequest("KIEL", *gaps[0], "rider"),
        GapRequest("KIEL", *gaps[1], "squeezed", max_points=4),
        GapRequest("KIEL", (10.0, -30.0), (11.0, -31.0), "offshore"),
        GapRequest("KIEL", *no_route, "no-route"),
    ]
    engine = BatchImputationEngine(registry)
    results = engine.run(requests, config)
    entries = list(engine.render_cache._entries.values())
    assert [r.provenance.path_cache for r in results] == [
        "miss",
        "coalesced",
        "miss",
        "bypass",
        "miss",
    ]
    assert len(entries) == len(requests) - 1
    for entry in entries:
        assert not isinstance(entry, (ImputedPath, SearchResult))
        assert entry._fields == (
            "vertices",
            "lats",
            "lngs",
            "method",
            "expanded",
            "num_cells",
            "length_m",
        )
        assert entry.lats is None and entry.lngs is None
        if entry.method == "fallback":
            assert entry.vertices is None and entry.num_cells == 0
        else:
            assert entry.vertices.dtype == np.float64 and entry.vertices.shape[0] == 4
            assert entry.vertices.base is None  # owns its bytes, pins no batch array
        assert isinstance(entry.method, str) and isinstance(entry.length_m, float)
        assert isinstance(entry.expanded, int) and isinstance(entry.num_cells, int)


def _cache_requests(model, tmp_path, rng):
    """A registry serving *model*, and one request of every answer shape:
    routed, coalesced riders, budgeted, zero-length, no-route and
    out-of-coverage."""
    registry, no_route = _mixed_batch_setup(tmp_path, model)
    gaps = _endpoint_requests(model, rng, 3)
    node = (float(model.graph.lats[0]), float(model.graph.lngs[0]))
    requests = [
        GapRequest("KIEL", *gaps[0], "routed"),
        GapRequest("KIEL", *gaps[1], "rider-a"),
        GapRequest("KIEL", *gaps[1], "rider-b"),
        GapRequest("KIEL", *gaps[2], "squeezed", max_points=4),
        GapRequest("KIEL", *gaps[2], "roomy", max_points=100_000),
        GapRequest("KIEL", node, node, "zero-length"),
        GapRequest("KIEL", *no_route, "no-route"),
        GapRequest("KIEL", (10.0, -30.0), (11.0, -31.0), "offshore"),
    ]
    return registry, requests


def _sampled_keys(engine):
    """Keys of the entries in the sampled form; no entry holds both."""
    entries = engine.render_cache._entries
    assert not any(e.lats is not None and e.vertices is not None for e in entries.values())
    return {key for key, entry in entries.items() if entry.lats is not None}


def test_answer_cache_hit_equals_miss_in_a_mixed_batch(tmp_path, r10_model, rng):
    """A miss stores the compact entry (the zero-length path, whose two
    samples are smaller than its vertices, excepted); the first hit
    re-renders it -- beside a fresh miss in the same batch -- and puts
    it back sampled; the second hit reads the samples.  All three answer
    the same bytes."""
    config = r10_model.config
    registry, requests = _cache_requests(r10_model, tmp_path, rng)
    (extra,) = _endpoint_requests(r10_model, np.random.default_rng(99), 1)
    engine = BatchImputationEngine(registry)
    serial = r10_model.graph.serial
    zero_length = (serial, requests[5].start, requests[5].end)
    cold = engine.run(requests, config)
    assert _sampled_keys(engine) == {zero_length}
    first = engine.run([*requests, GapRequest("KIEL", *extra, "fresh")], config)
    assert [r.provenance.path_cache for r in first] == ["hit"] * len(requests) + ["miss"]
    assert _sampled_keys(engine) == set(engine.render_cache._entries) - {(serial, *extra)}
    second = engine.run(requests, config)
    assert [r.provenance.path_cache for r in second] == ["hit"] * len(requests)
    body = _zeroed_body(cold, "")
    assert _zeroed_body(first[:-1], "") == body
    assert _zeroed_body(second, "") == body
    squeezed = cold[3].provenance
    assert squeezed.points_in > squeezed.points_out == 4
    assert cold[5].num_points == 2 and cold[6].provenance.fallback
    assert cold[7].provenance.fallback


def test_answer_cache_hit_equals_miss_alone(tmp_path, r10_model, rng):
    """Each request alone on a fresh engine: its miss, first (re-rendered)
    hit and second (sampled) hit answer the bytes it answers inside the
    mixed batch."""
    config = r10_model.config
    registry, requests = _cache_requests(r10_model, tmp_path, rng)
    mixed = BatchImputationEngine(registry).run(requests, config)
    for request, want in zip(requests, mixed):
        engine = BatchImputationEngine(registry)
        runs, sampled = [], []
        for _ in range(3):
            runs.append(engine.run([request], config)[0])
            sampled.append(len(_sampled_keys(engine)))
        assert [r.provenance.path_cache for r in runs[1:]] == ["hit", "hit"]
        assert sampled == [int(request.request_id == "zero-length"), 1, 1]
        for got in runs:
            assert _zeroed_body([got], "") == _zeroed_body([want], ""), request.request_id
