"""GTI: graph-based trajectory imputation over a point graph.

The historical stream is downsampled per trip (``downsample_s``), then
every retained position becomes a graph node after merging: positions are
quantised to an ``rd_deg`` lat/lng lattice and co-located reports collapse
into one node at their mean position.  Edges connect nodes observed
consecutively within a trip, weighted by metric length.  Queries snap the
gap endpoints to the nearest node, however far, so queries always
answer, and route with plain Dijkstra -- no admissible heuristic exists on
an irregular point graph, which is exactly why GTI pays an
order-of-magnitude latency penalty versus HABIT's cell A*.  Routes are
resampled to :data:`repro.core.path.RESAMPLE_M`, like HABIT's.
"""

import heapq
from dataclasses import dataclass

import numpy as np

from repro.ais import schema
from repro.core.path import ImputedPath, resample_polyline, straight_line_path
from repro.geo.proj import latlng_to_xy_m
from repro.minidb import factorize

__all__ = ["GTIConfig", "GTIImputer"]


@dataclass(frozen=True)
class GTIConfig:
    """GTI knobs: merge lattice and temporal downsampling."""

    rd_deg: float = 5e-4
    downsample_s: float = 60.0


def _downsample(trips, interval_s):
    """Keep the first report of each per-trip time bucket (vectorised)."""
    ordered = trips.sort_by(schema.TRIP_ID, schema.T)
    trip = np.asarray(ordered.column(schema.TRIP_ID), dtype=np.int64)
    t = np.asarray(ordered.column(schema.T), dtype=np.float64)
    if len(t) == 0:
        return ordered
    trip_codes, _ = factorize(trip)
    t0 = np.zeros(trip_codes.max() + 1 if len(trip_codes) else 0)
    first = np.ones(len(t), dtype=bool)
    first[1:] = trip_codes[1:] != trip_codes[:-1]
    t0[trip_codes[first]] = t[first]
    bucket = np.floor((t - t0[trip_codes]) / max(interval_s, 1e-9)).astype(np.int64)
    keep = np.ones(len(t), dtype=bool)
    keep[1:] = (trip_codes[1:] != trip_codes[:-1]) | (bucket[1:] != bucket[:-1])
    return ordered.filter(keep)


class GTIImputer:
    """Dijkstra router over a merged point graph of historical positions."""

    def __init__(self, config=None):
        self.config = config or GTIConfig()
        self.node_lats = None
        self.node_lngs = None
        self.edge_src = None
        self.edge_dst = None
        self.edge_cost = None
        self.adjacency = None

    # -- fitting ----------------------------------------------------------

    def fit_from_trips(self, trips):
        """Build the point graph from a segmented trip table; returns self."""
        config = self.config
        sampled = _downsample(trips, config.downsample_s)
        lat = np.asarray(sampled.column(schema.LAT), dtype=np.float64)
        lon = np.asarray(sampled.column(schema.LON), dtype=np.float64)
        trip = np.asarray(sampled.column(schema.TRIP_ID), dtype=np.int64)

        # Merge positions on the rd_deg lattice.
        qlat = np.round(lat / config.rd_deg).astype(np.int64)
        qlng = np.round(lon / config.rd_deg).astype(np.int64)
        lattice = qlat * np.int64(2**31) + qlng
        codes, _ = factorize(lattice)
        num_nodes = int(codes.max()) + 1 if len(codes) else 0
        counts = np.bincount(codes, minlength=num_nodes).astype(np.float64)
        counts = np.maximum(counts, 1.0)
        self.node_lats = np.bincount(codes, weights=lat, minlength=num_nodes) / counts
        self.node_lngs = np.bincount(codes, weights=lon, minlength=num_nodes) / counts

        # Directed edges between consecutive samples of the same trip.
        same_trip = trip[1:] == trip[:-1]
        src = codes[:-1][same_trip]
        dst = codes[1:][same_trip]
        moved = src != dst
        src, dst = src[moved], dst[moved]
        pair = src * np.int64(max(num_nodes, 1)) + dst
        uniq_pair, pair_counts = np.unique(pair, return_counts=True)
        self.edge_src = (uniq_pair // max(num_nodes, 1)).astype(np.int64)
        self.edge_dst = (uniq_pair % max(num_nodes, 1)).astype(np.int64)
        x, y = latlng_to_xy_m(self.node_lats, self.node_lngs)
        self.edge_cost = np.hypot(
            x[self.edge_src] - x[self.edge_dst], y[self.edge_src] - y[self.edge_dst]
        )
        self.edge_counts = pair_counts.astype(np.int64)
        self.adjacency = {}
        for s, d, c in zip(self.edge_src, self.edge_dst, self.edge_cost):
            self.adjacency.setdefault(int(s), []).append((int(d), float(c)))
        return self

    def _require_fitted(self):
        if self.adjacency is None:
            raise RuntimeError("GTIImputer.impute called before fit_from_trips")

    # -- querying ---------------------------------------------------------

    @property
    def num_nodes(self):
        """Number of merged point nodes."""
        self._require_fitted()
        return len(self.node_lats)

    @property
    def num_edges(self):
        """Number of directed edges."""
        self._require_fitted()
        return len(self.edge_src)

    def storage_size_bytes(self):
        """Model footprint: node coordinates plus the edge arrays."""
        self._require_fitted()
        return int(
            self.node_lats.nbytes
            + self.node_lngs.nbytes
            + self.edge_src.nbytes
            + self.edge_dst.nbytes
            + self.edge_cost.nbytes
            + self.edge_counts.nbytes
        )

    def _snap(self, lat, lng):
        x, y = latlng_to_xy_m(self.node_lats, self.node_lngs, lat0=lat)
        px, py = latlng_to_xy_m(np.asarray([lat]), np.asarray([lng]), lat0=lat)
        return int(np.argmin(np.hypot(x - px[0], y - py[0])))

    def _dijkstra(self, src, dst):
        frontier = [(0.0, src)]
        dist = {src: 0.0}
        came_from = {}
        closed = set()
        while frontier:
            d, node = heapq.heappop(frontier)
            if node == dst:
                path = [node]
                while node in came_from:
                    node = came_from[node]
                    path.append(node)
                path.reverse()
                return path
            if node in closed:
                continue
            closed.add(node)
            for neighbour, cost in self.adjacency.get(node, ()):
                if neighbour in closed:
                    continue
                tentative = d + cost
                if tentative < dist.get(neighbour, np.inf):
                    dist[neighbour] = tentative
                    came_from[neighbour] = node
                    heapq.heappush(frontier, (tentative, neighbour))
        return None

    def impute(self, start, end):
        """Route between ``(lat, lng)`` endpoints over the point graph."""
        self._require_fitted()
        if self.num_nodes == 0:
            return straight_line_path(start, end, method="fallback")
        src = self._snap(float(start[0]), float(start[1]))
        dst = self._snap(float(end[0]), float(end[1]))
        node_path = self._dijkstra(src, dst)
        if node_path is None:
            return straight_line_path(start, end, method="fallback")
        lats = np.empty(len(node_path) + 2)
        lngs = np.empty(len(node_path) + 2)
        lats[0], lngs[0] = float(start[0]), float(start[1])
        lats[-1], lngs[-1] = float(end[0]), float(end[1])
        lats[1:-1] = self.node_lats[node_path]
        lngs[1:-1] = self.node_lngs[node_path]
        lats, lngs = resample_polyline(lats, lngs)
        return ImputedPath(lats=lats, lngs=lngs, method="dijkstra")

    def impute_batch(self, starts, ends):
        """One :meth:`impute` per gap, aligned with *starts*."""
        return [self.impute(s, e) for s, e in zip(starts, ends)]
