"""Linear networks: a planar graph whose edges are straight segments.

The network is the metric space on which everything else operates.  Distances
are shortest-path (arc length along edges); positions are linear-referenced as
(edge id, offset).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree

from .errors import (
    DanglingReference,
    InteriorIntersection,
    LocationOffNetwork,
    TooFarFromNetwork,
    ZeroLengthEdge,
)

#: Two vertices closer than this are considered the same point and must be
#: merged before construction (ingest does the merging).
MERGE_TOLERANCE = 1e-8

#: Absolute tolerance on the cross products used by the segment predicates.
CROSS_TOLERANCE = 1e-12


@dataclass(frozen=True)
class NetworkLocation:
    """Position on a network: arc-length offset from the tail vertex of one edge.

    Raw field equality is not location equality: offsets 0 and (edge length)
    denote vertices shared by several edges.  Use
    :meth:`LinearNetwork.same_location` for canonical comparison.
    """

    edge: int
    offset: float


class LinearNetwork:
    """Immutable graph-with-geometry.

    Vertices carry planar coordinates, edges are straight segments between two
    vertices, and edges may meet only at shared endpoint vertices.  All of this
    is validated at construction; prefer :func:`build_network`.
    """

    def __init__(self, vertex_xy, edge_vertices):
        vxy = np.asarray(vertex_xy, dtype=float)
        ev = np.asarray(edge_vertices, dtype=np.int64)
        if vxy.ndim != 2 or vxy.shape[1] != 2:
            raise ValueError("vertex_xy must be an (V, 2) array")
        if ev.ndim != 2 or ev.shape[1] != 2:
            raise ValueError("edge_vertices must be an (E, 2) array")
        if len(ev) == 0:
            raise ValueError("a network needs at least one edge")
        if np.any(ev < 0) or np.any(ev >= len(vxy)):
            raise DanglingReference("segment references a vertex id out of range")

        diff = vxy[ev[:, 1]] - vxy[ev[:, 0]]
        lengths = np.hypot(diff[:, 0], diff[:, 1])
        if np.any(ev[:, 0] == ev[:, 1]) or np.any(lengths < MERGE_TOLERANCE):
            raise ZeroLengthEdge("edge endpoints coincide")

        self.vertex_xy = vxy
        self.edge_vertices = ev
        self.edge_lengths = lengths
        for a in (self.vertex_xy, self.edge_vertices, self.edge_lengths):
            a.setflags(write=False)

        self._validate_vertex_separation()
        incident: list[list[int]] = [[] for _ in range(len(vxy))]
        for e, (u, v) in enumerate(ev):
            incident[u].append(e)
            incident[v].append(e)
        if any(len(lst) == 0 for lst in incident):
            raise ValueError("isolated vertex (degree 0) not allowed")
        self.incident_edges = tuple(np.asarray(lst, dtype=np.int64) for lst in incident)
        self.degrees = np.asarray([len(lst) for lst in incident], dtype=np.int64)

        self._validate_no_interior_intersections()

    # -- construction-time validation -------------------------------------

    def _validate_vertex_separation(self):
        pairs = cKDTree(self.vertex_xy).query_pairs(MERGE_TOLERANCE)
        if pairs:
            i, j = sorted(next(iter(pairs)))
            raise ValueError(
                f"vertices {i} and {j} are closer than the merge tolerance "
                f"{MERGE_TOLERANCE}; merge them before building"
            )

    def _validate_no_interior_intersections(self):
        xy = self.vertex_xy
        ev = self.edge_vertices
        p = xy[ev[:, 0]]
        q = xy[ev[:, 1]]
        lo = np.minimum(p, q) - CROSS_TOLERANCE
        hi = np.maximum(p, q) + CROSS_TOLERANCE
        n = len(ev)
        # bbox prefilter; exact predicates only on the surviving pairs
        for e in range(n):
            overl = np.nonzero(
                (lo[e + 1 :, 0] <= hi[e, 0])
                & (hi[e + 1 :, 0] >= lo[e, 0])
                & (lo[e + 1 :, 1] <= hi[e, 1])
                & (hi[e + 1 :, 1] >= lo[e, 1])
            )[0]
            for f in overl + e + 1:
                self._check_edge_pair(int(e), int(f))

    def _check_edge_pair(self, e, f):
        ue, ve = self.edge_vertices[e]
        uf, vf = self.edge_vertices[f]
        shared = {ue, ve} & {uf, vf}
        xy = self.vertex_xy
        if len(shared) == 2:
            raise InteriorIntersection(f"edges {e} and {f} are duplicates")
        if len(shared) == 1:
            w = shared.pop()
            a = xy[ve if ue == w else ue]
            b = xy[vf if uf == w else uf]
            o = xy[w]
            cr = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
            dot = (a[0] - o[0]) * (b[0] - o[0]) + (a[1] - o[1]) * (b[1] - o[1])
            if abs(cr) <= CROSS_TOLERANCE and dot > 0:
                raise InteriorIntersection(
                    f"edges {e} and {f} overlap beyond their shared vertex"
                )
            return
        if _segments_touch(xy[ue], xy[ve], xy[uf], xy[vf]):
            raise InteriorIntersection(
                f"edges {e} and {f} intersect away from a shared endpoint"
            )

    # -- basic queries -----------------------------------------------------

    @cached_property
    def vertex_component(self) -> np.ndarray:
        """Component label of every vertex; components are numbered by lowest vertex id."""
        from scipy.sparse.csgraph import connected_components

        labels = connected_components(self._graph, directed=False)[1].astype(np.int64)
        labels.setflags(write=False)
        return labels

    @property
    def n_components(self) -> int:
        return int(self.vertex_component.max()) + 1

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_xy)

    @property
    def n_edges(self) -> int:
        return len(self.edge_vertices)

    @property
    def total_length(self) -> float:
        return float(self.edge_lengths.sum())

    def check_location(self, loc: NetworkLocation) -> None:
        if not 0 <= loc.edge < self.n_edges:
            raise LocationOffNetwork(f"edge id {loc.edge} out of range")
        if not 0.0 <= loc.offset <= self.edge_lengths[loc.edge]:
            raise LocationOffNetwork(
                f"offset {loc.offset} outside [0, {self.edge_lengths[loc.edge]}] "
                f"on edge {loc.edge}"
            )

    def canonical_location(self, loc: NetworkLocation):
        """Canonical form: ('v', vertex id) at edge ends, ('e', edge, offset) inside."""
        self.check_location(loc)
        u, v = self.edge_vertices[loc.edge]
        if loc.offset == 0.0:
            return ("v", int(u))
        if loc.offset == self.edge_lengths[loc.edge]:
            return ("v", int(v))
        return ("e", int(loc.edge), float(loc.offset))

    def same_location(self, a: NetworkLocation, b: NetworkLocation) -> bool:
        return self.canonical_location(a) == self.canonical_location(b)

    def location_xy(self, loc: NetworkLocation) -> np.ndarray:
        self.check_location(loc)
        u, v = self.edge_vertices[loc.edge]
        t = loc.offset / self.edge_lengths[loc.edge]
        return (1.0 - t) * self.vertex_xy[u] + t * self.vertex_xy[v]

    def vertex_location(self, vertex: int) -> NetworkLocation:
        """Linear-referenced form of a vertex, on its lowest incident edge."""
        e = int(self.incident_edges[vertex][0])
        u, _ = self.edge_vertices[e]
        off = 0.0 if u == vertex else float(self.edge_lengths[e])
        return NetworkLocation(e, off)

    # -- metric ------------------------------------------------------------

    @cached_property
    def _graph(self) -> csr_matrix:
        ev = self.edge_vertices
        return _adjacency(self.n_vertices, ev[:, 0], ev[:, 1], self.edge_lengths)

    def vertex_distances(self, source: NetworkLocation, cutoff: float = math.inf):
        """Shortest-path distance from ``source`` to every vertex (inf beyond cutoff)."""
        kind = self.canonical_location(source)
        if kind[0] == "v":
            seeds = [(kind[1], 0.0)]
        else:
            u, v = self.edge_vertices[source.edge]
            seeds = [(u, source.offset), (v, self.edge_lengths[source.edge] - source.offset)]
        return _graph_distances(self._graph, seeds, cutoff)


def _adjacency(n: int, tail, head, length) -> csr_matrix:
    """Symmetric n x n CSR adjacency of an undirected graph with edge lengths."""
    return csr_matrix(
        (np.concatenate([length, length]),
         (np.concatenate([tail, head]), np.concatenate([head, tail]))),
        shape=(n, n),
    )


def _graph_distances(graph: csr_matrix, seeds, cutoff: float = math.inf) -> np.ndarray:
    """Shortest-path distance from a source to every node of ``graph``.

    ``seeds`` lists (node, distance from the source) for the nodes next to
    the source.  The source joins the graph as one extra node with an edge to
    each seed, so every distance is summed from the source offset along the
    path, left to right.  Nodes farther than ``cutoff`` stay inf.
    """
    from scipy.sparse.csgraph import dijkstra

    nodes, starts = zip(*seeds)
    n = graph.shape[0]
    extended = csr_matrix(
        (np.append(graph.data, starts), np.append(graph.indices, nodes),
         np.append(graph.indptr, graph.nnz + len(seeds))),
        shape=(n + 1, n + 1),
    )
    return dijkstra(extended, indices=n, limit=cutoff)[:n]


def build_network(vertices: Sequence, segments: Sequence) -> LinearNetwork:
    """Build and validate a LinearNetwork.

    Parameters
    ----------
    vertices : sequence of (x, y)
        Planar coordinates in a projected (metric) system; the position in the
        sequence is the vertex id.
    segments : sequence of (u, v)
        Vertex id pairs, one per straight edge.
    """
    return LinearNetwork(np.asarray(vertices, dtype=float), np.asarray(segments))


def shortest_path_distance(
    net: LinearNetwork, a: NetworkLocation, b: NetworkLocation
) -> float:
    """Shortest-path distance between two locations; inf across components."""
    ca = net.canonical_location(a)
    cb = net.canonical_location(b)
    if ca == cb:
        return 0.0
    best = math.inf
    if a.edge == b.edge:
        best = abs(a.offset - b.offset)
    dist = net.vertex_distances(a)
    u, v = net.edge_vertices[b.edge]
    best = min(best, dist[u] + b.offset)
    best = min(best, dist[v] + (net.edge_lengths[b.edge] - b.offset))
    return float(best)


def network_disc(
    net: LinearNetwork, center: NetworkLocation, r: float
) -> list[tuple[int, float, float]]:
    """Sub-segments within shortest-path distance ``r`` of ``center``.

    Returns (edge id, offset_lo, offset_hi) triples, disjoint per edge and
    sorted.  Degenerate intervals (lo == hi) mark single points, e.g. r = 0.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    net.check_location(center)
    dist = net.vertex_distances(center, cutoff=r)
    out: list[tuple[int, float, float]] = []
    for e in range(net.n_edges):
        u, v = net.edge_vertices[e]
        ell = float(net.edge_lengths[e])
        ivals = []
        if dist[u] <= r:
            ivals.append((0.0, min(ell, r - dist[u])))
        if dist[v] <= r:
            ivals.append((max(0.0, ell - (r - dist[v])), ell))
        if e == center.edge:
            ivals.append((max(0.0, center.offset - r), min(ell, center.offset + r)))
        if not ivals:
            continue
        ivals.sort()
        merged = [ivals[0]]
        for lo, hi in ivals[1:]:
            mlo, mhi = merged[-1]
            if lo <= mhi:
                merged[-1] = (mlo, max(mhi, hi))
            else:
                merged.append((lo, hi))
        out.extend((e, lo, hi) for lo, hi in merged)
    return out


def disc_length(intervals: Iterable[tuple[int, float, float]]) -> float:
    return float(sum(hi - lo for _, lo, hi in intervals))


def snap_to_network(
    net: LinearNetwork, point, max_dist: float
) -> NetworkLocation:
    """Closest location on the network to a planar point.

    Ties are broken by lowest edge id (then lowest offset, which cannot occur
    for straight edges).  Raises TooFarFromNetwork when the closest location is
    farther than ``max_dist``.
    """
    if max_dist <= 0:
        raise ValueError("max_dist must be positive")
    p = np.asarray(point, dtype=float)
    a = net.vertex_xy[net.edge_vertices[:, 0]]
    b = net.vertex_xy[net.edge_vertices[:, 1]]
    ab = b - a
    t = np.einsum("ij,ij->i", p - a, ab) / (net.edge_lengths**2)
    t = np.clip(t, 0.0, 1.0)
    proj = a + t[:, None] * ab
    d2 = np.einsum("ij,ij->i", proj - p, proj - p)
    e = int(np.argmin(d2))  # first minimum: lowest edge id wins ties
    d = math.sqrt(d2[e])
    if d > max_dist:
        raise TooFarFromNetwork(f"nearest edge is {d:.6g} away (max {max_dist:.6g})")
    return NetworkLocation(e, float(t[e] * net.edge_lengths[e]))


class PointPattern:
    """Finite set of locations bound to one network, stored as columns.

    ``edge`` and ``offset`` keep the input order; ``order`` is the canonical
    (edge, offset) order in which estimators accumulate per-point terms.
    Indexing (and so iteration) yields :class:`NetworkLocation`.
    """

    def __init__(self, network: LinearNetwork, points: Sequence[NetworkLocation]):
        self.network = network
        pts = tuple(points)
        for p in pts:
            network.check_location(p)
        self.edge = np.array([p.edge for p in pts], dtype=np.int64)
        self.offset = np.array([p.offset for p in pts], dtype=float)
        self.order = np.lexsort((self.offset, self.edge))
        for a in (self.edge, self.offset, self.order):
            a.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.edge)

    def subset(self, indices) -> "PointPattern":
        return PointPattern(self.network, [self[i] for i in indices])

    def __getitem__(self, i) -> NetworkLocation:
        return NetworkLocation(int(self.edge[i]), float(self.offset[i]))

    def __len__(self):
        return self.n

    def __repr__(self):
        return f"PointPattern(n={self.n})"


def _segments_touch(p1, p2, p3, p4) -> bool:
    """True when closed segments [p1,p2] and [p3,p4] share any point."""
    tol = CROSS_TOLERANCE
    d1 = _cross(p3, p4, p1)
    d2 = _cross(p3, p4, p2)
    d3 = _cross(p1, p2, p3)
    d4 = _cross(p1, p2, p4)
    if ((d1 > tol and d2 < -tol) or (d1 < -tol and d2 > tol)) and (
        (d3 > tol and d4 < -tol) or (d3 < -tol and d4 > tol)
    ):
        return True
    for d, sa, sb, c in ((d1, p3, p4, p1), (d2, p3, p4, p2), (d3, p1, p2, p3), (d4, p1, p2, p4)):
        if abs(d) <= tol and _within_bbox(sa, sb, c):
            return True
    return False


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _within_bbox(a, b, c) -> bool:
    tol = CROSS_TOLERANCE
    return (
        min(a[0], b[0]) - tol <= c[0] <= max(a[0], b[0]) + tol
        and min(a[1], b[1]) - tol <= c[1] <= max(a[1], b[1]) + tol
    )
