"""Linear networks: a planar graph whose edges are straight segments.

The network is the metric space on which everything else operates.  Distances
are shortest-path (arc length along edges); positions are linear-referenced as
(edge id, offset).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    DanglingReference,
    InteriorIntersection,
    LocationOffNetwork,
    ZeroLengthEdge,
)

#: Two vertices closer than this are considered the same point and must be
#: merged before construction (ingest does the merging).
MERGE_TOLERANCE = 1e-8

#: Largest magnitude of a vertex or event coordinate: the squares, dot and
#: cross products of coordinate differences then stay finite.
MAX_COORDINATE = math.sqrt(np.finfo(float).max) / 4

#: Absolute tolerance on the cross products used by the segment predicates.
CROSS_TOLERANCE = 1e-12

#: Pairs one block of batched work may hold: the grid index yields its box
#: pairs in blocks of about this many, and ``Lattice._distances`` solves its
#: sources in blocks of this many over the number of lattice nodes.
BLOCK_PAIRS = 2**18


@dataclass(frozen=True)
class NetworkLocation:
    """Position on a network: arc-length offset from the tail vertex of one edge.

    Raw field equality is not location equality: offsets 0 and (edge length)
    denote vertices shared by several edges, which lie 0.0 apart.
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
        ok = (np.abs(vxy) <= MAX_COORDINATE).all(axis=1)  # False for nan and inf too
        if not ok.all():
            i = int(np.argmin(ok))
            raise ValueError(f"vertex {i} at {tuple(vxy[i].tolist())}: coordinates must be "
                             f"finite and at most MAX_COORDINATE = {MAX_COORDINATE:.6g} in magnitude")

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
        ends = ev.ravel()
        self.degrees = np.bincount(ends, minlength=len(vxy))
        if not self.degrees.all():
            raise ValueError("isolated vertex (degree 0) not allowed")
        # a stable sort of the edge ends lists every vertex's edges in ascending order:
        # vertex v's are _edge[_ptr[v]:_ptr[v + 1]], and _other holds each one's far end
        by_vertex = np.argsort(ends, kind="stable")
        self._ptr = np.concatenate(([0], np.cumsum(self.degrees)))
        self._edge, self._other = by_vertex // 2, ends[by_vertex ^ 1]

        self._validate_no_interior_intersections()

    # -- construction-time validation -------------------------------------

    def _validate_vertex_separation(self):
        i, j = _close_pairs(self.vertex_xy, MERGE_TOLERANCE)
        if len(i):
            i, j = min(zip(i.tolist(), j.tolist()))
            raise ValueError(
                f"vertices {i} and {j} are closer than the merge tolerance "
                f"{MERGE_TOLERANCE}; merge them before building"
            )

    def _validate_no_interior_intersections(self):
        """Raise for the lowest edge pair (e, f) that meets away from a shared endpoint.

        Candidates are the pairs whose bounding boxes (grown by the cross
        tolerance) overlap; the predicates run on all of them at once.
        """
        xy, ev = self.vertex_xy, self.edge_vertices
        p, q = xy[ev[:, 0]], xy[ev[:, 1]]
        lo = np.minimum(p, q) - CROSS_TOLERANCE
        hi = np.maximum(p, q) + CROSS_TOLERANCE
        blocks = _box_pairs(lo, hi, lo, hi, self.total_length / self.n_edges)
        e, f = map(np.concatenate, zip(*blocks))
        keep = (e < f) & (lo[f] <= hi[e]).all(axis=1) & (hi[f] >= lo[e]).all(axis=1)
        e, f = e[keep], f[keep]
        (ue, ve), (uf, vf) = ev[e].T, ev[f].T
        tail, head = (ue == uf) | (ue == vf), (ve == uf) | (ve == vf)  # end of e shared with f
        dup = tail & head
        # with one shared vertex w: do the other ends a and b leave w in one direction?
        w = np.where(tail, ue, ve)
        o, a, b = xy[w], xy[np.where(tail, ve, ue)], xy[np.where(uf == w, vf, uf)]
        dot = (a[:, 0] - o[:, 0]) * (b[:, 0] - o[:, 0]) + (a[:, 1] - o[:, 1]) * (b[:, 1] - o[:, 1])
        overlap = (tail ^ head) & (np.abs(_cross(o, a, b)) <= CROSS_TOLERANCE) & (dot > 0)
        touch = ~(tail | head) & _segments_touch(p[e], q[e], p[f], q[f])
        bad = np.flatnonzero(dup | overlap | touch)
        if len(bad):
            k = bad[np.lexsort((f[bad], e[bad]))[0]]
            what = ("are duplicates" if dup[k] else "overlap beyond their shared vertex"
                    if overlap[k] else "intersect away from a shared endpoint")
            raise InteriorIntersection(f"edges {e[k]} and {f[k]} {what}")

    # -- basic queries -----------------------------------------------------

    @cached_property
    def vertex_component(self) -> np.ndarray:
        """Component label of every vertex; components are numbered by lowest vertex id."""
        labels = np.unique(_min_labels(self.n_vertices, *self.edge_vertices.T), return_inverse=True)[1]
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

    def check_locations(self, edge, offset):
        """The locations (edge[i], offset[i]) as new int64 and float arrays; columns
        that are not 1-D or differ in length, and the first location off the
        network, raise LocationOffNetwork."""
        edge, offset = np.asarray(edge), np.array(offset, dtype=float)
        if edge.ndim != 1 or offset.shape != edge.shape:
            raise LocationOffNetwork(f"edge and offset must be 1-D columns of one length, got shapes "
                                     f"{edge.shape} and {offset.shape}")
        with np.errstate(invalid="ignore"):  # an object array warns on nan
            valid = (0 <= edge) & (edge < self.n_edges)  # False for nan
        ids = np.where(valid, edge, 0).astype(np.int64)  # cast only in range
        valid &= ids == edge  # a fractional id differs from its cast
        length = self.edge_lengths[ids]
        on = valid & (0.0 <= offset) & (offset <= length)
        if not on.all():
            i = int(np.argmin(on))
            if not valid[i]:
                raise LocationOffNetwork(f"edge id {edge[i]} out of range")
            raise LocationOffNetwork(f"offset {offset[i]} outside [0, {length[i]}] on edge {ids[i]}")
        return ids, offset

    def _xy(self, edge, offset) -> np.ndarray:
        """Planar coordinates of locations given as arrays or scalars (unchecked)."""
        u, v = self.edge_vertices[edge].T
        t = np.asarray(offset / self.edge_lengths[edge])[..., None]
        return (1.0 - t) * self.vertex_xy[u] + t * self.vertex_xy[v]


def _min_labels(n: int, i, j):
    """Lowest node id in the component of every node 0..n-1 of the graph with edges (i, j)."""
    root, prev = np.arange(n), None
    while not np.array_equal(root, prev):
        prev, root = root, root.copy()
        np.minimum.at(root, i, root[j])
        np.minimum.at(root, j, root[i])
        root = root[root]
    return root


def _ragged(n):
    """(owner, position) of every slot of consecutive segments of sizes ``n``:
    the segment it lies in and its index there, as int64 arrays."""
    n = np.asarray(n, dtype=np.int64)
    owner = np.repeat(np.arange(len(n)), n)
    position = np.arange(len(owner))
    position -= (np.cumsum(n) - n)[owner]  # in place: one temporary fewer at the peak
    return owner, position


def _csr_rows(ptr, u):
    """Positions of the rows ``u`` of a CSR structure with row pointer ``ptr``,
    concatenated, and the index into ``u`` of each position's row."""
    row, j = _ragged(ptr[u + 1] - ptr[u])
    return ptr[u][row] + j, row


def _vertex_distances(net: LinearNetwork, edge, offset, cutoff: float, block: int):
    """Shortest-path distances from the locations (edge[s], offset[s]) to the
    network's vertices, ``block`` sources at a time: each yield is one block's
    (sources, vertices) matrix, inf beyond ``cutoff``, valid until the next.

    Source s reaches its edge's tail at ``offset[s]`` and its head at
    ``length - offset[s]``, and each round relaxes the edges of every
    improved (source, vertex) pair.  Float addition is monotone, so the
    fixpoint is the minimum over all paths of the distance summed left to
    right from the source: Dijkstra's result, bit for bit.
    """
    if not cutoff >= 0:
        raise ValueError(f"cutoff must be nonnegative, got {cutoff}")
    ev, ell, ptr, adj, nv = net.edge_vertices, net.edge_lengths, net._ptr, net._edge, net.n_vertices
    dist = np.full(block * nv, np.inf)  # (source, vertex) pairs of one block, reused
    last = np.empty(block * nv, dtype=np.int64)

    # np.compress, not a boolean index: several times faster on scattered masks
    def improve(key, d):  # merge the entries that improve dist; the keys improved, once each
        ok = (d <= cutoff) & (d < dist[key])
        key, d = np.compress(ok, key), np.compress(ok, d)
        np.minimum.at(dist, key, d)
        i = np.arange(len(key))
        last[key] = i
        return np.compress(last[key] == i, key)

    for lo in range(0, len(edge), block):
        b = min(block, len(edge) - lo)
        own, x0 = edge[lo : lo + b], offset[lo : lo + b]
        tail, head = np.arange(b) * nv + ev[own].T
        hub = improve(np.concatenate((tail, head)), np.concatenate((x0, ell[own] - x0)))
        while len(hub):
            u = hub % nv
            at, w = _csr_rows(ptr, u)
            hub = improve((hub - u)[w] + net._other[at], dist[hub][w] + ell[adj[at]])
        yield dist[: b * nv].reshape(b, nv)
        dist[: b * nv] = np.inf


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
    """Shortest-path distance between two locations; inf across components.

    A vertex is reached at exactly 0.0 from itself, whichever edge names it.
    """
    edge, offset = net.check_locations([a.edge, b.edge], [a.offset, b.offset])
    dist = next(_vertex_distances(net, edge[:1], offset[:1], math.inf, 1))[0]
    best = math.inf
    if edge[0] == edge[1]:
        best = abs(a.offset - b.offset)
    u, v = net.edge_vertices[edge[1]]
    best = min(best, dist[u] + b.offset)
    best = min(best, dist[v] + (net.edge_lengths[edge[1]] - b.offset))
    return float(best)


def _snap(net: LinearNetwork, xy: np.ndarray, max_dist: float):
    """Closest network location of every row of the (N, 2) array ``xy``.

    Returns (edge, offset, dist) columns, exact and with the lowest edge id on
    ties wherever ``dist <= max_dist``; other rows lie farther than ``max_dist``
    from the network.  Rounds of radius r, from the mean edge length (at most
    ``max_dist``) growing x4 up to ``max_dist``, take as candidates the edges
    whose bounding box meets the record's box +-r: they include every edge
    within r, so a record whose best candidate is within r is done.
    Candidates get a full scan's arithmetic.
    """
    if not max_dist > 0:
        raise ValueError("max_dist must be positive")
    ev, lengths = net.edge_vertices, net.edge_lengths
    a, b = net.vertex_xy[ev[:, 0]], net.vertex_xy[ev[:, 1]]
    ab = b - a
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    mean = net.total_length / net.n_edges
    slack = 1e-9 * float(np.abs(net.vertex_xy).max())  # rounding of boxes and distances

    n = len(xy)
    edge = np.full(n, -1, dtype=np.int64)
    offset = np.full(n, np.nan)
    dist = np.full(n, np.inf)
    todo, r = np.arange(n), min(mean, max_dist)
    while len(todo):
        pad = r * (1 + 1e-9) + slack
        for e, k in _box_pairs(lo, hi, xy[todo] - pad, xy[todo] + pad, max(mean, r)):
            pe, ae, abe = xy[todo[k]], a[e], ab[e]
            te = np.einsum("ij,ij->i", pe - ae, abe) / (lengths[e] ** 2)
            te = np.clip(te, 0.0, 1.0)
            proj = ae + te[:, None] * abe
            d2 = np.einsum("ij,ij->i", proj - pe, proj - pe)
            win = _nearest(k, d2, e)  # per record: smallest d2, then lowest edge id
            row = todo[k[win]]
            edge[row] = e[win]
            offset[row] = te[win] * lengths[e[win]]
            dist[row] = np.sqrt(d2[win])
        todo = todo[dist[todo] > r] if r < max_dist else todo[:0]
        r = min(4 * r, max_dist)
    return edge, offset, dist


def _box_pairs(lo_a, hi_a, lo_b, hi_b, cell: float):
    """Blocks (i, j) of the boxes [lo_a[i], hi_a[i]] and [lo_b[j], hi_b[j]] that share a grid cell.

    Every two closed boxes that meet share a cell, and each pair comes once,
    from the cell that holds the larger of the two lower corners.  The grid
    spans the ``a`` boxes; its square cells are at least ``cell`` wide, and
    wider where the ``a`` boxes would cover more than O(len(a)) cells or a
    cell key would overflow int64.  The ``b`` boxes go in blocks of about
    ``BLOCK_PAIRS`` cell-sharing pairs, every pair of one ``b`` box in one block,
    and ``j`` is nondecreasing within a block: its runs suit :func:`_nearest`.
    """
    origin, top = lo_a.min(axis=0), hi_a.max(axis=0)
    area = (hi_a - lo_a).prod(axis=1).mean()
    cell = max(cell, math.sqrt(area), float((top - origin).max()) * 2**-30)
    cell = cell or 1.0  # every box is one and the same point
    ncell = np.floor((top - origin) / cell).astype(np.int64) + 1

    def cells(lo, hi):
        """Box and cell coordinates of every (box, covered cell), plus each box's lowest cell."""
        c0 = np.floor(np.clip((lo - origin) / cell, 0, ncell)).astype(np.int64)
        c1 = np.floor(np.clip((hi - origin) / cell, -1, ncell - 1)).astype(np.int64)
        n = np.maximum(c1 - c0 + 1, 0)  # cells a side: 0 for an empty box or one off the grid
        box, t = _ragged(n[:, 0] * n[:, 1])
        return box, c0[box, 0] + t // n[box, 1], c0[box, 1] + t % n[box, 1], c0

    box_a, xa, ya, corner_a = cells(lo_a, hi_a)
    key_a = xa * ncell[1] + ya
    by_key = np.argsort(key_a, kind="stable")
    key_a = key_a[by_key]
    box_b, xb, yb, corner_b = cells(lo_b, hi_b)
    key_b = xb * ncell[1] + yb
    start = np.searchsorted(key_a, key_b)
    count = np.searchsorted(key_a, key_b, side="right") - start
    per_box = np.bincount(box_b, count, len(lo_b)).astype(np.int64)
    block = ((np.cumsum(per_box) - per_box) // BLOCK_PAIRS)[box_b]
    cuts = np.flatnonzero(np.diff(block)) + 1
    for s, t in zip(np.r_[0, cuts], np.r_[cuts, len(block)]):
        at, i = _ragged(count[s:t])
        at += s  # entry of b
        i = box_a[by_key[start[at] + i]]  # the a entries of at's cell, then their boxes
        j = box_b[at]
        own = (xb[at] == np.maximum(corner_a[i, 0], corner_b[j, 0])) & (
            yb[at] == np.maximum(corner_a[i, 1], corner_b[j, 1]))
        yield i[own], j[own]


def _nearest(seg, d2, tie):
    """Index of the winner of every run of equal ``seg``, in run order: the smallest
    ``d2``, then the smallest ``tie``.  Runs must be contiguous with distinct ties,
    as the ``j`` of a :func:`_box_pairs` block is; two ``reduceat`` passes, no sort."""
    change = np.diff(seg, prepend=-1) != 0
    start, run = np.flatnonzero(change), np.cumsum(change) - 1  # run: each entry's owner
    best = d2 == np.minimum.reduceat(d2, start)[run]
    tie = np.where(best, tie, np.iinfo(tie.dtype).max)
    return np.flatnonzero(tie == np.minimum.reduceat(tie, start)[run])


def _close_pairs(xy, tol: float):
    """Index pairs i < j of the points ``xy`` at most ``tol`` apart."""
    i, j = map(np.concatenate, zip(*_box_pairs(xy - tol, xy + tol, xy - tol, xy + tol, 2 * tol)))
    d = xy[i] - xy[j]
    close = (i < j) & (d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] <= tol * tol)
    return i[close], j[close]


class PointPattern:
    """Finite set of locations bound to one network, stored as columns.

    ``edge`` and ``offset`` keep the input order; ``order`` is the canonical
    (edge, offset) order in which estimators accumulate per-point terms.
    """

    def __init__(self, network: LinearNetwork, edge, offset):
        """Pattern of the locations (edge[i], offset[i]), checked by
        :meth:`LinearNetwork.check_locations`."""
        self.network = network
        self.edge, self.offset = network.check_locations(edge, offset)
        self.order = np.lexsort((self.offset, self.edge))
        for a in (self.edge, self.offset, self.order):
            a.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.edge)

    def subset(self, indices) -> "PointPattern":
        return PointPattern(self.network, self.edge[indices], self.offset[indices])

    def __repr__(self):
        return f"PointPattern(n={self.n})"


def _segments_touch(p1, p2, p3, p4):
    """Per row: True where the closed segments [p1,p2] and [p3,p4] share any point."""
    tol = CROSS_TOLERANCE
    d = (_cross(p3, p4, p1), _cross(p3, p4, p2), _cross(p1, p2, p3), _cross(p1, p2, p4))

    def apart(x, y):
        return ((x > tol) & (y < -tol)) | ((x < -tol) & (y > tol))

    touch = apart(d[0], d[1]) & apart(d[2], d[3])
    for dk, sa, sb, c in zip(d, (p3, p3, p1, p1), (p4, p4, p2, p2), (p1, p2, p3, p4)):
        within = (np.minimum(sa, sb) - tol <= c) & (c <= np.maximum(sa, sb) + tol)
        touch |= (np.abs(dk) <= tol) & within.all(axis=-1)
    return touch


def _cross(o, a, b):
    return (a[..., 0] - o[..., 0]) * (b[..., 1] - o[..., 1]) - (
        a[..., 1] - o[..., 1]) * (b[..., 0] - o[..., 0])
