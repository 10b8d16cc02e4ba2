"""Discretization of a network into chain nodes with quadrature weights.

Every edge of length L is cut into ceil(L / dx_target) equal pieces, so the
per-edge spacing is at most dx_target but may differ between edges.  Nodes are
the piece boundaries; network vertices are shared nodes.  Node weights are the
trapezoid quadrature cells (interior: local spacing; vertex: half the first
piece of every incident edge), so the weights sum to the total network length
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .network import LinearNetwork, NetworkLocation, PointPattern, _ragged, _vertex_distances
from . import network  # after the line above: bound by then, so no package __getattr__ runs

#: Most lattice nodes a spacing may ask for: a heat or uniform-corrected run
#: at this size peaks at about 0.5 and 0.7 GB.
MAX_NODES = 2_000_000


class SolverGraph(NamedTuple):
    """The graph the heat solver steps.  ``cluster`` maps each lattice node to a
    solver node, which weighs its lattice nodes' sum; links join two clusters.
    ``tau`` is the merge threshold: links shorter than it were merged where
    the extent bound allowed."""

    cluster: np.ndarray
    node_weight: np.ndarray
    link_i: np.ndarray
    link_j: np.ndarray
    link_h: np.ndarray
    tau: float

    @property
    def min_link(self) -> float:
        """Shortest link, inf when every link was merged."""
        return float(self.link_h.min(initial=np.inf))


class Lattice:
    """Per-edge chains of nodes and the nodes' quadrature weights.

    Node ids: vertex v is node v for v < n_vertices; interior nodes follow,
    edge by edge in ascending offset.  Immutable after construction: every
    array it holds or derives is read-only.
    """

    def __init__(self, network: LinearNetwork, dx_target: float):
        if not (math.isfinite(dx_target) and dx_target > 0):
            raise ValueError(f"dx_target must be positive and finite, got {dx_target}")
        self.network = network
        self.dx_target = float(dx_target)

        # at most length / dx + 1 pieces per edge; nodes are vertices + pieces - edges
        if not network.total_length / self.dx_target + network.n_edges <= MAX_NODES:
            raise ValueError(f"dx_target {dx_target} asks for more than MAX_NODES = {MAX_NODES} lattice nodes")
        pieces = np.ceil(network.edge_lengths / dx_target - 1e-12).astype(np.int64)
        self._n_pieces = np.maximum(1, pieces)
        self.edge_spacing = network.edge_lengths / self._n_pieces
        nv, ev = network.n_vertices, network.edge_vertices
        self._first_interior = nv + np.cumsum(self._n_pieces - 1) - (self._n_pieces - 1)
        self._chain_start = np.cumsum(self._n_pieces + 1) - (self._n_pieces + 1)
        edge, j = _ragged(self._n_pieces + 1)
        # every edge's chain, edge by edge: position j = 0..k from the tail vertex to the head
        self._chain = self._first_interior[edge] + j - 1
        self._chain[self._chain_start], self._chain[self._chain_start + self._n_pieces] = ev.T
        half = np.repeat(self.edge_spacing / 2, 2)  # tail and head share of each edge
        inner = np.repeat(self.edge_spacing, self._n_pieces - 1)
        self.node_weight = np.concatenate((np.bincount(ev.ravel(), half, nv), inner))
        _read_only(*(a for a in vars(self).values() if isinstance(a, np.ndarray)))

    def _inner_nodes(self, edge, lo, n):
        """Ids and offsets h * j of the inner nodes j = lo..lo + n - 1 (within
        1..k - 1) of the chain of each ``edge``, window by window, and the
        window each entry belongs to."""
        w, j = _ragged(n)
        j += np.broadcast_to(lo, len(n))[w]
        return (self._first_interior[edge] - 1)[w] + j, self.edge_spacing[edge][w] * j, w

    def _inner_window(self, edge, a, b):
        """:meth:`_inner_nodes` of the positions j = floor(a / h)..ceil(b / h),
        within 1..k - 1, of the chain of each ``edge``."""
        h = self.edge_spacing[edge]
        lo = np.maximum(1, np.floor(a / h)).astype(np.int64)
        n = np.maximum(0, np.minimum(self._n_pieces[edge] - 1, np.ceil(b / h)) - lo + 1).astype(np.int64)
        return self._inner_nodes(edge, lo, n)

    @property
    def n_nodes(self) -> int:
        return len(self.node_weight)

    @property
    def min_spacing(self) -> float:
        return float(self.edge_spacing.min())

    def node_location(self, i: int) -> NetworkLocation:
        e, offset = self._node_locations(i)
        return NetworkLocation(int(e), float(offset))

    def _node_locations(self, nodes):
        """(edge, offset) of lattice nodes given as an array or a scalar: an inner
        node at h * j along its edge, the inverse of :meth:`_inner_nodes`; a
        vertex at an end of its lowest incident edge."""
        net = self.network
        inside = nodes >= net.n_vertices
        e = np.searchsorted(self._first_interior, nodes, "right") - 1
        x = self.edge_spacing[e] * (nodes - self._first_interior[e] + 1)
        low = net._edge[net._ptr[np.where(inside, 0, nodes)]]
        at = np.where(net.edge_vertices[low, 0] == nodes, 0.0, net.edge_lengths[low])
        return np.where(inside, e, low), np.where(inside, x, at)

    @cached_property
    def node_xy(self) -> np.ndarray:
        """Planar coordinates of every lattice node."""
        return _read_only(self.network._xy(*self._node_locations(np.arange(self.n_nodes))))[0]

    def compatible(self, other: "Lattice") -> bool:
        return self is other or (
            self.network is other.network
            and self.n_nodes == other.n_nodes
            and np.array_equal(self.edge_spacing, other.edge_spacing)
        )

    # -- interpolation support ----------------------------------------------

    def bracket(self, edge, offset):
        """Chain nodes around locations given as numpy arrays or scalars.

        Returns (left, right, theta): theta is (offset - left offset) / spacing
        in [0, 1]; a location at an edge end is that vertex: left == right,
        theta == 0.  Unchecked.
        """
        x = offset / self.edge_spacing[edge]
        at_head = offset == self.network.edge_lengths[edge]
        j = np.minimum(x.astype(np.int64), self._n_pieces[edge] - 1) + at_head
        inside = (offset > 0.0) & ~at_head
        at = self._chain_start[edge] + j
        return self._chain[at], self._chain[at + inside], np.where(inside, x - j, 0.0)

    # -- node cells -----------------------------------------------------------

    @cached_property
    def node_cells(self):
        """Per-edge partition into quadrature cells, edge by edge in ascending offset.

        Arrays (cell_edge, cell_lo, cell_hi, cell_node): each cell is the piece
        of one edge owned by one node; cell lengths per node sum to its weight.
        """
        edge, j = _ragged(self._n_pieces + 1)
        h = self.edge_spacing[edge]
        lo = np.where(j == 0, 0.0, h * (j - 1) + h / 2)
        hi = np.where(j == self._n_pieces[edge], self.network.edge_lengths[edge], h * (j + 1) - h / 2)
        return (*_read_only(edge, lo, hi), self._chain)

    # -- the heat solver's graph and shortest-path distances ------------------

    @cached_property
    def _solver(self) -> SolverGraph:
        """The lattice with the ends of links shorter than dx_target / 2 merged,
        shortest first (ties by end nodes).  A merge that would bring a cluster's
        summed merged link length, which bounds its extent, to dx_target / 2 is refused.
        Only one-piece edges can be short (k >= 2 pieces are longer than dx_target / 2),
        so clusters join vertices only and every inner node is its own."""
        tau, nv, ev = self.dx_target / 2, self.network.n_vertices, self.network.edge_vertices
        root = np.arange(nv)
        extent = {}  # summed merged link lengths by cluster root

        def find(x):
            while root[x] != x:
                root[x] = root[root[x]]
                x = root[x]
            return x

        short = np.flatnonzero(self.edge_spacing < tau)
        for h, a, b in sorted(zip(self.edge_spacing[short].tolist(), *ev[short].T.tolist())):
            a, b = find(a), find(b)
            if a != b and (e := extent.get(a, 0.0) + extent.get(b, 0.0) + h) < tau:
                root[b] = a
                extent[a] = e
        while not np.array_equal(root, root[root]):
            root = root[root]
        first = np.cumsum(root == np.arange(nv)) - 1  # clusters numbered by root id, inner nodes last
        cluster = np.concatenate((first[root], np.arange(first[-1] + 1, first[-1] + 1 + self.n_nodes - nv)))
        c = cluster[self._chain]  # a chain's links join its positions 0..k - 1 to 1..k
        ci, cj = np.delete(c, self._chain_start + self._n_pieces), np.delete(c, self._chain_start)
        keep = ci != cj
        h = np.repeat(self.edge_spacing, self._n_pieces)[keep]
        return SolverGraph(*_read_only(cluster, np.bincount(cluster, self.node_weight), ci[keep], cj[keep], h), tau)

    def _distances(self, edge, offset, cutoff: float = math.inf):
        """Shortest-path distances from the locations (edge[s], offset[s]) to the
        lattice nodes.  Sources go in blocks of ``network.BLOCK_PAIRS // n_nodes``;
        each yields the entries within ``cutoff`` as (source, node, distance)
        columns, by source, then node.

        Vertex distances come from :func:`~lineheat.network._vertex_distances`.
        An inner node at offset x of an edge with a reached end, or of the
        source's own edge, then takes ``min(d_tail + x, d_head + (length - x))``,
        and on the source's own edge also ``|x - offset[s]|``.
        """
        net = self.network
        ev, ell, nv = net.edge_vertices, net.edge_lengths, net.n_vertices
        cut = np.flatnonzero(self._n_pieces > 1)  # the edges with inner nodes
        block = max(1, min(network.BLOCK_PAIRS // self.n_nodes, len(edge)))
        for dist, lo in zip(_vertex_distances(net, edge, offset, cutoff, block), range(0, len(edge), block)):
            own, x0 = edge[lo : lo + len(dist)], offset[lo : lo + len(dist)]
            reached = dist < np.inf
            # (source, edge) pairs by source, then edge: the edges with inner nodes
            # and a reached end, and the sources' own edges
            pair = reached[:, ev[cut, 0]] | reached[:, ev[cut, 1]]
            mine = np.flatnonzero(self._n_pieces[own] > 1)
            pair[mine, np.searchsorted(cut, own[mine])] = True
            s, e = np.divmod(np.flatnonzero(pair), len(cut))
            e = cut[e]
            node, x, w = self._inner_nodes(e, 1, self._n_pieces[e] - 1)  # w: each node's pair
            dist = dist.ravel()
            d = np.minimum(dist[s * nv + ev[e, 0]][w] + x, dist[s * nv + ev[e, 1]][w] + (ell[e][w] - x))
            on = np.flatnonzero((e == own[s])[w])
            d[on] = np.minimum(d[on], np.abs(x[on] - x0[s][w[on]]))
            ok = d <= cutoff
            key = np.flatnonzero(reached)
            # two runs sorted by (source, node): the vertices, then the inner nodes
            row = np.concatenate((key // nv, s[w[ok]]))
            by = np.argsort(row, kind="stable")
            node = np.concatenate((key % nv, node[ok]))
            yield lo + row[by], node[by], np.concatenate((dist[key], d[ok]))[by]

    def distance_field(self, source: NetworkLocation, cutoff: float = math.inf):
        """Shortest-path distance from ``source`` to every lattice node.

        Graph distances to the network's vertices, then the shorter way
        along each node's edge: one rounding past the vertex distance.
        Entries beyond ``cutoff`` stay inf.
        """
        _, at, d = next(self._distances(*self.network.check_locations([source.edge], [source.offset]), cutoff))
        out = np.full(self.n_nodes, np.inf)
        out[at] = d
        return out


@dataclass
class LatticeFunction:
    """Real-valued function sampled at the lattice nodes."""

    lattice: Lattice
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.lattice.n_nodes,):
            raise ValueError("values must have one entry per lattice node")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("lattice function values must be finite")

    def integral(self) -> float:
        """Arc-length integral via the node quadrature weights, summed in a fixed
        order: a BLAS dot product's order follows its thread count."""
        return float(np.add.reduce(self.lattice.node_weight * self.values))

    def values_at(self, edge, offset) -> np.ndarray:
        """Linear interpolation along the containing edge chains (unchecked)."""
        left, right, theta = self.lattice.bracket(edge, offset)
        return (1.0 - theta) * self.values[left] + theta * self.values[right]


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


def discretize(net: LinearNetwork, dx_target: float) -> Lattice:
    """Build the quadrature lattice with per-edge spacing at most ``dx_target``."""
    return Lattice(net, dx_target)


def _require_same_network(pattern: PointPattern, lattice: Lattice):
    """Estimator input guard: the pattern lies on the lattice's network."""
    if lattice.network is not pattern.network:
        raise ValueError("pattern and lattice refer to different networks")
