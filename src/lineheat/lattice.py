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

import numpy as np

from .errors import EmptyPattern, LatticeMismatch
from .network import LinearNetwork, NetworkLocation, PointPattern, _adjacency, _graph_distances


class Lattice:
    """Nodes, weights, per-edge chains and the neighbor-link structure.

    Node ids: vertex v is node v for v < n_vertices; interior nodes follow,
    edge by edge in ascending offset.  Immutable after construction.
    """

    def __init__(self, network: LinearNetwork, dx_target: float):
        if not (math.isfinite(dx_target) and dx_target > 0):
            raise ValueError(f"dx_target must be positive and finite, got {dx_target}")
        self.network = network
        self.dx_target = float(dx_target)

        if not network.total_length / self.dx_target < 2.0**62:
            raise ValueError(f"dx_target {dx_target} asks for more lattice nodes than int64 can count")
        pieces = np.ceil(network.edge_lengths / dx_target - 1e-12).astype(np.int64)
        self._n_pieces = np.maximum(1, pieces)
        self.edge_spacing = network.edge_lengths / self._n_pieces
        nv = network.n_vertices
        self._first_interior = nv + np.cumsum(self._n_pieces - 1) - (self._n_pieces - 1)
        self._chain_start = np.cumsum(self._n_pieces + 1) - (self._n_pieces + 1)

        # keep this allocation order: it sets the heap holes the solver's steps reuse
        edge, j = self._chain_positions()
        self._chain = self._node(edge, j)  # every edge's chain, edge by edge
        tail, head = j == 0, j == self._n_pieces[edge]
        # the inner chain positions are the interior nodes, in node-id order
        inner = ~(tail | head)
        self.node_edge = np.concatenate((np.full(nv, -1, dtype=np.int64), edge[inner]))
        j = j[inner]
        edge = self.node_edge[nv:]
        h = self.edge_spacing[edge]
        self.node_offset = np.concatenate((np.full(nv, np.nan), h * j))
        ev = network.edge_vertices
        half = np.repeat(self.edge_spacing / 2, 2)  # tail and head share of each edge
        self.node_weight = np.concatenate((np.bincount(ev.ravel(), half, nv), h))
        t = (self.node_offset[nv:] / network.edge_lengths[edge])[:, None]
        xy = network.vertex_xy[ev[edge, 0]] * (1 - t)
        xy += network.vertex_xy[ev[edge, 1]] * t
        self.node_xy = np.concatenate((network.vertex_xy, xy))
        self.node_vertex = np.concatenate((np.arange(nv), np.full(len(edge), -1, dtype=np.int64)))
        self.edge_chains = np.split(self._chain, self._chain_start[1:])
        self.link_i, self.link_j = self._chain[~head], self._chain[~tail]
        self.link_h = np.repeat(self.edge_spacing, self._n_pieces)
        for a in (
            self._chain,
            self.node_xy,
            self.node_weight,
            self.node_edge,
            self.node_offset,
            self.node_vertex,
            self.link_i,
            self.link_j,
            self.link_h,
        ):
            a.setflags(write=False)

    def _chain_positions(self):
        """(edge, j) for every chain position j = 0..k of every edge, edge by edge."""
        edge = np.repeat(np.arange(self.network.n_edges), self._n_pieces + 1)
        return edge, np.arange(len(edge)) - self._chain_start[edge]

    def _node(self, edge, j):
        """Node id of position j on the chain of ``edge``: 0 is the tail vertex, k the head."""
        ev = self.network.edge_vertices
        node = self._first_interior[edge] + j - 1
        tail, head = j == 0, j == self._n_pieces[edge]
        node[tail] = ev[edge[tail], 0]
        node[head] = ev[edge[head], 1]
        return node

    @property
    def n_nodes(self) -> int:
        return len(self.node_weight)

    @property
    def min_spacing(self) -> float:
        return float(self.edge_spacing.min())

    def node_location(self, i: int) -> NetworkLocation:
        v = int(self.node_vertex[i])
        if v >= 0:
            return self.network.vertex_location(v)
        return NetworkLocation(int(self.node_edge[i]), float(self.node_offset[i]))

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
        edge, j = self._chain_positions()
        h = self.edge_spacing[edge]
        k = self._n_pieces[edge]
        lo = np.where(j == 0, 0.0, h * (j - 1) + h / 2)
        hi = np.where(j == k, self.network.edge_lengths[edge], h * (j + 1) - h / 2)
        return edge, lo, hi, self._chain

    # -- shortest-path distances over the lattice graph -----------------------

    @cached_property
    def _graph(self):
        return _adjacency(self.n_nodes, self.link_i, self.link_j, self.link_h)

    def distance_field(self, source: NetworkLocation, cutoff: float = math.inf):
        """Shortest-path distance from ``source`` to every lattice node.

        Exact on the lattice graph: chains subdivide edges without changing
        arc length, so graph distances equal network distances.  Entries beyond
        ``cutoff`` stay inf.
        """
        self.network.check_location(source)
        left, right, theta = (x.item() for x in self.bracket(source.edge, source.offset))
        if left == right:
            return _graph_distances(self._graph, [(left, 0.0)], cutoff)
        h = float(self.edge_spacing[source.edge])
        dl = theta * h
        return _graph_distances(self._graph, [(left, dl), (right, h - dl)], cutoff)


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
        """Arc-length integral via the node quadrature weights."""
        return float(self.lattice.node_weight @ self.values)

    def values_at(self, edge, offset) -> np.ndarray:
        """Linear interpolation along the containing edge chains (unchecked)."""
        left, right, theta = self.lattice.bracket(edge, offset)
        return (1.0 - theta) * self.values[left] + theta * self.values[right]

    def value_at(self, loc: NetworkLocation) -> float:
        """Linear interpolation along the containing edge chain."""
        self.lattice.network.check_location(loc)
        return float(self.values_at(loc.edge, loc.offset))

    def resample_to(self, other: Lattice) -> "LatticeFunction":
        if other.network is not self.lattice.network:
            raise LatticeMismatch("cannot resample onto a lattice of another network")
        nv = other.network.n_vertices  # vertices are the first nodes of every lattice
        inner = self.values_at(other.node_edge[nv:], other.node_offset[nv:])
        return LatticeFunction(other, np.concatenate((self.values[:nv], inner)))

    def copy(self) -> "LatticeFunction":
        return LatticeFunction(self.lattice, self.values.copy())


def discretize(net: LinearNetwork, dx_target: float) -> Lattice:
    """Build the quadrature lattice with per-edge spacing at most ``dx_target``."""
    return Lattice(net, dx_target)


def _require_points(pattern: PointPattern, lattice: Lattice):
    """Estimator input guard: same network as the lattice, at least one point."""
    if lattice.network is not pattern.network:
        raise ValueError("pattern and lattice refer to different networks")
    if pattern.n == 0:
        raise EmptyPattern("estimator needs at least one data point")
