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

from .errors import EmptyPattern
from .network import LinearNetwork, NetworkLocation, PointPattern, _adjacency, _graph_distances


class Lattice:
    """Nodes, weights, per-edge chains and the neighbor-link structure.

    Node ids: vertex v is node v for v < n_vertices; interior nodes follow,
    edge by edge in ascending offset.  Immutable after construction.
    """

    def __init__(self, network: LinearNetwork, dx_target: float):
        if dx_target <= 0:
            raise ValueError("dx_target must be positive")
        self.network = network
        self.dx_target = float(dx_target)

        nv = network.n_vertices
        n_pieces = np.maximum(
            1, np.ceil(network.edge_lengths / dx_target - 1e-12).astype(np.int64)
        )
        self.edge_spacing = network.edge_lengths / n_pieces

        n_nodes = nv + int((n_pieces - 1).sum())
        xy = np.empty((n_nodes, 2))
        weight = np.zeros(n_nodes)
        node_edge = np.full(n_nodes, -1, dtype=np.int64)
        node_offset = np.full(n_nodes, np.nan)
        node_vertex = np.full(n_nodes, -1, dtype=np.int64)

        xy[:nv] = network.vertex_xy
        node_vertex[:nv] = np.arange(nv)

        chains: list[np.ndarray] = []
        link_i: list[np.ndarray] = []
        link_j: list[np.ndarray] = []
        link_h: list[np.ndarray] = []
        cursor = nv
        for e in range(network.n_edges):
            u, v = network.edge_vertices[e]
            k = int(n_pieces[e])
            h = float(self.edge_spacing[e])
            interior = np.arange(cursor, cursor + k - 1, dtype=np.int64)
            cursor += k - 1
            chain = np.concatenate(([u], interior, [v]))
            chains.append(chain)
            if k > 1:
                offs = h * np.arange(1, k)
                t = offs / network.edge_lengths[e]
                xy[interior] = (1 - t)[:, None] * network.vertex_xy[u] + t[
                    :, None
                ] * network.vertex_xy[v]
                node_edge[interior] = e
                node_offset[interior] = offs
                weight[interior] = h
            weight[u] += h / 2
            weight[v] += h / 2
            link_i.append(chain[:-1])
            link_j.append(chain[1:])
            link_h.append(np.full(k, h))

        self.node_xy = xy
        self.node_weight = weight
        self.node_edge = node_edge
        self.node_offset = node_offset
        self.node_vertex = node_vertex
        self.edge_chains = chains
        self.link_i = np.concatenate(link_i)
        self.link_j = np.concatenate(link_j)
        self.link_h = np.concatenate(link_h)
        for a in (
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
        self._cells = None

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

    def bracket(self, loc: NetworkLocation) -> tuple[int, int, float, float]:
        """Chain nodes around a location: (left, right, fraction, spacing).

        fraction is (offset - left offset) / spacing in [0, 1]; for a location
        at a vertex the pair degenerates to (node, node, 0, spacing).
        """
        kind = self.network.canonical_location(loc)
        if kind[0] == "v":
            v = kind[1]
            h = float(self.edge_spacing[self.network.incident_edges[v][0]])
            return v, v, 0.0, h
        e = kind[1]
        h = float(self.edge_spacing[e])
        chain = self.edge_chains[e]
        j = min(int(loc.offset / h), len(chain) - 2)
        theta = loc.offset / h - j
        return int(chain[j]), int(chain[j + 1]), float(theta), h

    # -- node cells -----------------------------------------------------------

    @property
    def node_cells(self):
        """Per-edge partition into quadrature cells.

        Arrays (cell_edge, cell_lo, cell_hi, cell_node): each cell is the piece
        of one edge owned by one node; cell lengths per node sum to its weight.
        """
        if self._cells is None:
            ce, cl, ch, cn = [], [], [], []
            for e in range(self.network.n_edges):
                chain = self.edge_chains[e]
                h = float(self.edge_spacing[e])
                ell = float(self.network.edge_lengths[e])
                k = len(chain) - 1
                offs = h * np.arange(k + 1)
                lo = np.concatenate(([0.0], offs[:-1] + h / 2))
                hi = np.concatenate((offs[1:] - h / 2, [ell]))
                ce.append(np.full(k + 1, e, dtype=np.int64))
                cl.append(lo)
                ch.append(hi)
                cn.append(chain)
            self._cells = (
                np.concatenate(ce),
                np.concatenate(cl),
                np.concatenate(ch),
                np.concatenate(cn),
            )
        return self._cells

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
        left, right, theta, h = self.bracket(source)
        if left == right:
            return _graph_distances(self._graph, [(left, 0.0)], cutoff)
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

    def value_at(self, loc: NetworkLocation) -> float:
        """Linear interpolation along the containing edge chain."""
        left, right, theta, _ = self.lattice.bracket(loc)
        return float((1.0 - theta) * self.values[left] + theta * self.values[right])

    def resample_to(self, other: Lattice) -> "LatticeFunction":
        vals = np.array(
            [self.value_at(other.node_location(i)) for i in range(other.n_nodes)]
        )
        return LatticeFunction(other, vals)

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
