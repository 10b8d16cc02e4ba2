"""Fixed-bandwidth intensity estimators.

Two families:

* kernel sums with an edge-correction factor c(u) = integral over the network
  of the kernel centered at u — either dividing the sum at the evaluation
  point (unbiased, does not preserve mass) or dividing each term at its data
  point (preserves mass, slightly biased);

* equal-split path enumeration, which redistributes the kernel's tail mass at
  junctions: the discontinuous rule splits 1/(deg-1) over outgoing edges of
  non-reflecting paths, the continuous rule weights every branch 2/deg and the
  reflected branch 2/deg - 1.

All estimators are evaluated on a lattice and accumulate per-point
contributions in canonical point order so results do not depend on the input
ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LatticeMismatch, PathExplosion, UnboundedKernel
from .lattice import Lattice, LatticeFunction, _require_points
from .network import NetworkLocation, PointPattern, _graph_distances

GAUSSIAN_TRUNCATION = 4.0  # support radius in standard deviations
_GAUSS_MASS = math.erf(GAUSSIAN_TRUNCATION / math.sqrt(2.0))

_FAMILIES = ("gaussian", "epanechnikov", "quartic")


@dataclass(frozen=True)
class Kernel1D:
    """Symmetric unit-mass kernel on the real line.

    ``bandwidth`` is the standard deviation for the gaussian family and the
    support half-width for the bounded families.  The gaussian is truncated at
    4 standard deviations and renormalized, so every family integrates to 1.
    """

    family: str
    bandwidth: float

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if not 0 < self.bandwidth < math.inf:
            raise ValueError(f"bandwidth must be positive and finite, got {self.bandwidth}")

    @property
    def support(self) -> float:
        if self.family == "gaussian":
            return GAUSSIAN_TRUNCATION * self.bandwidth
        return self.bandwidth

    @property
    def bounded(self) -> bool:
        return self.family != "gaussian"

    def __call__(self, d):
        """Kernel density at (absolute) distance d; vectorized."""
        d = np.asarray(d, dtype=float)
        u = np.minimum(np.abs(d) / self.bandwidth, np.inf)
        if self.family == "gaussian":
            out = np.where(
                u <= GAUSSIAN_TRUNCATION,
                np.exp(-0.5 * np.minimum(u, GAUSSIAN_TRUNCATION) ** 2)
                / (self.bandwidth * math.sqrt(2 * math.pi) * _GAUSS_MASS),
                0.0,
            )
        elif self.family == "epanechnikov":
            out = np.where(u <= 1.0, 0.75 * (1.0 - np.minimum(u, 1.0) ** 2) / self.bandwidth, 0.0)
        else:  # quartic
            out = np.where(
                u <= 1.0, 0.9375 * (1.0 - np.minimum(u, 1.0) ** 2) ** 2 / self.bandwidth, 0.0
            )
        return out if out.ndim else float(out)


def edge_correction(lattice: Lattice, loc: NetworkLocation, kernel: Kernel1D) -> float:
    """Network integral of the kernel centered at ``loc`` (lattice quadrature)."""
    lattice.network.check_location(loc)
    return float(_kernel_mass(lattice, kernel, *lattice._point_seeds(loc.edge, loc.offset))[0])


def precompute_edge_correction(lattice: Lattice, kernel: Kernel1D) -> LatticeFunction:
    """Edge-correction factor at every lattice node (reusable across patterns)."""
    return LatticeFunction(lattice, _node_corrections(lattice, kernel, np.arange(lattice.n_nodes)))


def estimate_uniform_corrected(
    pattern: PointPattern,
    lattice: Lattice,
    kernel: Kernel1D,
    edge_correction_values: LatticeFunction | None = None,
) -> LatticeFunction:
    """Kernel sum divided by the correction factor at the evaluation point.

    Unbiased for homogeneous intensity but does not integrate to the point
    count.  Zero beyond the union of the kernels' supports.  Pass a
    precomputed :func:`precompute_edge_correction` to amortize the expensive
    per-node corrections across many patterns.
    """
    _require_points(pattern, lattice)
    ksum = _kernel_sum(pattern, lattice, kernel)
    covered = np.nonzero(ksum > 0)[0]
    out = np.zeros(lattice.n_nodes)
    if edge_correction_values is None:
        c = _node_corrections(lattice, kernel, covered)
    elif edge_correction_values.lattice.compatible(lattice):
        c = edge_correction_values.values[covered]
    else:
        raise LatticeMismatch("the edge correction was computed on another lattice")
    out[covered] = ksum[covered] / c
    return LatticeFunction(lattice, out)


def estimate_jones_diggle(
    pattern: PointPattern, lattice: Lattice, kernel: Kernel1D
) -> LatticeFunction:
    """Kernel sum with each term divided by the correction at its data point.

    Integrates to the point count (up to quadrature error) but is not
    unbiased.
    """
    _require_points(pattern, lattice)
    out = np.zeros(lattice.n_nodes)
    for row, node, k in _point_terms(pattern, lattice, kernel):
        c = np.bincount(row, lattice.node_weight[node] * k)
        np.add.at(out, node, k / c[row])
    return LatticeFunction(lattice, out)


def _kernel_sum(pattern, lattice, kernel):
    out = np.zeros(lattice.n_nodes)
    for _, node, k in _point_terms(pattern, lattice, kernel):
        np.add.at(out, node, k)
    return out


def _node_corrections(lattice, kernel, nodes):
    """Edge correction at each of the lattice ``nodes``, each node its own source."""
    return _kernel_mass(lattice, kernel, np.column_stack((nodes, nodes)), np.zeros((len(nodes), 2)))


def _kernel_mass(lattice, kernel, node, start):
    """Lattice quadrature of the kernel around each source."""
    c = np.zeros(len(node))
    for row, at, k in _kernel_terms(lattice, kernel, node, start):
        np.add.at(c, row, lattice.node_weight[at] * k)
    return c


def _point_terms(pattern, lattice, kernel):
    """:func:`_kernel_terms` around the points, row k the k-th in ``pattern.order``."""
    o = pattern.order
    return _kernel_terms(lattice, kernel, *lattice._point_seeds(pattern.edge[o], pattern.offset[o]))


def _kernel_terms(lattice, kernel, node, start):
    """Kernel values (row, node, k) around a batch of sources, one block at a time.

    Entries run by row (the source), then by node, and cover the nodes within
    the kernel's support; ``node`` and ``start`` seed the sources.
    """
    for row, at, d in _graph_distances(lattice._graph, node, start, kernel.support):
        yield row, at, kernel(d)


# -- equal-split path enumeration ---------------------------------------------


def equal_split_discontinuous(
    pattern: PointPattern,
    lattice: Lattice,
    kernel: Kernel1D,
    max_steps: int = 1_000_000,
) -> LatticeFunction:
    """Equal-split rule without reflections.

    Paths never immediately re-traverse the edge they arrived on; at a vertex
    of degree m the weight splits 1/(m-1) over the other edges, and paths stop
    at terminal vertices.  Discontinuous at vertices of degree >= 3.
    """
    return _equal_split(pattern, lattice, kernel, continuous=False, max_steps=max_steps)


def equal_split_continuous(
    pattern: PointPattern,
    lattice: Lattice,
    kernel: Kernel1D,
    max_steps: int = 1_000_000,
) -> LatticeFunction:
    """Equal-split rule with reflections, continuous across vertices.

    Each branch out of a degree-m vertex gets weight 2/m, the arrival edge
    gets 2/m - 1 (so degree-2 vertices pass straight through and terminal
    vertices reflect with weight 1).
    """
    return _equal_split(pattern, lattice, kernel, continuous=True, max_steps=max_steps)


def _equal_split(pattern, lattice, kernel, continuous, max_steps):
    _require_points(pattern, lattice)
    if not kernel.bounded:
        raise UnboundedKernel(
            "equal-split estimators need a bounded kernel family "
            "(epanechnikov or quartic)"
        )
    out = np.zeros(lattice.n_nodes)
    for i in pattern.order:
        _deposit_from_point(lattice, pattern[i], kernel, out, continuous, [max_steps])
    return LatticeFunction(lattice, out)


def _vertex_factor(net, vertex, continuous):
    # a continuous estimate's value at a vertex is the shared branch limit:
    # the arriving path plus its degenerate reflection scale by 2/deg
    return 2.0 / net.degrees[vertex] if continuous else 1.0


def _deposit_from_point(lattice, loc, kernel, out, continuous, budget):
    net = lattice.network
    support = kernel.support
    kind = net.canonical_location(loc)
    if kind[0] == "v":
        v = kind[1]
        out[v] += float(kernel(0.0)) * _vertex_factor(net, v, continuous)
        m = net.degrees[v]
        w0 = 2.0 / m  # equal split of the two kernel half-lines over m branches
        for e in sorted(int(x) for x in net.incident_edges[v]):
            _walk_edge(lattice, e, v, 0.0, w0, kernel, out, continuous, budget)
        return
    e, off = kind[1], kind[2]
    chain = lattice.edge_chains[e]
    h = float(lattice.edge_spacing[e])
    ell = float(net.edge_lengths[e])
    offs = h * np.arange(len(chain))
    u, v = net.edge_vertices[e]
    # toward the tail vertex (deposits the source node itself once)
    left = (offs <= off) & (offs > 0.0)
    d = off - offs[left]
    sel = d <= support
    out[chain[left][sel]] += kernel(d[sel])
    if off <= support:
        out[int(u)] += kernel(off) * _vertex_factor(net, int(u), continuous)
    if off < support:
        _branch(lattice, int(u), e, off, 1.0, kernel, out, continuous, budget)
    # toward the head vertex
    right = (offs > off) & (offs < ell)
    d = offs[right] - off
    sel = d <= support
    out[chain[right][sel]] += kernel(d[sel])
    if ell - off <= support:
        out[int(v)] += kernel(ell - off) * _vertex_factor(net, int(v), continuous)
    if ell - off < support:
        _branch(lattice, int(v), e, ell - off, 1.0, kernel, out, continuous, budget)


def _branch(lattice, vertex, arrival_edge, dist, weight, kernel, out, continuous, budget):
    net = lattice.network
    m = int(net.degrees[vertex])
    if continuous:
        for e in sorted(int(x) for x in net.incident_edges[vertex]):
            w = weight * (2.0 / m - (1.0 if e == arrival_edge else 0.0))
            if w != 0.0:
                _walk_edge(lattice, e, vertex, dist, w, kernel, out, continuous, budget)
    else:
        if m == 1:
            return  # non-reflecting: the path ends at a terminal vertex
        w = weight / (m - 1)
        for e in sorted(int(x) for x in net.incident_edges[vertex]):
            if e != arrival_edge:
                _walk_edge(lattice, e, vertex, dist, w, kernel, out, continuous, budget)


def _walk_edge(lattice, e, from_vertex, dist, weight, kernel, out, continuous, budget):
    budget[0] -= 1
    if budget[0] < 0:
        raise PathExplosion(
            "path enumeration exceeded the step budget; "
            "reduce the bandwidth or raise max_steps"
        )
    net = lattice.network
    support = kernel.support
    chain = lattice.edge_chains[e]
    h = float(lattice.edge_spacing[e])
    ell = float(net.edge_lengths[e])
    u, v = net.edge_vertices[e]
    if from_vertex == u:
        nodes = chain[1:-1]
        s = h * np.arange(1, len(chain) - 1)
        far = int(v)
    else:
        nodes = chain[1:-1][::-1]
        s = ell - h * np.arange(1, len(chain) - 1)[::-1]
        far = int(u)
    d = dist + s
    sel = d <= support
    out[nodes[sel]] += weight * kernel(d[sel])
    if dist + ell <= support:
        out[far] += weight * kernel(dist + ell) * _vertex_factor(net, far, continuous)
    if dist + ell < support:
        _branch(lattice, far, e, dist + ell, weight, kernel, out, continuous, budget)
