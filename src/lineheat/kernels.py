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

from .errors import PairBudgetExceeded, PathExplosion, UnboundedKernel
from .lattice import Lattice, LatticeFunction, _require_same_network
from .network import PointPattern, _box_pairs, _csr_rows, _spans

GAUSSIAN_TRUNCATION = 4.0  # support radius in standard deviations
_GAUSS_MASS = math.erf(GAUSSIAN_TRUNCATION / math.sqrt(2.0))

_FAMILIES = ("gaussian", "epanechnikov", "quartic")

#: Most (source, node) pairs within the kernel's support that one distance
#: pass may reach, by the planar bound of :func:`_check_pairs`.
MAX_PAIRS = 5 * 10**8

#: Most edge walks of one point's equal-split paths.
MAX_WALKS = 1_000_000


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
        u = np.abs(d) / self.bandwidth
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


def estimate_uniform_corrected(
    pattern: PointPattern, lattice: Lattice, kernel: Kernel1D
) -> LatticeFunction:
    """Kernel sum divided by the correction factor at the evaluation point.

    Unbiased for homogeneous intensity but does not integrate to the point
    count.  Zero beyond the union of the kernels' supports.
    """
    _require_same_network(pattern, lattice)
    _check_pairs(lattice, kernel.support, _per_edge(pattern), then_nodes=True)
    ksum = _kernel_sum(pattern, lattice, kernel)
    covered = np.nonzero(ksum > 0)[0]
    out = np.zeros(lattice.n_nodes)
    out[covered] = ksum[covered] / _node_corrections(lattice, kernel, covered)
    return LatticeFunction(lattice, out)


def estimate_jones_diggle(
    pattern: PointPattern, lattice: Lattice, kernel: Kernel1D
) -> LatticeFunction:
    """Kernel sum with each term divided by the correction at its data point.

    Integrates to the point count (up to quadrature error) but is not
    unbiased.
    """
    _require_same_network(pattern, lattice)
    _check_pairs(lattice, kernel.support, _per_edge(pattern))
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
    """Edge correction at each of the lattice ``nodes``: the lattice quadrature
    of the kernel around it, each node its own source."""
    c = np.zeros(len(nodes))
    for row, at, d in lattice._distances(*lattice._node_locations(nodes), kernel.support):
        np.add.at(c, row, lattice.node_weight[at] * kernel(d))
    return c


def _point_terms(pattern, lattice, kernel):
    """Kernel values (row, node, k) around the points, row k the k-th in ``pattern.order``,
    a block of rows at a time, by row then node, over the nodes within the support."""
    o = pattern.order
    for row, at, d in lattice._distances(pattern.edge[o], pattern.offset[o], kernel.support):
        yield row, at, kernel(d)


def _per_edge(pattern):
    return np.bincount(pattern.edge, minlength=pattern.network.n_edges)


def _check_pairs(lattice, support, weight, then_nodes=False):
    """Raise PairBudgetExceeded unless ``weight[e]`` sources on each edge e
    (and, with ``then_nodes``, every node those reach, as a source of its own)
    reach at most ``MAX_PAIRS`` (source, node) pairs within ``support``.

    Network distance is at least planar distance, so a source reaches only
    the nodes of edges whose boxes meet its own edge's box grown by the
    support; the bound counts all of them, ends included, and at most every
    lattice node per source.  A vertex node counts on each edge at it.
    """
    n = lattice.n_nodes
    if weight.sum() * n <= MAX_PAIRS and (not then_nodes or n * n <= MAX_PAIRS):
        return
    net = lattice.network
    src = np.flatnonzero(weight)
    p, q = net.vertex_xy[net.edge_vertices.T]
    lo, hi = np.minimum(p, q), np.maximum(p, q)
    near, total = np.zeros(net.n_edges, dtype=bool), 0
    for f, j in _box_pairs(lo, hi, lo[src] - support, hi[src] + support,
                           max(support, net.total_length / net.n_edges)):
        e = src[j]
        meet = (lo[f] <= hi[e] + support).all(axis=1) & (hi[f] >= lo[e] - support).all(axis=1)
        near[f[meet]] = True
        # a block holds every pair of its source edges, so each reach is whole
        reach = np.bincount(j[meet], lattice._n_pieces[f[meet]] + 1, len(src))
        total += int(weight[src] @ np.minimum(reach, n))
        if total > MAX_PAIRS:
            raise PairBudgetExceeded(
                f"the kernel estimate would compute more than {MAX_PAIRS:.0e} (source, node) "
                f"distances on {n} lattice nodes; raise --dx or lower --bw")
    if then_nodes:
        _check_pairs(lattice, support, near * (lattice._n_pieces + 1))


# -- equal-split path enumeration ---------------------------------------------


def equal_split_discontinuous(
    pattern: PointPattern, lattice: Lattice, kernel: Kernel1D
) -> LatticeFunction:
    """Equal-split rule without reflections.

    Paths never immediately re-traverse the edge they arrived on; at a vertex
    of degree m the weight splits 1/(m-1) over the other edges, and paths stop
    at terminal vertices.  Discontinuous at vertices of degree >= 3.
    """
    return _equal_split(pattern, lattice, kernel, continuous=False)


def equal_split_continuous(
    pattern: PointPattern, lattice: Lattice, kernel: Kernel1D
) -> LatticeFunction:
    """Equal-split rule with reflections, continuous across vertices.

    Each branch out of a degree-m vertex gets weight 2/m, the arrival edge
    gets 2/m - 1 (so degree-2 vertices pass straight through and terminal
    vertices reflect with weight 1).
    """
    return _equal_split(pattern, lattice, kernel, continuous=True)


def _equal_split(pattern, lattice, kernel, continuous):
    """Every point's paths, walked in shared rounds.

    An arrival (row, vertex, arrival edge or -1 for a vertex source, distance,
    weight) branches into walks along the vertex's edges with the rule's
    weights.  A walk (row, edge, base, distance, weight) deposits on the
    edge's interior nodes at distance + |base - offset| and arrives at each
    end that ``base`` is not; an interior source walks its own edge from its
    offset.  Arrivals go in chunks of at most ``BLOCK_PAIRS`` walks (and node
    deposits), the newest first, so memory does not grow with the point
    count; ``MAX_WALKS`` bounds the walks of each point.
    """
    _require_same_network(pattern, lattice)
    if not kernel.bounded:
        raise UnboundedKernel(
            "equal-split estimators need a bounded kernel family "
            "(epanechnikov or quartic)"
        )
    net, support = lattice.network, kernel.support
    ev, ell, deg = net.edge_vertices, net.edge_lengths, net.degrees
    # a continuous estimate's value at a vertex is the shared branch limit:
    # the arriving path plus its degenerate reflection scale by 2/deg
    at_vertex = 2.0 / deg if continuous else np.ones(len(deg))
    # bounds on the deposits of a walk along each edge (an interior source's
    # window spans twice the support) and of an arrival's walks at each vertex
    touch = np.minimum(lattice._n_pieces + 1, 2 * np.ceil(support / lattice.edge_spacing) + 5)
    cost = np.bincount(ev.ravel(), np.repeat(touch, 2))
    out = np.zeros(lattice.n_nodes)
    used = np.zeros(pattern.n, dtype=np.int64)  # walks per point
    stack = []

    def arrive(row, v, via, d, w):  # deposit at the vertices; keep the arrivals inside the support
        ok = d <= support
        np.add.at(out, v[ok], w[ok] * kernel(d[ok]) * at_vertex[v[ok]])
        go = d < support
        return row[go], v[go], via[go], d[go], w[go]

    def branch(row, v, via, d, w):  # the walks out of each arrival
        at, i = _csr_rows(net._ptr, v)
        e = net._edge[at]
        m, back = deg[v][i], e == via[i]
        if continuous:  # 2/m on every edge, 2/m - 1 back along the arrival edge
            w = w[i] * (2.0 / m - back)
            keep = w != 0.0
        else:  # 1/(m - 1) on every other edge, 2/m out of a vertex source
            w = w[i] / np.where(via[i] < 0, m / 2, np.maximum(m - 1, 1))
            keep = ~back
        i, e, row = i[keep], e[keep], row[i[keep]]
        np.add.at(used, row, 1)
        if np.any(used[row] > MAX_WALKS):
            raise PathExplosion(
                f"a point's equal-split paths take more than {MAX_WALKS} edge walks; "
                "lower the bandwidth (--bw)")
        return row, e, np.where(ev[e, 0] == v[i], 0.0, ell[e]), d[i], w[keep]

    def scan(row, e, base, d, w):  # deposit along the walked edges; arrive at their ends
        r = support - d
        node, x, t = lattice._inner_window(e, base - r, base + r)
        dn = d[t] + np.abs(base[t] - x)
        ok = dn <= support
        np.add.at(out, node[ok], w[t[ok]] * kernel(dn[ok]))
        end = np.concatenate((base != 0.0, base != ell[e]))
        ends = (row, row), ev[e].T, (e, e), (d + base, d + (ell[e] - base)), (w, w)
        return arrive(*(np.concatenate(x)[end] for x in ends))

    def push(arrivals):  # the first chunk on top
        spans = _spans(cost[arrivals[1]])
        stack.extend(tuple(x[a:b] for x in arrivals) for a, b in reversed(spans))

    o = pattern.order
    edge, off = pattern.edge[o], pattern.offset[o]
    for a, b in _spans(touch[edge]):
        row, e, x = np.arange(a, b), edge[a:b], off[a:b]
        at_end = (x == 0.0) | (x == ell[e])
        v = np.where(x == 0.0, ev[e, 0], ev[e, 1])[at_end]
        push(arrive(row[at_end], v, np.full(len(v), -1), np.zeros(len(v)), np.ones(len(v))))
        row, e, x = row[~at_end], e[~at_end], x[~at_end]
        push(scan(row, e, x, np.zeros(len(x)), np.ones(len(x))))
        while stack:
            push(scan(*branch(*stack.pop())))
    return LatticeFunction(lattice, out)

