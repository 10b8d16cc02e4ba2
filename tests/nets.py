"""Shared test networks, random generators, and independent oracles."""

import csv
import json
import math

import numpy as np

from lineheat.heat import _step_values, step_size
from lineheat import network
from lineheat.lattice import Lattice, LatticeFunction, SolverGraph
from lineheat.network import (
    CROSS_TOLERANCE,
    LinearNetwork,
    NetworkLocation,
    PointPattern,
    build_network,
)


def segment_network(length=1.0):
    return build_network([(0.0, 0.0), (length, 0.0)], [(0, 1)])


def triangle_network():
    # unit-side triangle
    return build_network(
        [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)], [(0, 1), (1, 2), (2, 0)]
    )


def y_network(branch=1.0):
    """Degree-3 center at the origin; edges run center -> leaf."""
    return build_network(
        [
            (0.0, 0.0),
            (branch, 0.0),
            (-branch / 2, branch * math.sqrt(3) / 2),
            (-branch / 2, -branch * math.sqrt(3) / 2),
        ],
        [(0, 1), (0, 2), (0, 3)],
    )


def two_disjoint_segments():
    return build_network(
        [(0.0, 0.0), (1.0, 0.0), (0.0, 2.0), (1.0, 2.0)], [(0, 1), (2, 3)]
    )


def grid_network(nx, ny, spacing=1.0, keep=1.0, jitter=0.0, rng=None):
    """nx x ny grid of vertices; optionally keep a random subset of edges.

    Jitter below 0.3 * spacing cannot create crossings.  Isolated vertices are
    dropped and ids relabeled.
    """
    rng = rng or np.random.default_rng(0)
    xs = np.arange(nx) * spacing
    ys = np.arange(ny) * spacing
    xy = np.array([(x, y) for y in ys for x in xs], dtype=float)
    if jitter:
        xy = xy + rng.uniform(-jitter, jitter, xy.shape)

    def vid(i, j):
        return j * nx + i

    segs = []
    for j in range(ny):
        for i in range(nx):
            if i + 1 < nx:
                segs.append((vid(i, j), vid(i + 1, j)))
            if j + 1 < ny:
                segs.append((vid(i, j), vid(i, j + 1)))
    if keep < 1.0:
        segs = [s for s in segs if rng.random() < keep]
    used = sorted({v for s in segs for v in s})
    relab = {v: k for k, v in enumerate(used)}
    segs = [(relab[a], relab[b]) for a, b in segs]
    if not segs:
        raise ValueError("random grid lost all edges; raise keep")
    return build_network(xy[used], segs)


def random_network(rng, max_side=3, keep=0.7, spacing=1.0):
    """Small random grid-subset network (possibly disconnected)."""
    for _ in range(50):
        nx = int(rng.integers(2, max_side + 1))
        ny = int(rng.integers(2, max_side + 1))
        try:
            return grid_network(
                nx, ny, spacing=spacing, keep=keep,
                jitter=0.25 * spacing * rng.random(), rng=rng,
            )
        except ValueError:
            continue
    raise RuntimeError("could not generate a random network")


def add_spurs(net, lengths, rng):
    """``net`` plus one dead-end spur per length, from distinct random vertices.

    Each spur bisects the widest angle between the edges at its root.  On a
    grid with jitter up to a quarter of the spacing, vertices are at least half
    a spacing apart and so are non-incident edges, so spurs up to a fifth of
    the spacing meet nothing.
    """
    xy, ev = net.vertex_xy, net.edge_vertices
    roots = rng.choice(net.n_vertices, size=len(lengths), replace=False)
    tips = []
    for v, length in zip(roots, lengths):
        other = np.where(ev[:, 0] == v, ev[:, 1], ev[:, 0])[(ev == v).any(axis=1)]
        d = xy[other] - xy[v]
        angle = np.sort(np.arctan2(d[:, 1], d[:, 0]))
        gap = np.diff(np.append(angle, angle[0] + 2 * math.pi))
        a = angle[np.argmax(gap)] + gap.max() / 2
        tips.append(xy[v] + length * np.array([math.cos(a), math.sin(a)]))
    spurs = np.column_stack((roots, net.n_vertices + np.arange(len(roots))))
    return build_network(np.vstack([xy, *tips]), np.vstack([ev, spurs]))


def random_spur_network(rng):
    """A small random network of random spacing with 1-4 spurs of 1-20% of
    the spacing, and the spacing."""
    spacing = float(rng.uniform(0.5, 3.0))
    base = random_network(rng, max_side=4, spacing=spacing)
    k = int(rng.integers(1, min(base.n_vertices, 4) + 1))
    return add_spurs(base, spacing * rng.uniform(0.01, 0.2, k), rng), spacing


def split_edge(net, e, k):
    """``net`` with edge ``e`` cut into ``k`` equal collinear edges, appended
    after the others."""
    xy, ev = net.vertex_xy, net.edge_vertices
    u, v = ev[e]
    t = np.arange(1, k)[:, None] / k
    ids = np.concatenate(([u], net.n_vertices + np.arange(k - 1), [v]))
    return build_network(np.vstack((xy, xy[u] * (1 - t) + xy[v] * t)),
                         np.vstack((np.delete(ev, e, axis=0), np.column_stack((ids[:-1], ids[1:])))))


def stub_network(run, pieces=1):
    """A 1000-long edge with a straight stub ``run`` long at its end, cut into
    ``pieces`` equal edges."""
    return split_edge(build_network([(0.0, 0.0), (1000.0, 0.0), (1000.0, run)], [(0, 1), (1, 2)]), 1, pieces)


def write_network_geojson(net: LinearNetwork, path) -> None:
    xy = net.vertex_xy.tolist()
    feats = [
        {
            "type": "Feature",
            "properties": {"edge_id": e},
            "geometry": {"type": "LineString", "coordinates": [xy[u], xy[v]]},
        }
        for e, (u, v) in enumerate(net.edge_vertices.tolist())
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"type": "FeatureCollection", "features": feats}, fh)


def edge_chains(lattice):
    """Node ids along every edge's chain, tail to head, one array per edge: the
    node column of ``node_cells``, split by edge."""
    cell_edge, _, _, cell_node = lattice.node_cells
    return np.split(cell_node, np.cumsum(np.bincount(cell_edge, minlength=lattice.network.n_edges))[:-1])


def chain_links(lattice):
    """(tail, head, length) of the links between neighbours on every edge chain,
    edge by edge, from tail to head."""
    chains = edge_chains(lattice)
    return (np.concatenate([c[:-1] for c in chains]), np.concatenate([c[1:] for c in chains]),
            np.repeat(lattice.edge_spacing, [len(c) - 1 for c in chains]))


def uncontracted(lattice):
    """A new lattice like ``lattice`` whose solver graph is the lattice itself."""
    lat = Lattice(lattice.network, lattice.dx_target)
    lat._solver = SolverGraph(np.arange(lat.n_nodes), lat.node_weight, *chain_links(lat), 0.0)
    return lat


def reference_clusters(lattice):
    """Cluster label of every lattice node under the solver's merge rule, with
    each merge relabelling the merged cluster's nodes."""
    tau = lattice.dx_target / 2
    li, lj, hs = chain_links(lattice)
    label = list(range(lattice.n_nodes))
    extent = [0.0] * lattice.n_nodes
    for link in sorted(range(len(hs)), key=lambda k: (hs[k], li[k], lj[k])):
        h, a, b = float(hs[link]), label[li[link]], label[lj[link]]
        if h < tau and a != b and extent[a] + extent[b] + h < tau:
            label = [a if x == b else x for x in label]
            extent[a] = extent[a] + extent[b] + h
    return np.array(label)


def edge_integrals(f):
    """Integral of a lattice function over each edge, from its quadrature cells."""
    ce, cl, ch, cn = f.lattice.node_cells
    return np.bincount(ce, (ch - cl) * f.values[cn], f.lattice.network.n_edges)


def relative_l1(got, want):
    return float(np.abs(got - want).sum() / np.abs(want).sum())


def random_lattices(seed, count=40):
    """Random networks of random scale, each with a random spacing."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        net = random_network(rng, max_side=4, spacing=float(rng.uniform(0.5, 3.0)))
        yield Lattice(net, float(rng.uniform(0.03, 2.0))), rng


def special_locations(lat, rng):
    """Both ends of every edge, every chain node, random link interiors, and
    offsets one ulp below an edge's end."""
    net = lat.network
    inner_edge, inner_offset = lat._node_locations(np.arange(net.n_vertices, lat.n_nodes))
    e = rng.integers(net.n_edges, size=20)
    edge = np.concatenate((np.tile(np.arange(net.n_edges), 3), inner_edge, e))
    offset = np.concatenate((
        np.zeros(net.n_edges), net.edge_lengths, np.nextafter(net.edge_lengths, 0.0),
        inner_offset, rng.random(20) * net.edge_lengths[e],
    ))
    return [NetworkLocation(int(a), float(b)) for a, b in zip(edge, offset)]


def random_location(net, rng):
    e = int(rng.integers(net.n_edges))
    return NetworkLocation(e, float(rng.random() * net.edge_lengths[e]))


def random_locations(net, n, rng):
    """Uniform-by-length locations."""
    p = net.edge_lengths / net.total_length
    edges = rng.choice(net.n_edges, size=n, p=p)
    return [
        NetworkLocation(int(e), float(rng.random() * net.edge_lengths[e]))
        for e in edges
    ]


def random_pattern(net, n, rng):
    """Pattern of :func:`random_locations`."""
    return pattern_of(net, random_locations(net, n, rng))


def pattern_of(net, locations):
    """Pattern of a sequence of :class:`NetworkLocation`, in order."""
    locations = list(locations)
    return PointPattern(net, [p.edge for p in locations], [p.offset for p in locations])


def location(pattern, i):
    """Point ``i`` of ``pattern`` as a :class:`NetworkLocation`."""
    return NetworkLocation(int(pattern.edge[i]), float(pattern.offset[i]))


# -- oracles -------------------------------------------------------------------


def scan_snap(net: LinearNetwork, point, max_dist: float):
    """Closest location by a scan over every edge; None beyond ``max_dist``.

    The per-record snap the indexed one replaced: first minimum of the squared
    distance, so the lowest edge id wins ties.
    """
    p = np.asarray(point, dtype=float)
    a = net.vertex_xy[net.edge_vertices[:, 0]]
    b = net.vertex_xy[net.edge_vertices[:, 1]]
    ab = b - a
    t = np.einsum("ij,ij->i", p - a, ab) / (net.edge_lengths**2)
    t = np.clip(t, 0.0, 1.0)
    proj = a + t[:, None] * ab
    d2 = np.einsum("ij,ij->i", proj - p, proj - p)
    e = int(np.argmin(d2))
    if math.sqrt(d2[e]) > max_dist:
        return None
    return NetworkLocation(e, float(t[e] * net.edge_lengths[e]))


def canonical_location(net: LinearNetwork, loc: NetworkLocation):
    """Canonical form: ('v', vertex id) at edge ends, ('e', edge, offset) inside."""
    net.check_locations([loc.edge], [loc.offset])
    u, v = net.edge_vertices[loc.edge]
    if loc.offset == 0.0:
        return ("v", int(u))
    if loc.offset == net.edge_lengths[loc.edge]:
        return ("v", int(v))
    return ("e", int(loc.edge), float(loc.offset))


def incident_edges(net: LinearNetwork, vertex):
    """Edges at ``vertex`` in ascending order: its row of the network's CSR arrays."""
    return net._edge[net._ptr[vertex] : net._ptr[vertex + 1]]


def vertex_distances(net: LinearNetwork, loc: NetworkLocation, cutoff=math.inf):
    """Shortest-path distance from ``loc`` to every vertex (inf beyond ``cutoff``):
    the one row of ``network._vertex_distances`` for that source."""
    rows = network._vertex_distances(net, np.array([loc.edge]), np.array([loc.offset]), cutoff, 1)
    return next(rows)[0].copy()


def brute_force_distance(net: LinearNetwork, a: NetworkLocation, b: NetworkLocation):
    """Minimum over exhaustively enumerated paths, summed left to right.

    Enumerates vertex-simple paths between every (endpoint of a's edge,
    endpoint of b's edge) combination plus the direct same-edge route; mirrors
    the float accumulation order of a relaxation-based computation.
    """
    if canonical_location(net, a) == canonical_location(net, b):
        return 0.0
    best = math.inf
    if a.edge == b.edge:
        best = abs(a.offset - b.offset)
    ua, va = net.edge_vertices[a.edge]
    ub, vb = net.edge_vertices[b.edge]
    la = float(net.edge_lengths[a.edge])
    lb = float(net.edge_lengths[b.edge])
    starts = [(int(ua), a.offset), (int(va), la - a.offset)]
    ends = {int(ub): b.offset, int(vb): lb - b.offset}

    def extend(vertex, acc, visited):
        nonlocal best
        if vertex in ends:
            cand = acc + ends[vertex]
            if cand < best:
                best = cand
        for e in incident_edges(net, vertex):
            x, y = net.edge_vertices[e]
            w = int(y if x == vertex else x)
            if w not in visited:
                extend(w, acc + float(net.edge_lengths[e]), visited | {w})

    for s, d0 in starts:
        extend(s, d0, {s})
    return best


def enumerate_equal_split(net, source, target, kernel, continuous, max_depth=64):
    """Breadth-first path enumeration of the equal-split kernels.

    Independent of the production depth-first deposit: enumerates whole paths
    from source to target and sums kernel(length) * weight.
    """
    support = kernel.support
    total = 0.0
    src = canonical_location(net, source)
    tgt = canonical_location(net, target)

    def vfac(vertex):
        # value at a vertex: continuity limit scales the arrival by 2/deg
        return 2.0 / net.degrees[vertex] if continuous else 1.0

    # queue entries: (vertex, arrival_edge, dist, weight)
    queue = []
    if src[0] == "v":
        v0 = src[1]
        m = int(net.degrees[v0])
        if tgt == src:
            total += float(kernel(0.0)) * vfac(v0)
        for e in incident_edges(net, v0):
            queue.append((int(v0), int(e), 0.0, 2.0 / m, True))
    else:
        e0, o0 = src[1], src[2]
        u0, w0 = net.edge_vertices[e0]
        # direct hits on the source edge
        if tgt[0] == "e" and tgt[1] == e0:
            d = abs(tgt[2] - o0)
            if d <= support:
                total += float(kernel(d))
        for vert, d0 in ((int(u0), o0), (int(w0), float(net.edge_lengths[e0]) - o0)):
            if tgt[0] == "v" and tgt[1] == vert and d0 <= support:
                total += float(kernel(d0)) * vfac(vert)
            queue.append((vert, int(e0), d0, 1.0, False))

    # expand: each queue entry is "standing at vertex, about to branch"
    for _ in range(max_depth):
        if not queue:
            break
        nxt = []
        for vertex, arr, dist, weight, from_vertex_source in queue:
            if dist >= support:
                continue
            m = int(net.degrees[vertex])
            for e in incident_edges(net, vertex):
                e = int(e)
                if from_vertex_source:
                    w = weight  # initial split already applied
                    if e != arr:
                        continue
                elif continuous:
                    w = weight * (2.0 / m - (1.0 if e == arr else 0.0))
                    if w == 0.0:
                        continue
                else:
                    if m == 1 or e == arr:
                        continue
                    w = weight / (m - 1)
                x, y = net.edge_vertices[e]
                far = int(y if x == vertex else x)
                ell = float(net.edge_lengths[e])
                if tgt[0] == "e" and tgt[1] == e:
                    off = tgt[2]
                    s = off if vertex == int(x) else ell - off
                    if dist + s <= support:
                        total += w * float(kernel(dist + s))
                if tgt[0] == "v" and tgt[1] == far and dist + ell <= support:
                    total += w * float(kernel(dist + ell)) * vfac(far)
                if dist + ell < support:
                    nxt.append((far, e, dist + ell, w, False))
        queue = nxt
    if queue:
        raise RuntimeError("max_depth too small for this support")
    return total


def images_series(x, source, t, n_images=6):
    """Reflected-interval heat solution on [0, 1] via the method of images."""
    x = np.asarray(x, dtype=float)
    total = np.zeros_like(x)
    for k in range(-n_images, n_images + 1):
        total += _gauss_pdf(x - source + 2 * k, t) + _gauss_pdf(x + source + 2 * k, t)
    return total


def _gauss_pdf(x, var):
    return np.exp(-0.5 * x * x / var) / math.sqrt(2 * math.pi * var)


# -- loop references for the vectorized lattice paths (compared exactly) ------


def reference_lattice(net: LinearNetwork, dx: float) -> dict:
    """Lattice arrays, chains and cells built by the per-edge loop."""
    nv = net.n_vertices
    pieces = np.maximum(1, np.ceil(net.edge_lengths / dx - 1e-12).astype(np.int64))
    spacing = net.edge_lengths / pieces
    n = nv + int((pieces - 1).sum())
    xy = np.empty((n, 2))
    xy[:nv] = net.vertex_xy
    weight = np.zeros(n)
    node_edge = np.full(n, -1, dtype=np.int64)
    node_offset = np.full(n, np.nan)
    cols = {k: [] for k in ("edge_chains", "link_i", "link_j", "link_h", "ce", "cl", "ch")}
    cursor = nv
    for e in range(net.n_edges):
        u, v = net.edge_vertices[e]
        k, h, ell = int(pieces[e]), float(spacing[e]), float(net.edge_lengths[e])
        interior = np.arange(cursor, cursor + k - 1, dtype=np.int64)
        cursor += k - 1
        chain = np.concatenate(([u], interior, [v]))
        if k > 1:
            offs = h * np.arange(1, k)
            t = offs / net.edge_lengths[e]
            xy[interior] = (1 - t)[:, None] * net.vertex_xy[u] + t[:, None] * net.vertex_xy[v]
            node_edge[interior] = e
            node_offset[interior] = offs
            weight[interior] = h
        weight[u] += h / 2
        weight[v] += h / 2
        offs = h * np.arange(k + 1)
        for key, val in (
            ("edge_chains", chain), ("link_i", chain[:-1]), ("link_j", chain[1:]),
            ("link_h", np.full(k, h)), ("ce", np.full(k + 1, e, dtype=np.int64)),
            ("cl", np.concatenate(([0.0], offs[:-1] + h / 2))),
            ("ch", np.concatenate((offs[1:] - h / 2, [ell]))),
        ):
            cols[key].append(val)
    out = {key: np.concatenate(val) for key, val in cols.items() if key != "edge_chains"}
    out["node_cells"] = (out.pop("ce"), out.pop("cl"), out.pop("ch"),
                         np.concatenate(cols["edge_chains"]))
    out.update(
        edge_chains=cols["edge_chains"], edge_spacing=spacing, node_xy=xy, node_weight=weight,
        node_edge=node_edge, node_offset=node_offset,
    )
    return out


def reference_step(values, graph, dt, beta):
    """One explicit step on a solver graph (or a lattice) as the plain
    expression, without in-place updates."""
    li, lj = graph.link_i, graph.link_j
    n = len(graph.node_weight)
    flux = (values[lj] - values[li]) / graph.link_h
    acc = np.bincount(li, weights=flux, minlength=n)
    acc -= np.bincount(lj, weights=flux, minlength=n)
    return values + (beta * dt) * acc / graph.node_weight


def contract(mass, lattice):
    """Per-node masses as densities on the lattice's solver graph: summed per
    cluster in node order and divided by the cluster weight."""
    g = lattice._solver
    return np.bincount(g.cluster, mass, len(g.node_weight)) / g.node_weight


def dense_inject(lattice, times, initial, cfg):
    """The two-step join with dense groups on the solver graph: group k's
    per-node masses, ``initial(k)``, span the whole lattice and are
    contracted; for t = (m + theta) dt they join the running values times
    1 - theta with m full steps left and times theta with m + 1 left, the
    (1 - theta) joins first, each in group order.  Every node reads its
    cluster's value."""
    g = lattice._solver
    dt = step_size(lattice, cfg)
    joins = {}
    for k, t in enumerate(times):
        q = t / dt
        n = math.floor(q)
        theta = q - n
        joins.setdefault(n, ([], []))[0].append((k, 1.0 - theta))
        if theta > 0.0:
            joins.setdefault(n + 1, ([], []))[1].append((k, theta))
    values = np.zeros(len(g.node_weight))
    for left in range(max(joins, default=0), -1, -1):
        first, late = joins.get(left, ([], []))
        for k, c in first + late:
            values = values + c * contract(initial(k), lattice)
        if left:
            values = _step_values(values, g, dt)
    return values[g.cluster]


def remainder_inject(lattice, times, initial, cfg):
    """The injection loop with a shortened step: group k takes one step of
    its remainder r = t - m dt on the whole solver graph and joins the
    running values with a dense add when m full steps are left."""
    g = lattice._solver
    dt = step_size(lattice, cfg)
    joins = {}
    for k, t in enumerate(times):
        n = int(math.floor(t / dt))
        r = t - n * dt
        if r < 0.0:
            r = 0.0
        if r >= dt:
            n, r = n + 1, 0.0
        joins.setdefault(n, []).append((k, r))
    values = np.zeros(len(g.node_weight))
    for left in range(max(joins, default=0), -1, -1):
        for k, r in joins.get(left, ()):
            group = contract(initial(k), lattice)
            if r > 0.0:
                group = _step_values(group, g, r)
            values = values + group
        if left:
            values = _step_values(values, g, dt)
    return values[g.cluster]


def dense_heat_solve(f0, t, cfg):
    return dense_inject(f0.lattice, [t], lambda k: f0.values * f0.lattice.node_weight, cfg)


def dense_heat_batch(pattern, lattice, bandwidths, cfg, inject=dense_inject):
    """Per-bandwidth groups, each the point-by-point deposit mass of its points."""
    ref = reference_lattice(lattice.network, lattice.dx_target)
    sigmas, group = np.unique(np.asarray(bandwidths, dtype=float), return_inverse=True)
    members = [np.flatnonzero(group == k) for k in range(len(sigmas))]
    return inject(
        lattice, sigmas * sigmas,
        lambda k: reference_mass(ref, lattice.network, [location(pattern, i) for i in members[k]]), cfg)


def assert_same(got, want):
    """Exact equality of values and dtype (NaN equals NaN)."""
    assert got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)


def reference_bracket(ref: dict, net: LinearNetwork, loc: NetworkLocation):
    """Scalar (left, right, theta) through the canonical location."""
    kind = canonical_location(net, loc)
    if kind[0] == "v":
        return kind[1], kind[1], 0.0
    h = float(ref["edge_spacing"][loc.edge])
    chain = ref["edge_chains"][loc.edge]
    j = min(int(loc.offset / h), len(chain) - 2)
    return int(chain[j]), int(chain[j + 1]), loc.offset / h - j


def reference_deposit(ref: dict, net: LinearNetwork, points) -> np.ndarray:
    """Density of :func:`reference_mass`."""
    return reference_mass(ref, net, points) / ref["node_weight"]


def reference_mass(ref: dict, net: LinearNetwork, points) -> np.ndarray:
    """Unit mass per point, added point by point in (edge, offset) order."""
    mass = np.zeros(len(ref["node_weight"]))
    for p in sorted(points, key=lambda q: (q.edge, q.offset)):
        left, right, theta = reference_bracket(ref, net, p)
        if theta == 0.0:
            mass[left] += 1.0
        else:
            mass[left] += 1.0 - theta
            mass[right] += theta
    return mass


# -- per-source loops the batched kernel estimators replaced -------------------


def loop_edge_correction(lattice, loc, kernel):
    d = lattice.distance_field(loc, cutoff=kernel.support)
    m = np.isfinite(d)
    return float(lattice.node_weight[m] @ kernel(d[m]))


def loop_precompute_edge_correction(lattice, kernel):
    return np.array([
        loop_edge_correction(lattice, lattice.node_location(i), kernel)
        for i in range(lattice.n_nodes)
    ])


def loop_kernel_sum(pattern, lattice, kernel):
    out = np.zeros(lattice.n_nodes)
    for i in pattern.order:
        d = lattice.distance_field(location(pattern, i), cutoff=kernel.support)
        m = np.isfinite(d)
        out[m] += kernel(d[m])
    return out


def loop_uniform_corrected(pattern, lattice, kernel):
    ksum = loop_kernel_sum(pattern, lattice, kernel)
    covered = np.nonzero(ksum > 0)[0]
    out = np.zeros(lattice.n_nodes)
    c = np.array(
        [loop_edge_correction(lattice, lattice.node_location(int(i)), kernel) for i in covered]
    )
    out[covered] = ksum[covered] / c
    return out


def loop_jones_diggle(pattern, lattice, kernel):
    out = np.zeros(lattice.n_nodes)
    for i in pattern.order:
        d = lattice.distance_field(location(pattern, i), cutoff=kernel.support)
        m = np.isfinite(d)
        k = kernel(d[m])
        c = float(lattice.node_weight[m] @ k)
        out[m] += k / c
    return out


# -- the recursive per-point walk the round-based equal-split estimators replaced


def recursive_equal_split(pattern, lattice, kernel, continuous):
    """Equal-split estimate walked depth first, point by point in ``pattern.order``.

    Returns the node values and each point's walk count (input order).  A
    source scans only its edge's interior chain positions: the head vertex is
    deposited once, as a vertex, even where h * k falls short of the length.
    """
    out = np.zeros(lattice.n_nodes)
    walks = np.zeros(pattern.n, dtype=np.int64)
    for i in pattern.order:
        count = [0]
        _deposit_from_point(lattice, location(pattern, i), kernel, out, continuous, count)
        walks[i] = count[0]
    return out, walks


def _vertex_factor(net, vertex, continuous):
    return 2.0 / net.degrees[vertex] if continuous else 1.0


def _deposit_from_point(lattice, loc, kernel, out, continuous, count):
    net = lattice.network
    support = kernel.support
    kind = canonical_location(net, loc)
    if kind[0] == "v":
        v = kind[1]
        out[v] += float(kernel(0.0)) * _vertex_factor(net, v, continuous)
        m = net.degrees[v]
        w0 = 2.0 / m  # equal split of the two kernel half-lines over m branches
        for e in sorted(int(x) for x in incident_edges(net, v)):
            _walk_edge(lattice, e, v, 0.0, w0, kernel, out, continuous, count)
        return
    e, off = kind[1], kind[2]
    chain = edge_chains(lattice)[e]
    h = float(lattice.edge_spacing[e])
    ell = float(net.edge_lengths[e])
    inner = chain[1:-1]
    offs = h * np.arange(1, len(chain) - 1)
    u, v = net.edge_vertices[e]
    # toward the tail vertex (deposits the source node itself once)
    left = offs <= off
    d = off - offs[left]
    sel = d <= support
    out[inner[left][sel]] += kernel(d[sel])
    if off <= support:
        out[int(u)] += kernel(off) * _vertex_factor(net, int(u), continuous)
    if off < support:
        _branch(lattice, int(u), e, off, 1.0, kernel, out, continuous, count)
    # toward the head vertex
    right = ~left
    d = offs[right] - off
    sel = d <= support
    out[inner[right][sel]] += kernel(d[sel])
    if ell - off <= support:
        out[int(v)] += kernel(ell - off) * _vertex_factor(net, int(v), continuous)
    if ell - off < support:
        _branch(lattice, int(v), e, ell - off, 1.0, kernel, out, continuous, count)


def _branch(lattice, vertex, arrival_edge, dist, weight, kernel, out, continuous, count):
    net = lattice.network
    m = int(net.degrees[vertex])
    if continuous:
        for e in sorted(int(x) for x in incident_edges(net, vertex)):
            w = weight * (2.0 / m - (1.0 if e == arrival_edge else 0.0))
            if w != 0.0:
                _walk_edge(lattice, e, vertex, dist, w, kernel, out, continuous, count)
    else:
        if m == 1:
            return  # non-reflecting: the path ends at a terminal vertex
        w = weight / (m - 1)
        for e in sorted(int(x) for x in incident_edges(net, vertex)):
            if e != arrival_edge:
                _walk_edge(lattice, e, vertex, dist, w, kernel, out, continuous, count)


def _walk_edge(lattice, e, from_vertex, dist, weight, kernel, out, continuous, count):
    count[0] += 1
    net = lattice.network
    support = kernel.support
    chain = edge_chains(lattice)[e]
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
        _branch(lattice, far, e, dist + ell, weight, kernel, out, continuous, count)


def csv_write_lattice(f, path):
    """The lattice-csv writer as one ``csv.writer.writerow`` per cell."""
    ce, cl, ch, cn = f.lattice.node_cells
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["edge_id", "offset_start", "offset_end", "value"])
        for k in range(len(ce)):
            w.writerow(
                [int(ce[k]), "%.17g" % cl[k], "%.17g" % ch[k], "%.17g" % f.values[cn[k]]]
            )


def csv_write_points(pattern, path):
    """The points CSV writer as one ``csv.writer.writerows`` over whole-pattern
    lists: the writer the bounded runs replaced."""
    edge, offset = pattern.edge, pattern.offset
    xy = pattern.network._xy(edge, offset)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y", "edge_id", "offset"])
        w.writerows(
            ["%.17g" % x, "%.17g" % y, e, "%.17g" % o]
            for (x, y), e, o in zip(xy.tolist(), edge.tolist(), offset.tolist())
        )


def read_lattice_csv(path, lattice) -> LatticeFunction:
    """A lattice-csv the CLI wrote for ``lattice``: its edge, start and end
    columns must be ``lattice.node_cells`` exactly, and each node's cells must
    carry one value."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["edge_id", "offset_start", "offset_end", "value"]
    edge, start, end, value = zip(*rows)
    cell_edge, cell_lo, cell_hi, cell_node = lattice.node_cells
    assert_same(np.array(edge, dtype=np.int64), cell_edge)
    assert_same(np.array(start, dtype=float), cell_lo)
    assert_same(np.array(end, dtype=float), cell_hi)
    value = np.array(value, dtype=float)
    values = np.full(lattice.n_nodes, np.nan)
    values[cell_node] = value
    assert_same(values[cell_node], value)
    return LatticeFunction(lattice, values)


# -- the scipy code the numpy code replaced ------------------------------------


def graph_links(g):
    """(n, tail, head, length) of the links of a Lattice or a LinearNetwork."""
    if isinstance(g, Lattice):
        return g.n_nodes, *chain_links(g)
    return g.n_vertices, g.edge_vertices[:, 0], g.edge_vertices[:, 1], g.edge_lengths


def scipy_graph_distances(links, node, start, cutoff=math.inf):
    """(source, node, distance) columns of every entry within ``cutoff``, by
    source then node: one ``dijkstra`` over the CSR graph of the ``links``
    extended by one node per source, with edges out to ``node[s]`` of
    lengths ``start[s]``."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    n, tail, head, length = links
    src = np.concatenate([tail, head])
    order = np.argsort(src, kind="stable")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
    indices = np.concatenate([head, tail])[order]
    data = np.concatenate([length, length])[order]
    nnz, b = len(indices), len(node)
    extended = csr_matrix(
        (np.append(data, start), np.append(indices, node),
         np.append(indptr, nnz + 2 * np.arange(1, b + 1))),
        shape=(n + b, n + b),
    )
    d = dijkstra(extended, indices=np.arange(n, n + b), limit=cutoff)[:, :n]
    row, at = np.nonzero(np.isfinite(d))
    return row, at, d[row, at]


def bracket_seeds(lat, edge, offset):
    """Lattice-graph seeds (node, start) of locations, two per row: the chain
    nodes around each at ``theta·h`` and ``h - theta·h``."""
    left, right, theta = lat.bracket(edge, offset)
    h = lat.edge_spacing[edge]
    return np.column_stack((left, right)), np.column_stack((theta * h, h - theta * h))


def loop_lattice_distances(lat, edge, offset, cutoff=math.inf):
    """(source, node, distance) columns of every entry within ``cutoff``, by
    source then node, from the locations (edge[s], offset[s]).

    Vertex distances come from :func:`scipy_graph_distances` over the
    network's edges; a Python loop over the lattice nodes then takes each
    inner node's shorter way along its edge, and on the source's own edge
    also the way straight from the source.
    """
    net, nv = lat.network, lat.network.n_vertices
    start = np.column_stack((offset, net.edge_lengths[edge] - offset))
    row, at, d = scipy_graph_distances(graph_links(net), net.edge_vertices[edge], start, cutoff)
    d_vertex = np.full((len(edge), nv), np.inf)
    d_vertex[row, at] = d
    d = np.full((len(edge), lat.n_nodes), np.inf)
    d[:, :nv] = d_vertex
    for i in range(nv, lat.n_nodes):
        loc = lat.node_location(i)
        e, x = loc.edge, loc.offset
        u, v = net.edge_vertices[e]
        d[:, i] = np.minimum(d_vertex[:, u] + x, d_vertex[:, v] + (float(net.edge_lengths[e]) - x))
        own = np.flatnonzero(edge == e)
        d[own, i] = np.minimum(d[own, i], np.abs(x - offset[own]))
    row, at = np.nonzero(d <= cutoff)
    return row, at, d[row, at]


def scipy_components(net):
    """Vertex component labels from ``connected_components``."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    ev = net.edge_vertices
    graph = csr_matrix((net.edge_lengths, (ev[:, 0], ev[:, 1])), shape=(net.n_vertices,) * 2)
    return connected_components(graph, directed=False)[1].astype(np.int64)


def cdist_field_covariance(res, variance, scale):
    """Exponential covariance of the res x res grid points in row-major order
    (axis 0 = x), with the distances from scipy's ``cdist``."""
    from scipy.spatial.distance import cdist

    ax = np.linspace(0.0, 1.0, res)
    gx, gy = np.meshgrid(ax, ax, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    cov = cdist(pts, pts)
    np.multiply(cov, -1.0 / scale, out=cov)
    np.exp(cov, out=cov)
    np.multiply(cov, variance, out=cov)
    return cov


# -- the scans and cKDTree queries the grid index replaced --------------------


def loop_incident_edges(net):
    """Edges at every vertex, appended edge by edge."""
    incident = [[] for _ in range(net.n_vertices)]
    for e, (u, v) in enumerate(net.edge_vertices):
        incident[u].append(e)
        incident[v].append(e)
    return [np.asarray(lst, dtype=np.int64) for lst in incident]


def scan_validate(net):
    """First (e, f, message) of the pairwise scan over every edge pair, or None.

    ``net`` needs only ``vertex_xy`` and ``edge_vertices``; pairs whose bounding
    boxes (grown by the cross tolerance) overlap are checked in (e, f) order.
    """
    xy = np.asarray(net.vertex_xy, dtype=float)
    ev = np.asarray(net.edge_vertices, dtype=np.int64)
    p, q = xy[ev[:, 0]], xy[ev[:, 1]]
    lo = np.minimum(p, q) - CROSS_TOLERANCE
    hi = np.maximum(p, q) + CROSS_TOLERANCE
    for e in range(len(ev)):
        overl = np.nonzero(
            (lo[e + 1 :, 0] <= hi[e, 0])
            & (hi[e + 1 :, 0] >= lo[e, 0])
            & (lo[e + 1 :, 1] <= hi[e, 1])
            & (hi[e + 1 :, 1] >= lo[e, 1])
        )[0]
        for f in overl + e + 1:
            what = _check_edge_pair(xy, ev, e, int(f))
            if what:
                return e, int(f), f"edges {e} and {f} {what}"
    return None


def _check_edge_pair(xy, ev, e, f):
    ue, ve = ev[e]
    uf, vf = ev[f]
    shared = {ue, ve} & {uf, vf}
    if len(shared) == 2:
        return "are duplicates"
    if len(shared) == 1:
        w = shared.pop()
        a = xy[ve if ue == w else ue]
        b = xy[vf if uf == w else uf]
        o = xy[w]
        cr = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
        dot = (a[0] - o[0]) * (b[0] - o[0]) + (a[1] - o[1]) * (b[1] - o[1])
        if abs(cr) <= CROSS_TOLERANCE and dot > 0:
            return "overlap beyond their shared vertex"
        return None
    if _segments_touch(xy[ue], xy[ve], xy[uf], xy[vf]):
        return "intersect away from a shared endpoint"
    return None


def _segments_touch(p1, p2, p3, p4) -> bool:
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


def kdtree_close_pairs(xy, tol):
    """Sorted (i, j) rows, i < j, of the points at most ``tol`` apart."""
    from scipy.spatial import cKDTree

    pairs = cKDTree(xy).query_pairs(tol, output_type="ndarray")
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))].reshape(-1, 2)


def kdtree_merge(xy, raw_segments, tol):
    """(vertex_xy, edge_vertices) of the union-find endpoint merge over cKDTree pairs."""
    parent = np.arange(len(xy))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in kdtree_close_pairs(xy, tol):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    roots = np.array([find(i) for i in range(len(xy))])
    kept = [(int(roots[a]), int(roots[b])) for a, b in raw_segments if roots[a] != roots[b]]
    relabel = {r: k for k, r in enumerate(sorted({r for s in kept for r in s}))}
    vertices = np.asarray(xy, dtype=float)[sorted(relabel)]
    return vertices, np.array([(relabel[a], relabel[b]) for a, b in kept], dtype=np.int64)


def kdtree_raster(f, res):
    """(raster, unique): the nearest node's value by cKDTree within half a cell
    diagonal, and where that nearest node is the only one at its distance."""
    from scipy.spatial import cKDTree

    from lineheat.ingest import raster_grid

    xs, ys, _, half_diag = raster_grid(f.lattice.network, res)
    gx, gy = np.meshgrid(xs, ys)
    centers = np.column_stack([gx.ravel(), gy.ravel()])
    dist, idx = cKDTree(f.lattice.node_xy).query(centers, k=2)
    vals = np.where(dist[:, 0] <= half_diag, f.values[idx[:, 0]], np.nan)
    return vals.reshape(res, res), (dist[:, 0] < dist[:, 1]).reshape(res, res)


def lexsort_nearest(seg, d2, tie):
    """Winner of every run of equal ``seg`` by a lexsort: the smallest ``d2``,
    then the smallest ``tie``; indices in run order."""
    order = np.lexsort((tie, d2, seg))
    return np.sort(order[np.flatnonzero(np.diff(seg[order], prepend=-1))])


def repeat_csr_rows(ptr, u):
    """``network._csr_rows`` as np.repeat expands it: the positions of the rows
    ``u`` of a CSR structure, concatenated, and the length of each row."""
    deg = ptr[u + 1] - ptr[u]
    return np.arange(deg.sum()) + np.repeat(ptr[u] - (np.cumsum(deg) - deg), deg), deg


def repeat_inner_nodes(lattice, edge, lo, n):
    """``Lattice._inner_nodes`` as np.repeat expands it: ids and offsets of the
    inner nodes lo..lo + n - 1 of the chain of each ``edge``, window by window."""
    start = np.cumsum(n) - n - lo
    i = np.arange(n.sum())
    node = i + np.repeat(lattice._first_interior[edge] - 1 - start, n)
    return node, np.repeat(lattice.edge_spacing[edge], n) * (i - np.repeat(start, n))


def repeat_box_pairs(lo_a, hi_a, lo_b, hi_b, cell: float):
    """``network._box_pairs`` with its (box, cell) and (b entry, a entry)
    expansions done by np.repeat: the same blocks, in the same order."""
    origin, top = lo_a.min(axis=0), hi_a.max(axis=0)
    area = (hi_a - lo_a).prod(axis=1).mean()
    cell = max(cell, math.sqrt(area), float((top - origin).max()) * 2**-30)
    cell = cell or 1.0
    ncell = np.floor((top - origin) / cell).astype(np.int64) + 1

    def cells(lo, hi):
        c0 = np.floor(np.clip((lo - origin) / cell, 0, ncell)).astype(np.int64)
        c1 = np.floor(np.clip((hi - origin) / cell, -1, ncell - 1)).astype(np.int64)
        n = np.maximum(c1 - c0 + 1, 0)
        count = n[:, 0] * n[:, 1]
        box = np.repeat(np.arange(len(lo)), count)
        t = np.arange(len(box)) - (np.cumsum(count) - count)[box]
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
    block = ((np.cumsum(per_box) - per_box) // network.BLOCK_PAIRS)[box_b]
    cuts = np.flatnonzero(np.diff(block)) + 1
    for s, t in zip(np.r_[0, cuts], np.r_[cuts, len(block)]):
        m = count[s:t]
        at = np.repeat(np.arange(s, t), m)
        i = box_a[by_key[start[at] + np.arange(len(at)) - np.repeat(np.cumsum(m) - m, m)]]
        j = box_b[at]
        own = (xb[at] == np.maximum(corner_a[i, 0], corner_b[j, 0])) & (
            yb[at] == np.maximum(corner_a[i, 1], corner_b[j, 1]))
        yield i[own], j[own]


def lexsort_raster(f, res):
    """The raster as a lexsort picks it over the grid index's box pairs of all
    res**2 centres, the search the per-node index window replaced: every node
    within half a cell diagonal of a centre is a candidate; the nearest wins,
    then the lowest node id."""
    from lineheat.ingest import raster_grid
    from lineheat.network import _box_pairs

    xs, ys, bbox, half_diag = raster_grid(f.lattice.network, res)
    gx, gy = np.meshgrid(xs, ys)
    centers = np.column_stack([gx.ravel(), gy.ravel()])
    node_xy = f.lattice.node_xy
    reach = half_diag * (1 + 1e-9) + 1e-9 * float(np.abs(node_xy).max())
    vals = np.full(len(centers), np.nan)
    for k, c in _box_pairs(node_xy - reach, node_xy + reach, centers, centers, 2 * half_diag):
        d = centers[c] - node_xy[k]
        d2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
        near = np.flatnonzero(np.sqrt(d2) <= half_diag)
        order = near[np.lexsort((k[near], d2[near], c[near]))]
        win = order[np.flatnonzero(np.diff(c[order], prepend=-1))]
        vals[c[win]] = f.values[k[win]]
    return vals.reshape(res, res), bbox


def loop_raster_csv(grid, bbox, res):
    """raster-csv text as the per-cell loop writes it, testing every cell for
    NaN: the loop the writer that formats only covered cells replaced."""
    from lineheat.ingest import FLOAT_FMT

    lines = ["# raster xmin=%s ymin=%s xmax=%s ymax=%s res=%d\n" % (*(FLOAT_FMT % b for b in bbox), res)]
    for row in grid[::-1].tolist():  # north-up: top row = max y
        lines.append(",".join("NA" if math.isnan(v) else FLOAT_FMT % v for v in row) + "\n")
    return "".join(lines)


def dictreader_points(path):
    """x, y rows of a points CSV as ``csv.DictReader`` reads them: the parse
    the column reader replaced."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        return [(float(r["x"]), float(r["y"])) for r in csv.DictReader(fh)]


def pointwise_read_network(path, merge_tolerance=1e-8):
    """``read_network_geojson`` with its position-by-position walk: the walk the
    one-array conversion replaced, errors included.  A position's values must
    be JSON numbers: ``int`` or ``float``, not ``bool`` or ``str``."""
    from lineheat.errors import ParseError
    from lineheat.ingest import _features
    from lineheat.network import MAX_COORDINATE, _close_pairs, _min_labels

    def position(pt, i):
        if isinstance(pt, list) and len(pt) >= 2 and all(type(v) in (int, float) for v in pt):
            try:
                return float(pt[0]), float(pt[1])
            except (TypeError, ValueError, OverflowError):
                pass
        raise ParseError(f"feature {i}: bad position {pt!r}")

    coords, raw_segments = [], []
    for i, gtype, lines in _features(path, ("LineString", "MultiLineString")):
        for line in [lines] if gtype == "LineString" else lines:
            if not isinstance(line, list) or len(line) < 2:
                raise ParseError(f"feature {i}: LineString with fewer than 2 coordinates")
            idx = []
            for pt in line:
                x, y = position(pt, i)
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise ParseError(f"feature {i}: non-finite coordinate ({x}, {y})")
                if max(abs(x), abs(y)) > MAX_COORDINATE:
                    raise ParseError(f"feature {i}: coordinate beyond +-{MAX_COORDINATE:.6g} ({x}, {y})")
                coords.append((x, y))
                idx.append(len(coords) - 1)
            raw_segments.extend(zip(idx[:-1], idx[1:]))
    if not raw_segments:
        raise ParseError("no line segments found")
    xy = np.asarray(coords)
    ends = _min_labels(len(xy), *_close_pairs(xy, merge_tolerance))[np.asarray(raw_segments)]
    ends = ends[ends[:, 0] != ends[:, 1]]
    if not len(ends):
        raise ParseError("all segments collapsed under the merge tolerance")
    used, inverse = np.unique(ends, return_inverse=True)
    return build_network(xy[used], inverse.reshape(ends.shape))
