"""Shared test networks, random generators, and independent oracles."""

import math

import numpy as np

from lineheat.lattice import Lattice
from lineheat.network import (
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
    nv = net.n_vertices
    e = rng.integers(net.n_edges, size=20)
    edge = np.concatenate((np.tile(np.arange(net.n_edges), 3), lat.node_edge[nv:], e))
    offset = np.concatenate((
        np.zeros(net.n_edges), net.edge_lengths, np.nextafter(net.edge_lengths, 0.0),
        lat.node_offset[nv:], rng.random(20) * net.edge_lengths[e],
    ))
    return [NetworkLocation(int(a), float(b)) for a, b in zip(edge, offset)]


def random_location(net, rng):
    e = int(rng.integers(net.n_edges))
    return NetworkLocation(e, float(rng.random() * net.edge_lengths[e]))


def random_pattern(net, n, rng):
    """Uniform-by-length points."""
    p = net.edge_lengths / net.total_length
    edges = rng.choice(net.n_edges, size=n, p=p)
    pts = [
        NetworkLocation(int(e), float(rng.random() * net.edge_lengths[e]))
        for e in edges
    ]
    return PointPattern(net, pts)


# -- oracles -------------------------------------------------------------------


def brute_force_distance(net: LinearNetwork, a: NetworkLocation, b: NetworkLocation):
    """Minimum over exhaustively enumerated paths, summed left to right.

    Enumerates vertex-simple paths between every (endpoint of a's edge,
    endpoint of b's edge) combination plus the direct same-edge route; mirrors
    the float accumulation order of a relaxation-based computation.
    """
    if net.canonical_location(a) == net.canonical_location(b):
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
        for e in net.incident_edges[vertex]:
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
    src = net.canonical_location(source)
    tgt = net.canonical_location(target)

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
        for e in net.incident_edges[v0]:
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
            for e in net.incident_edges[vertex]:
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
    node_vertex = np.full(n, -1, dtype=np.int64)
    node_vertex[:nv] = np.arange(nv)
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
        node_edge=node_edge, node_offset=node_offset, node_vertex=node_vertex,
    )
    return out


def assert_same(got, want):
    """Exact equality of values and dtype (NaN equals NaN)."""
    assert got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)


def reference_bracket(ref: dict, net: LinearNetwork, loc: NetworkLocation):
    """Scalar (left, right, theta) through the canonical location."""
    kind = net.canonical_location(loc)
    if kind[0] == "v":
        return kind[1], kind[1], 0.0
    h = float(ref["edge_spacing"][loc.edge])
    chain = ref["edge_chains"][loc.edge]
    j = min(int(loc.offset / h), len(chain) - 2)
    return int(chain[j]), int(chain[j + 1]), loc.offset / h - j


def reference_deposit(ref: dict, net: LinearNetwork, points) -> np.ndarray:
    """Unit mass per point, added point by point in (edge, offset) order."""
    mass = np.zeros(len(ref["node_weight"]))
    for p in sorted(points, key=lambda q: (q.edge, q.offset)):
        left, right, theta = reference_bracket(ref, net, p)
        if theta == 0.0:
            mass[left] += 1.0
        else:
            mass[left] += 1.0 - theta
            mass[right] += theta
    return mass / ref["node_weight"]
