import math
import subprocess
import sys
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from lineheat.errors import (
    DanglingReference,
    InteriorIntersection,
    LocationOffNetwork,
    ZeroLengthEdge,
)
from lineheat import network
from lineheat.lattice import Lattice
from lineheat.network import (
    MAX_COORDINATE,
    NetworkLocation,
    PointPattern,
    _snap,
    build_network,
    shortest_path_distance,
)

from nets import (
    assert_same,
    bracket_seeds,
    brute_force_distance,
    canonical_location,
    graph_links,
    grid_network,
    incident_edges,
    kdtree_close_pairs,
    lexsort_nearest,
    location,
    loop_incident_edges,
    loop_lattice_distances,
    pattern_of,
    random_lattices,
    random_location,
    random_network,
    random_pattern,
    repeat_box_pairs,
    repeat_csr_rows,
    repeat_inner_nodes,
    scan_snap,
    scan_validate,
    scipy_components,
    scipy_graph_distances,
    segment_network,
    special_locations,
    triangle_network,
    two_disjoint_segments,
    vertex_distances,
    write_network_geojson,
    y_network,
)


class TestBuildNetwork:
    def test_unit_triangle(self):
        net = triangle_network()
        assert net.n_vertices == 3
        assert net.n_edges == 3
        assert net.total_length == pytest.approx(3.0, rel=1e-12)
        assert list(net.degrees) == [2, 2, 2]
        assert net.n_components == 1

    def test_interior_crossing_rejected(self):
        with pytest.raises(InteriorIntersection):
            build_network(
                [(0, 0), (1, 1), (0, 1), (1, 0)], [(0, 1), (2, 3)]
            )

    def test_t_junction_without_vertex_rejected(self):
        # endpoint of one segment in the interior of another
        with pytest.raises(InteriorIntersection):
            build_network(
                [(0, 0), (2, 0), (1, 1.0), (1, 0.0)], [(0, 1), (2, 3)]
            )

    def test_collinear_overlap_sharing_vertex_rejected(self):
        with pytest.raises(InteriorIntersection):
            build_network([(0, 0), (2, 0), (1, 0)], [(0, 1), (0, 2)])

    def test_collinear_pass_through_allowed(self):
        net = build_network([(0, 0), (1, 0), (2, 0)], [(0, 1), (1, 2)])
        assert net.degrees[1] == 2

    def test_y_network(self):
        net = y_network()
        assert sorted(net.degrees) == [1, 1, 1, 3]
        assert net.total_length == pytest.approx(3.0, rel=1e-12)

    def test_zero_length_edge(self):
        with pytest.raises(ZeroLengthEdge):
            build_network([(0, 0), (0, 0)], [(0, 1)])
        with pytest.raises(ZeroLengthEdge):
            build_network([(0, 0), (1, 0)], [(0, 0)])

    def test_dangling_reference(self):
        with pytest.raises(DanglingReference):
            build_network([(0, 0), (1, 0)], [(0, 2)])

    @pytest.mark.parametrize("vertices, segments, message", [
        ([(0, 0, 0), (1, 0, 0)], [(0, 1)], r"^vertex_xy must be an \(V, 2\) array$"),
        ([0, 1], [(0, 1)], r"^vertex_xy must be an \(V, 2\) array$"),
        ([(0, 0), (1, 0)], [0, 1], r"^edge_vertices must be an \(E, 2\) array$"),
        ([(0, 0), (1, 0)], [(0, 1, 0)], r"^edge_vertices must be an \(E, 2\) array$"),
        ([(0, 0), (1, 0)], np.empty((0, 2), dtype=np.int64), "^a network needs at least one edge$"),
    ], ids=["vertex-3d", "vertex-1d", "edge-1d", "edge-triple", "no-edge"])
    def test_array_shapes_refused(self, vertices, segments, message):
        with pytest.raises(ValueError, match=message):
            build_network(vertices, segments)

    def test_edge_length_matches_euclid(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            net = random_network(rng)
            a = net.vertex_xy[net.edge_vertices[:, 0]]
            b = net.vertex_xy[net.edge_vertices[:, 1]]
            eu = np.hypot(*(b - a).T)
            assert np.allclose(net.edge_lengths, eu, rtol=1e-9)


def inject_defects(net, rng):
    """Vertices and edges of ``net`` plus 1-3 random defects: a duplicate edge, a
    collinear overlap from a shared end, an edge between two random vertices
    (crossing or not) or a spur from inside an edge (T-junction)."""
    xy = [np.array(v) for v in net.vertex_xy]
    segs = [tuple(map(int, s)) for s in net.edge_vertices]
    for kind in rng.integers(4, size=int(rng.integers(1, 4))):
        u, v = segs[int(rng.integers(len(segs)))]
        if kind == 0:
            segs.append((u, v) if rng.random() < 0.5 else (v, u))
        elif kind == 1:
            xy.append(xy[u] + rng.uniform(0.2, 1.5) * (xy[v] - xy[u]))
            segs.append((u, len(xy) - 1))
        elif kind == 2:
            segs.append(tuple(int(w) for w in rng.choice(len(xy), 2, replace=False)))
        else:
            w = xy[u] + rng.uniform(0.2, 0.8) * (xy[v] - xy[u])
            xy += [w, w + rng.normal(0.0, 0.5, 2)]
            segs.append((len(xy) - 2, len(xy) - 1))
    rng.shuffle(segs)
    return np.array(xy), np.array(segs)


class TestValidationMatchesScan:
    def test_injected_defects(self):
        # the lowest failing pair, its class and message equal the pairwise scan's
        rng = np.random.default_rng(21)
        seen = Counter()
        for _ in range(200):
            net = random_network(rng, max_side=5, spacing=float(rng.uniform(0.5, 3.0)))
            xy, segs = inject_defects(net, rng)
            want = scan_validate(SimpleNamespace(vertex_xy=xy, edge_vertices=segs))
            if want is None:
                build_network(xy, segs)
                seen["valid"] += 1
                continue
            with pytest.raises(InteriorIntersection) as exc:
                build_network(xy, segs)
            assert str(exc.value) == want[2]
            seen[want[2].split(maxsplit=4)[-1]] += 1
        assert set(seen) == {
            "valid",
            "are duplicates",
            "overlap beyond their shared vertex",
            "intersect away from a shared endpoint",
        }

    def test_valid_random_networks_pass(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            net = random_network(rng, max_side=6)
            assert scan_validate(net) is None

    def test_separation_error_names_lowest_pair(self):
        base = [(0.0, 0.0), (10.0, 0.0), (20.0, 0.0), (30.0, 0.0)]
        above = [base[k] for k in (2, 3, 0, 1)]
        xy = base + [(x, y + 5e-9) for x, y in above]
        with pytest.raises(ValueError, match="vertices 0 and 6 are closer"):
            build_network(xy, [(0, 1), (2, 3), (4, 5), (6, 7)])

    def test_incident_edges_match_loop(self):
        rng = np.random.default_rng(23)
        for net in [y_network(), triangle_network()] + [random_network(rng, max_side=6) for _ in range(20)]:
            want = loop_incident_edges(net)
            assert len(net._ptr) == len(want) + 1
            for v, w in enumerate(want):
                assert_same(incident_edges(net, v), w)
            assert_same(net.degrees, np.array([len(w) for w in want], dtype=np.int64))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e160])
    def test_vertex_coordinate_beyond_bound_rejected(self, value):
        with pytest.raises(ValueError, match=r"vertex 1 at .*: coordinates must be finite and at most MAX_COORDINATE"):
            build_network([[0.0, 0.0], [value, 0.0], [0.0, 1.0]], [[0, 1], [0, 2]])

    def test_network_at_the_coordinate_bound_validates(self):
        # a crossing at the bound is still found, with no RuntimeWarning from the predicates
        m = MAX_COORDINATE
        with pytest.raises(InteriorIntersection):
            build_network([[-m, -m], [m, m], [-m, m], [m, -m]], [[0, 1], [2, 3]])

    def test_isolated_vertex_rejected(self):
        with pytest.raises(ValueError, match="isolated vertex"):
            build_network([(0, 0), (1, 0), (5, 5)], [(0, 1)])


def all_pairs(blocks):
    i, j = map(np.concatenate, zip(*blocks))
    return np.column_stack((i, j))


class TestGridIndex:
    def test_box_pairs_cover_meeting_boxes_once(self, monkeypatch):
        rng = np.random.default_rng(24)
        for trial in range(60):
            na, nb = rng.integers(1, 80, size=2)
            lo_a = rng.uniform(-5, 5, (na, 2))
            hi_a = lo_a + rng.exponential(1.0, (na, 2)) * (rng.random((na, 2)) < 0.8)
            lo_b = rng.uniform(-8, 8, (nb, 2))
            hi_b = lo_b + rng.exponential(2.0, (nb, 2)) - (rng.random((nb, 1)) < 0.1)  # some empty
            cell = float(10 ** rng.uniform(-2, 1))
            monkeypatch.setattr(network, "BLOCK_PAIRS", int(rng.choice([1, 50, 2**18])))
            got = all_pairs(network._box_pairs(lo_a, hi_a, lo_b, hi_b, cell))
            assert len(np.unique(got, axis=0)) == len(got)  # no pair twice
            meet = ((lo_a[:, None] <= hi_b[None]) & (lo_b[None] <= hi_a[:, None])).all(axis=2)
            meet &= (lo_b <= hi_b).all(axis=1)
            want = {tuple(p) for p in np.argwhere(meet).tolist()}
            assert want <= {tuple(p) for p in got.tolist()}
            # the grid starts at the lowest a corner: a box below or left of it has no cell
            assert not (hi_b < lo_a.min(axis=0)).any(axis=1)[got[:, 1]].any()

    @pytest.mark.parametrize("per_block", [None, 3, 0])
    def test_box_pairs_blocks_hold_nondecreasing_whole_boxes(self, monkeypatch, per_block):
        # the order _nearest relies on: within a block j never decreases, and a b
        # box's pairs all sit in one block; BLOCK_PAIRS at 1, at about 3 b boxes'
        # worth of pairs, and at the default
        rng = np.random.default_rng(28)
        lo_a = rng.uniform(-5, 5, (300, 2))
        hi_a = lo_a + rng.exponential(0.5, (300, 2))
        lo_b = rng.uniform(-6, 6, (400, 2))
        hi_b = lo_b + rng.exponential(0.8, (400, 2))
        every = all_pairs(network._box_pairs(lo_a, hi_a, lo_b, hi_b, 0.5))
        if per_block is not None:
            monkeypatch.setattr(network, "BLOCK_PAIRS", max(1, per_block * len(every) // 400))
        blocks = list(network._box_pairs(lo_a, hi_a, lo_b, hi_b, 0.5))
        assert (len(blocks) > 100) if per_block is not None else len(blocks) == 1
        seen = set()
        for _, j in blocks:
            assert (np.diff(j) >= 0).all()
            assert seen.isdisjoint(j.tolist())
            seen.update(j.tolist())
        got = all_pairs(blocks)
        assert_same(got[np.lexsort(got.T[::-1])], every[np.lexsort(every.T[::-1])])

    def test_segment_predicate_rows_match_scalar(self):
        # integer points give exact collinear, touching and crossing cases
        from nets import _segments_touch as scalar_touch

        rng = np.random.default_rng(27)
        p = rng.integers(0, 4, (4, 3000, 2)).astype(float)
        got = network._segments_touch(*p)
        assert got.tolist() == [scalar_touch(*p[:, k]) for k in range(p.shape[1])]
        assert 0.2 < got.mean() < 0.8

    def test_close_pairs_match_kdtree(self):
        rng = np.random.default_rng(25)
        for _ in range(40):
            n = int(rng.integers(2, 300))
            tol = float(10 ** rng.uniform(-3, 0))
            xy = rng.uniform(0.0, 10.0, (n, 2))
            twins = rng.integers(n, size=n // 3)
            xy[rng.integers(n, size=len(twins))] = xy[twins] + rng.uniform(-tol, tol, (len(twins), 2))
            i, j = network._close_pairs(xy, tol)
            got = np.column_stack((i, j))
            assert_same(got[np.lexsort((j, i))], kdtree_close_pairs(xy, tol))

    def test_wide_span_with_tiny_tolerance(self):
        # a 1e7 span over a 1e-8 tolerance is 1e15 cells a side: the key must not overflow
        rng = np.random.default_rng(26)
        xy = rng.uniform(0.0, 1e7, (500, 2))
        xy[::5] = xy[1::5] + rng.uniform(-3e-9, 3e-9, (100, 2))
        i, j = network._close_pairs(xy, 1e-8)
        assert len(i) == 100
        got = np.column_stack((i, j))
        assert_same(got[np.lexsort((j, i))], kdtree_close_pairs(xy, 1e-8))

    def test_zero_tolerance_pairs_exact_duplicates(self):
        xy = np.array([(0.0, 0.0), (1.0, 1.0), (0.0, 0.0), (1.0, 1.0 + 1e-15), (1.0, 1.0)])
        i, j = network._close_pairs(xy, 0.0)
        assert sorted(zip(i.tolist(), j.tolist())) == [(0, 2), (1, 4)]

    def test_aligned_grid_pairs_stay_linear(self):
        # edges of an axis-aligned grid share rows and columns; a sweep over one axis
        # pairs each edge with its whole row, the grid index with its neighbours
        counts = []
        for side in (20, 40):
            net = grid_network(side, side)
            p, q = net.vertex_xy[net.edge_vertices[:, 0]], net.vertex_xy[net.edge_vertices[:, 1]]
            lo, hi = np.minimum(p, q) - 1e-12, np.maximum(p, q) + 1e-12
            pairs = all_pairs(network._box_pairs(lo, hi, lo, hi, net.total_length / net.n_edges))
            counts.append(len(pairs) / net.n_edges)
        assert counts[1] < 1.1 * counts[0] and counts[1] < 16


class TestNearest:
    def test_matches_lexsort_with_planted_ties(self):
        # d2 from a few values, so most runs tie on it; distinct ties per run
        rng = np.random.default_rng(29)
        for trial in range(200):
            sizes = rng.integers(1, 12, int(rng.integers(0, 40)))
            seg = np.repeat(np.cumsum(rng.integers(1, 4, len(sizes))), sizes)
            if trial % 2:  # contiguous runs in any order
                seg = np.repeat(rng.permutation(len(sizes)), sizes)
            d2 = rng.choice([0.0, 0.25, 1.0, np.nextafter(1.0, 2.0)], len(seg))
            tie = np.concatenate([rng.choice(50, n, replace=False) for n in sizes] or [[]]).astype(np.int64)
            assert_same(network._nearest(seg, d2, tie), lexsort_nearest(seg, d2, tie))

    def test_empty(self):
        none = np.empty(0, dtype=np.int64)
        assert network._nearest(none, np.empty(0), none).tolist() == []


class TestRagged:
    """``network._ragged`` against a loop, and the expansions it replaced."""

    def test_segments_of_every_size(self):
        rng = np.random.default_rng(48)
        for _ in range(50):
            n = rng.integers(0, 4, int(rng.integers(0, 12)))  # zero-size segments included
            owner, position = network._ragged(n)
            pairs = [(k, j) for k, m in enumerate(n.tolist()) for j in range(m)]
            assert_same(owner, np.array([k for k, _ in pairs], dtype=np.int64))
            assert_same(position, np.array([j for _, j in pairs], dtype=np.int64))

    @pytest.mark.parametrize("n", [[], [0, 0, 0], np.zeros(0, dtype=np.int32)], ids=["list", "zeros", "int32"])
    def test_empty(self, n):
        for got in network._ragged(n):
            assert_same(got, np.zeros(0, dtype=np.int64))

    def test_int64_from_any_integer_sizes(self):
        for n in ([2, 0, 1], np.array([2, 0, 1], dtype=np.int32), np.array([2, 0, 1], dtype=np.uint8)):
            owner, position = network._ragged(n)
            assert_same(owner, np.array([0, 0, 2]))
            assert_same(position, np.array([0, 1, 0]))

    def test_csr_rows_match_the_repeat_expansion(self):
        rng = np.random.default_rng(49)
        for _ in range(40):
            net = random_network(rng)
            u = rng.integers(0, net.n_vertices, int(rng.integers(0, 3 * net.n_vertices)))
            at, row = network._csr_rows(net._ptr, u)
            want, deg = repeat_csr_rows(net._ptr, u)
            assert_same(at, want)
            assert_same(row, np.repeat(np.arange(len(u)), deg))

    def test_inner_nodes_match_the_repeat_expansion(self):
        for lat, rng in random_lattices(50, 30):
            inner = lat._n_pieces - 1
            edge = rng.integers(0, lat.network.n_edges, 60)
            lo = 1 + rng.integers(0, np.maximum(inner[edge], 1))  # 1 where an edge has no inner node
            n = rng.integers(0, np.maximum(inner[edge] - lo + 2, 1))  # empty windows included
            node, x, w = lat._inner_nodes(edge, lo, n)
            want_node, want_x = repeat_inner_nodes(lat, edge, lo, n)
            assert_same(node, want_node)
            assert_same(x, want_x)
            assert_same(w, np.repeat(np.arange(len(edge)), n))

    @pytest.mark.parametrize("per_block", [1, 50, 2**18])
    def test_box_pairs_match_the_repeat_expansion(self, monkeypatch, per_block):
        monkeypatch.setattr(network, "BLOCK_PAIRS", per_block)
        rng = np.random.default_rng(51)
        for _ in range(30):
            na, nb = rng.integers(1, 80, size=2)
            lo_a = rng.uniform(-5, 5, (na, 2))
            hi_a = lo_a + rng.exponential(1.0, (na, 2)) * (rng.random((na, 2)) < 0.8)
            lo_b = rng.uniform(-8, 8, (nb, 2))
            hi_b = lo_b + rng.exponential(2.0, (nb, 2)) - (rng.random((nb, 1)) < 0.1)  # some empty
            cell = float(10 ** rng.uniform(-2, 1))
            got = list(network._box_pairs(lo_a, hi_a, lo_b, hi_b, cell))
            want = list(repeat_box_pairs(lo_a, hi_a, lo_b, hi_b, cell))
            assert len(got) == len(want)
            for block, ref in zip(got, want):
                for a, b in zip(block, ref, strict=True):
                    assert_same(a, b)


class TestLocations:
    def test_offset_bounds(self):
        # the one location check, also behind the scalar distance functions
        net = segment_network()
        lat = Lattice(net, 0.25)
        ok = NetworkLocation(0, 0.5)
        for bad, message in ((NetworkLocation(0, 1.5), "offset 1.5 outside [0, 1.0] on edge 0"),
                             (NetworkLocation(1, 0.5), "edge id 1 out of range")):
            for call in (lambda: net.check_locations([bad.edge], [bad.offset]),
                         lambda: shortest_path_distance(net, ok, bad),
                         lambda: shortest_path_distance(net, bad, ok),
                         lambda: lat.distance_field(bad)):
                with pytest.raises(LocationOffNetwork) as got:
                    call()
                assert str(got.value) == message

    @pytest.mark.parametrize("edge", [1.9, -0.5, math.nan, math.inf, 2**70])
    def test_bad_edge_ids_refused_before_the_cast(self, edge):
        # a cast to int64 would truncate 1.9 to edge 1 and overflow on 2**70
        net = triangle_network()
        ok, bad = NetworkLocation(0, 0.5), NetworkLocation(edge, 0.5)
        for call in (lambda: PointPattern(net, [edge], [0.5]),
                     lambda: PointPattern(net, np.array([0, edge], dtype=object), [0.5, 0.5]),
                     lambda: shortest_path_distance(net, ok, bad),
                     lambda: shortest_path_distance(net, bad, ok),
                     lambda: Lattice(net, 0.25).distance_field(bad)):
            with pytest.raises(LocationOffNetwork) as got:
                call()
            assert str(got.value) == f"edge id {edge} out of range"

    def test_whole_float_edge_ids_are_edges(self):
        net = triangle_network()
        pattern = PointPattern(net, [1.0, 2.0], [0.5, 0.25])
        assert_same(pattern.edge, np.array([1, 2]))
        a, b = NetworkLocation(1.0, 0.5), NetworkLocation(2.0, 0.25)
        assert shortest_path_distance(net, a, b) == shortest_path_distance(net, NetworkLocation(1, 0.5),
                                                                           NetworkLocation(2, 0.25))

    def test_canonical_endpoints(self):
        net = triangle_network()
        # edge 0 runs 0 -> 1, edge 1 runs 1 -> 2: both touch vertex 1
        end0 = NetworkLocation(0, float(net.edge_lengths[0]))
        start1 = NetworkLocation(1, 0.0)
        assert canonical_location(net, end0) == canonical_location(net, start1) == ("v", 1)
        assert canonical_location(net, NetworkLocation(1, 0.3)) == ("e", 1, 0.3)
        assert shortest_path_distance(net, end0, start1) == 0.0


class TestShortestPath:
    def test_identity(self):
        net = triangle_network()
        loc = NetworkLocation(0, 0.3)
        assert shortest_path_distance(net, loc, loc) == 0.0

    def test_triangle_midpoints(self):
        net = triangle_network()
        a = NetworkLocation(0, 0.5)
        b = NetworkLocation(1, 0.5)
        d = shortest_path_distance(net, a, b)
        assert d == brute_force_distance(net, a, b)
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_disconnected_infinite(self):
        net = two_disjoint_segments()
        a = NetworkLocation(0, 0.5)
        b = NetworkLocation(1, 0.5)
        assert shortest_path_distance(net, a, b) == math.inf

    def test_matches_brute_force_on_random_networks(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            net = random_network(rng)
            if net.n_edges > 8:
                continue
            a = random_location(net, rng)
            b = random_location(net, rng)
            assert shortest_path_distance(net, a, b) == brute_force_distance(net, a, b)

    def test_vertex_forms_and_self_are_zero_apart(self):
        # a vertex named on any two of its edges, and any location against
        # itself, are exactly 0.0 apart: no shortcut compares the two forms
        rng = np.random.default_rng(19)
        for _ in range(30):
            net = random_network(rng)
            ev, ell = net.edge_vertices, net.edge_lengths
            for v in range(net.n_vertices):
                forms = [NetworkLocation(int(e), 0.0 if ev[e, 0] == v else float(ell[e]))
                         for e in incident_edges(net, v)]
                for a in forms:
                    assert [shortest_path_distance(net, a, b) for b in forms] == [0.0] * len(forms)
            for loc in (random_location(net, rng) for _ in range(10)):
                assert shortest_path_distance(net, loc, loc) == 0.0

    def test_metric_axioms(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            net = random_network(rng)
            a, b, c = (random_location(net, rng) for _ in range(3))
            dab = shortest_path_distance(net, a, b)
            dba = shortest_path_distance(net, b, a)
            assert dab == pytest.approx(dba, rel=1e-12) or (
                math.isinf(dab) and math.isinf(dba)
            )
            dac = shortest_path_distance(net, a, c)
            dbc = shortest_path_distance(net, b, c)
            if all(map(math.isfinite, (dab, dbc, dac))):
                assert dac <= dab + dbc + 1e-12
            assert shortest_path_distance(net, a, a) == 0.0
            if canonical_location(net, a) != canonical_location(net, b):
                assert dab > 0.0


class TestGraphDistances:
    """The vertex rounds and the closed form along edges against scipy's
    Dijkstra over the network's edges plus a loop over the lattice nodes."""

    @staticmethod
    def cases(seed, count):
        """(lattice, edge, offset) of every special location, on random lattices
        and on the one-piece lattices of their networks."""
        for lat, rng in random_lattices(seed, count):
            locs = special_locations(lat, rng)
            edge = np.array([p.edge for p in locs])
            offset = np.array([p.offset for p in locs])
            yield lat, edge, offset
            yield Lattice(lat.network, lat.network.edge_lengths.max()), edge, offset

    @pytest.mark.parametrize("per_block", [1, 3, None], ids=["one", "three", "all"])
    def test_matches_dijkstra(self, monkeypatch, per_block):
        attained = 0
        for lat, edge, offset in self.cases(61, 12):
            monkeypatch.setattr(network, "BLOCK_PAIRS", per_block * lat.n_nodes if per_block else 2**62)
            d = loop_lattice_distances(lat, edge, offset)[2]
            at = np.sort(d[d > 0])[len(d[d > 0]) // 2]  # a distance some node attains
            for cutoff in (math.inf, 0.0, 0.7, at):
                blocks = list(lat._distances(edge, offset, cutoff))
                block = per_block or len(edge)
                assert len(blocks) == -(-len(edge) // block)
                for lo, (rows, _, _) in zip(range(0, len(edge), block), blocks):
                    # each block holds whole rows, ascending
                    assert np.all((lo <= rows) & (rows < lo + block)) and np.all(np.diff(rows) >= 0)
                got = [np.concatenate(c) for c in zip(*blocks)]
                for g, w in zip(got, loop_lattice_distances(lat, edge, offset, cutoff)):
                    assert_same(g, w)
            attained += int((got[2] == at).sum())
        assert attained  # an entry exactly at the cutoff is kept

    def test_matches_the_lattice_graph(self):
        # Dijkstra over the lattice's links sums the pieces of a path one by
        # one, where the closed form rounds once past the vertex distance:
        # the same pairs, and distances within 1e-12 of the edge lengths
        for lat, edge, offset in self.cases(64, 8):
            seeds = bracket_seeds(lat, edge, offset)
            tol = 1e-12 * lat.network.edge_lengths.max()
            for cutoff in (math.inf, 0.7):
                got = [np.concatenate(c) for c in zip(*lat._distances(edge, offset, cutoff))]
                want = scipy_graph_distances(graph_links(lat), *seeds, cutoff)
                if cutoff < math.inf:  # away from ties at the cutoff
                    got, want = ([c[np.abs(x[2] - cutoff) > tol] for c in x] for x in (got, want))
                assert_same(got[0], want[0])
                assert_same(got[1], want[1])
                np.testing.assert_allclose(got[2], want[2], rtol=1e-12, atol=tol)

    def test_source_inside_an_edge_longer_than_twice_the_cutoff(self):
        # neither end of the source's edge is reached, yet its nodes are
        net = build_network([(0.0, 0.0), (1.0, 0.0), (11.0, 0.0), (11.0, 1.0)], [(0, 1), (1, 2), (2, 3)])
        lat = Lattice(net, 0.5)
        edge, offset = np.array([1, 1, 0]), np.array([5.0, 4.3, 0.5])
        for cutoff in (1.0, 0.6):
            got = [np.concatenate(c) for c in zip(*lat._distances(edge, offset, cutoff))]
            for g, w in zip(got, loop_lattice_distances(lat, edge, offset, cutoff)):
                assert_same(g, w)
            node = got[1][got[0] < 2]
            assert node.min() >= net.n_vertices  # inner nodes only
            assert_same(np.unique(lat._node_locations(node)[0]), np.array([1]))
        assert sorted(got[2][got[0] == 0]) == [0.0, 0.5, 0.5]

    def test_single_source_fields_match_dijkstra(self):
        for lat, rng in random_lattices(62, 10):
            net = lat.network
            for loc in special_locations(lat, rng)[::5]:
                edge, offset = np.array([loc.edge]), np.array([loc.offset])
                for cutoff in (math.inf, 0.7):
                    _, at, d = loop_lattice_distances(lat, edge, offset, cutoff)
                    want = np.full(lat.n_nodes, np.inf)
                    want[at] = d
                    assert_same(lat.distance_field(loc, cutoff), want)
                    start = np.array([[loc.offset, net.edge_lengths[loc.edge] - loc.offset]])
                    _, at, d = scipy_graph_distances(graph_links(net), net.edge_vertices[edge], start, cutoff)
                    want = np.full(net.n_vertices, np.inf)
                    want[at] = d
                    assert_same(vertex_distances(net, loc, cutoff), want)

    def test_vertex_distances_are_the_fields_vertex_entries(self):
        for lat, rng in random_lattices(65, 10):
            nv = lat.network.n_vertices
            for loc in special_locations(lat, rng)[::3]:
                for cutoff in (math.inf, 0.7, 0.0):
                    assert_same(vertex_distances(lat.network, loc, cutoff), lat.distance_field(loc, cutoff)[:nv])

    @pytest.mark.parametrize("cutoff", [-1.0, -math.inf, math.nan])
    def test_bad_cutoff_rejected(self, cutoff):
        net = triangle_network()
        lat = Lattice(net, 0.25)
        with pytest.raises(ValueError, match="cutoff must be nonnegative"):
            lat.distance_field(NetworkLocation(0, 0.3), cutoff)
        with pytest.raises(ValueError, match="cutoff must be nonnegative"):
            vertex_distances(net, NetworkLocation(0, 0.3), cutoff)

    def test_no_sources_yield_nothing(self):
        lat = Lattice(triangle_network(), 0.25)
        assert list(lat._distances(np.zeros(0, np.int64), np.zeros(0))) == []

    def test_components_match_scipy(self):
        rng = np.random.default_rng(63)
        nets = [random_network(rng, max_side=4, keep=0.5) for _ in range(30)]
        for net in nets + [two_disjoint_segments(), triangle_network()]:
            labels = net.vertex_component
            assert_same(labels, scipy_components(net))
            assert not labels.flags.writeable
            # numbered by lowest vertex id: labels first appear in increasing order
            first = labels[np.sort(np.unique(labels, return_index=True)[1])]
            assert_same(first, np.arange(net.n_components))
        assert max(net.n_components for net in nets) > 1


class TestSnap:
    def test_point_on_edge(self):
        edge, offset, dist = _snap(segment_network(), np.array([(0.25, 0.0), (1.0, 0.0)]), 1.0)
        assert edge.tolist() == [0, 0] and dist.tolist() == [0.0, 0.0]
        assert offset == pytest.approx([0.25, 1.0], abs=1e-12)

    def test_orthogonal_projection(self):
        edge, offset, dist = _snap(segment_network(), np.array([(0.5, 0.3), (0.2, -0.1)]), 1.0)
        assert edge.tolist() == [0, 0]
        assert offset == pytest.approx([0.5, 0.2], abs=1e-12)
        assert dist == pytest.approx([0.3, 0.1], abs=1e-12)

    def test_too_far(self):
        # rows farther than max_dist carry a distance beyond it: read_points drops them
        _, _, dist = _snap(segment_network(), np.array([(0.5, 2.0), (0.5, 0.5)]), 1.0)
        assert dist[0] > 1.0 and dist[1] == pytest.approx(0.5, abs=1e-12)

    def test_tie_lowest_edge_id(self):
        # two parallel horizontal segments, point exactly between them
        net = build_network(
            [(0, 0), (1, 0), (0, 1), (1, 1)], [(2, 3), (0, 1)]
        )
        edge, offset, _ = _snap(net, np.array([(0.5, 0.5), (0.25, 0.5)]), 1.0)
        assert edge.tolist() == [0, 0]
        assert offset == pytest.approx([0.5, 0.25], abs=1e-12)

    def test_nan_or_nonpositive_max_dist_rejected(self):
        net = segment_network()
        for bad in (math.nan, 0.0, -1.0):
            for xy in (np.array([(0.5, 0.0)]), np.empty((0, 2))):
                with pytest.raises(ValueError, match="max_dist must be positive"):
                    _snap(net, xy, bad)


def assert_snaps_like_scan(net, xy, max_dist):
    """Indexed snap equals the per-record scan: kept mask, edges and offsets."""
    xy = np.asarray(xy, dtype=float)
    edge, offset, dist = _snap(net, xy, max_dist)
    ref = [scan_snap(net, p, max_dist) for p in xy]
    kept = dist <= max_dist
    assert kept.tolist() == [r is not None for r in ref]
    assert_same(edge[kept], np.array([r.edge for r in ref if r], dtype=np.int64))
    assert_same(offset[kept], np.array([r.offset for r in ref if r], dtype=float))
    return kept


def mixed_scale_network(rng):
    """Jittered grid of 1e3-long edges with chains of 1e-3-long diagonal spurs."""
    net = grid_network(4, 4, spacing=1e3, keep=0.8, jitter=80.0, rng=rng)
    xy, segs = list(map(tuple, net.vertex_xy)), list(map(tuple, net.edge_vertices))
    for v in rng.choice(net.n_vertices, size=6, replace=False):
        step = 1e-3 * np.array([1.0, 1.0]) / math.sqrt(2) * rng.choice([-1, 1], 2)
        prev = int(v)
        for k in range(1, int(rng.integers(1, 4)) + 1):
            xy.append(tuple(net.vertex_xy[v] + k * step))
            segs.append((prev, len(xy) - 1))
            prev = len(xy) - 1
    return build_network(xy, segs)


class TestIndexedSnap:
    def test_random_networks_match_scan(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            net = random_network(rng, max_side=5, spacing=float(rng.uniform(0.5, 3.0)))
            lo, hi = net.vertex_xy.min(axis=0), net.vertex_xy.max(axis=0)
            xy = rng.uniform(lo - 1.0, hi + 1.0, (60, 2))
            for max_dist in (math.inf, 0.3):
                assert_snaps_like_scan(net, xy, max_dist)

    def test_mixed_edge_scales_match_scan(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            net = mixed_scale_network(rng)
            spurs = net.vertex_xy[net.edge_vertices[net.edge_lengths < 1.0].ravel()]
            near = spurs[rng.integers(len(spurs), size=200)] + rng.normal(0, 2e-3, (200, 2))
            wide = rng.uniform(-500.0, 3500.0, (200, 2))
            for max_dist in (math.inf, 1e-3, 100.0):
                assert_snaps_like_scan(net, np.vstack([near, wide]), max_dist)

    @pytest.mark.parametrize("pairs", [1, 1000, network.BLOCK_PAIRS])
    def test_blocks_and_duplicates(self, monkeypatch, pairs):
        # pairs 1 snaps one record per block, 1000 a few, the default all at once
        monkeypatch.setattr(network, "BLOCK_PAIRS", pairs)
        blocks = []

        def counted(*args):
            for block in box_pairs(*args):
                blocks.append(len(block[0]))
                yield block

        rng = np.random.default_rng(13)
        net = grid_network(6, 6, keep=0.8, jitter=0.2, rng=rng)
        box_pairs = network._box_pairs
        monkeypatch.setattr(network, "_box_pairs", counted)
        xy = rng.uniform(-1.0, 6.0, (1200, 2))
        xy[800:1000] = xy[:200]
        kept = assert_snaps_like_scan(net, xy, 0.4)
        assert 0 < kept.sum() < len(xy)
        assert len(blocks) > 1 if pairs < 2**18 else len(blocks) == 1
        assert max(blocks) <= pairs + net.n_edges  # one record adds at most every edge
        edge, offset, _ = _snap(net, xy, 0.4)
        assert_same(edge[800:1000], edge[:200])
        assert_same(offset[800:1000], offset[:200])

    @pytest.mark.parametrize("ids", [[(0, 1), (2, 3)], [(2, 3), (0, 1)]])
    def test_bisector_tie_takes_lowest_edge_id(self, ids):
        net = build_network([(0, 0), (1, 0), (0, 1), (1, 1)], ids)
        xy = [(0.5, 0.5), (0.25, 0.5), (-3.0, 0.5), (7.0, 0.5)]
        assert_snaps_like_scan(net, xy, math.inf)
        assert _snap(net, np.array(xy), math.inf)[0].tolist() == [0, 0, 0, 0]

    @pytest.mark.parametrize("ids", [[(0, 1), (0, 2)], [(0, 2), (0, 1)]])
    def test_vertex_tie_takes_lowest_edge_id(self, ids):
        # a V opening to the right: left of the apex, the apex is the closest
        # location on both edges
        net = build_network([(0, 0), (1, 1), (1, -1)], ids)
        xy = [(0.0, 0.0), (-0.5, 0.0), (-2.0, 0.0), (-1.0, 0.5)]
        assert_snaps_like_scan(net, xy, math.inf)
        edge, offset, _ = _snap(net, np.array(xy), math.inf)
        assert edge.tolist() == [0, 0, 0, 0] and offset.tolist() == [0.0] * 4

    def test_equidistant_edges_and_shared_vertices_match_scan(self, monkeypatch):
        # on an unjittered grid a cell centre is equidistant from four edges and a
        # vertex from all its edges; far records take several x4 rounds at max_dist inf
        rng = np.random.default_rng(16)
        for trial in range(12):
            monkeypatch.setattr(network, "BLOCK_PAIRS", int(rng.choice([1, 97, 2**18])))
            net = grid_network(int(rng.integers(2, 7)), int(rng.integers(2, 7)), keep=0.8, rng=rng)
            lo, hi = net.vertex_xy.min(axis=0), net.vertex_xy.max(axis=0)
            centres = np.floor(rng.uniform(lo, hi + 1, (40, 2))) + 0.5
            far = rng.uniform(lo - 1e4, hi + 1e4, (20, 2))
            xy = np.vstack([net.vertex_xy, centres, far, centres + [0.5, 0.0]])
            for max_dist in (math.inf, 0.5, 1.0):
                assert_snaps_like_scan(net, rng.permutation(xy), max_dist)

    def test_max_dist_boundary(self):
        net = segment_network()
        xy = [(0.5, 0.75), (0.5, -0.75), (1.75, 0.0)]
        kept = assert_snaps_like_scan(net, xy, 0.75)
        assert kept.all()  # exactly at max_dist is kept
        kept = assert_snaps_like_scan(net, xy, math.nextafter(0.75, 0.0))
        assert not kept.any()

    def test_vertical_line_network(self):
        # the bounding box has zero width, so every grid cell shares one x
        net = build_network([(0.0, 0.0), (0.0, 1.0), (0.0, 2.5), (0.0, 2.75)], [(0, 1), (1, 2), (2, 3)])
        rng = np.random.default_rng(15)
        xy = np.vstack([rng.uniform(-1.0, 4.0, (200, 2)), [(0.0, 1.0), (0.0, 5.0), (1e-9, 2.6)]])
        for max_dist in (math.inf, 0.3, 1e-6):
            assert_snaps_like_scan(net, xy, max_dist)

    def test_far_outside_bounding_box(self):
        rng = np.random.default_rng(14)
        net = grid_network(4, 4, keep=0.8, jitter=0.2, rng=rng)
        xy = np.array([(1e6, 1.5), (-1e9, -2e9), (1.5, 3e7), (-40.0, 1.0)])
        assert assert_snaps_like_scan(net, xy, math.inf).all()
        assert not assert_snaps_like_scan(net, xy, 30.0).any()


class TestPointPattern:
    def test_validates_points(self):
        net = segment_network()
        with pytest.raises(LocationOffNetwork):
            pattern_of(net, [NetworkLocation(0, 2.0)])

    def test_counts(self):
        net = segment_network()
        pp = pattern_of(net, [NetworkLocation(0, 0.1), NetworkLocation(0, 0.9)])
        assert pp.n == 2

    def test_columns_keep_input_order(self):
        net = y_network()
        locs = [NetworkLocation(2, 0.5), NetworkLocation(0, 0.7), NetworkLocation(2, 0.1)]
        pp = pattern_of(net, locs)
        assert pp.edge.tolist() == [2, 0, 2] and pp.edge.dtype == np.int64
        assert pp.offset.tolist() == [0.5, 0.7, 0.1] and pp.offset.dtype == np.float64
        assert pp.order.tolist() == [1, 2, 0]
        for col in (pp.edge, pp.offset, pp.order):
            assert not col.flags.writeable

    SHAPES = "edge and offset must be 1-D columns of one length, got shapes "
    NUMBERS = "edge and offset must be 1-D columns of numbers: "

    @pytest.mark.parametrize("edge, offset, message", [
        ([0, 1], [0.5], SHAPES + "(2,) and (1,)"),
        ([0], [0.5, 0.25], SHAPES + "(1,) and (2,)"),
        (1, 0.5, SHAPES + "() and ()"),
        ([[0, 1]], [[0.5, 0.5]], SHAPES + "(1, 2) and (1, 2)"),
        # numpy's own ValueError or TypeError, named as the location error
        ([0, 1], [[0.5], [0.2, 0.3]], NUMBERS),
        ([[0], [1, 0]], [0.5, 0.5], NUMBERS),
        ([0], ["a"], NUMBERS + "could not convert string to float: 'a'"),
        (["a"], [0.5], NUMBERS),
        ([None], [0.5], NUMBERS),
        ([0], [1 + 2j], NUMBERS),
    ], ids=["more-edges", "more-offsets", "scalars", "2-d", "ragged-offsets", "ragged-edges",
            "text-offset", "text-edge", "none-edge", "complex-offset"])
    def test_columns_must_be_1d_and_of_one_length(self, edge, offset, message):
        net = y_network()
        with pytest.raises(LocationOffNetwork) as got:
            PointPattern(net, edge, offset)
        text = str(got.value)
        assert text.startswith(message) if message.endswith(": ") else text == message
        assert PointPattern(net, [], []).n == 0


    @pytest.mark.parametrize("build", [
        lambda net, edge, offset: pattern_of(net, [NetworkLocation(e, float(o)) for e, o in zip(edge, offset)]),
        lambda net, edge, offset: PointPattern(net, np.array(edge), np.array(offset)),
    ], ids=["locations", "columns"])
    def test_first_location_off_the_network_raises_its_error(self, build):
        # the first location off the network names itself
        net = y_network()
        length = float(net.edge_lengths[1])
        beyond = np.nextafter(length, 2.0)
        cases = [
            ([0, 3, 1], [0.1, 0.2, 0.3], "edge id 3 out of range"),
            ([0, 1, -1], [0.1, -0.5, 0.3], f"offset -0.5 outside [0, {length}] on edge 1"),
            ([2, 1, 1, 1], [0.0, length, beyond, -1.0], f"offset {beyond} outside [0, {length}] on edge 1"),
            ([1, 2], [0.4, float("nan")], f"offset nan outside [0, {length}] on edge 2"),
        ]
        for edge, offset, message in cases:
            with pytest.raises(LocationOffNetwork) as got:
                build(net, edge, offset)
            assert str(got.value) == message

    def test_from_columns_and_subset_equal_the_object_path(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            net = random_network(rng)
            pat = random_pattern(net, int(rng.integers(0, 30)), rng)
            cols = PointPattern(net, pat.edge, pat.offset)
            picks = [[], rng.permutation(pat.n), list(rng.integers(0, max(pat.n, 1), pat.n))]
            for got, idx in [(cols, range(pat.n))] + [(pat.subset(i), i) for i in picks]:
                want = pattern_of(net, [location(pat, i) for i in idx])
                for a, b in ((got.edge, want.edge), (got.offset, want.offset), (got.order, want.order)):
                    assert_same(a, b)
                    assert not a.flags.writeable


class TestLazyGraphImport:
    def run_cli(self, tmp_path, *args, command="estimate"):
        """(stdout lines, stderr) of ``lineheat estimate`` (or ``validate``) on a
        3x3 grid in a fresh process; the last stdout line lists the scipy
        modules it loaded."""
        net_path = tmp_path / "net.geojson"
        write_network_geojson(grid_network(3, 3, spacing=0.5), net_path)
        pts = tmp_path / "pts.csv"
        pts.write_text("x,y\n0.1,0.02\n0.6,0.5\n0.9,0.95\n0.25,0.01\n0.5,0.7\n7.0,7.0\n")
        argv = ["estimate", "--net", str(net_path), "--points", str(pts),
                "--out", str(tmp_path / "out.csv"), *args]
        if command == "validate":
            argv = ["validate", str(net_path)]
        code = f"""
import sys
from lineheat.cli import main
rc = main({argv!r})
print(rc, sorted(m for m in sys.modules if m.startswith("scipy")))
"""
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip().splitlines(), proc.stderr

    def test_heat_path_leaves_csgraph_unimported(self, tmp_path):
        # scipy.sparse with its csgraph, and scipy.spatial, take about half a
        # second to import: a heat estimate, snapping, a dropped record and the
        # partition included, loads no scipy module at all
        out, err = self.run_cli(
            tmp_path, "--method", "heat", "--adaptive", "--bw-global", "0.2",
            "--delta", "0.05", "--max-snap-dist", "0.1",
        )
        assert "1 record(s) beyond max snap distance were dropped" in err
        assert out[-1] == "0 []"

    def test_raster_output_leaves_spatial_unimported(self, tmp_path):
        # shortest paths are numpy too: scipy.sparse.csgraph alone takes
        # 0.2-0.4 s to import, more than the whole estimate of a 4k-node lattice
        out, _ = self.run_cli(
            tmp_path, "--method", "uniform-corrected", "--bw", "0.3",
            "--format", "raster-csv", "--raster-res", "16",
        )
        assert out[-1] == "0 []"

    def test_jones_diggle_loads_no_scipy(self, tmp_path):
        out, _ = self.run_cli(tmp_path, "--method", "jones-diggle", "--bw", "0.3")
        assert out[-1] == "0 []"

    def test_validate_loads_no_scipy(self, tmp_path):
        # counting components is min-label propagation, not scipy's csgraph
        out, _ = self.run_cli(tmp_path, command="validate")
        assert "components: 1" in out and out[-1] == "0 []"

    def test_import_leaves_spatial_unimported(self):
        # scipy.spatial takes about a third of a second to import; commands
        # that never read a network (``--help``) should not pay it
        code = "import sys\nfrom lineheat import *\nprint('scipy.spatial' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    # a process pool (concurrent.futures with multiprocessing) costs 10-30 ms to
    # import and no command uses one; numpy.ma (12-23 ms) comes with
    # np.quantile and a plain np.unique
    HEAVY = ("scipy", "concurrent.futures", "multiprocessing", "numpy.ma")

    def heavy_modules(self, code, cwd=None):
        code += f"\nimport sys\nprint(sorted(m for m in sys.modules for p in {self.HEAVY!r} "
        code += "if m == p or m.startswith(p + '.')))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=cwd)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip().splitlines()[-1]

    def test_import_help_and_estimate_load_no_heavy_module(self, tmp_path):
        assert self.heavy_modules("from lineheat import *") == "[]"  # every module
        assert self.heavy_modules(
            "from lineheat.cli import main\ntry:\n    main(['--help'])\nexcept SystemExit:\n    pass") == "[]"
        write_network_geojson(grid_network(3, 3, spacing=0.5), tmp_path / "net.geojson")
        (tmp_path / "pts.csv").write_text("x,y\n0.1,0.02\n0.6,0.5\n0.9,0.95\n0.25,0.01\n0.5,0.7\n")
        argv = ["estimate", "--net", "net.geojson", "--points", "pts.csv", "--out", "out.csv",
                "--method", "heat", "--adaptive", "--bw-global", "0.2", "--delta", "0.1"]
        got = self.heavy_modules(f"from lineheat.cli import main\nassert main({argv!r}) == 0", cwd=tmp_path)
        assert got == "[]"

    def test_import_leaves_scipy_unimported(self):
        # scipy.sparse alone takes about a fifth of a second to import; no
        # module of the package loads scipy (the simulator included)
        code = "import sys\nfrom lineheat import *\nprint(sorted(m for m in sys.modules if m.startswith('scipy')))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
