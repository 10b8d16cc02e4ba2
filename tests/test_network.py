import math
import subprocess
import sys

import numpy as np
import pytest

from lineheat.errors import (
    DanglingReference,
    InteriorIntersection,
    LocationOffNetwork,
    TooFarFromNetwork,
    ZeroLengthEdge,
)
from lineheat.ingest import write_network_geojson
from lineheat.network import (
    NetworkLocation,
    PointPattern,
    build_network,
    disc_length,
    network_disc,
    shortest_path_distance,
    snap_to_network,
)

from nets import (
    brute_force_distance,
    grid_network,
    random_location,
    random_network,
    segment_network,
    triangle_network,
    two_disjoint_segments,
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

    def test_edge_length_matches_euclid(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            net = random_network(rng)
            a = net.vertex_xy[net.edge_vertices[:, 0]]
            b = net.vertex_xy[net.edge_vertices[:, 1]]
            eu = np.hypot(*(b - a).T)
            assert np.allclose(net.edge_lengths, eu, rtol=1e-9)


class TestLocations:
    def test_offset_bounds(self):
        net = segment_network()
        with pytest.raises(LocationOffNetwork):
            net.check_location(NetworkLocation(0, 1.5))
        with pytest.raises(LocationOffNetwork):
            net.check_location(NetworkLocation(1, 0.5))

    def test_canonical_endpoints(self):
        net = triangle_network()
        # edge 0 runs 0 -> 1, edge 1 runs 1 -> 2: both touch vertex 1
        end0 = NetworkLocation(0, float(net.edge_lengths[0]))
        start1 = NetworkLocation(1, 0.0)
        assert net.same_location(end0, start1)
        assert not net.same_location(end0, NetworkLocation(1, 0.3))


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
            if not net.same_location(a, b):
                assert dab > 0.0


class TestNetworkDisc:
    def test_zero_radius(self):
        net = y_network()
        center = NetworkLocation(0, 0.4)
        disc = network_disc(net, center, 0.0)
        assert disc == [(0, 0.4, 0.4)]
        assert disc_length(disc) == 0.0

    def test_y_center_radius(self):
        net = y_network()
        center = NetworkLocation(0, 0.0)  # the degree-3 vertex
        disc = network_disc(net, center, 0.3)
        assert len(disc) == 3
        assert disc_length(disc) == pytest.approx(0.9, abs=1e-12)
        # dense-sampling oracle: thresholded distances agree with the intervals
        for e in range(net.n_edges):
            for off in np.linspace(0.0, float(net.edge_lengths[e]), 41):
                d = shortest_path_distance(net, center, NetworkLocation(e, float(off)))
                inside = any(
                    ie == e and lo - 1e-12 <= off <= hi + 1e-12 for ie, lo, hi in disc
                )
                assert inside == (d <= 0.3 + 1e-12)

    def test_radius_beyond_diameter(self):
        net = triangle_network()
        disc = network_disc(net, NetworkLocation(0, 0.2), 10.0)
        assert disc_length(disc) == pytest.approx(net.total_length, rel=1e-12)

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(23)
        net = random_network(rng)
        center = random_location(net, rng)
        prev = -1.0
        for r in np.linspace(0, 3, 13):
            ln = disc_length(network_disc(net, center, float(r)))
            assert ln >= prev - 1e-12
            assert ln <= net.total_length + 1e-12
            prev = ln


class TestSnap:
    def test_point_on_edge(self):
        net = segment_network()
        loc = snap_to_network(net, (0.25, 0.0), 1.0)
        assert loc.edge == 0 and loc.offset == pytest.approx(0.25, abs=1e-12)

    def test_orthogonal_projection(self):
        net = segment_network()
        loc = snap_to_network(net, (0.5, 0.3), 1.0)
        assert loc.edge == 0 and loc.offset == pytest.approx(0.5, abs=1e-12)

    def test_too_far(self):
        net = segment_network()
        with pytest.raises(TooFarFromNetwork):
            snap_to_network(net, (0.5, 2.0), 1.0)

    def test_tie_lowest_edge_id(self):
        # two parallel horizontal segments, point exactly between them
        net = build_network(
            [(0, 0), (1, 0), (0, 1), (1, 1)], [(0, 1), (2, 3)]
        )
        loc = snap_to_network(net, (0.5, 0.5), 1.0)
        assert loc.edge == 0


class TestPointPattern:
    def test_validates_points(self):
        net = segment_network()
        with pytest.raises(LocationOffNetwork):
            PointPattern(net, [NetworkLocation(0, 2.0)])

    def test_counts(self):
        net = segment_network()
        pp = PointPattern(net, [NetworkLocation(0, 0.1), NetworkLocation(0, 0.9)])
        assert pp.n == 2


class TestLazyGraphImport:
    def test_heat_path_leaves_csgraph_unimported(self, tmp_path):
        # importing scipy.sparse.csgraph adds ~4 MB of RSS; only distance and
        # component queries may pay it, never a heat estimate
        net_path = tmp_path / "net.geojson"
        write_network_geojson(grid_network(3, 3, spacing=0.5), net_path)
        code = f"""
import sys
import lineheat as lh
net = lh.read_network_geojson({str(net_path)!r})
pattern = lh.PointPattern(net, [lh.NetworkLocation(0, 0.1), lh.NetworkLocation(3, 0.2)])
lh.estimate_heat(pattern, lh.discretize(net, 0.05), 0.2)
print("scipy.sparse.csgraph" in sys.modules)
"""
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
