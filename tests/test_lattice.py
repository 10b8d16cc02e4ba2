import math

import numpy as np
import pytest

from lineheat.lattice import LatticeFunction, discretize
from lineheat.network import NetworkLocation

from nets import (
    brute_force_distance,
    random_location,
    random_network,
    segment_network,
    y_network,
)


class TestDiscretize:
    def test_single_segment_trapezoid(self):
        lat = discretize(segment_network(1.0), 0.25)
        assert lat.n_nodes == 5
        chain = lat.edge_chains[0]
        offs = [0.0, 0.25, 0.5, 0.75, 1.0]
        for node, off in zip(chain, offs):
            loc = lat.node_location(int(node))
            assert loc.offset == pytest.approx(off, abs=1e-15)
        weights = lat.node_weight[chain]
        assert weights == pytest.approx([0.125, 0.25, 0.25, 0.25, 0.125], abs=1e-15)
        assert lat.node_weight.sum() == pytest.approx(1.0, rel=1e-12)

    def test_y_center_weight(self):
        lat = discretize(y_network(), 0.5)
        # center vertex is node 0; three incident edges at spacing 0.5
        assert lat.node_weight[0] == pytest.approx(0.75, abs=1e-15)

    def test_weight_sum_equals_length(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            net = random_network(rng)
            dx = float(rng.uniform(0.05, 2.0))
            lat = discretize(net, dx)
            assert lat.node_weight.sum() == pytest.approx(net.total_length, rel=1e-9)
            assert lat.edge_spacing.max() <= dx + 1e-12

    def test_short_edge_single_piece(self):
        lat = discretize(segment_network(0.01), 1.0)
        assert lat.n_nodes == 2
        assert lat.edge_spacing[0] == pytest.approx(0.01)

    def test_invalid_dx(self):
        with pytest.raises(ValueError):
            discretize(segment_network(), 0.0)

    def test_node_cells_partition_edges(self):
        rng = np.random.default_rng(9)
        net = random_network(rng)
        lat = discretize(net, 0.3)
        ce, cl, ch, cn = lat.node_cells
        for e in range(net.n_edges):
            m = ce == e
            lo, hi = cl[m], ch[m]
            order = np.argsort(lo)
            assert lo[order][0] == 0.0
            assert hi[order][-1] == pytest.approx(net.edge_lengths[e], rel=1e-12)
            assert np.allclose(hi[order][:-1], lo[order][1:], rtol=1e-12)
        # cell lengths per node reproduce the quadrature weights
        per_node = np.zeros(lat.n_nodes)
        np.add.at(per_node, cn, ch - cl)
        assert np.allclose(per_node, lat.node_weight, rtol=1e-12)


def _source_kind(lat, src):
    left, right, theta, _ = lat.bracket(src)
    if left == right:
        return "vertex"
    if theta == 0.0:
        return "chain node"
    if theta == 1.0:
        return "far node"
    return "inside a link"


def _candidate_sources(lat, rng):
    net = lat.network
    yield net.vertex_location(int(rng.integers(net.n_vertices)))
    interior = np.nonzero(lat.node_vertex < 0)[0]
    if len(interior):
        yield lat.node_location(int(rng.choice(interior)))
    yield random_location(net, rng)
    # just below an edge's end the bracket can clamp to the last link with
    # theta == 1, so the source sits on that link's far node
    for e in range(net.n_edges):
        off = float(net.edge_lengths[e])
        for _ in range(4):
            off = float(np.nextafter(off, 0.0))
            yield NetworkLocation(e, off)


class TestDistanceField:
    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(31)
        seen = set()
        for _ in range(10):
            net = random_network(rng)
            lat = discretize(net, 0.4)
            tested = set()
            for src in _candidate_sources(lat, rng):
                kind = _source_kind(lat, src)
                if kind in tested:
                    continue
                tested.add(kind)
                field = lat.distance_field(src)
                for i in range(lat.n_nodes):
                    want = brute_force_distance(net, src, lat.node_location(i))
                    if math.isinf(want):
                        assert math.isinf(field[i])
                    else:
                        assert field[i] == pytest.approx(want, rel=1e-9, abs=1e-12)
            seen |= tested
        assert seen == {"vertex", "chain node", "far node", "inside a link"}

    def test_cutoff(self):
        lat = discretize(segment_network(10.0), 0.5)
        field = lat.distance_field(NetworkLocation(0, 5.0), cutoff=1.0)
        finite = np.nonzero(np.isfinite(field))[0]
        # nodes at exactly the cutoff distance are kept
        assert sorted(lat.node_location(int(i)).offset for i in finite) == [
            4.0, 4.5, 5.0, 5.5, 6.0
        ]
        assert sorted(field[finite]) == [0.0, 0.5, 0.5, 1.0, 1.0]


class TestLatticeFunction:
    def test_integral(self):
        lat = discretize(segment_network(2.0), 0.25)
        f = LatticeFunction(lat, np.full(lat.n_nodes, 3.0))
        assert f.integral() == pytest.approx(6.0, rel=1e-12)

    def test_value_at_interpolates(self):
        lat = discretize(segment_network(1.0), 0.25)
        vals = np.zeros(lat.n_nodes)
        chain = lat.edge_chains[0]
        vals[chain] = [0.0, 1.0, 2.0, 3.0, 4.0]
        f = LatticeFunction(lat, vals)
        assert f.value_at(NetworkLocation(0, 0.375)) == pytest.approx(1.5, abs=1e-12)
        assert f.value_at(NetworkLocation(0, 0.0)) == 0.0
        assert f.value_at(NetworkLocation(0, 1.0)) == 4.0

    def test_resample_roundtrip_on_refinement(self):
        net = y_network()
        coarse = discretize(net, 0.5)
        fine = discretize(net, 0.25)
        f = LatticeFunction(coarse, np.linspace(0.0, 1.0, coarse.n_nodes))
        g = f.resample_to(fine)
        # coarse nodes are also fine nodes; values must match there
        for i in range(coarse.n_nodes):
            loc = coarse.node_location(i)
            assert g.value_at(loc) == pytest.approx(f.values[i], rel=1e-12)
