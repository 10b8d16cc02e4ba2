import math
import os
import subprocess
import sys

import numpy as np
import pytest

from lineheat.heat import estimate_heat, estimate_heat_batch
from lineheat.kernels import Kernel1D, estimate_jones_diggle, estimate_uniform_corrected
from lineheat.lattice import LatticeFunction, discretize
from lineheat.network import NetworkLocation

from nets import (
    assert_same,
    brute_force_distance,
    chain_links,
    edge_chains,
    random_lattices,
    random_location,
    random_network,
    random_pattern,
    reference_bracket,
    reference_lattice,
    segment_network,
    special_locations,
    y_network,
)


class TestDiscretize:
    def test_single_segment_trapezoid(self):
        lat = discretize(segment_network(1.0), 0.25)
        assert lat.n_nodes == 5
        chain = edge_chains(lat)[0]
        offs = [0.0, 0.25, 0.5, 0.75, 1.0]
        for node, off in zip(chain, offs):
            loc = lat.node_location(int(node))
            assert loc.offset == pytest.approx(off, abs=1e-15)
        weights = lat.node_weight[chain]
        assert weights == pytest.approx([0.125, 0.25, 0.25, 0.25, 0.125], abs=1e-15)
        assert lat.node_weight.sum() == pytest.approx(1.0, rel=1e-12)

    def test_node_locations(self):
        # an inner node on its edge; a vertex at the end of its lowest incident edge
        for lat, _ in random_lattices(33, 10):
            ev, nv = lat.network.edge_vertices, lat.network.n_vertices
            edge, offset = lat._node_locations(np.arange(lat.n_nodes))
            chains = edge_chains(lat)
            for i in range(nv, lat.n_nodes):
                e = int(edge[i])
                j = int(np.flatnonzero(chains[e] == i)[0])
                assert offset[i] == lat.edge_spacing[e] * j
            for v in range(nv):
                e = int(np.flatnonzero((ev == v).any(axis=1))[0])
                assert (edge[v], offset[v]) == (e, 0.0 if ev[e, 0] == v else lat.network.edge_lengths[e])

    def test_inner_node_windows(self):
        # the ids and offsets of inner chain positions lo..lo + n - 1 are
        # edge_chains' nodes there and their offsets from _node_locations
        sizes = set()
        for lat, rng in random_lattices(34, 15):
            chains = edge_chains(lat)
            nv = lat.network.n_vertices
            inner = np.array([len(c) - 2 for c in chains])
            node, x, w = lat._inner_nodes(np.arange(len(chains)), 1, inner)
            assert_same(node, np.arange(nv, lat.n_nodes))
            assert_same(w, np.repeat(np.arange(len(chains)), inner))
            assert_same(x, lat._node_locations(node)[1])
            windows = []
            for e, m in enumerate(inner.tolist()):
                a = int(rng.integers(1, m + 1)) if m else 1
                # empty, at the tail, at the head, whole, random
                windows += [(e, a, 0), (e, 1, min(m, 2)), (e, max(1, m - 1), min(m, 2)), (e, 1, m),
                            (e, a, int(rng.integers(0, m - a + 2)))]
            edge, lo, n = map(np.array, zip(*windows))
            node, x, w = lat._inner_nodes(edge, lo, n)
            want = [chains[e][a : a + m] for e, a, m in windows]
            assert_same(n, np.array([len(c) for c in want]))
            assert_same(node, np.concatenate(want))
            assert_same(w, np.concatenate([np.full(len(c), k) for k, c in enumerate(want)]))
            assert_same(x, lat._node_locations(node)[1])
            sizes.update(np.sign(n).tolist())
        assert sizes == {0, 1}  # empty windows and nonempty ones

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

    @pytest.mark.parametrize("dx", [-0.5, math.nan, math.inf, 1e-300, 1e-320])
    def test_non_finite_or_overflowing_dx(self, dx):
        # tiny spacings ask for more pieces than int64 holds: the cast would
        # wrap, and below about 1e-308 the division overflows
        with pytest.raises(ValueError, match="dx_target"):
            discretize(segment_network(), dx)

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


class TestVectorizedMatchesLoops:
    """The array paths equal the per-edge and per-point loops bit for bit."""

    def test_lattice_arrays(self):
        for lat, _ in random_lattices(41):
            ref = reference_lattice(lat.network, lat.dx_target)
            for name in ("node_xy", "node_weight", "edge_spacing"):
                assert_same(getattr(lat, name), ref[name])
            nv = lat.network.n_vertices
            edge, offset = lat._node_locations(np.arange(nv, lat.n_nodes))
            assert_same(edge, ref["node_edge"][nv:])
            assert_same(offset, ref["node_offset"][nv:])
            for got, name in zip(chain_links(lat), ("link_i", "link_j", "link_h"), strict=True):
                assert_same(got, ref[name])
            for got, want in zip(lat.node_cells, ref["node_cells"], strict=True):
                assert_same(got, want)
            for got, want in zip(edge_chains(lat), ref["edge_chains"], strict=True):
                assert_same(got, want)

    def test_node_locations_match_the_loop_and_inner_nodes(self):
        # the inverse of _inner_nodes: (edge, offset) of every inner node from its id
        for lat, _ in random_lattices(44):
            ref = reference_lattice(lat.network, lat.dx_target)
            nv, ne = lat.network.n_vertices, lat.network.n_edges
            edge, offset = lat._node_locations(np.arange(lat.n_nodes))
            assert_same(edge[nv:], ref["node_edge"][nv:])
            assert_same(offset[nv:], ref["node_offset"][nv:])
            inner = lat._n_pieces - 1
            node, x, _ = lat._inner_nodes(np.arange(ne), np.ones(ne, dtype=np.int64), inner)
            assert_same(node, np.arange(nv, lat.n_nodes))
            assert_same(edge[node], np.repeat(np.arange(ne), inner))
            assert_same(offset[node], x)

    def test_bracket_and_values_at(self):
        for lat, rng in random_lattices(43):
            net = lat.network
            ref = reference_lattice(net, lat.dx_target)
            locs = special_locations(lat, rng)
            edge = np.array([p.edge for p in locs])
            offset = np.array([p.offset for p in locs])
            want = [reference_bracket(ref, net, p) for p in locs]
            for got, col in zip(lat.bracket(edge, offset), zip(*want), strict=True):
                assert_same(got, np.array(col))
            f = LatticeFunction(lat, rng.random(lat.n_nodes))
            values = np.array([(1.0 - t) * f.values[a] + t * f.values[b] for a, b, t in want])
            assert_same(f.values_at(edge, offset), values)


class TestDerivedOnRead:
    OWN = ("_n_pieces", "edge_spacing", "_first_interior", "_chain_start", "_chain", "node_weight")

    def test_constructor_keeps_the_chain_layout_and_weights(self):
        lat, _ = next(random_lattices(46, 1))
        assert {k for k, v in vars(lat).items() if isinstance(v, np.ndarray)} == set(self.OWN)

    def test_every_array_is_read_only(self):
        # a write would silently corrupt compatible() and every later solve
        for lat, _ in random_lattices(45, 5):
            derived = (lat.node_xy, *lat.node_cells, *lat._solver[:5])
            for a in (*(getattr(lat, name) for name in self.OWN), *derived):
                assert isinstance(a, np.ndarray) and not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                lat.edge_spacing[0] = 1.0

    def test_estimates_build_only_what_they_read(self):
        for lat, rng in random_lattices(47, 5):
            pat = random_pattern(lat.network, 10, rng)
            estimate_heat(pat, lat, 0.5)
            estimate_heat_batch(pat, lat, rng.uniform(0.3, 0.6, pat.n))
            assert "_solver" in vars(lat) and "node_xy" not in vars(lat)
            lat = discretize(lat.network, lat.dx_target)
            kernel = Kernel1D("gaussian", 0.3)
            estimate_uniform_corrected(pat, lat, kernel)
            estimate_jones_diggle(pat, lat, kernel)
            assert "_solver" not in vars(lat) and "node_xy" not in vars(lat)


def _source_kind(lat, src):
    left, right, theta = (x.item() for x in lat.bracket(src.edge, src.offset))
    if left == right:
        return "vertex"
    if theta == 0.0:
        return "chain node"
    if theta == 1.0:
        return "far node"
    return "inside a link"


def _candidate_sources(lat, rng):
    net = lat.network
    yield lat.node_location(int(rng.integers(net.n_vertices)))
    interior = np.arange(net.n_vertices, lat.n_nodes)
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

    @pytest.mark.parametrize("values, message", [
        (np.ones(8), "^values must have one entry per lattice node$"),
        (np.ones((9, 1)), "^values must have one entry per lattice node$"),
        (np.r_[np.ones(8), np.nan], "^lattice function values must be finite$"),
        (np.r_[np.ones(8), -np.inf], "^lattice function values must be finite$"),
    ], ids=["short", "2-d", "nan", "inf"])
    def test_bad_values_refused(self, values, message):
        lat = discretize(segment_network(2.0), 0.25)  # 9 nodes
        with pytest.raises(ValueError, match=message):
            LatticeFunction(lat, values)

    def test_integral_and_ise_do_not_depend_on_the_blas_threads(self):
        # a BLAS dot product sums in an order its thread count sets; both sums
        # print the same digits with one OpenBLAS thread and with two
        code = (
            "import numpy as np\n"
            "from lineheat.experiment import ise\n"
            "from lineheat.lattice import LatticeFunction, discretize\n"
            "from lineheat.network import build_network\n"
            "lat = discretize(build_network([(0, 0), (1, 0)], [(0, 1)]), 1e-5)\n"
            "rng = np.random.default_rng(3)\n"
            "f, g = (LatticeFunction(lat, rng.uniform(0, 1e3, lat.n_nodes)) for _ in range(2))\n"
            "print(repr(f.integral()), repr(ise(f, g)))\n"
        )
        got = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                              env={**os.environ, "OPENBLAS_NUM_THREADS": n}).stdout for n in ("1", "2")]
        assert got[0] == got[1]

    def test_value_at_interpolates(self):
        lat = discretize(segment_network(1.0), 0.25)
        vals = np.zeros(lat.n_nodes)
        chain = edge_chains(lat)[0]
        vals[chain] = [0.0, 1.0, 2.0, 3.0, 4.0]
        f = LatticeFunction(lat, vals)
        got = f.values_at(np.zeros(3, dtype=np.int64), np.array([0.375, 0.0, 1.0]))
        assert got[0] == pytest.approx(1.5, abs=1e-12)
        assert got[1:].tolist() == [0.0, 4.0]
