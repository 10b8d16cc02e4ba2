import math

import numpy as np
import pytest
from scipy.integrate import quad

from lineheat import kernels, network
from lineheat.errors import (
    LatticeMismatch,
    PairBudgetExceeded,
    PathExplosion,
    UnboundedKernel,
)
from lineheat.kernels import (
    Kernel1D,
    _kernel_sum,
    equal_split_continuous,
    equal_split_discontinuous,
    estimate_jones_diggle,
    estimate_uniform_corrected,
    precompute_edge_correction,
)
from lineheat.lattice import Lattice, discretize
from lineheat.network import NetworkLocation, build_network

from nets import (
    assert_same,
    enumerate_equal_split,
    grid_network,
    loop_jones_diggle,
    loop_kernel_sum,
    loop_precompute_edge_correction,
    loop_uniform_corrected,
    pattern_of,
    random_lattices,
    random_locations,
    recursive_equal_split,
    segment_network,
    special_locations,
    triangle_network,
    y_network,
)


class TestKernel1D:
    @pytest.mark.parametrize("family", ["gaussian", "epanechnikov", "quartic"])
    @pytest.mark.parametrize("bw", [0.1, 1.0, 3.7])
    def test_unit_integral_on_real_line(self, family, bw):
        k = Kernel1D(family, bw)
        total, _ = quad(lambda d: k(d), -k.support, k.support, limit=200)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_nonnegative_and_zero_outside_support(self):
        k = Kernel1D("gaussian", 0.5)
        d = np.linspace(-5, 5, 101)
        v = k(d)
        assert np.all(v >= 0)
        assert np.all(v[np.abs(d) > k.support] == 0)

    def test_support_radii(self):
        assert Kernel1D("gaussian", 0.5).support == 2.0
        assert Kernel1D("epanechnikov", 0.5).support == 0.5
        assert Kernel1D("quartic", 2.0).support == 2.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            Kernel1D("box", 1.0)
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="bandwidth must be positive and finite"):
                Kernel1D("gaussian", bad)


def node_correction(lattice, loc, kernel):
    """The precomputed edge correction at ``loc``, a lattice node."""
    left, right, theta = lattice.bracket(loc.edge, loc.offset)
    assert left == right or theta == 0.0
    return float(precompute_edge_correction(lattice, kernel).values[left])


class TestEdgeCorrection:
    def test_full_mass_mid_segment(self):
        sigma = 0.1
        net = segment_network(100 * sigma)
        lat = discretize(net, sigma / 4)
        c = node_correction(lat, NetworkLocation(0, 5.0), Kernel1D("gaussian", sigma))
        # limited by the node-cell quadrature across the truncation jump
        assert c == pytest.approx(1.0, abs=2e-4)

    def test_half_mass_at_terminus(self):
        sigma = 0.1
        net = segment_network(100 * sigma)
        lat = discretize(net, sigma / 4)
        c = node_correction(lat, NetworkLocation(0, 0.0), Kernel1D("gaussian", sigma))
        # oracle: closed-form half mass of the symmetric kernel
        assert c == pytest.approx(0.5, abs=1e-3)

    def test_decreasing_as_mass_escapes(self):
        net = triangle_network()  # total length 3
        lat = discretize(net, 0.05)
        dense = discretize(net, 0.05 / 8)
        u = NetworkLocation(0, 0.5)
        prev = 1.0 + 1e-9
        for sigma in (0.5, 1.0, 2.0, 4.0):
            k = Kernel1D("gaussian", sigma)
            c = node_correction(lat, u, k)
            c_dense = node_correction(dense, u, k)
            assert c <= 1.0 + 1e-6
            assert c < prev
            assert c == pytest.approx(c_dense, rel=5e-3)
            prev = c


class TestCorrectedEstimators:
    def test_single_point_mid_segment_value(self):
        sigma = 0.1
        net = segment_network(100 * sigma)
        lat = discretize(net, sigma / 4)
        k = Kernel1D("gaussian", sigma)
        pat = pattern_of(net, [NetworkLocation(0, 5.0)])
        est = estimate_uniform_corrected(pat, lat, k)
        # c is ~1 so the peak is the kernel peak
        assert est.values_at(0, 5.0) == pytest.approx(k(0.0), rel=1e-3)
        # zero beyond the support
        assert est.values_at(0, 9.0) == 0.0

    def test_uniform_does_not_preserve_mass(self):
        net = segment_network(2.0)
        lat = discretize(net, 0.02)
        k = Kernel1D("gaussian", 0.3)
        # points piled near a terminus: correction inflates nearby values
        pat = pattern_of(net, [NetworkLocation(0, o) for o in (0.05, 0.1, 0.2)])
        est = estimate_uniform_corrected(pat, lat, k)
        assert abs(est.integral() - 3.0) > 0.05

    def test_jones_diggle_preserves_mass(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            net = triangle_network()
            lat = discretize(net, 0.05)
            pts = [
                NetworkLocation(int(rng.integers(3)), float(rng.random()))
                for _ in range(6)
            ]
            est = estimate_jones_diggle(pattern_of(net, pts), lat, Kernel1D("gaussian", 0.4))
            assert est.integral() == pytest.approx(6.0, rel=1e-3)

    def test_jd_equals_uniform_far_from_vertices(self):
        # data point exactly on a lattice node in the translation-invariant
        # middle of a long segment: corrections coincide bitwise
        sigma = 0.25
        net = segment_network(16.0)
        lat = discretize(net, 1 / 16)
        k = Kernel1D("gaussian", sigma)
        pat = pattern_of(net, [NetworkLocation(0, 8.0)])
        u = estimate_uniform_corrected(pat, lat, k)
        jd = estimate_jones_diggle(pat, lat, k)
        m = u.values > 0
        assert np.allclose(jd.values[m], u.values[m], rtol=1e-9)

    def test_jd_doubles_at_terminus(self):
        sigma = 0.1
        net = segment_network(100 * sigma)
        lat = discretize(net, sigma / 4)
        k = Kernel1D("gaussian", sigma)
        pat = pattern_of(net, [NetworkLocation(0, 0.0)])
        est = estimate_jones_diggle(pat, lat, k)
        assert est.values[0] == pytest.approx(2 * k(0.0), rel=2e-3)

    def test_empty_pattern_rejected(self):
        # zero events give the zero estimate, as the heat estimator does
        net = segment_network()
        lat = discretize(net, 0.25)
        empty = pattern_of(net, [])
        for est in (estimate_uniform_corrected, estimate_jones_diggle,
                    equal_split_discontinuous, equal_split_continuous):
            f = est(empty, lat, Kernel1D("quartic", 0.2))
            assert_same(f.values, np.zeros(lat.n_nodes))
            assert f.integral() == 0.0

    def test_precomputed_correction_matches(self):
        net = triangle_network()
        lat = discretize(net, 0.1)
        k = Kernel1D("gaussian", 0.3)
        pat = pattern_of(net, [NetworkLocation(0, 0.4), NetworkLocation(2, 0.7)])
        pre = precompute_edge_correction(lat, k)
        a = estimate_uniform_corrected(pat, lat, k)
        b = estimate_uniform_corrected(pat, lat, k, edge_correction_values=pre)
        assert np.array_equal(a.values, b.values)

    def test_linearity_appending_one_point(self):
        net = triangle_network()
        lat = discretize(net, 0.1)
        k = Kernel1D("epanechnikov", 0.5)
        xs = [NetworkLocation(0, 0.2), NetworkLocation(1, 0.6)]
        y = NetworkLocation(2, 0.8)  # sorts after every x
        for est in (estimate_jones_diggle, equal_split_discontinuous, equal_split_continuous):
            fx = est(pattern_of(net, xs), lat, k)
            fy = est(pattern_of(net, [y]), lat, k)
            fxy = est(pattern_of(net, xs + [y]), lat, k)
            assert np.array_equal(fxy.values, fx.values + fy.values)

    def test_permutation_invariance(self):
        net = triangle_network()
        lat = discretize(net, 0.1)
        k = Kernel1D("gaussian", 0.4)
        pts = [NetworkLocation(0, 0.2), NetworkLocation(1, 0.6), NetworkLocation(2, 0.1)]
        a = estimate_jones_diggle(pattern_of(net, pts), lat, k)
        b = estimate_jones_diggle(pattern_of(net, pts[::-1]), lat, k)
        assert np.array_equal(a.values, b.values)


def batched_cases(count, seed):
    """(lattice, pattern, kernel) on random lattices plus one jittered grid.

    Points are uniform by length plus chain nodes, edge ends and offsets one
    ulp below an edge's end; every lattice gets a gaussian and a bounded kernel.
    """
    rng = np.random.default_rng(seed)
    lattices = [lat for lat, _ in random_lattices(seed, count)]
    lattices.append(discretize(grid_network(6, 6, keep=0.85, jitter=0.2, rng=rng), 0.1))
    for lat in lattices:
        net = lat.network
        special = special_locations(lat, rng)
        picks = rng.choice(len(special), size=min(8, len(special)), replace=False)
        pts = random_locations(net, 12, rng) + [special[i] for i in picks]
        scale = float(net.edge_lengths.mean())
        for kernel in (Kernel1D("gaussian", 0.3 * scale), Kernel1D("quartic", 1.2 * scale)):
            yield lat, pattern_of(net, pts), kernel


def all_estimates(pattern, lattice, kernel):
    return {
        "kernel_sum": _kernel_sum(pattern, lattice, kernel),
        "uniform": estimate_uniform_corrected(pattern, lattice, kernel).values,
        "jones_diggle": estimate_jones_diggle(pattern, lattice, kernel).values,
        "precomputed": precompute_edge_correction(lattice, kernel).values,
    }


class TestBatchedMatchesLoop:
    """The block-batched estimators against the per-source loops they replaced."""

    def test_kernel_sum_is_exact(self):
        for lat, pat, k in batched_cases(25, 51):
            assert_same(_kernel_sum(pat, lat, k), loop_kernel_sum(pat, lat, k))

    def test_corrected_estimators_within_1e_12(self):
        # correction sources are exact nodes where the loop bracketed
        # h * j / h, and row sums replace dot products
        for lat, pat, k in batched_cases(25, 52):
            got = all_estimates(pat, lat, k)
            want = {
                "uniform": loop_uniform_corrected(pat, lat, k),
                "jones_diggle": loop_jones_diggle(pat, lat, k),
                "precomputed": loop_precompute_edge_correction(lat, k),
            }
            for name, w in want.items():
                np.testing.assert_allclose(got[name], w, rtol=1e-12, atol=0, err_msg=name)

    @pytest.mark.parametrize("per_block", [1, 3])
    def test_blocks_match_one_block(self, monkeypatch, per_block):
        # 1 solves every source alone; 3 leaves the 7-point pattern a
        # partial last block
        for lat, pat, k in batched_cases(5, 53):
            pat = pat.subset(np.arange(7))
            monkeypatch.setattr(network, "BLOCK_PAIRS", 2**62)
            whole = all_estimates(pat, lat, k)
            monkeypatch.setattr(network, "BLOCK_PAIRS", per_block * lat.n_nodes)
            blocks = lat._distances(pat.edge, pat.offset, k.support)
            sizes = [len(np.unique(rows)) for rows, _, _ in blocks]  # sources per block
            assert sizes == [per_block] * (7 // per_block) + [1] * (7 % per_block)
            for name, values in all_estimates(pat, lat, k).items():
                assert_same(values, whole[name])


class TestPairBudget:
    """``MAX_PAIRS`` bounds the (source, node) pairs of every distance pass."""

    @staticmethod
    def pairs(lattice, kernel, edge, offset):
        return sum(len(row) for row, _, _ in kernels._kernel_terms(lattice, kernel, edge, offset))

    def test_bound_is_never_below_the_pairs(self, monkeypatch):
        # a budget one below a pass's pairs is refused: the planar bound is
        # an upper bound, for the points, the covered nodes and every node;
        # on a straight chain the support reaches edges whose boxes the
        # source edge's box does not meet
        chain = build_network([(float(x), 0.0) for x in range(11)], [(i, i + 1) for i in range(10)])
        cases = list(batched_cases(10, 54)) + [
            (discretize(chain, 0.1), pattern_of(chain, [NetworkLocation(4, 0.5)]),
             Kernel1D("epanechnikov", 4.5))]
        for lat, pat, k in cases:
            o = pat.order
            points = self.pairs(lat, k, pat.edge[o], pat.offset[o])
            covered = np.flatnonzero(_kernel_sum(pat, lat, k) > 0)
            nodes = np.arange(lat.n_nodes)
            corrections, every = (
                self.pairs(lat, k, *lat._node_locations(x))
                for x in (covered, nodes))
            for budget, run in (
                (points, lambda: estimate_jones_diggle(pat, lat, k)),
                (max(points, corrections), lambda: estimate_uniform_corrected(pat, lat, k)),
                (every, lambda: precompute_edge_correction(lat, k)),
            ):
                monkeypatch.setattr(kernels, "MAX_PAIRS", budget - 1)
                with pytest.raises(PairBudgetExceeded):
                    run()

    def test_refused_before_any_distance_pass(self, monkeypatch):
        net = grid_network(3, 3)
        lat = discretize(net, 0.05)
        k = Kernel1D("gaussian", 1.0)  # its support spans the network
        pat = pattern_of(net, [NetworkLocation(0, 0.5), NetworkLocation(7, 0.5)])
        real = Lattice._distances

        def no_pass(*args):
            raise AssertionError("a distance pass ran before the budget check")

        monkeypatch.setattr(Lattice, "_distances", no_pass)
        # every point may reach every node, but not every node every node
        monkeypatch.setattr(kernels, "MAX_PAIRS", pat.n * lat.n_nodes)
        for run in (estimate_uniform_corrected, lambda p, lat, k: precompute_edge_correction(lat, k)):
            with pytest.raises(PairBudgetExceeded, match="; raise --dx or lower --bw$") as exc:
                run(pat, lat, k)
            assert exc.value.exit_code == 3
        monkeypatch.setattr(Lattice, "_distances", real)
        estimate_jones_diggle(pat, lat, k)


class TestPrecomputedCorrectionLattice:
    @pytest.mark.parametrize("dx", [0.25, 0.05], ids=["coarser", "finer"])
    def test_other_lattice_rejected(self, dx):
        net = grid_network(3, 3)
        lat = discretize(net, 0.1)
        k = Kernel1D("gaussian", 0.3)
        pat = pattern_of(net, [NetworkLocation(0, 0.4), NetworkLocation(5, 0.7)])
        other = precompute_edge_correction(discretize(net, dx), k)
        with pytest.raises(LatticeMismatch):
            estimate_uniform_corrected(pat, lat, k, edge_correction_values=other)

    def test_compatible_lattice_accepted(self):
        net = grid_network(3, 3)
        k = Kernel1D("gaussian", 0.3)
        pat = pattern_of(net, [NetworkLocation(0, 0.4), NetworkLocation(5, 0.7)])
        pre = precompute_edge_correction(discretize(net, 0.1), k)
        lat = discretize(net, 0.1)
        got = estimate_uniform_corrected(pat, lat, k, edge_correction_values=pre)
        assert_same(got.values, estimate_uniform_corrected(pat, lat, k).values)


class TestEqualSplit:
    def test_gaussian_rejected(self):
        net = y_network()
        lat = discretize(net, 0.1)
        pat = pattern_of(net, [NetworkLocation(0, 0.5)])
        with pytest.raises(UnboundedKernel):
            equal_split_discontinuous(pat, lat, Kernel1D("gaussian", 0.1))

    def test_same_edge_no_vertex_between(self):
        net = segment_network(4.0)
        lat = discretize(net, 0.125)
        k = Kernel1D("epanechnikov", 0.9)
        pat = pattern_of(net, [NetworkLocation(0, 2.0)])
        for est in (equal_split_discontinuous, equal_split_continuous):
            f = est(pat, lat, k)
            d = np.abs(0.125 * np.arange(33) - 2.0)
            want = k(d)
            assert np.allclose(f.values[lat.edge_chains[0]], want, rtol=0, atol=1e-12)

    def test_y_closed_forms(self):
        net = y_network(branch=1.0)
        lat = discretize(net, 0.1)
        k = Kernel1D("epanechnikov", 0.9)
        a, b = 0.3, 0.4
        src = NetworkLocation(0, a)  # edges run center -> leaf
        pat = pattern_of(net, [src])
        target_node = lat.edge_chains[1][4]  # offset 0.4 on branch 1
        assert lat.node_location(int(target_node)).offset == pytest.approx(b, abs=1e-12)

        kd = equal_split_discontinuous(pat, lat, k)
        kc = equal_split_continuous(pat, lat, k)
        assert kd.values[target_node] == pytest.approx(k(a + b) / 2.0, abs=1e-12)
        assert kc.values[target_node] == pytest.approx(k(a + b) * (2.0 / 3.0), abs=1e-12)

    def test_matches_breadth_first_enumeration(self):
        # includes a loop (triangle) so reflections and cycles are exercised
        rng = np.random.default_rng(37)
        for net in (y_network(), triangle_network()):
            lat = discretize(net, 0.125)
            k = Kernel1D("quartic", 1.1)
            src = NetworkLocation(0, 0.625)
            pat = pattern_of(net, [src])
            kd = equal_split_discontinuous(pat, lat, k)
            kc = equal_split_continuous(pat, lat, k)
            for _ in range(12):
                i = int(rng.integers(lat.n_nodes))
                loc = lat.node_location(i)
                want_d = enumerate_equal_split(net, src, loc, k, continuous=False)
                want_c = enumerate_equal_split(net, src, loc, k, continuous=True)
                assert kd.values[i] == pytest.approx(want_d, rel=1e-10, abs=1e-12)
                assert kc.values[i] == pytest.approx(want_c, rel=1e-10, abs=1e-12)

    def test_tree_mass_conserved_when_support_interior(self):
        # the discontinuous rule needs fine cells: the junction node's cell
        # straddles branches whose one-sided values differ, an O(dx) bias
        net = y_network(branch=3.0)
        lat = discretize(net, 0.002)
        k = Kernel1D("epanechnikov", 0.8)
        pat = pattern_of(net, [NetworkLocation(0, 0.5)])
        kd = equal_split_discontinuous(pat, lat, k)
        kc = equal_split_continuous(pat, lat, k)
        assert kd.integral() == pytest.approx(1.0, rel=1e-3)
        assert kc.integral() == pytest.approx(1.0, rel=1e-3)

    def test_continuous_mass_survives_reflection(self):
        # support reaches a terminal leaf: the continuous rule reflects
        net = y_network(branch=1.0)
        lat = discretize(net, 0.01)
        k = Kernel1D("epanechnikov", 0.7)
        pat = pattern_of(net, [NetworkLocation(0, 0.6)])  # 0.4 from the leaf
        kc = equal_split_continuous(pat, lat, k)
        assert kc.integral() == pytest.approx(1.0, rel=1e-3)
        kd = equal_split_discontinuous(pat, lat, k)
        assert kd.integral() < 1.0 - 1e-3  # tail beyond the leaf is dropped

    def test_continuous_nonnegative(self):
        net = y_network()
        lat = discretize(net, 0.05)
        k = Kernel1D("epanechnikov", 1.4)
        pat = pattern_of(net, [NetworkLocation(0, 0.5)])
        kc = equal_split_continuous(pat, lat, k)
        assert kc.values.min() >= -1e-15

    def test_vertex_continuity_under_refinement(self):
        net = y_network(branch=2.0)
        k = Kernel1D("quartic", 1.2)
        pat = lambda n: pattern_of(n, [NetworkLocation(0, 0.5)])

        def branch_limits(lat, f):
            # quadratic extrapolation of each incident chain onto the vertex
            lims = []
            for e in range(3):
                chain = lat.edge_chains[e]
                f1, f2, f3 = f.values[chain[1]], f.values[chain[2]], f.values[chain[3]]
                lims.append(3 * f1 - 3 * f2 + f3)
            return np.array(lims)

        spreads = []
        for dx in (0.016, 0.004):  # 4x refinement
            lat = discretize(net, dx)
            kc = equal_split_continuous(pat(net), lat, k)
            lims = branch_limits(lat, kc)
            spreads.append(float(lims.max() - lims.min()))
        assert spreads[1] <= 1e-6
        assert spreads[1] <= spreads[0] + 1e-12
        # contrast: the discontinuous rule really does jump at the vertex
        lat = discretize(net, 0.005)
        kdl = branch_limits(lat, equal_split_discontinuous(pat(net), lat, k))
        assert kdl.max() - kdl.min() > 1e-3

    def test_path_explosion(self, monkeypatch):
        net = triangle_network()
        lat = discretize(net, 0.1)
        k = Kernel1D("epanechnikov", 20.0)
        pat = pattern_of(net, [NetworkLocation(0, 0.5)])
        monkeypatch.setattr(kernels, "MAX_WALKS", 10)
        with pytest.raises(PathExplosion, match=r"more than 10 edge walks; lower the bandwidth \(--bw\)$"):
            equal_split_continuous(pat, lat, k)

    def test_mass_convergence_order(self):
        # node-cell quadrature error of the integrals shrinks ~ dx^2; the
        # source sits on a node at every level so the kernel kinks stay
        # aligned and the error constant is stable
        net = y_network(branch=3.0)
        k = Kernel1D("epanechnikov", 0.8)
        pat = pattern_of(net, [NetworkLocation(0, 0.5)])
        errs = []
        uni = []
        for dx in (0.1, 0.05, 0.025):
            lat = discretize(net, dx)
            errs.append(abs(equal_split_continuous(pat, lat, k).integral() - 1.0))
            uni.append(estimate_uniform_corrected(pat, lat, k).integral())
        order = math.log2(errs[0] / errs[2]) / 2
        assert order >= 1.8
        # no exact limit for the uniform integral: Richardson between levels
        order_u = math.log2(abs(uni[0] - uni[1]) / abs(uni[1] - uni[2]))
        assert order_u >= 1.8


def assert_close_to_max(got, want):
    """Max-norm relative agreement to 1e-12: the rounds add a node's terms in
    another order than the recursive walk, and the continuous rule's negative
    reflections make single entries cancel."""
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def equal_split_cases(seed, count):
    """(lattice, pattern of every special location, kernel) on random lattices,
    an epanechnikov kernel within about an edge and a quartic over several."""
    for lat, rng in random_lattices(seed, count):
        net = lat.network
        pat = pattern_of(net, special_locations(lat, rng))
        scale = float(net.edge_lengths.mean())
        for kernel in (Kernel1D("epanechnikov", 0.6 * scale), Kernel1D("quartic", 1.7 * scale)):
            yield lat, pat, kernel


ESTIMATORS = {False: equal_split_discontinuous, True: equal_split_continuous}


class TestEqualSplitRounds:
    """The round-based equal-split walk against the recursive per-point walk."""

    @pytest.mark.parametrize("continuous", [False, True], ids=["esd", "esc"])
    def test_matches_recursive_walk_within_1e_12(self, continuous):
        for lat, pat, k in equal_split_cases(61, 30):
            want, _ = recursive_equal_split(pat, lat, k, continuous)
            assert_close_to_max(ESTIMATORS[continuous](pat, lat, k).values, want)

    @pytest.mark.parametrize("offset", [0.45, float(np.nextafter(0.9, 0.0))], ids=["mid", "ulp"])
    def test_head_vertex_deposited_once(self, offset):
        # 0.3 * 3 falls one ulp short of 0.9: the head is no interior node
        net = segment_network(0.9)
        lat = discretize(net, 0.3)
        k = Kernel1D("epanechnikov", 0.9)
        src = NetworkLocation(0, offset)
        pat = pattern_of(net, [src])
        for continuous, est in ESTIMATORS.items():
            f = est(pat, lat, k).values
            for i in range(lat.n_nodes):
                want = enumerate_equal_split(net, src, lat.node_location(i), k, continuous)
                assert f[i] == pytest.approx(want, rel=1e-12, abs=0)
        if offset == 0.45:
            assert list(equal_split_discontinuous(pat, lat, k).values[:2]) == [0.625, 0.625]
            assert list(equal_split_continuous(pat, lat, k).values[:2]) == [1.25, 1.25]

    def test_permuted_input_is_bit_identical(self):
        rng = np.random.default_rng(62)
        for lat, pat, k in equal_split_cases(62, 6):
            shuffled = pat.subset(rng.permutation(pat.n))
            for est in ESTIMATORS.values():
                assert_same(est(shuffled, lat, k).values, est(pat, lat, k).values)

    @pytest.mark.parametrize("continuous", [False, True], ids=["esd", "esc"])
    def test_budget_is_per_point(self, monkeypatch, continuous):
        net = grid_network(3, 3)
        lat = discretize(net, 0.1)
        k = Kernel1D("epanechnikov", 3.5)
        pat = pattern_of(net, [NetworkLocation(0, 0.5)])
        _, walks = recursive_equal_split(pat, lat, k, continuous)
        w = int(walks[0])  # 21 (esd) and 37 (esc)
        assert w > 20
        est = ESTIMATORS[continuous]
        monkeypatch.setattr(kernels, "MAX_WALKS", w)
        est(pat, lat, k)
        est(pat.subset([0, 0]), lat, k)
        monkeypatch.setattr(kernels, "MAX_WALKS", w - 1)
        with pytest.raises(PathExplosion):
            est(pat, lat, k)

    @pytest.mark.parametrize("pairs", [1, 40])
    def test_chunks_match_one_chunk(self, monkeypatch, pairs):
        # 1 starts one point and walks one arrival at a time
        cases = list(equal_split_cases(63, 4))
        whole = [[est(pat, lat, k).values for est in ESTIMATORS.values()] for lat, pat, k in cases]
        spans, sizes = kernels._spans, []

        def recorded(cost):
            out = spans(cost)
            sizes.extend(b - a for a, b in out)
            return out

        monkeypatch.setattr(kernels, "_spans", recorded)
        monkeypatch.setattr(network, "BLOCK_PAIRS", pairs)
        for (lat, pat, k), want in zip(cases, whole):
            for est, w in zip(ESTIMATORS.values(), want):
                assert_close_to_max(est(pat, lat, k).values, w)
        assert max(sizes) == 1 if pairs == 1 else max(sizes) > 1
