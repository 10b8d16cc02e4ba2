import numpy as np
import pytest

from lineheat.errors import StabilityViolation
from lineheat.heat import (
    HeatConfig,
    default_dx,
    deposit_initial_mass,
    estimate_heat,
    estimate_heat_batch,
    heat_solve,
    heat_step,
    step_size,
)
from lineheat.lattice import LatticeFunction, discretize
from lineheat.network import NetworkLocation, PointPattern

from nets import (
    assert_same,
    images_series,
    random_lattices,
    random_network,
    random_pattern,
    reference_deposit,
    reference_lattice,
    segment_network,
    special_locations,
    y_network,
)


class TestDeposit:
    def test_point_on_node(self):
        lat = discretize(segment_network(1.0), 0.25)
        f = deposit_initial_mass(PointPattern(lat.network, [NetworkLocation(0, 0.5)]), lat)
        node = lat.edge_chains[0][2]
        w = lat.node_weight[node]
        assert f.values[node] == 1.0 / w
        assert np.count_nonzero(f.values) == 1

    def test_point_between_nodes_splits(self):
        lat = discretize(segment_network(1.0), 0.25)
        f = deposit_initial_mass(PointPattern(lat.network, [NetworkLocation(0, 0.375)]), lat)
        c = lat.edge_chains[0]
        assert f.values[c[1]] == pytest.approx(0.5 / lat.node_weight[c[1]], rel=1e-15)
        assert f.values[c[2]] == pytest.approx(0.5 / lat.node_weight[c[2]], rel=1e-15)

    def test_mass_equals_count(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            net = random_network(rng)
            lat = discretize(net, 0.3)
            pat = random_pattern(net, int(rng.integers(1, 40)), rng)
            f = deposit_initial_mass(pat, lat)
            assert f.integral() == pytest.approx(pat.n, rel=1e-12)

    def test_matches_point_loop_and_ignores_order(self):
        # ends, chain nodes and link interiors, against the per-point loop
        for lat, rng in random_lattices(47):
            locs = special_locations(lat, rng)
            pat = PointPattern(lat.network, locs)
            got = deposit_initial_mass(pat, lat).values
            ref = reference_lattice(lat.network, lat.dx_target)
            assert_same(got, reference_deposit(ref, lat.network, locs))
            shuffled = pat.subset(rng.permutation(pat.n))
            assert_same(deposit_initial_mass(shuffled, lat).values, got)


class TestHeatStep:
    def test_constant_unchanged_exactly(self):
        net = y_network()
        lat = discretize(net, 0.1)
        f = LatticeFunction(lat, np.full(lat.n_nodes, 3.25))
        g = heat_step(f)
        assert np.array_equal(f.values, g.values)

    def test_mass_invariant_over_many_steps(self):
        net = y_network()
        lat = discretize(net, 0.1)
        f = deposit_initial_mass(PointPattern(lat.network, [NetworkLocation(0, 0.45), NetworkLocation(1, 0.8)]), lat)
        m0 = f.integral()
        running_min = 0.0
        for _ in range(10_000):
            f = heat_step(f)
            running_min = min(running_min, float(f.values.min()))
        assert f.integral() == pytest.approx(m0, rel=1e-12)
        assert running_min >= -1e-15

    def test_symmetric_initial_stays_symmetric(self):
        lat = discretize(segment_network(1.0), 1 / 64)
        chain = lat.edge_chains[0]
        vals = np.zeros(lat.n_nodes)
        bump = np.exp(-(((np.arange(65) - 32) / 8.0) ** 2))
        vals[chain] = bump
        f = LatticeFunction(lat, vals)
        for _ in range(50):
            f = heat_step(f)
        v = f.values[chain]
        assert np.array_equal(v, v[::-1])

    def test_stability_violation(self):
        lat = discretize(segment_network(1.0), 0.25)
        f = LatticeFunction(lat, np.zeros(lat.n_nodes))
        with pytest.raises(StabilityViolation):
            heat_step(f, dt=1.0)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_time_and_bandwidth_rejected(self, bad):
        lat = discretize(segment_network(1.0), 0.25)
        pat = PointPattern(lat.network, [NetworkLocation(0, 0.5)])
        with pytest.raises(ValueError, match="finite"):
            heat_solve(deposit_initial_mass(pat, lat), bad)
        with pytest.raises(ValueError, match="finite"):
            estimate_heat(pat, lat, bad)

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            HeatConfig(alpha=1.5)


class TestHeatSolve:
    def test_t_zero_returns_copy(self):
        lat = discretize(segment_network(1.0), 0.25)
        f = deposit_initial_mass(PointPattern(lat.network, [NetworkLocation(0, 0.5)]), lat)
        g = heat_solve(f, 0.0)
        assert np.array_equal(f.values, g.values)
        assert g is not f

    def test_images_oracle_mid_segment(self):
        # unit mass at 0.5, t = 0.01 on [0, 1] with dx = 1/512
        lat = discretize(segment_network(1.0), 1 / 512)
        f = deposit_initial_mass(PointPattern(lat.network, [NetworkLocation(0, 0.5)]), lat)
        g = heat_solve(f, 0.01)
        chain = lat.edge_chains[0]
        x = np.arange(513) / 512
        want = images_series(x, 0.5, 0.01)
        err = np.abs(g.values[chain] - want).max() / want.max()
        assert err <= 1e-3

    def test_long_time_uniform(self):
        lat = discretize(segment_network(1.0), 1 / 8)
        f = deposit_initial_mass(PointPattern(lat.network, [NetworkLocation(0, 0.3)]), lat)
        g = heat_solve(f, 100.0)
        assert np.allclose(g.values, 1.0, atol=1e-6)

    def test_spatial_convergence(self):
        # halving dx cuts the images-oracle sup error by >= 3x
        errs = []
        for m in (128, 256):
            lat = discretize(segment_network(1.0), 1 / m)
            f = deposit_initial_mass(PointPattern(lat.network, [NetworkLocation(0, 0.5)]), lat)
            g = heat_solve(f, 0.01)
            chain = lat.edge_chains[0]
            x = np.arange(m + 1) / m
            want = images_series(x, 0.5, 0.01)
            errs.append(np.abs(g.values[chain] - want).max() / want.max())
        assert errs[0] / errs[1] >= 3.0

    def test_relabeling_symmetry(self):
        # same geometry entered with permuted vertex/edge ids
        from lineheat.network import build_network

        net1 = build_network(
            [(0, 0), (1, 0), (2, 0), (1, 1)], [(0, 1), (1, 2), (1, 3)]
        )
        net2 = build_network(
            [(1, 1), (2, 0), (1, 0), (0, 0)], [(2, 1), (3, 2), (2, 0)]
        )
        lat1 = discretize(net1, 0.1)
        lat2 = discretize(net2, 0.1)
        # the same physical point: 0.3 along the (1,0)-(2,0) edge
        f1 = estimate_heat(PointPattern(net1, [NetworkLocation(1, 0.3)]), lat1, 0.4)
        f2 = estimate_heat(PointPattern(net2, [NetworkLocation(0, 0.3)]), lat2, 0.4)
        # compare at shared physical positions
        for off in (0.0, 0.25, 0.55, 0.95):
            a = f1.value_at(NetworkLocation(0, off))
            b = f2.value_at(NetworkLocation(1, off))
            assert a == pytest.approx(b, rel=1e-12, abs=1e-15)


class TestEstimateHeat:
    def test_mass_equals_n(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            net = random_network(rng)
            lat = discretize(net, default_dx(net, 0.3))
            pat = random_pattern(net, 25, rng)
            est = estimate_heat(pat, lat, 0.3)
            assert est.integral() == pytest.approx(25.0, rel=1e-9)

    def test_no_mass_leaks_across_components(self):
        # diffusion stays within the component that holds the mass
        from nets import two_disjoint_segments

        net = two_disjoint_segments()
        lat = discretize(net, 0.1)
        pat = PointPattern(net, [NetworkLocation(0, 0.5)])
        est = estimate_heat(pat, lat, 2.0)  # long time: uniform on component 0
        other = [
            i for i in range(lat.n_nodes)
            if net.vertex_component[net.edge_vertices[lat.node_location(i).edge][0]] == 1
        ]
        assert np.all(est.values[other] == 0.0)
        assert est.integral() == pytest.approx(1.0, rel=1e-12)

    def test_profile_matches_gaussian(self):
        # far from vertices the heat kernel is the plain gaussian
        sigma = 0.05
        lat = discretize(segment_network(1.0), 1 / 512)
        pat = PointPattern(lat.network, [NetworkLocation(0, 0.5)])
        est = estimate_heat(pat, lat, sigma)
        chain = lat.edge_chains[0]
        x = np.arange(513) / 512
        want = images_series(x, 0.5, sigma**2)
        err = np.abs(est.values[chain] - want).max() / want.max()
        assert err <= 1e-3

    def test_doubling_pattern_doubles_estimate(self):
        lat = discretize(segment_network(1.0), 1 / 64)
        pts = [NetworkLocation(0, 0.3), NetworkLocation(0, 0.6)]
        one = estimate_heat(PointPattern(lat.network, pts), lat, 0.1)
        two = estimate_heat(PointPattern(lat.network, pts + pts), lat, 0.1)
        assert np.allclose(two.values, 2 * one.values, rtol=1e-12, atol=1e-15)


class TestHeatBatch:
    def test_single_subset_matches_estimate_heat(self):
        net = y_network()
        lat = discretize(net, 0.05)
        pat = PointPattern(net, [NetworkLocation(0, 0.4), NetworkLocation(2, 0.7)])
        a = estimate_heat_batch(pat, lat, [0.21, 0.21])
        b = estimate_heat(pat, lat, 0.21)
        assert np.array_equal(a.values, b.values)

    def test_two_subsets_same_sigma_match_union(self):
        # equal bandwidths are grouped even when their points are not adjacent
        net = y_network()
        lat = discretize(net, 0.05)
        p1, q, p2 = NetworkLocation(0, 0.4), NetworkLocation(2, 0.2), NetworkLocation(1, 0.7)
        a = estimate_heat_batch(PointPattern(net, [p1, q, p2]), lat, [0.17, 0.3, 0.17])
        b = (
            estimate_heat(PointPattern(net, [p1, p2]), lat, 0.17).values
            + estimate_heat(PointPattern(net, [q]), lat, 0.3).values
        )
        assert np.allclose(a.values, b, rtol=1e-12, atol=1e-15)

    def test_incremental_matches_naive_three_bins(self):
        rng = np.random.default_rng(11)
        net = random_network(rng)
        lat = discretize(net, 0.2)
        pts, bws = [], []
        naive = np.zeros(lat.n_nodes)
        for sigma in (0.13, 0.24, 0.55):
            sub = random_pattern(net, 4, rng)
            pts += list(sub)
            bws += [sigma] * sub.n
            naive += estimate_heat(sub, lat, sigma).values
        batch = estimate_heat_batch(PointPattern(net, pts), lat, bws)
        scale = naive.max()
        assert np.abs(batch.values - naive).max() <= 1e-9 * scale
        assert batch.integral() == pytest.approx(12.0, rel=1e-9)

    def test_empty_pattern_gives_zero(self):
        lat = discretize(y_network(), 0.1)
        est = estimate_heat_batch(PointPattern(lat.network, []), lat, [])
        assert np.array_equal(est.values, np.zeros(lat.n_nodes))

    @pytest.mark.parametrize("bandwidths", [[0.2], [0.2, 0.3, 0.4]])
    def test_wrong_length_rejected(self, bandwidths):
        net = y_network()
        lat = discretize(net, 0.1)
        pat = PointPattern(net, [NetworkLocation(0, 0.2), NetworkLocation(1, 0.2)])
        with pytest.raises(ValueError, match="one bandwidth per point"):
            estimate_heat_batch(pat, lat, bandwidths)

    @pytest.mark.parametrize("bad", [0.0, -0.1, float("nan"), float("inf")])
    def test_nonpositive_bandwidth_rejected(self, bad):
        net = y_network()
        lat = discretize(net, 0.1)
        pat = PointPattern(net, [NetworkLocation(0, 0.2), NetworkLocation(1, 0.2)])
        with pytest.raises(ValueError, match="positive"):
            estimate_heat_batch(pat, lat, [0.2, bad])


class TestDefaultDx:
    def test_rule(self):
        net = y_network()
        assert default_dx(net, 0.3) == pytest.approx(0.1)
        assert default_dx(net, 9.0) == pytest.approx(1.0)  # shortest edge wins

    def test_step_size(self):
        lat = discretize(segment_network(1.0), 0.25)
        assert step_size(lat) == pytest.approx(0.9 * 0.25**2)
