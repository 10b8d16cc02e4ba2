import math

import numpy as np
import pytest

from lineheat import heat
from lineheat.errors import StepBudgetExceeded
from lineheat.heat import (
    BETA,
    DEFAULT_CONFIG,
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
from lineheat.network import NetworkLocation, build_network

from nets import (
    add_spurs,
    assert_same,
    chain_links,
    contract,
    dense_heat_batch,
    dense_heat_solve,
    edge_chains,
    edge_integrals,
    grid_network,
    images_series,
    pattern_of,
    random_lattices,
    random_locations,
    random_network,
    random_pattern,
    random_spur_network,
    reference_clusters,
    reference_deposit,
    reference_lattice,
    reference_step,
    relative_l1,
    remainder_inject,
    segment_network,
    special_locations,
    split_edge,
    stub_network,
    uncontracted,
    y_network,
)


class TestDeposit:
    def test_point_on_node(self):
        lat = discretize(segment_network(1.0), 0.25)
        f = deposit_initial_mass(pattern_of(lat.network, [NetworkLocation(0, 0.5)]), lat)
        node = edge_chains(lat)[0][2]
        w = lat.node_weight[node]
        assert f.values[node] == 1.0 / w
        assert np.count_nonzero(f.values) == 1

    def test_point_between_nodes_splits(self):
        lat = discretize(segment_network(1.0), 0.25)
        f = deposit_initial_mass(pattern_of(lat.network, [NetworkLocation(0, 0.375)]), lat)
        c = edge_chains(lat)[0]
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
            pat = pattern_of(lat.network, locs)
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
        f = deposit_initial_mass(pattern_of(lat.network, [NetworkLocation(0, 0.45), NetworkLocation(1, 0.8)]), lat)
        m0 = f.integral()
        running_min = 0.0
        for _ in range(10_000):
            f = heat_step(f)
            running_min = min(running_min, float(f.values.min()))
        assert f.integral() == pytest.approx(m0, rel=1e-12)
        assert running_min >= -1e-15

    def test_symmetric_initial_stays_symmetric(self):
        lat = discretize(segment_network(1.0), 1 / 64)
        chain = edge_chains(lat)[0]
        vals = np.zeros(lat.n_nodes)
        bump = np.exp(-(((np.arange(65) - 32) / 8.0) ** 2))
        vals[chain] = bump
        f = LatticeFunction(lat, vals)
        for _ in range(50):
            f = heat_step(f)
        v = f.values[chain]
        assert np.array_equal(v, v[::-1])

    def test_matches_reference_expression(self):
        for lat, rng in random_lattices(21, count=20):
            values = rng.random(lat.n_nodes) * 10.0 ** rng.integers(-3, 4, lat.n_nodes)
            before = values.copy()
            got = heat_step(LatticeFunction(lat, values)).values
            g = lat._solver
            want = reference_step(contract(before * lat.node_weight, lat), g, step_size(lat), BETA)
            assert_same(got, want[g.cluster])
            assert_same(values, before)  # the step leaves its input alone

    def test_short_step_is_the_blend_of_none_and_a_full_one(self):
        # S(theta dt) = (1 - theta) I + theta S(dt): the premise of the two-step join
        for lat, rng in random_lattices(19):
            v = rng.random(lat.n_nodes) * 10.0 ** rng.integers(-3, 4, lat.n_nodes)
            dt, g = step_size(lat), uncontracted(lat)._solver
            full = heat._step_values(v, g, dt)
            for theta in rng.random(5):
                blend = (1.0 - theta) * v + theta * full
                assert np.abs(heat._step_values(v, g, theta * dt) - blend).max() <= 2e-15 * v.max()

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_time_and_bandwidth_rejected(self, bad):
        lat = discretize(segment_network(1.0), 0.25)
        pat = pattern_of(lat.network, [NetworkLocation(0, 0.5)])
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
        f = deposit_initial_mass(pattern_of(lat.network, [NetworkLocation(0, 0.5)]), lat)
        g = heat_solve(f, 0.0)
        assert np.array_equal(f.values, g.values)
        assert g is not f

    def test_images_oracle_mid_segment(self):
        # unit mass at 0.5, t = 0.01 on [0, 1] with dx = 1/512
        lat = discretize(segment_network(1.0), 1 / 512)
        f = deposit_initial_mass(pattern_of(lat.network, [NetworkLocation(0, 0.5)]), lat)
        g = heat_solve(f, 0.01)
        chain = edge_chains(lat)[0]
        x = np.arange(513) / 512
        want = images_series(x, 0.5, 0.01)
        err = np.abs(g.values[chain] - want).max() / want.max()
        assert err <= 1e-3

    def test_long_time_uniform(self):
        lat = discretize(segment_network(1.0), 1 / 8)
        f = deposit_initial_mass(pattern_of(lat.network, [NetworkLocation(0, 0.3)]), lat)
        g = heat_solve(f, 100.0)
        assert np.allclose(g.values, 1.0, atol=1e-6)

    def test_spatial_convergence(self):
        # halving dx cuts the images-oracle sup error by >= 3x
        errs = []
        for m in (128, 256):
            lat = discretize(segment_network(1.0), 1 / m)
            f = deposit_initial_mass(pattern_of(lat.network, [NetworkLocation(0, 0.5)]), lat)
            g = heat_solve(f, 0.01)
            chain = edge_chains(lat)[0]
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
        f1 = estimate_heat(pattern_of(net1, [NetworkLocation(1, 0.3)]), lat1, 0.4)
        f2 = estimate_heat(pattern_of(net2, [NetworkLocation(0, 0.3)]), lat2, 0.4)
        # compare at shared physical positions
        off = np.array([0.0, 0.25, 0.55, 0.95])
        a = f1.values_at(np.zeros(4, dtype=np.int64), off)
        b = f2.values_at(np.ones(4, dtype=np.int64), off)
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)


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
        pat = pattern_of(net, [NetworkLocation(0, 0.5)])
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
        pat = pattern_of(lat.network, [NetworkLocation(0, 0.5)])
        est = estimate_heat(pat, lat, sigma)
        chain = edge_chains(lat)[0]
        x = np.arange(513) / 512
        want = images_series(x, 0.5, sigma**2)
        err = np.abs(est.values[chain] - want).max() / want.max()
        assert err <= 1e-3

    def test_doubling_pattern_doubles_estimate(self):
        lat = discretize(segment_network(1.0), 1 / 64)
        pts = [NetworkLocation(0, 0.3), NetworkLocation(0, 0.6)]
        one = estimate_heat(pattern_of(lat.network, pts), lat, 0.1)
        two = estimate_heat(pattern_of(lat.network, pts + pts), lat, 0.1)
        assert np.allclose(two.values, 2 * one.values, rtol=1e-12, atol=1e-15)


class TestHeatBatch:
    def test_single_subset_matches_estimate_heat(self):
        net = y_network()
        lat = discretize(net, 0.05)
        pat = pattern_of(net, [NetworkLocation(0, 0.4), NetworkLocation(2, 0.7)])
        a = estimate_heat_batch(pat, lat, [0.21, 0.21])
        b = estimate_heat(pat, lat, 0.21)
        assert np.array_equal(a.values, b.values)

    def test_two_subsets_same_sigma_match_union(self):
        # equal bandwidths are grouped even when their points are not adjacent
        net = y_network()
        lat = discretize(net, 0.05)
        p1, q, p2 = NetworkLocation(0, 0.4), NetworkLocation(2, 0.2), NetworkLocation(1, 0.7)
        a = estimate_heat_batch(pattern_of(net, [p1, q, p2]), lat, [0.17, 0.3, 0.17])
        b = (
            estimate_heat(pattern_of(net, [p1, p2]), lat, 0.17).values
            + estimate_heat(pattern_of(net, [q]), lat, 0.3).values
        )
        assert np.allclose(a.values, b, rtol=1e-12, atol=1e-15)

    def test_incremental_matches_naive_three_bins(self):
        rng = np.random.default_rng(11)
        net = random_network(rng)
        lat = discretize(net, 0.2)
        pts, bws = [], []
        naive = np.zeros(lat.n_nodes)
        for sigma in (0.13, 0.24, 0.55):
            sub = random_locations(net, 4, rng)
            pts += sub
            bws += [sigma] * len(sub)
            naive += estimate_heat(pattern_of(net, sub), lat, sigma).values
        batch = estimate_heat_batch(pattern_of(net, pts), lat, bws)
        scale = naive.max()
        assert np.abs(batch.values - naive).max() <= 1e-9 * scale
        assert batch.integral() == pytest.approx(12.0, rel=1e-9)

    def test_empty_pattern_gives_zero(self):
        lat = discretize(y_network(), 0.1)
        est = estimate_heat_batch(pattern_of(lat.network, []), lat, [])
        assert np.array_equal(est.values, np.zeros(lat.n_nodes))

    @pytest.mark.parametrize("bandwidths", [[0.2], [0.2, 0.3, 0.4]])
    def test_wrong_length_rejected(self, bandwidths):
        net = y_network()
        lat = discretize(net, 0.1)
        pat = pattern_of(net, [NetworkLocation(0, 0.2), NetworkLocation(1, 0.2)])
        with pytest.raises(ValueError, match="one bandwidth per point"):
            estimate_heat_batch(pat, lat, bandwidths)

    @pytest.mark.parametrize("bad", [0.0, -0.1, float("nan"), float("inf")])
    def test_nonpositive_bandwidth_rejected(self, bad):
        net = y_network()
        lat = discretize(net, 0.1)
        pat = pattern_of(net, [NetworkLocation(0, 0.2), NetworkLocation(1, 0.2)])
        with pytest.raises(ValueError, match="positive"):
            estimate_heat_batch(pat, lat, [0.2, bad])


class TestSparseInjection:
    """Groups join the running solve as sparse entries, each twice, for the
    fractional remainder of its time; the dense two-step join in nets.py is
    the oracle, and the shortened-step injection a second one."""

    @staticmethod
    def _pattern(lat, rng):
        # points at vertices, one ulp inside edge ends, on chain nodes and inside links
        locs = special_locations(lat, rng)
        return pattern_of(lat.network, [locs[i] for i in rng.choice(len(locs), 30)])

    def test_batch_matches_dense_injection(self):
        zero_remainders = 0
        for lat, rng in random_lattices(5):
            pat = self._pattern(lat, rng)
            dt, h = step_size(lat), lat.min_spacing
            whole = np.sqrt(dt * rng.integers(1, 30, pat.n))  # t / dt mostly a whole number
            for bw in (np.full(pat.n, h * rng.uniform(0.5, 3.0)), h * rng.uniform(0.5, 4.0, pat.n),
                       h * rng.choice([1.0, 2.0, 3.0], pat.n), whole):
                assert_same(estimate_heat_batch(pat, lat, bw).values,
                            dense_heat_batch(pat, lat, bw, DEFAULT_CONFIG))
            q = whole * whole / dt
            zero_remainders += np.count_nonzero(q == np.floor(q))
        assert zero_remainders > 200

    def test_batch_near_shortened_step_injection(self):
        # the two-step join against a remainder step of its own length
        for lat, rng in random_lattices(5):
            pat = self._pattern(lat, rng)
            dt, h = step_size(lat), lat.min_spacing
            for bw in (np.full(pat.n, h * rng.uniform(0.5, 3.0)), h * rng.uniform(0.5, 4.0, pat.n),
                       np.sqrt(dt * rng.integers(1, 30, pat.n))):
                got = estimate_heat_batch(pat, lat, bw).values
                want = dense_heat_batch(pat, lat, bw, DEFAULT_CONFIG, inject=remainder_inject)
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_solve_matches_dense_injection(self):
        for lat, rng in random_lattices(6):
            dt = step_size(lat)
            sparse = rng.uniform(-1.0, 1.0, lat.n_nodes) * (rng.random(lat.n_nodes) < 0.2)
            for f0 in (deposit_initial_mass(self._pattern(lat, rng), lat), LatticeFunction(lat, sparse),
                       LatticeFunction(lat, np.zeros(lat.n_nodes))):
                for t in (0.0, 3 * dt, dt * rng.uniform(0.1, 20.0)):
                    assert_same(heat_solve(f0, t).values, dense_heat_solve(f0, t, DEFAULT_CONFIG))

    @pytest.mark.parametrize("groups", [1, 2, 7, 40])
    def test_full_steps_run_once_whatever_the_groups(self, monkeypatch, groups):
        lat = discretize(y_network(), 0.05)
        pat = random_pattern(lat.network, 40, np.random.default_rng(groups))
        bw = np.resize(0.3 * np.linspace(1.0, 0.3, groups), pat.n)
        calls = []
        step = heat._step_values

        def counted(values, lattice, dt):
            calls.append((lattice is lat._solver, dt == step_size(lat), len(values)))
            return step(values, lattice, dt)

        monkeypatch.setattr(heat, "_step_values", counted)
        est = estimate_heat_batch(pat, lat, bw)
        assert len(lat._solver.node_weight) == lat.n_nodes  # no link shorter than dx / 2
        assert calls == [(True, True, lat.n_nodes)] * math.ceil(0.09 / step_size(lat))
        assert est.integral() == pytest.approx(40, rel=1e-12)


class TestDefaultDx:
    def test_rule(self):
        net = y_network()
        assert default_dx(net, 0.3) == pytest.approx(0.1)
        assert default_dx(net, 9.0) == pytest.approx(3.0)  # unit edges become one piece each

    def test_step_size(self):
        lat = discretize(segment_network(1.0), 0.25)
        assert step_size(lat) == pytest.approx(0.9 * 0.25**2)

    @pytest.mark.parametrize("spurs", [False, True], ids=["plain", "spurs"])
    def test_rule_error_against_a_quarter_spacing(self, spurs):
        # per-edge L1 of a dx = sigma/3 solve against dx = sigma/12 (uncontracted), at
        # sigma = 0.2-0.8 spacings; over 300 plain random networks measured median 0.34%,
        # 99th percentile 0.87%, largest 1.01% (1.08% on one network here); with spurs of
        # 1-20% of the spacing, merged in the solver, 0.27%, 0.79% and 1.00%
        rng = np.random.default_rng(41 + spurs)
        merged = 0
        for _ in range(15):
            if spurs:
                net, spacing = random_spur_network(rng)
            else:
                spacing = float(rng.uniform(0.5, 3.0))
                net = random_network(rng, max_side=4, spacing=spacing)
            pat = random_pattern(net, 30, rng)
            sigma = spacing * float(rng.uniform(0.2, 0.8))
            lat = discretize(net, default_dx(net, sigma))
            merged += lat.n_nodes - len(lat._solver.node_weight)
            got = edge_integrals(estimate_heat(pat, lat, sigma))
            fine = edge_integrals(estimate_heat(pat, uncontracted(discretize(net, sigma / 12)), sigma))
            assert relative_l1(got, fine) <= 0.015
        assert (merged > 0) == spurs


class TestShortEdgeLattice:
    """dx = sigma/3 everywhere: an edge shorter than that is one piece, and the
    solver merges it into a neighbour when it is shorter than dx/2."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_edge_integrals_near_refined_and_old_rule(self, seed):
        # spurs of 1-5% of the spacing at sigma = half the spacing, all merged in the
        # solver; measured L1 of the default lattice 0.79-0.88% against sigma/24 and
        # against min(sigma/3, shortest edge), which needs 6-13x the nodes (0.29-0.38%
        # without merging); sigma/6 is about 6x closer
        rng = np.random.default_rng(seed)
        net = add_spurs(grid_network(5, 5, jitter=0.2, rng=rng), rng.uniform(0.01, 0.05, 6), rng)
        pat = random_pattern(net, 60, rng)
        sigma = 0.5
        lat = discretize(net, default_dx(net, sigma))
        old = discretize(net, min(sigma / 3, net.edge_lengths.min()))
        assert lat.min_spacing == net.edge_lengths.min()  # the spurs are one piece each
        assert 5 * lat.n_nodes < old.n_nodes
        got = edge_integrals(estimate_heat(pat, lat, sigma))
        fine = edge_integrals(estimate_heat(pat, discretize(net, sigma / 24), sigma))
        error = relative_l1(got, fine)
        assert error <= 0.01
        assert relative_l1(got, edge_integrals(estimate_heat(pat, old, sigma))) <= 0.01
        half = edge_integrals(estimate_heat(pat, discretize(net, sigma / 6), sigma))
        assert relative_l1(half, fine) <= error / 2
        # per-point bandwidths in one pass, dx = h_min/3: measured 0.24-0.29%
        bw = rng.uniform(0.3, 1.2, pat.n)
        got, half, fine = (edge_integrals(estimate_heat_batch(pat, discretize(net, bw.min() / k), bw))
                           for k in (3, 6, 24))
        error = relative_l1(got, fine)
        assert error <= 0.01
        assert relative_l1(half, fine) <= error / 2

    def test_random_spurs_keep_the_invariants(self):
        # spurs down to 1e-3 of the grid spacing, at alpha 0.9 and at the bound alpha = 1;
        # mass, nonnegativity and input-order independence, fixed and per-point bandwidths
        rng = np.random.default_rng(23)
        for _ in range(12):
            spacing = float(rng.uniform(0.5, 3.0))
            base = random_network(rng, max_side=4, spacing=spacing)
            k = int(rng.integers(0, min(base.n_vertices, 4)))
            lengths = spacing * np.append(1e-3, 10 ** rng.uniform(-3, np.log10(0.2), k))
            net = add_spurs(base, lengths, rng)
            n = int(rng.integers(1, 30))
            pat = random_pattern(net, n, rng)
            perm = rng.permutation(n)
            cfg = HeatConfig(alpha=float(rng.choice([0.9, 1.0])))
            sigma = spacing * float(rng.uniform(0.02, 0.06))  # at most ~4k steps
            bw = sigma * rng.uniform(1.0, 1.5, n)
            lat = discretize(net, default_dx(net, sigma))
            assert lat.min_spacing <= 1.001e-3 * spacing
            assert len(lat._solver.node_weight) < lat.n_nodes  # the spurs are merged
            runs = (
                (estimate_heat(pat, lat, sigma, cfg), estimate_heat(pat.subset(perm), lat, sigma, cfg)),
                (estimate_heat_batch(pat, lat, bw, cfg),
                 estimate_heat_batch(pat.subset(perm), lat, bw[perm], cfg)),
            )
            for est, shuffled in runs:
                assert est.integral() == pytest.approx(n, rel=1e-12)
                assert est.values.min() >= 0.0
                assert_same(shuffled.values, est.values)


class TestContraction:
    """The solver merges the ends of links shorter than dx/2 while a cluster's
    summed merged link length stays below dx/2; the uncontracted solve in
    nets.py is the slow path it replaces."""

    def test_near_the_uncontracted_solve(self):
        # spurs of 1-20% of the spacing at sigma = 0.2-0.8 spacings; per-edge L1
        # measured at most 0.46% (fixed) over 40 such networks, bounded by 1%
        rng = np.random.default_rng(29)
        merged = 0
        for _ in range(12):
            net, spacing = random_spur_network(rng)
            pat = random_pattern(net, 30, rng)
            sigma = spacing * float(rng.uniform(0.2, 0.8))
            bw = sigma * rng.uniform(1.0, 2.0, pat.n)
            lat = discretize(net, default_dx(net, sigma))
            merged += lat.n_nodes - len(lat._solver.node_weight)
            for got, want in (
                (estimate_heat(pat, lat, sigma), estimate_heat(pat, uncontracted(lat), sigma)),
                (estimate_heat_batch(pat, lat, bw), estimate_heat_batch(pat, uncontracted(lat), bw)),
            ):
                assert relative_l1(edge_integrals(got), edge_integrals(want)) <= 0.01
                assert got.integral() == pytest.approx(pat.n, rel=1e-12)
                assert got.values.min() >= 0.0
        assert merged >= 12

    def test_no_short_link_is_the_uncontracted_solve_bit_for_bit(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            net = random_network(rng, max_side=4)
            pat = random_pattern(net, 25, rng)
            sigma = float(rng.uniform(0.2, 0.8))
            bw = sigma * rng.uniform(1.0, 2.0, pat.n)
            lat = discretize(net, default_dx(net, sigma))
            assert lat.edge_spacing.min() >= lat.dx_target / 2
            assert_same(lat._solver.cluster, np.arange(lat.n_nodes))
            un = uncontracted(lat)
            assert_same(estimate_heat(pat, lat, sigma).values, estimate_heat(pat, un, sigma).values)
            assert_same(estimate_heat_batch(pat, lat, bw).values, estimate_heat_batch(pat, un, bw).values)

    def test_clusters_follow_the_merge_rule(self):
        # runs of 5-40 short pieces on random networks at dx = 0.2-1 spacings
        rng = np.random.default_rng(43)
        for _ in range(20):
            net = random_network(rng, max_side=4)
            for e in rng.choice(net.n_edges, min(3, net.n_edges), replace=False):
                net = split_edge(net, int(e), int(rng.integers(5, 41)))
            lat = discretize(net, float(rng.uniform(0.2, 1.0)))
            got, want = lat._solver.cluster, reference_clusters(lat)
            assert len(set(zip(got, want))) == len(set(got)) == len(set(want))  # the same partition
            assert len(set(got)) < lat.n_nodes

    def test_ladder_keeps_clusters_below_half_the_spacing(self):
        # a 0.3-long ladder of 0.03 rail pieces and 0.02 rungs at dx = 0.2: every link on
        # it is short, and merging them all would span 0.3 > dx/2
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import minimum_spanning_tree

        xy = [(-2.0, 0.0)] + [(0.03 * i, y) for y in (0.0, 0.02) for i in range(11)]
        rails = [(1 + i + r, 2 + i + r) for r in (0, 11) for i in range(10)]
        net = build_network(xy, [(0, 1)] + rails + [(1 + i, 12 + i) for i in range(11)])
        lat = discretize(net, 0.2)
        tau = lat.dx_target / 2
        g = lat._solver
        assert g.tau == tau
        li, lj, lh = chain_links(lat)
        extent = np.zeros(len(g.node_weight))
        for c in range(len(extent)):
            members = np.flatnonzero(g.cluster == c)
            inside = np.isin(li, members) & np.isin(lj, members)
            at = {v: k for k, v in enumerate(members)}
            a = coo_matrix((lh[inside], ([at[v] for v in li[inside]], [at[v] for v in lj[inside]])),
                           shape=(len(members),) * 2)
            extent[c] = minimum_spanning_tree(a).sum()
            span = lat.node_xy[members]
            assert np.hypot(*(span[:, None] - span[None]).transpose(2, 0, 1)).max() < tau
        assert extent.max() < tau
        kept = g.link_h < tau
        assert kept.any()
        assert np.all(extent[g.link_i[kept]] + extent[g.link_j[kept]] + g.link_h[kept] >= tau)
        assert len(extent) < lat.n_nodes - 10
        pat = random_pattern(net, 20, np.random.default_rng(0))
        est = estimate_heat(pat, lat, 0.6)
        assert est.integral() == pytest.approx(20, rel=1e-12)
        assert est.values.min() >= 0.0

    @pytest.mark.parametrize("alone", [False, True], ids=["with-others", "alone"])
    def test_single_edge_component_is_one_node(self, alone):
        # alone, no link is left: a step of any length is the identity, so the
        # step is inf and a solve takes none
        xy, edges = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (5.0, 5.0), (5.02, 5.0)], [(0, 1), (0, 2), (3, 4)]
        net = build_network(xy[3:], [(0, 1)]) if alone else build_network(xy, edges)
        short = net.n_edges - 1
        lat = discretize(net, 0.1)
        u, v = net.edge_vertices[short]
        pat = pattern_of(net, [NetworkLocation(short, 0.015), NetworkLocation(0, 0.004)])
        for est in (estimate_heat(pat, lat, 0.3), estimate_heat_batch(pat, lat, [0.3, 0.5])):
            assert est.values[u] == est.values[v]
            assert est.values[u] * 0.02 == pytest.approx(1.0 + alone, rel=1e-12)
            assert est.integral() == pytest.approx(2.0, rel=1e-12)
        if alone:
            assert step_size(lat) == math.inf
            np.testing.assert_allclose(heat_step(est).values, est.values, rtol=1e-14)

    def test_heat_step_stays_nonnegative_on_spur_lattices(self):
        # the step suits the kept links, not a spur's own piece, which the lattice's own
        # explicit update would drive negative
        rng = np.random.default_rng(37)
        net = add_spurs(grid_network(4, 4, jitter=0.2, rng=rng), [0.01, 0.03], rng)
        lat = discretize(net, 0.1)
        tip = NetworkLocation(net.n_edges - 1, float(net.edge_lengths[-1]))
        f = deposit_initial_mass(pattern_of(net, [tip, *random_locations(net, 5, rng)]), lat)
        assert heat._step_values(f.values, uncontracted(lat)._solver, step_size(lat)).min() < 0.0
        for _ in range(200):
            f = heat_step(f)
            assert f.values.min() >= 0.0
        assert f.integral() == pytest.approx(6.0, rel=1e-12)
        g = lat._solver
        assert len(g.node_weight) < lat.n_nodes
        per_cluster = np.zeros(len(g.node_weight))
        per_cluster[g.cluster] = f.values
        assert_same(per_cluster[g.cluster], f.values)  # one value per cluster


class TestStepBudget:
    def test_degenerate_edge_refused_before_any_step(self, monkeypatch):
        # a 20 m run of 1 cm edges spans more than dx/2 = 16.7 at sigma = 100, so the
        # solver keeps a 1 cm link, and the solve asks for about 1.1e8 steps
        net = stub_network(20.0, 2000)
        lat = discretize(net, default_dx(net, 100.0))
        pat = pattern_of(net, [NetworkLocation(0, 500.0)])

        def no_step(*args):
            raise AssertionError("stepped before the budget check")

        monkeypatch.setattr(heat, "_step_values", no_step)
        with pytest.raises(StepBudgetExceeded, match=(
                r"^(\d+) explicit steps .* shortest solver link is 0\.01 long; "
                r"drop or merge edges 0\.01 long or shorter")) as exc:
            estimate_heat(pat, lat, 100.0)
        assert int(str(exc.value).split()[0]) > 10**8
        assert exc.value.exit_code == 3

    def test_single_short_edge_is_contracted(self):
        # one 1 cm edge at sigma = 100 merges into its vertex's node: 10 steps, not 1.1e8
        net = stub_network(0.01)
        lat = discretize(net, default_dx(net, 100.0))
        assert len(lat._solver.node_weight) == lat.n_nodes - 1
        assert step_size(lat) == pytest.approx(0.9 * (1000.0 / 30) ** 2)
        pat = pattern_of(net, [NetworkLocation(0, 500.0), NetworkLocation(1, 0.005)])
        est = estimate_heat(pat, lat, 100.0)
        assert est.integral() == pytest.approx(2.0, rel=1e-12)
        assert est.values.min() >= 0.0
        assert est.values[1] == est.values[2]  # both ends of the 1 cm edge

    def test_budget_counts_full_steps(self, monkeypatch):
        lat = discretize(segment_network(1.0), 0.25)
        dt = step_size(lat)
        f0 = LatticeFunction(lat, np.ones(lat.n_nodes))
        monkeypatch.setattr(heat, "MAX_STEPS", 40)
        heat_solve(f0, 39.5 * dt)  # 39 full steps and one for the remainder
        with pytest.raises(StepBudgetExceeded, match="^41 explicit steps exceed the budget of 40"):
            heat_solve(f0, 40.5 * dt)

    def test_node_step_budget(self, monkeypatch):
        lat = discretize(segment_network(1.0), 0.25)  # 5 nodes
        dt = step_size(lat)
        f0 = LatticeFunction(lat, np.ones(lat.n_nodes))
        monkeypatch.setattr(heat, "MAX_NODE_STEPS", 200)
        heat_solve(f0, 39.5 * dt)
        with pytest.raises(StepBudgetExceeded, match=(
                r"^41 explicit steps on 5 lattice nodes exceed the budget of 2e\+02 node-steps; "
                r"lower the bandwidth \(--bw or --bw-global\) or raise --dx$")):
            heat_solve(f0, 40.5 * dt)

    @pytest.mark.parametrize("spur", [0.05, 0.2])
    def test_node_step_refusal_names_the_edge_that_sets_the_step(self, monkeypatch, spur):
        # at dx = 0.09 a spur of five 0.01 edges spans more than dx/2, so the solver keeps
        # a 0.01 link; a 0.2 spur is cut into pieces of 0.2/3, which a larger --dx lengthens
        rng = np.random.default_rng(3)
        net = add_spurs(grid_network(3, 3), [spur], rng)
        if spur < 0.1:
            net = split_edge(net, net.n_edges - 1, 5)
        lat = discretize(net, 0.09)
        pat = random_pattern(net, 5, rng)
        monkeypatch.setattr(heat, "MAX_NODE_STEPS", 500)
        with pytest.raises(StepBudgetExceeded) as exc:
            estimate_heat(pat, lat, 0.3)
        message = str(exc.value)
        assert message.startswith(f"{math.ceil(0.09 / step_size(lat))} explicit steps on {lat.n_nodes} lattice nodes")
        if spur < 0.1:
            assert lat._solver.min_link == pytest.approx(0.01)
            assert message.endswith("lower the bandwidth (--bw or --bw-global) or drop or merge edges 0.01 long "
                                    "or shorter: the solver keeps one where a run of them spans half the "
                                    "lattice spacing")
        else:
            assert lat._solver.min_link == pytest.approx(0.2 / 3)
            assert message.endswith("lower the bandwidth (--bw or --bw-global) or raise --dx")
