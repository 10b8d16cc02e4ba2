import numpy as np
import pytest

from lineheat import adaptive, experiment, heat
from lineheat.adaptive import (
    PILOT_FLOOR,
    _quantile,
    abramson_bandwidths,
    estimate_adaptive_partition,
    heuristic_global_bandwidth,
    make_partition,
)
from lineheat.errors import BadDelta, EmptyPattern, NonpositivePilotWarning, StepBudgetExceeded
from lineheat.experiment import estimate_adaptive_direct, ise, partition_per_bin
from lineheat.heat import estimate_heat, estimate_heat_batch, step_size
from lineheat.lattice import LatticeFunction, discretize
from lineheat.network import NetworkLocation

from nets import pattern_of, random_network, random_pattern, segment_network, y_network


def _pattern_and_lattice(n=6, seed=3):
    net = y_network(branch=2.0)
    lat = discretize(net, 0.1)
    rng = np.random.default_rng(seed)
    return random_pattern(net, n, rng), lat


def _constant_pilot(lat, c):
    return LatticeFunction(lat, np.full(lat.n_nodes, float(c)))


class TestAbramson:
    def test_constant_pilot_returns_global(self):
        pat, lat = _pattern_and_lattice()
        bw = abramson_bandwidths(pat, _constant_pilot(lat, 4.2), 0.37)
        assert np.all(bw.bandwidths == 0.37)

    def test_pilot_scale_invariance(self):
        pat, lat = _pattern_and_lattice()
        pilot = estimate_heat(pat, lat, 0.5)
        a = abramson_bandwidths(pat, pilot, 0.3)
        scaled = LatticeFunction(lat, pilot.values * 1000.0)
        b = abramson_bandwidths(pat, scaled, 0.3)
        assert np.allclose(a.bandwidths, b.bandwidths, rtol=1e-12)

    def test_two_point_worked_example(self):
        # pilot/n values 1 and 4 with global bandwidth 0.1:
        # factors (1, 0.5), gamma = sqrt(0.5), h = (0.14142, 0.07071)
        net = segment_network(1.0)
        lat = discretize(net, 0.25)
        vals = np.zeros(lat.n_nodes)
        chain = lat.edge_chains[0]
        vals[chain] = [2.0, 2.0, 5.0, 8.0, 8.0]
        pilot = LatticeFunction(lat, vals)
        pat = pattern_of(net, [NetworkLocation(0, 0.25), NetworkLocation(0, 1.0)])
        bw = abramson_bandwidths(pat, pilot, 0.1)
        assert bw.pilot_at_points == pytest.approx([2.0, 8.0], rel=1e-12)
        assert bw.bandwidths == pytest.approx([0.14142, 0.07071], abs=5e-6)
        assert bw.gamma == pytest.approx(np.sqrt(0.5), rel=1e-12)

    def test_paper_exponent_variant_not_scale_free(self):
        pat, lat = _pattern_and_lattice()
        pilot = _constant_pilot(lat, 2.0)
        b1 = abramson_bandwidths(pat, pilot, 0.3, gamma_exponent=-2.0)
        b2 = abramson_bandwidths(
            pat, _constant_pilot(lat, 4.0), 0.3, gamma_exponent=-2.0
        )
        # constant pilot no longer returns the global bandwidth, and the
        # result depends on the pilot scale
        assert not np.allclose(b1.bandwidths, 0.3)
        assert not np.allclose(b1.bandwidths, b2.bandwidths)

    def test_nonpositive_pilot_clamped_with_warning(self):
        pat, lat = _pattern_and_lattice(n=3)
        pilot = _constant_pilot(lat, 0.0)
        with pytest.warns(NonpositivePilotWarning):
            bw = abramson_bandwidths(pat, pilot, 0.2)
        assert bw.n_clamped == 3
        assert np.all(np.isfinite(bw.bandwidths))
        assert np.all(bw.pilot_at_points == PILOT_FLOOR * 3 / pat.network.total_length)

    def test_floor_is_scale_free(self):
        # the same pattern on its network scaled by 1e150: the pilot scales by 1e-150,
        # the bandwidths by 1e150, and no pilot value falls to the floor
        out = []
        for scale in (1.0, 1e150):
            net = y_network(branch=2.0 * scale)
            pat, _ = _pattern_and_lattice()
            pat = pattern_of(net, [NetworkLocation(e, min(o * scale, net.edge_lengths[e]))
                                     for e, o in zip(pat.edge.tolist(), pat.offset.tolist())])
            pilot = estimate_heat(pat, discretize(net, 0.1 * scale), 0.5 * scale)
            out.append(abramson_bandwidths(pat, pilot, 0.4 * scale))
        assert [bw.n_clamped for bw in out] == [0, 0]
        np.testing.assert_allclose(out[1].bandwidths / 1e150, out[0].bandwidths, rtol=1e-12)

    def test_gamma_self_consistency(self):
        pat, lat = _pattern_and_lattice()
        pilot = estimate_heat(pat, lat, 0.4)
        bw = abramson_bandwidths(pat, pilot, 0.4)
        # the normalizer again, from the stored pilot values
        assert adaptive._gamma(bw.pilot_at_points, pat.n, bw.gamma_exponent) == pytest.approx(bw.gamma, rel=1e-12)

    def test_empty_pattern(self):
        net = segment_network()
        lat = discretize(net, 0.25)
        with pytest.raises(EmptyPattern):
            abramson_bandwidths(pattern_of(net, []), _constant_pilot(lat, 1.0), 0.1)

    def test_pilot_on_another_network_rejected(self):
        pilot = _constant_pilot(discretize(y_network(), 0.25), 1.0)
        pat = pattern_of(segment_network(), [NetworkLocation(0, 0.5)])
        with pytest.raises(ValueError, match="different networks"):
            abramson_bandwidths(pat, pilot, 0.1)

    @pytest.mark.parametrize("global_bandwidth", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bad_global_bandwidth_rejected(self, global_bandwidth):
        # nan or inf would come back as every point's bandwidth
        pat, lat = _pattern_and_lattice()
        pilot = estimate_heat(pat, lat, 0.4)
        with pytest.raises(ValueError, match="^global bandwidth must be positive and finite$"):
            abramson_bandwidths(pat, pilot, global_bandwidth)

    def test_heuristic_global_bandwidth(self):
        assert heuristic_global_bandwidth(10.0, 25) == pytest.approx(1.0)

    def test_heuristic_global_bandwidth_needs_a_point(self):
        with pytest.raises(EmptyPattern):
            heuristic_global_bandwidth(10.0, 0)


class TestPartitionPlan:
    def test_decile_split_of_distinct_values(self):
        rng = np.random.default_rng(5)
        pat, lat = _pattern_and_lattice(n=100, seed=5)
        pilot = estimate_heat(pat, lat, 0.6)
        bw = abramson_bandwidths(pat, pilot, 0.6)
        assert len(np.unique(bw.bandwidths)) == 100  # distinct with prob ~1
        plan = make_partition(bw, 0.1)
        assert plan.n_bins == 10
        counts = np.bincount(plan.assignment, minlength=10)
        assert counts.sum() == 100
        assert list(counts) == [10] * 10
        # bins cover the range; midpoints inside their bins
        assert plan.edges[0] == bw.bandwidths.min()
        assert plan.edges[-1] == bw.bandwidths.max()

    def test_bad_delta(self):
        pat, lat = _pattern_and_lattice()
        pilot = estimate_heat(pat, lat, 0.5)
        bw = abramson_bandwidths(pat, pilot, 0.5)
        with pytest.raises(BadDelta):
            make_partition(bw, 0.3)
        with pytest.raises(BadDelta):
            make_partition(bw, 0.0)
        with pytest.raises(BadDelta):
            make_partition(bw, 1.5)

    def test_midpoint_within_half_bin_width(self):
        pat, lat = _pattern_and_lattice(n=60, seed=11)
        pilot = estimate_heat(pat, lat, 0.5)
        bw = abramson_bandwidths(pat, pilot, 0.5)
        plan = make_partition(bw, 0.25)
        for i, h in enumerate(bw.bandwidths):
            d = plan.assignment[i]
            half = (plan.edges[d + 1] - plan.edges[d]) / 2
            assert abs(plan.midpoints[d] - h) <= half + 1e-15

    def test_all_equal_bandwidths_degenerate(self):
        pat, lat = _pattern_and_lattice()
        bw = abramson_bandwidths(pat, _constant_pilot(lat, 3.0), 0.21)
        plan = make_partition(bw, 0.5)
        assert np.all(plan.midpoints == 0.21)
        assert np.all(plan.assignment == 0)


class TestQuantile:
    @pytest.mark.parametrize("n_bins", [1, 2, 20, 100])
    def test_bit_identical_to_numpy(self, n_bins):
        # np.quantile's default method: a + d*g, and b - d*(1 - g) where g >= 0.5
        rng = np.random.default_rng(n_bins)
        q = np.linspace(0.0, 1.0, n_bins + 1)
        cases = [np.array([0.7]), np.full(9, 2.5), rng.choice([0.1, 0.2, 0.3], 50),
                 np.repeat(rng.exponential(1.0, 7), 3), np.array([1e-300, 1.0, 1e300])]
        cases += [rng.lognormal(0.0, 2.0, n) for n in rng.integers(1, 400, 30)]
        for h in cases:
            got = _quantile(h, q)
            assert got.dtype == np.float64 and np.array_equal(got, np.quantile(h, q))


class TestAdaptiveEstimates:
    def test_single_point_matches_fixed(self):
        net = y_network()
        lat = discretize(net, 0.1)
        pat = pattern_of(net, [NetworkLocation(0, 0.4)])
        bw = abramson_bandwidths(pat, _constant_pilot(lat, 1.0), 0.3)
        direct = estimate_adaptive_direct(pat, lat, bw)
        fixed = estimate_heat(pat, lat, 0.3)
        assert np.array_equal(direct.values, fixed.values)

    def test_equal_bandwidths_match_fixed(self):
        pat, lat = _pattern_and_lattice(n=5)
        bw = abramson_bandwidths(pat, _constant_pilot(lat, 2.0), 0.25)
        direct = estimate_adaptive_direct(pat, lat, bw)
        fixed = estimate_heat(pat, lat, 0.25)
        scale = fixed.values.max()
        assert np.abs(direct.values - fixed.values).max() <= 1e-12 * scale

    def test_partition_equals_direct_for_equal_bandwidths(self):
        pat, lat = _pattern_and_lattice(n=5)
        bw = abramson_bandwidths(pat, _constant_pilot(lat, 2.0), 0.25)
        direct = estimate_adaptive_direct(pat, lat, bw)
        part = estimate_adaptive_partition(pat, lat, bw, 0.5)
        scale = direct.values.max()
        assert np.abs(part.values - direct.values).max() <= 1e-12 * scale

    def test_single_bin_is_fixed_at_midpoint(self):
        pat, lat = _pattern_and_lattice(n=8)
        pilot = estimate_heat(pat, lat, 0.4)
        bw = abramson_bandwidths(pat, pilot, 0.4)
        plan = make_partition(bw, 1.0)
        part = estimate_adaptive_partition(pat, lat, bw, 1.0)
        fixed = estimate_heat(pat, lat, float(plan.midpoints[0]))
        assert np.allclose(part.values, fixed.values, rtol=1e-12, atol=1e-15)

    def test_mass_is_n(self):
        pat, lat = _pattern_and_lattice(n=9, seed=19)
        pilot = estimate_heat(pat, lat, 0.5)
        bw = abramson_bandwidths(pat, pilot, 0.5)
        assert estimate_adaptive_direct(pat, lat, bw).integral() == pytest.approx(9, rel=1e-9)
        assert estimate_adaptive_partition(pat, lat, bw, 0.5).integral() == pytest.approx(9, rel=1e-9)

    def test_batched_partition_matches_per_bin_reference(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            net = random_network(rng)
            lat = discretize(net, 0.1)
            pat = random_pattern(net, int(rng.integers(5, 30)), rng)
            bw = abramson_bandwidths(pat, estimate_heat(pat, lat, 0.5), 0.5)
            for delta in (0.5, 0.25, 0.1):
                a = estimate_adaptive_partition(pat, lat, bw, delta)
                b = partition_per_bin(pat, lat, make_partition(bw, delta))
                assert np.abs(a.values - b.values).max() <= 1e-9 * b.values.max()

    def test_batch_matches_direct(self):
        # the one-pass batch at the per-point bandwidths is the exact direct
        # estimate, to rounding
        rng = np.random.default_rng(31)
        for _ in range(20):
            net = random_network(rng)
            lat = discretize(net, 0.1)
            pat = random_pattern(net, int(rng.integers(1, 30)), rng)
            bw = abramson_bandwidths(pat, estimate_heat(pat, lat, 0.5), 0.5)
            direct = estimate_adaptive_direct(pat, lat, bw)
            batch = estimate_heat_batch(pat, lat, bw.bandwidths)
            assert np.abs(batch.values - direct.values).max() <= 1e-12 * direct.values.max()

    def test_direct_work_budget_sums_every_solve(self, monkeypatch):
        pat, lat = _pattern_and_lattice()
        bw = abramson_bandwidths(pat, estimate_heat(pat, lat, 0.3), 0.3)
        work = int(np.ceil(bw.bandwidths**2 / step_size(lat)).sum()) * lat.n_nodes
        monkeypatch.setattr(heat, "MAX_NODE_STEPS", work)
        want = estimate_adaptive_direct(pat, lat, bw).values

        def no_solve(*args):
            raise AssertionError("solved before the budget check")

        monkeypatch.setattr(heat, "MAX_NODE_STEPS", work - 1)  # each solve alone is within it
        monkeypatch.setattr(experiment, "heat_solve", no_solve)
        with pytest.raises(StepBudgetExceeded, match="one solve per point: use --delta, lower --bw-global or raise --dx$"):
            estimate_adaptive_direct(pat, lat, bw)
        monkeypatch.undo()
        assert np.array_equal(estimate_adaptive_direct(pat, lat, bw).values, want)

    def test_permutation_invariance(self):
        pat, lat = _pattern_and_lattice(n=10, seed=29)
        pilot = estimate_heat(pat, lat, 0.5)
        bw = abramson_bandwidths(pat, pilot, 0.5)
        perm = np.random.default_rng(1).permutation(10)
        pat2 = pat.subset(perm)
        pilot2 = estimate_heat(pat2, lat, 0.5)
        bw2 = abramson_bandwidths(pat2, pilot2, 0.5)
        a = estimate_adaptive_direct(pat, lat, bw)
        b = estimate_adaptive_direct(pat2, lat, bw2)
        assert np.array_equal(a.values, b.values)
        pa = estimate_adaptive_partition(pat, lat, bw, 0.5)
        pb = estimate_adaptive_partition(pat2, lat, bw2, 0.5)
        assert np.array_equal(pa.values, pb.values)

    def test_finer_partition_tracks_direct_better(self):
        # small smoke version of the delta-refinement trend (the full
        # 20-replicate check lives in the acceptance suite)
        net = y_network(branch=2.0)
        lat = discretize(net, 0.08)
        rng = np.random.default_rng(41)
        errs = {0.5: [], 0.125: []}
        for rep in range(6):
            pat = random_pattern(net, 40, rng)
            pilot = estimate_heat(pat, lat, 0.5)
            bw = abramson_bandwidths(pat, pilot, 0.5)
            direct = estimate_adaptive_direct(pat, lat, bw)
            for d in errs:
                part = estimate_adaptive_partition(pat, lat, bw, d)
                errs[d].append(ise(part, direct))
        assert np.median(errs[0.125]) <= np.median(errs[0.5])
