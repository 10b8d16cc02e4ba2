import numpy as np
import pytest

from lineheat.adaptive import abramson_bandwidths, make_partition
from lineheat import experiment
from lineheat.errors import BadDelta, LatticeMismatch
from lineheat.experiment import (
    STUDY_COLUMNS,
    estimate_adaptive_direct,
    ise,
    median_by_delta,
    partition_per_bin,
    run_partition_study,
    simulate_intensity,
)
from lineheat.heat import estimate_heat
from lineheat.lattice import LatticeFunction, discretize
from lineheat.sim import sample_poisson_on_network
from nets import grid_network, segment_network, y_network


def study_net(seed=0):
    return grid_network(4, 4, spacing=0.25, rng=np.random.default_rng(seed))


class TestIse:
    def test_zero_for_equal(self):
        lat = discretize(y_network(), 0.1)
        f = LatticeFunction(lat, np.linspace(0, 1, lat.n_nodes))
        assert ise(f, LatticeFunction(lat, f.values.copy())) == 0.0

    def test_constant_difference_closed_form(self):
        net = y_network()  # total length 3
        lat = discretize(net, 0.1)
        a = LatticeFunction(lat, np.full(lat.n_nodes, 2.0))
        b = LatticeFunction(lat, np.full(lat.n_nodes, 2.0 - 0.7))
        assert ise(a, b) == pytest.approx(0.7**2 * 3.0, rel=1e-12)

    def test_symmetry(self):
        lat = discretize(segment_network(2.0), 0.1)
        rng = np.random.default_rng(3)
        a = LatticeFunction(lat, rng.uniform(0, 2, lat.n_nodes))
        b = LatticeFunction(lat, rng.uniform(0, 2, lat.n_nodes))
        assert ise(a, b) == ise(b, a)
        assert ise(a, b) > 0

    def test_lattice_mismatch(self):
        lat1 = discretize(segment_network(2.0), 0.1)
        lat2 = discretize(segment_network(2.0), 0.2)
        with pytest.raises(LatticeMismatch):
            ise(
                LatticeFunction(lat1, np.zeros(lat1.n_nodes)),
                LatticeFunction(lat2, np.zeros(lat2.n_nodes)),
            )

    def test_quadrature_refinement_consistency(self):
        # fixed smooth estimate/reference: ISE at dx and dx/2 differ at
        # second order in dx
        net = y_network(branch=2.0)

        def smooth_pair(lat):
            x, y = lat.node_xy[:, 0], lat.node_xy[:, 1]
            a = LatticeFunction(lat, np.exp(-x * x) + 0.3 * np.sin(2 * y))
            b = LatticeFunction(lat, 1.0 + 0.2 * np.cos(3 * x) * np.exp(y / 4))
            return a, b

        vals = []
        for dx in (0.2, 0.1, 0.05):
            a, b = smooth_pair(discretize(net, dx))
            vals.append(ise(a, b))
        order = np.log2(abs(vals[0] - vals[1]) / abs(vals[1] - vals[2]))
        assert order >= 1.8


class TestSimulateIntensity:
    def test_all_scenarios_produce_positive_intensity(self):
        net = study_net()
        lat = discretize(net, 0.1)
        for scen in ("loggaussian-1", "loggaussian-4", "paper-gm5"):
            lam = simulate_intensity(net, lat, scen, seed=5, target_points=120, field_res=24)
            assert np.all(lam.values >= 0)
            assert lam.values.max() > 0

    def test_gm5_integral_hits_target_exactly(self):
        net = study_net()
        lat = discretize(net, 0.1)
        lam = simulate_intensity(net, lat, "paper-gm5", seed=5, target_points=77.0, field_res=8)
        assert lam.integral() == pytest.approx(77.0, rel=1e-9)

    def test_loggaussian_expected_count_calibration(self):
        net = study_net()
        lat = discretize(net, 0.1)
        totals = [
            simulate_intensity(net, lat, "loggaussian-2", seed=s, target_points=150, field_res=16).integral()
            for s in range(120)
        ]
        mean = np.mean(totals)
        se = np.std(totals, ddof=1) / np.sqrt(len(totals))
        assert abs(mean - 150.0) <= 3 * se


class TestStudy:
    def test_rows_schema_and_determinism(self):
        net = study_net()
        rows = run_partition_study(
            net, "loggaussian-1", deltas=[0.5, 0.25], replicates=2, seed=9,
            target_points=60, field_res=16, timing=False,
        )
        assert len(rows) == 4
        for r in rows:
            assert tuple(r.keys()) == STUDY_COLUMNS
            assert r["time_direct_s"] is None and r["time_exact_onepass_s"] is None
            assert np.isfinite(r["ise"])
        rows2 = run_partition_study(
            net, "loggaussian-1", deltas=[0.5, 0.25], replicates=2, seed=9,
            target_points=60, field_res=16, timing=False,
        )
        for a, b in zip(rows, rows2):
            assert a == b

    def test_timing_columns_present_and_positive(self):
        net = study_net()
        rows = run_partition_study(
            net, "loggaussian-1", deltas=[0.5], replicates=1, seed=3,
            target_points=40, field_res=16, timing=True,
        )
        r = rows[0]
        assert r["time_direct_s"] > 0
        assert r["time_exact_onepass_s"] > 0
        assert r["time_partition_s"] > 0
        assert r["time_ratio"] == pytest.approx(r["time_partition_s"] / r["time_direct_s"])

    def test_forced_equal_bandwidths_single_bin_zero_ise(self):
        # identical bandwidths make the single-bin partition and the direct
        # estimate coincide
        net = study_net()
        lat = discretize(net, 0.1)
        for seed in (21, 22):
            truth = simulate_intensity(net, lat, "loggaussian-1", [seed, 0], 50, 16)
            pattern = sample_poisson_on_network(truth, [seed, 1])
            assert pattern.n > 0
            bw = abramson_bandwidths(pattern, estimate_heat(pattern, lat, 0.3), 0.3)
            bw.bandwidths = np.full(pattern.n, 0.3)
            direct = estimate_adaptive_direct(pattern, lat, bw)
            part = partition_per_bin(pattern, lat, make_partition(bw, 1.0))
            assert ise(part, direct) <= 1e-15

    def test_median_by_delta(self):
        rows = [
            {"delta": 0.1, "ise": 1.0},
            {"delta": 0.1, "ise": 3.0},
            {"delta": 0.05, "ise": 0.5},
        ]
        med = median_by_delta(rows, "ise")
        assert med[0.1] == 2.0
        assert med[0.05] == 0.5
        assert list(med) == [0.1, 0.05]

    @pytest.mark.parametrize("deltas, replicates, error", [
        ([0.5, 0.3], 1, BadDelta), ([1.5], 1, BadDelta), ([], 1, ValueError), ([0.5], 0, ValueError),
    ], ids=["not-a-bin-count", "above-one", "no-delta", "no-replicate"])
    def test_bad_arguments_rejected_before_a_replicate_runs(self, monkeypatch, deltas, replicates, error):
        def no_replicate(*args):
            raise AssertionError("a replicate ran before the arguments were checked")

        monkeypatch.setattr(experiment, "_one_replicate", no_replicate)
        with pytest.raises(error):
            run_partition_study(study_net(), "loggaussian-1", deltas, replicates, 0)

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            run_partition_study(study_net(), "nope", [0.5], 1, 0)
