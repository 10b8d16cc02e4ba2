"""Acceptance suite: one test per criterion, each printing a PASS line.

Run `pytest -v tests/test_acceptance.py` for the per-criterion verdicts, or
`-s` to see the measured numbers behind them.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from lineheat.adaptive import abramson_bandwidths, estimate_adaptive_partition
from lineheat.experiment import estimate_adaptive_direct, median_by_delta, run_partition_study, simulate_intensity
from lineheat.heat import deposit_initial_mass, estimate_heat, heat_solve
from lineheat.ingest import write_network_geojson
from lineheat.kernels import (
    Kernel1D,
    equal_split_continuous,
    equal_split_discontinuous,
    estimate_jones_diggle,
    estimate_uniform_corrected,
    precompute_edge_correction,
)
from lineheat.lattice import LatticeFunction, discretize
from lineheat.network import NetworkLocation, shortest_path_distance
from lineheat.sim import ExpCovSpec, sample_gaussian_field, sample_poisson_on_network

from nets import (
    brute_force_distance,
    grid_network,
    images_series,
    pattern_of,
    random_location,
    random_network,
    random_pattern,
    segment_network,
    y_network,
)


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


class TestCriterion1HeatSolverOracle:
    def test_images_series_sup_error(self):
        import time

        t0 = time.perf_counter()
        lat = discretize(segment_network(1.0), 1 / 512)
        f = deposit_initial_mass(pattern_of(lat.network, [NetworkLocation(0, 0.5)]), lat)
        g = heat_solve(f, 0.01)
        elapsed = time.perf_counter() - t0
        chain = lat.edge_chains[0]
        x = np.arange(513) / 512
        want = images_series(x, 0.5, 0.01)
        err = float(np.abs(g.values[chain] - want).max() / want.max())
        report(
            1,
            err <= 1e-3 and elapsed < 5.0,
            f"images-oracle sup rel err {err:.2e} (<=1e-3), runtime {elapsed:.2f}s (<5s)",
        )


class TestCriterion2MassConservation:
    def test_heat_and_adaptive_mass(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(50):
            net = random_network(rng, max_side=5, keep=0.8)
            assert net.n_edges <= 40
            n = int(rng.integers(1, 101))
            pat = random_pattern(net, n, rng)
            sigma = float(rng.uniform(0.3, 0.8))
            lat = discretize(net, min(sigma / 2, float(net.edge_lengths.min())))
            fixed = estimate_heat(pat, lat, sigma)
            pilot = fixed
            bw = abramson_bandwidths(pat, pilot, sigma)
            direct = estimate_adaptive_direct(pat, lat, bw)
            part = estimate_adaptive_partition(pat, lat, bw, 0.5)
            for est in (fixed, direct, part):
                worst = max(worst, abs(est.integral() - n) / n)
        report(2, worst <= 1e-9, f"worst relative mass error {worst:.2e} (<=1e-9) over 50 networks")


class TestCriterion3ShortestPathExactness:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        checked = 0
        nets = 0
        while nets < 200:
            net = random_network(rng, max_side=3, keep=0.6)
            if net.n_edges > 8:
                continue
            nets += 1
            for _ in range(3):
                a = random_location(net, rng)
                b = random_location(net, rng)
                d = shortest_path_distance(net, a, b)
                bf = brute_force_distance(net, a, b)
                assert d == bf, (d, bf)
                checked += 1
        report(3, True, f"{checked} exact matches on {nets} random networks (<=8 edges)")


class TestCriterion4CorrectedEstimators:
    def test_jones_diggle_mass(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(20):
            net = random_network(rng, max_side=4, keep=0.85)
            n = int(rng.integers(2, 30))
            pat = random_pattern(net, n, rng)
            lat = discretize(net, 0.15)
            est = estimate_jones_diggle(pat, lat, Kernel1D("gaussian", float(rng.uniform(0.2, 0.6))))
            worst = max(worst, abs(est.integral() - n) / n)
        report(4, worst <= 1e-3, f"Jones-Diggle worst relative mass error {worst:.2e} (<=1e-3)")

    def test_uniform_monte_carlo_unbiased(self):
        # homogeneous Poisson, rate 20 per unit length, |L| = 10, 500 reps
        net = grid_network(4, 2, spacing=1.0)
        assert net.total_length == pytest.approx(10.0)
        sigma = 0.25
        lat = discretize(net, sigma / 3)
        kernel = Kernel1D("gaussian", sigma)
        correction = precompute_edge_correction(lat, kernel)
        lam = LatticeFunction(lat, np.full(lat.n_nodes, 20.0))
        probes = [0, 3, lat.n_nodes // 2, lat.n_nodes - 5, lat.n_nodes - 1]
        samples = np.empty((500, len(probes)))
        for rep in range(500):
            pat = sample_poisson_on_network(lam, rep)
            est = estimate_uniform_corrected(pat, lat, kernel, edge_correction_values=correction)
            samples[rep] = est.values[probes]
        mean = samples.mean(axis=0)
        se = samples.std(axis=0, ddof=1) / math.sqrt(500)
        z = np.abs(mean - 20.0) / se
        report(
            4,
            bool(np.all(z <= 3.0)),
            f"uniform-corrected MC bias z-scores {np.round(z, 2).tolist()} (all <=3) at 5 probes",
        )


class TestCriterion5EqualSplit:
    def test_y_closed_forms(self):
        net = y_network(branch=1.0)
        lat = discretize(net, 0.1)
        k = Kernel1D("epanechnikov", 0.9)
        a, b = 0.3, 0.4
        pat = pattern_of(net, [NetworkLocation(0, a)])
        node = lat.edge_chains[1][4]
        kd = equal_split_discontinuous(pat, lat, k).values[node]
        kc = equal_split_continuous(pat, lat, k).values[node]
        err_d = abs(kd - k(a + b) / 2)
        err_c = abs(kc - k(a + b) * (2 / 3))
        report(
            5,
            err_d <= 1e-12 and err_c <= 1e-12,
            f"Y closed forms: |KD err| {err_d:.1e}, |KC err| {err_c:.1e} (<=1e-12)",
        )

    def test_continuous_vertex_continuity(self):
        net = y_network(branch=2.0)
        k = Kernel1D("quartic", 1.2)
        spreads = []
        for dx in (0.016, 0.004):  # 4x refinement
            lat = discretize(net, dx)
            kc = equal_split_continuous(pattern_of(net, [NetworkLocation(0, 0.5)]), lat, k)
            lims = []
            for e in range(3):
                c = lat.edge_chains[e]
                lims.append(3 * kc.values[c[1]] - 3 * kc.values[c[2]] + kc.values[c[3]])
            spreads.append(max(lims) - min(lims))
        report(
            5,
            spreads[1] <= 1e-6,
            f"KC one-sided vertex limits spread {spreads[1]:.1e} (<=1e-6) after 4x refinement "
            f"(coarse {spreads[0]:.1e})",
        )


class TestCriterion6Abramson:
    def test_constant_pilot_and_scale_invariance(self):
        net = y_network(branch=2.0)
        lat = discretize(net, 0.1)
        rng = np.random.default_rng(3)
        pat = random_pattern(net, 12, rng)
        const = LatticeFunction(lat, np.full(lat.n_nodes, 5.0))
        bw = abramson_bandwidths(pat, const, 0.42)
        exact_const = bool(np.all(bw.bandwidths == 0.42))
        pilot = estimate_heat(pat, lat, 0.5)
        h1 = abramson_bandwidths(pat, pilot, 0.3).bandwidths
        h2 = abramson_bandwidths(
            pat, LatticeFunction(lat, pilot.values * 1737.0), 0.3
        ).bandwidths
        scale_free = bool(np.allclose(h1, h2, rtol=1e-12))
        report(
            6,
            exact_const and scale_free,
            f"constant pilot -> all h = global ({exact_const}); pilot-scale invariance ({scale_free})",
        )

    def test_two_point_worked_example(self):
        net = segment_network(1.0)
        lat = discretize(net, 0.25)
        vals = np.zeros(lat.n_nodes)
        vals[lat.edge_chains[0]] = [2.0, 2.0, 5.0, 8.0, 8.0]
        pilot = LatticeFunction(lat, vals)
        pat = pattern_of(net, [NetworkLocation(0, 0.25), NetworkLocation(0, 1.0)])
        h = abramson_bandwidths(pat, pilot, 0.1).bandwidths
        ok = abs(h[0] - 0.14142) <= 5e-6 and abs(h[1] - 0.07071) <= 5e-6
        report(6, ok, f"worked example h = ({h[0]:.5f}, {h[1]:.5f}) vs (0.14142, 0.07071)")


@pytest.fixture(scope="module")
def partition_study_rows():
    net = grid_network(11, 11, spacing=0.1)  # 220 edges in the unit square
    assert 180 <= net.n_edges <= 240
    rows = run_partition_study(
        net,
        "loggaussian-1",
        deltas=[0.1, 0.05, 0.025, 0.01],
        replicates=20,
        seed=20240901,
        target_points=500,
        field_res=64,
        timing=True,
    )
    return rows


class TestCriterion7PartitionErrorTrend:
    def test_median_ise_nonincreasing(self, partition_study_rows):
        import time

        med = median_by_delta(partition_study_rows, "ise")
        deltas = sorted(med, reverse=True)  # coarse -> fine
        inversions = 0
        hard_fail = False
        for coarse, fine in zip(deltas, deltas[1:]):
            if med[fine] > med[coarse]:
                inversions += 1
                if med[fine] > 1.10 * med[coarse]:
                    hard_fail = True
        pretty = {d: float(f"{v:.4g}") for d, v in med.items()}
        report(
            7,
            not hard_fail and inversions <= 1,
            f"median ISE by delta {pretty}; adjacent inversions {inversions} (<=1, within 10%)",
        )


class TestCriterion8PartitionTimingTrend:
    def test_time_ratios(self, partition_study_rows):
        med = median_by_delta(partition_study_rows, "time_ratio")
        deltas = sorted(med, reverse=True)
        all_below_one = all(med[d] < 1.0 for d in deltas)
        increasing = all(med[f] > med[c] for c, f in zip(deltas, deltas[1:]))
        big = [
            r["time_ratio"]
            for r in partition_study_rows
            if r["delta"] == 0.1 and r["n_points"] >= 200
        ]
        half = bool(big) and float(np.median(big)) < 0.5
        pretty = {d: float(f"{v:.3g}") for d, v in med.items()}
        report(
            8,
            all_below_one and increasing and half,
            f"median time ratios {pretty}: all <1 ({all_below_one}), "
            f"increasing as delta shrinks ({increasing}), "
            f"delta=0.1 median {float(np.median(big)):.3g} <0.5 ({half})",
        )


class TestCriterion9SimulatorCalibration:
    def test_expected_count_hits_target(self):
        net = grid_network(11, 11, spacing=0.1)
        lat = discretize(net, 0.05)
        counts = []
        for s in range(200):
            lam = simulate_intensity(net, lat, "loggaussian-1", [s, 0], 520.0, 64)
            counts.append(sample_poisson_on_network(lam, [s, 1]).n)
        mean = float(np.mean(counts))
        se = float(np.std(counts, ddof=1) / math.sqrt(len(counts)))
        ok = abs(mean - 520.0) <= 3 * se
        report(9, ok, f"mean count {mean:.1f} vs target 520 (3SE = {3*se:.1f}, 200 reps)")

    def test_field_variance_and_correlation(self):
        spec = ExpCovSpec(variance=0.9, scale=0.09)
        res = 21
        cell = (6, 9)
        lagged = (8, 9)  # 2 cells = 0.1 apart
        a, b = [], []
        for s in range(240):
            g = sample_gaussian_field(res, spec, seed=s)
            a.append(g[cell])
            b.append(g[lagged])
        a, b = np.asarray(a), np.asarray(b)
        s2 = a.var(ddof=1)
        se_var = spec.variance * math.sqrt(2.0 / (len(a) - 1))
        var_ok = abs(s2 - 0.9) <= 3 * se_var
        d = 2 * (1.0 / (res - 1))
        rho_want = math.exp(-d / spec.scale)
        rho_hat = float(np.corrcoef(a, b)[0, 1])
        z_ok = abs(np.arctanh(rho_hat) - np.arctanh(rho_want)) <= 3.0 / math.sqrt(len(a) - 3)
        report(
            9,
            var_ok and z_ok,
            f"field variance {s2:.3f} vs 0.9 (3SE {3*se_var:.3f}); "
            f"corr at lag {d:.3f}: {rho_hat:.3f} vs {rho_want:.3f} (Fisher-z 3SE)",
        )


class TestCriterion10Determinism:
    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "lineheat", *map(str, argv)],
            capture_output=True,
            text=True,
        )

    def test_seeded_cli_runs_byte_identical(self, tmp_path):
        net = grid_network(5, 5, spacing=0.25)
        net_path = tmp_path / "net.geojson"
        write_network_geojson(net, net_path)

        sim_blobs, est_blobs, study_blobs = [], [], []
        pts = tmp_path / "pts.csv"
        lam = tmp_path / "lam.csv"
        est = tmp_path / "est.csv"
        study = tmp_path / "study.csv"
        for _ in range(2):
            p1 = self._run(
                "simulate", "--net", net_path, "--scenario", "loggaussian-3",
                "--seed", "11", "--target-points", "90", "--field-res", "16",
                "--out-points", pts, "--out-intensity", lam,
            )
            assert p1.returncode == 0, p1.stderr
            sim_blobs.append(pts.read_bytes() + lam.read_bytes() + p1.stdout.encode())
            p2 = self._run(
                "estimate", "--net", net_path, "--points", pts,
                "--method", "heat", "--adaptive", "--bw-global", "0.4",
                "--delta", "0.5", "--out", est,
            )
            assert p2.returncode == 0, p2.stderr
            est_blobs.append(est.read_bytes() + p2.stdout.encode())
            p3 = self._run(
                "study", "--net", net_path, "--scenario", "loggaussian-1",
                "--deltas", "0.5,0.25", "--replicates", "2", "--seed", "3",
                "--target-points", "60", "--field-res", "16",
                "--no-timing", "--out", study,
            )
            assert p3.returncode == 0, p3.stderr
            study_blobs.append(study.read_bytes() + p3.stdout.encode())
        ok = (
            sim_blobs[0] == sim_blobs[1]
            and est_blobs[0] == est_blobs[1]
            and study_blobs[0] == study_blobs[1]
        )
        report(10, ok, "simulate/estimate/study(--no-timing) reruns byte-identical")
