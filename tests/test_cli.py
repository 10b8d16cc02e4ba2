import json
import subprocess
import sys

import numpy as np
import pytest

from lineheat.ingest import read_lattice_function, read_network_geojson, write_network_geojson
from lineheat.lattice import discretize
from lineheat.network import NetworkLocation

from nets import grid_network


def run_cli(*argv, cwd=None):
    proc = subprocess.run(
        [sys.executable, "-m", "lineheat", *map(str, argv)],
        capture_output=True,
        text=True,
        cwd=cwd,
    )
    return proc


@pytest.fixture()
def toy(tmp_path):
    """A small network file plus three points sitting on it."""
    net = grid_network(3, 3, spacing=0.5, rng=np.random.default_rng(0))
    net_path = tmp_path / "net.geojson"
    write_network_geojson(net, net_path)
    pts_path = tmp_path / "pts.csv"
    locs = (NetworkLocation(0, 0.1), NetworkLocation(3, 0.25), NetworkLocation(5, 0.4))
    xy = [net.location_xy(loc) for loc in locs]
    pts_path.write_text("x,y\n" + "\n".join(f"{p[0]},{p[1]}" for p in xy) + "\n")
    return net, net_path, pts_path


class TestValidate:
    def test_prints_stats(self, toy):
        net, net_path, _ = toy
        proc = run_cli("validate", net_path)
        assert proc.returncode == 0
        assert proc.stdout.startswith("#CONFIG ")
        assert f"edges: {net.n_edges}" in proc.stdout
        assert "total_length:" in proc.stdout
        assert "degree_histogram:" in proc.stdout

    def test_missing_file_exits_2(self, tmp_path):
        proc = run_cli("validate", tmp_path / "nope.geojson")
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    @pytest.mark.parametrize("features, message", [
        ([1], "feature 1: not a JSON object"),
        ([{"type": "Feature", "geometry": {"type": "LineString"}}],
         "feature 1: LineString without a coordinates array"),
        ([{"type": "Feature", "geometry": {"type": "LineString", "coordinates": [[0, 0], [1]]}}],
         "feature 1: bad position [1]"),
    ], ids=["not-an-object", "no-coordinates", "short-position"])
    def test_malformed_feature_exits_2(self, tmp_path, features, message):
        net_path = tmp_path / "bad.geojson"
        net_path.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
        proc = run_cli("validate", net_path)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [f"error: {message}"]


class TestEstimate:
    def test_heat_mass_surfaces_end_to_end(self, toy, tmp_path):
        net, net_path, pts_path = toy
        out = tmp_path / "est.csv"
        proc = run_cli(
            "estimate", "--net", net_path, "--points", pts_path,
            "--method", "heat", "--bw", "0.2", "--out", out,
        )
        assert proc.returncode == 0, proc.stderr
        total = 0.0
        for line in out.read_text().strip().splitlines()[1:]:
            _, lo, hi, v = line.split(",")
            total += (float(hi) - float(lo)) * float(v)
        assert total == pytest.approx(3.0, rel=1e-9)

    def test_dx_flag_honored(self, toy, tmp_path):
        net, net_path, pts_path = toy
        out = tmp_path / "est.csv"
        proc = run_cli(
            "estimate", "--net", net_path, "--points", pts_path,
            "--method", "heat", "--bw", "0.2", "--dx", "0.05", "--out", out,
        )
        assert proc.returncode == 0
        # with dx 0.05 each 0.5-long edge has 10 cells + 1 extra boundary row
        back = read_network_geojson(net_path)
        lat = discretize(back, 0.05)
        rows = out.read_text().strip().splitlines()[1:]
        assert len(rows) == sum(len(c) for c in lat.edge_chains)
        f = read_lattice_function(out, lat)  # parses means the spacing matched
        assert f.integral() == pytest.approx(3.0, rel=1e-9)

    def test_bad_delta_exits_2_with_message(self, toy, tmp_path):
        _, net_path, pts_path = toy
        proc = run_cli(
            "estimate", "--net", net_path, "--points", pts_path,
            "--method", "heat", "--adaptive", "--bw-global", "0.3",
            "--delta", "0.3", "--out", tmp_path / "x.csv",
        )
        assert proc.returncode == 2
        assert "1/delta must be an integer" in proc.stderr

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_coordinate_exits_2(self, toy, tmp_path, value):
        _, net_path, _ = toy
        pts = tmp_path / "bad.csv"
        pts.write_text(f"x,y\n0.1,0.0\n{value},0.0\n")
        proc = run_cli(
            "estimate", "--net", net_path, "--points", pts,
            "--method", "heat", "--bw", "0.2", "--out", tmp_path / "est.csv",
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [f"error: record 2: non-finite coordinate ({value}, 0.0)"]

    @pytest.mark.parametrize("flags", [
        ("--bw", "inf"), ("--bw", "nan"), ("--bw", "1e-300"),
        ("--bw", "0.2", "--dx", "nan"), ("--bw", "0.2", "--dx", "0"),
        ("--bw", "0.2", "--dx", "-0.1"),
    ], ids=["bw-inf", "bw-nan", "bw-tiny", "dx-nan", "dx-zero", "dx-negative"])
    def test_bad_bandwidth_or_spacing_exits_2(self, toy, tmp_path, flags):
        _, net_path, pts_path = toy
        proc = run_cli(
            "estimate", "--net", net_path, "--points", pts_path,
            "--method", "heat", *flags, "--out", tmp_path / "est.csv",
        )
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ")

    def test_adaptive_partition_runs(self, toy, tmp_path):
        _, net_path, pts_path = toy
        out = tmp_path / "ad.csv"
        proc = run_cli(
            "estimate", "--net", net_path, "--points", pts_path,
            "--method", "heat", "--adaptive", "--bw-global", "auto",
            "--delta", "0.5", "--out", out,
        )
        assert proc.returncode == 0, proc.stderr
        assert "heuristic" in proc.stderr  # auto rule is labeled as such
        assert out.exists()

    def test_adaptive_equal_split_rejected(self, toy, tmp_path):
        _, net_path, pts_path = toy
        proc = run_cli(
            "estimate", "--net", net_path, "--points", pts_path,
            "--method", "esd", "--adaptive", "--bw-global", "0.3",
            "--out", tmp_path / "x.csv",
        )
        assert proc.returncode == 2

    def test_equal_split_gaussian_rejected(self, toy, tmp_path):
        _, net_path, pts_path = toy
        proc = run_cli(
            "estimate", "--net", net_path, "--points", pts_path,
            "--method", "esd", "--bw", "0.2", "--kernel", "gaussian",
            "--out", tmp_path / "x.csv",
        )
        assert proc.returncode == 2

    def test_raster_output(self, toy, tmp_path):
        _, net_path, pts_path = toy
        out = tmp_path / "r.csv"
        proc = run_cli(
            "estimate", "--net", net_path, "--points", pts_path,
            "--method", "heat", "--bw", "0.2", "--out", out,
            "--format", "raster-csv", "--raster-res", "16",
        )
        assert proc.returncode == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("# raster")
        assert len(lines) == 17

    def test_fixed_methods_run(self, toy, tmp_path):
        _, net_path, pts_path = toy
        for method in ("uniform-corrected", "jones-diggle", "esd", "esc"):
            out = tmp_path / f"{method}.csv"
            proc = run_cli(
                "estimate", "--net", net_path, "--points", pts_path,
                "--method", method, "--bw", "0.2", "--out", out,
            )
            assert proc.returncode == 0, (method, proc.stderr)
            assert out.exists()


class TestSimulate:
    def test_byte_identical_reruns(self, toy, tmp_path):
        _, net_path, _ = toy
        pts = tmp_path / "pts.csv"
        lam = tmp_path / "lam.csv"
        outs = []
        for _ in range(2):
            proc = run_cli(
                "simulate", "--net", net_path, "--scenario", "loggaussian-2",
                "--seed", "7", "--target-points", "80", "--field-res", "16",
                "--out-points", pts, "--out-intensity", lam,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append((pts.read_bytes(), lam.read_bytes(), proc.stdout))
        assert outs[0] == outs[1]

    def test_different_seeds_differ(self, toy, tmp_path):
        _, net_path, _ = toy
        data = []
        for seed in (1, 2):
            pts = tmp_path / f"pts{seed}.csv"
            lam = tmp_path / f"lam{seed}.csv"
            run_cli(
                "simulate", "--net", net_path, "--scenario", "loggaussian-1",
                "--seed", seed, "--target-points", "80", "--field-res", "16",
                "--out-points", pts, "--out-intensity", lam,
            )
            data.append(pts.read_bytes())
        assert data[0] != data[1]

    def test_gm5_scenario(self, toy, tmp_path):
        _, net_path, _ = toy
        proc = run_cli(
            "simulate", "--net", net_path, "--scenario", "paper-gm5",
            "--seed", "3", "--target-points", "60", "--field-res", "8",
            "--out-points", tmp_path / "p.csv", "--out-intensity", tmp_path / "l.csv",
        )
        assert proc.returncode == 0, proc.stderr


class TestStudy:
    def test_no_timing_byte_identical(self, toy, tmp_path):
        _, net_path, _ = toy
        out = tmp_path / "study.csv"
        blobs = []
        for _ in range(2):
            proc = run_cli(
                "study", "--net", net_path, "--scenario", "loggaussian-1",
                "--deltas", "0.5,0.25", "--replicates", "2", "--seed", "5",
                "--target-points", "40", "--field-res", "16",
                "--no-timing", "--out", out,
            )
            assert proc.returncode == 0, proc.stderr
            blobs.append(out.read_bytes() + proc.stdout.encode())
        assert blobs[0] == blobs[1]

    def test_schema_and_config_header(self, toy, tmp_path):
        _, net_path, _ = toy
        out = tmp_path / "study.csv"
        proc = run_cli(
            "study", "--net", net_path, "--scenario", "loggaussian-1",
            "--deltas", "0.5", "--replicates", "1", "--seed", "5",
            "--target-points", "40", "--field-res", "16", "--out", out,
        )
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("#CONFIG ")
        json.loads(lines[0][len("#CONFIG "):])
        assert lines[1] == "scenario,replicate,delta,n_points,ise,time_direct_s,time_partition_s,time_ratio"
        fields = lines[2].split(",")
        assert fields[0] == "loggaussian-1"
        assert float(fields[6]) > 0  # timing on by default

    def test_data_columns_deterministic_even_with_timing(self, toy, tmp_path):
        _, net_path, _ = toy
        datacols = []
        for tag in ("a", "b"):
            out = tmp_path / f"st_{tag}.csv"
            run_cli(
                "study", "--net", net_path, "--scenario", "loggaussian-1",
                "--deltas", "0.5", "--replicates", "1", "--seed", "5",
                "--target-points", "40", "--field-res", "16", "--out", out,
            )
            rows = [l.split(",")[:5] for l in out.read_text().strip().splitlines()[2:]]
            datacols.append(rows)
        assert datacols[0] == datacols[1]


class TestBench:
    def test_bench_reports_json(self, toy, tmp_path):
        _, net_path, pts_path = toy
        proc = run_cli(
            "bench", "--net", net_path, "--points", pts_path,
            "--method", "heat", "--bw", "0.2",
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout.strip().splitlines()[-1])
        assert payload["method"] == "heat"
        assert payload["wall_s"] > 0
        assert payload["n_points"] == 3
