import json
import subprocess
import sys
import time

import numpy as np
import pytest

from lineheat.adaptive import abramson_bandwidths
from lineheat.experiment import estimate_adaptive_direct
from lineheat.heat import default_dx, estimate_heat
from lineheat.ingest import read_lattice_function, read_network_geojson, read_points, write_network_geojson
from lineheat.lattice import discretize

from nets import grid_network, random_pattern, stub_network


def run_cli(*argv, cwd=None, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "lineheat", *map(str, argv)],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=timeout,
    )
    return proc


@pytest.fixture()
def toy(tmp_path):
    """A small network file plus three points sitting on it."""
    net = grid_network(3, 3, spacing=0.5, rng=np.random.default_rng(0))
    net_path = tmp_path / "net.geojson"
    write_network_geojson(net, net_path)
    pts_path = tmp_path / "pts.csv"
    xy = net._xy(np.array([0, 3, 5]), np.array([0.1, 0.25, 0.4]))
    pts_path.write_text("x,y\n" + "\n".join(f"{p[0]},{p[1]}" for p in xy) + "\n")
    return net, net_path, pts_path


class TestSubcommands:
    def test_help_lists_the_four_subcommands(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "usage: lineheat [-h] {validate,simulate,estimate,study} ..."

    def test_bench_is_not_a_subcommand(self, toy):
        _, net_path, pts_path = toy
        proc = run_cli("bench", "--net", net_path, "--points", pts_path, "--method", "heat", "--bw", "0.2")
        assert proc.returncode == 2
        assert "invalid choice: 'bench'" in proc.stderr


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

    def test_coordinate_beyond_bound_exits_2(self, tmp_path):
        # squared coordinate differences of 1e160 overflow in the segment predicates
        net_path = tmp_path / "big.geojson"
        lines = [[[0, 0], [1e160, 0]], [[1e160, 0], [1e160, 1e160]], [[1e160, 1e160], [0, 1e160]]]
        net_path.write_text(json.dumps({"type": "FeatureCollection", "features": [
            {"type": "Feature", "geometry": {"type": "LineString", "coordinates": c}} for c in lines]}))
        proc = run_cli("validate", net_path)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == ["error: feature 1: coordinate beyond +-3.35195e+153 (1e+160, 0.0)"]


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

    @pytest.mark.parametrize("record, message", [
        ("nan,0.0", "non-finite coordinate (nan, 0.0)"),
        ("inf,0.0", "non-finite coordinate (inf, 0.0)"),
        # squared differences of these overflow in the snap
        ("1e300,1e300", "coordinate beyond +-3.35195e+153 (1e+300, 1e+300)"),
        ("1e170,-3e170", "coordinate beyond +-3.35195e+153 (1e+170, -3e+170)"),
    ], ids=["nan", "inf", "beyond-bound", "beyond-bound-mixed"])
    def test_non_finite_coordinate_exits_2(self, toy, tmp_path, record, message):
        _, net_path, _ = toy
        pts = tmp_path / "bad.csv"
        pts.write_text(f"x,y\n0.1,0.0\n{record}\n")
        proc = run_cli(
            "estimate", "--net", net_path, "--points", pts,
            "--method", "heat", "--bw", "0.2", "--out", tmp_path / "est.csv",
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [f"error: record 2: {message}"]

    @pytest.mark.parametrize("rows, message", [
        ("0.1,0.0\n0.2\n", "record 2: too few fields for columns x,y"),
        ("0.1,0.0\n\n0.2,0.0\n0.3,north\n",
         "record 3: bad coordinate value: could not convert string to float: 'north'"),
    ], ids=["short-row", "bad-value"])
    def test_bad_record_exits_2_naming_it(self, toy, tmp_path, rows, message):
        _, net_path, _ = toy
        pts = tmp_path / "bad.csv"
        pts.write_text("x,y\n" + rows)
        proc = run_cli(
            "estimate", "--net", net_path, "--points", pts,
            "--method", "heat", "--bw", "0.2", "--out", tmp_path / "est.csv",
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [f"error: {message}"]

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

    @pytest.mark.parametrize("flags", [("--dx", "20"), ()], ids=["estimate-dx", "estimate-default-dx"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_bw_rejected_before_the_network_is_read(self, tmp_path, flags, value):
        # the network file does not exist: the bandwidth is checked first
        proc = run_cli(
            "estimate", "--net", tmp_path / "nope.geojson", "--points", tmp_path / "nope.csv",
            "--method", "uniform-corrected", "--bw", value, *flags, "--out", tmp_path / "est.csv",
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == ["error: --bw must be positive and finite"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_bw_global_rejected_before_the_network_is_read(self, tmp_path, value):
        proc = run_cli(
            "estimate", "--net", tmp_path / "nope.geojson", "--points", tmp_path / "nope.csv",
            "--method", "heat", "--adaptive", "--bw-global", value, "--out", tmp_path / "est.csv",
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == ["error: global bandwidth must be positive and finite"]

    @pytest.mark.parametrize("flags, message", [
        (("--adaptive", "--bw-global", "100", "--delta", "0.3"), "1/delta must be an integer (got 1/0.3 = 3.3333333333333335)"),
        (("--method", "esc", "--adaptive", "--bw-global", "100"),
         "adaptive estimation is supported for the heat method only"),
        (("--adaptive", "--bw", "100"), "--adaptive requires --bw-global (number or 'auto')"),
        ((), "--bw is required for fixed-bandwidth estimation"),
        (("--bw", "1", "--format", "raster-csv", "--raster-res", "2001"),
         "--raster-res must be from 1 to 2000, got 2001"),
        (("--bw", "1", "--format", "raster-csv", "--raster-res", "-3"),
         "--raster-res must be from 1 to 2000, got -3"),
        (("--bw", "1e155"), "--bw 1e+155 is above 1.34078e+154: its square, the diffusion time, overflows"),
        (("--adaptive", "--bw-global", "1e155"),
         "global bandwidth 1e+155 is above 1.34078e+154: its square, the diffusion time, overflows"),
        (("--bw", "1", "--dx", "-3"), "--dx must be positive and finite"),
        (("--bw", "1", "--dx", "0"), "--dx must be positive and finite"),
        (("--bw", "1", "--dx", "nan"), "--dx must be positive and finite"),
        (("--adaptive", "--bw-global", "100", "--delta", "0.5", "--dx", "inf"), "--dx must be positive and finite"),
        (("--bw", "1", "--max-snap-dist", "-1"), "--max-snap-dist must be positive"),
        (("--bw", "1", "--max-snap-dist", "nan"), "--max-snap-dist must be positive"),
        (("--bw", "1", "--max-snap-dist", "0"), "--max-snap-dist must be positive"),
        (("--bw", "100", "--delta", "0.3"), "--delta requires --adaptive"),
        (("--bw", "100", "--bw-global", "50"), "--bw-global requires --adaptive"),
        (("--adaptive", "--bw-global", "150", "--bw", "5"),
         "--bw is for fixed-bandwidth estimation; --adaptive takes --bw-global"),
        (("--bw", "100", "--kernel", "quartic"), "--kernel applies to the kernel methods, not --method heat"),
    ], ids=["delta", "adaptive-method", "adaptive-without-bw-global", "fixed-without-bw",
            "raster-cells", "raster-negative", "bw-square", "bw-global-square",
            "dx-negative", "dx-zero", "dx-nan", "adaptive-dx-inf",
            "snap-negative", "snap-nan", "snap-zero",
            "fixed-with-delta", "fixed-with-bw-global", "adaptive-with-bw", "heat-with-kernel"])
    def test_bad_arguments_rejected_before_the_network_is_read(self, tmp_path, flags, message):
        proc = run_cli(
            "estimate", "--net", tmp_path / "nope.geojson", "--points", tmp_path / "nope.csv",
            *flags, "--out", tmp_path / "est.csv",
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("records", ["on-and-far", "empty"])
    @pytest.mark.parametrize("value", ["nan", "0", "-1"])
    def test_bad_max_snap_dist_exits_2(self, toy, tmp_path, value, records):
        _, net_path, pts_path = toy
        pts = tmp_path / "pts.csv"
        if records == "empty":
            pts.write_text("x,y\n")
        else:  # one record on the network, one 300 units off it
            pts.write_text(pts_path.read_text() + "300.0,300.0\n")
        proc = run_cli(
            "estimate", "--net", net_path, "--points", pts, "--method", "heat",
            "--bw", "0.2", "--max-snap-dist", value, "--out", tmp_path / "est.csv",
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == ["error: --max-snap-dist must be positive"]

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

    def test_adaptive_auto_without_records_exits_2(self, toy, tmp_path):
        _, net_path, _ = toy
        pts = tmp_path / "pts.csv"
        pts.write_text("x,y\n")
        proc = run_cli(
            "estimate", "--net", net_path, "--points", pts, "--method", "heat",
            "--adaptive", "--bw-global", "auto", "--out", tmp_path / "est.csv",
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "warning: input contained no event records",
            "error: the heuristic global bandwidth needs at least one data point",
        ]

    @pytest.mark.parametrize("flags", [("--bw", "100"), ("--adaptive", "--bw-global", "100")],
                             ids=["fixed", "adaptive"])
    def test_degenerate_edge_exits_3(self, tmp_path, flags):
        # a 20 m run of 1 cm edges spans more than dx/2 at sigma = 100, so the solver
        # keeps a 1 cm link, which asks for ~1e8 explicit steps: refused, not a hang
        write_network_geojson(stub_network(20.0, 2000), tmp_path / "net.geojson")
        (tmp_path / "pts.csv").write_text("x,y\n250,0\n500,0\n")
        t0 = time.perf_counter()
        proc = run_cli(
            "estimate", "--net", tmp_path / "net.geojson", "--points", tmp_path / "pts.csv",
            *flags, "--out", tmp_path / "est.csv", timeout=60,
        )
        assert time.perf_counter() - t0 < 30
        assert proc.returncode == 3
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: ") and "explicit steps exceed the budget" in line
        assert "shortest solver link is 0.01 long; drop or merge edges 0.01 long" in line
        assert not (tmp_path / "est.csv").exists()

    @pytest.mark.parametrize("flags", [("--bw", "100"), ("--adaptive", "--bw-global", "100")],
                             ids=["fixed", "adaptive"])
    def test_single_short_edge_runs(self, tmp_path, flags):
        # one 1 cm spur at sigma = 100 is merged into its vertex in the solver
        write_network_geojson(stub_network(0.01), tmp_path / "net.geojson")
        (tmp_path / "pts.csv").write_text("x,y\n250,0\n500,0\n1000,0.005\n")
        proc = run_cli(
            "estimate", "--net", tmp_path / "net.geojson", "--points", tmp_path / "pts.csv",
            *flags, "--out", tmp_path / "est.csv", timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "n_points: 3" in proc.stdout
        integral = float(proc.stdout.split("estimate_integral: ")[1].split()[0])
        assert integral == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("flags, name", [
        (("--dx", "0.000001"), "dx_target 1e-06"),
        (("--format", "raster-csv", "--raster-res", "200000"), "--raster-res"),
    ], ids=["lattice-nodes", "raster-cells"])
    def test_size_beyond_limit_exits_2(self, toy, tmp_path, flags, name):
        # 6e6 nodes on the toy network (length 6) and 4e10 raster cells are
        # refused before either is allocated
        _, net_path, pts_path = toy
        t0 = time.perf_counter()
        proc = run_cli(
            "estimate", "--net", net_path, "--points", pts_path, "--bw", "0.3", *flags,
            "--out", tmp_path / "est.csv", timeout=60,
        )
        assert time.perf_counter() - t0 < 10
        assert proc.returncode == 2
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: ") and name in line
        assert not (tmp_path / "est.csv").exists()

    @pytest.mark.parametrize(
        "flags, names, clustered",
        [
            (("--method", "uniform-corrected", "--bw", "5", "--dx", "0.02"), ("--dx", "--bw"), False),
            (("--adaptive", "--bw-global", "5", "--dx", "0.15"), ("--bw-global", "--dx"), True),
        ],
        ids=["kernel-pairs", "direct-node-steps"],
    )
    def test_work_beyond_budget_exits_3(self, tmp_path, flags, names, clustered):
        # 1,000 points on 1,200 m of streets.  Spread out, the edge corrections
        # would pair 60k lattice nodes with one another.  With 999 of them
        # within 1 m and one 180 m away, the far one's bandwidth is 31 times
        # --bw-global, so the one-pass direct estimate would take 1.2e6 steps
        # on 8,001 nodes, 9.7e9 node-steps (the pilot 9.9e6).  Both are
        # refused up front.
        net = grid_network(3, 3, spacing=100.0)
        write_network_geojson(net, tmp_path / "net.geojson")
        rng = np.random.default_rng(0)
        if clustered:
            xy = [(50.0 + rng.uniform(-1.0, 1.0), 0.0) for _ in range(999)] + [(150.0, 200.0)]
        else:
            edge, u = rng.integers(0, net.n_edges, 1000), rng.random(1000)
            xy = net._xy(edge, u * net.edge_lengths[edge])
        (tmp_path / "pts.csv").write_text("x,y\n" + "".join(f"{x},{y}\n" for x, y in xy))
        t0 = time.perf_counter()
        proc = run_cli(
            "estimate", "--net", "net.geojson", "--points", "pts.csv", *flags,
            "--out", "est.csv", cwd=tmp_path, timeout=60,
        )
        assert time.perf_counter() - t0 < 10
        assert proc.returncode == 3, proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: ") and all(name in line for name in names)
        assert not (tmp_path / "est.csv").exists()

    @pytest.mark.parametrize("flags", [
        ("--bw", "1e154"), ("--bw", "100", "--dx", "1e200"), ("--adaptive", "--bw-global", "150", "--dx", "1e200"),
    ], ids=["bw-huge", "dx-huge", "adaptive-dx-huge"])
    def test_solver_graph_without_links_takes_no_step(self, toy, tmp_path, flags):
        # every link is merged: each component is one solver node, which keeps its mass
        net, net_path, pts_path = toy
        proc = run_cli("estimate", "--net", net_path, "--points", pts_path, *flags, "--out", tmp_path / "est.csv")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        dx = json.loads(proc.stdout.splitlines()[0].split(" ", 1)[1])["resolved_dx"]
        est = read_lattice_function(tmp_path / "est.csv", discretize(net, dx))
        assert len(np.unique(est.values)) == 1
        assert est.integral() == pytest.approx(3.0, rel=1e-12)

    def test_adaptive_without_delta_is_the_direct_estimate(self, tmp_path):
        # the one-pass batch the CLI runs against the per-point loop
        net = grid_network(4, 4, spacing=50.0, jitter=10.0, rng=np.random.default_rng(3))
        write_network_geojson(net, tmp_path / "net.geojson")
        pat = random_pattern(net, 60, np.random.default_rng(4))
        xy = net._xy(pat.edge, pat.offset)
        (tmp_path / "pts.csv").write_text("x,y\n" + "".join(f"{float(x)!r},{float(y)!r}\n" for x, y in xy))
        proc = run_cli(
            "estimate", "--net", "net.geojson", "--points", "pts.csv",
            "--adaptive", "--bw-global", "20", "--out", "est.csv", cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        dx = json.loads(proc.stdout.splitlines()[0].split(" ", 1)[1])["resolved_dx"]
        back = read_network_geojson(tmp_path / "net.geojson")
        pattern, _ = read_points(tmp_path / "pts.csv", back, float("inf"))
        pilot = estimate_heat(pattern, discretize(back, default_dx(back, 20.0)), 20.0)
        bw = abramson_bandwidths(pattern, pilot, 20.0)
        lat = discretize(back, dx)
        direct = estimate_adaptive_direct(pattern, lat, bw).values
        got = read_lattice_function(tmp_path / "est.csv", lat).values
        assert len(np.unique(bw.bandwidths)) == pattern.n == 60
        assert np.abs(got - direct).max() <= 1e-12 * direct.max()

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

    @pytest.mark.parametrize("flags", [
        ("--bw", "0.2"),
        ("--adaptive", "--bw-global", "0.3"),
        ("--adaptive", "--bw-global", "0.3", "--delta", "0.5"),
        ("--adaptive", "--bw-global", "auto"),
        ("--method", "uniform-corrected", "--bw", "0.2", "--format", "raster-csv", "--raster-res", "16"),
        ("--method", "jones-diggle", "--bw", "0.2"),
        ("--method", "esd", "--bw", "0.2"),
        ("--method", "esc", "--bw", "0.2"),
    ], ids=["heat", "adaptive", "adaptive-delta", "adaptive-auto", "uniform-corrected-raster",
            "jones-diggle", "esd", "esc"])
    def test_permuted_records_give_identical_output(self, toy, tmp_path, flags):
        # the same files in two directories, the second with its data rows permuted;
        # 200 more records on the toy network make kernels and deposits overlap
        net, net_path, pts_path = toy
        header, *rows = pts_path.read_text().splitlines()
        rng = np.random.default_rng(5)
        pat = random_pattern(net, 200, rng)
        rows += [f"{x!r},{y!r}" for x, y in net._xy(pat.edge, pat.offset).tolist()]
        runs = []
        for name, order in (("given", rows), ("permuted", [rows[i] for i in rng.permutation(len(rows))])):
            (tmp_path / name).mkdir()
            (tmp_path / name / "pts.csv").write_text("\n".join([header, *order]) + "\n")
            proc = run_cli("estimate", "--net", net_path, "--points", "pts.csv", *flags, "--out", "est.csv",
                           cwd=tmp_path / name)
            assert proc.returncode == 0, proc.stderr
            runs.append((proc.stdout, proc.stderr, (tmp_path / name / "est.csv").read_bytes()))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("method", ["heat", "uniform-corrected", "jones-diggle", "esd", "esc"])
    def test_header_only_points_give_the_zero_estimate(self, toy, tmp_path, method):
        _, net_path, _ = toy
        pts = tmp_path / "pts.csv"
        pts.write_text("x,y\n")
        proc = run_cli("estimate", "--net", net_path, "--points", pts, "--method", method, "--bw", "0.2",
                       "--out", tmp_path / "est.csv")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == ["warning: input contained no event records"]
        assert proc.stdout.splitlines()[1:3] == ["n_points: 0", "estimate_integral: 0"]
        values = [float(r.split(",")[-1]) for r in (tmp_path / "est.csv").read_text().splitlines()[1:]]
        assert values and all(v == 0.0 for v in values)

    def test_header_only_points_refused_by_the_adaptive_estimate(self, toy, tmp_path):
        _, net_path, _ = toy
        pts = tmp_path / "pts.csv"
        pts.write_text("x,y\n")
        proc = run_cli("estimate", "--net", net_path, "--points", pts, "--adaptive", "--bw-global", "0.3",
                       "--out", tmp_path / "est.csv")
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "warning: input contained no event records",
            "error: adaptive bandwidths need at least one data point",
        ]


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


    @pytest.mark.parametrize("flags, message", [
        (("--field-res", "1025"), "field resolution must be from 2 to 1024, got 1025"),
        (("--field-res", "1"), "field resolution must be from 2 to 1024, got 1"),
        (("--target-points", "1e9"), "target points must be in (0, 1e+06], got 1e+09"),
        (("--target-points", "-5"), "target points must be in (0, 1e+06], got -5"),
        (("--target-points", "nan"), "target points must be in (0, 1e+06], got nan"),
        (("--dx", "-1"), "--dx must be positive and finite"),
        (("--dx", "0"), "--dx must be positive and finite"),
        (("--dx", "nan"), "--dx must be positive and finite"),
        (("--dx", "inf"), "--dx must be positive and finite"),
    ], ids=["field-res-large", "field-res-small", "target-large", "target-negative", "target-nan",
            "dx-negative", "dx-zero", "dx-nan", "dx-inf"])
    @pytest.mark.parametrize("command", ["simulate", "study"])
    def test_oversized_simulation_rejected_before_the_network_is_read(self, tmp_path, command, flags, message):
        # refused before the network is read: no field is sampled and no points are drawn
        outs = (("--out-points", tmp_path / "p.csv", "--out-intensity", tmp_path / "l.csv")
                if command == "simulate" else ("--out", tmp_path / "study.csv"))
        proc = run_cli(command, "--net", tmp_path / "nope.geojson", "--scenario", "loggaussian-1",
                       "--seed", "0", *flags, *outs)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [f"error: {message}"]
        assert proc.stdout == "" and not any(tmp_path.iterdir())


class TestNumpyOnly:
    # the simulator and the study need numpy alone: scipy is a test oracle
    BLOCKED = (
        "import sys\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.partition('.')[0] == 'scipy':\n"
        "            raise ImportError(f'{name} is blocked')\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "from lineheat.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )

    @pytest.mark.parametrize("argv", [
        ("simulate", "--scenario", "loggaussian-1", "--seed", "4", "--target-points", "60",
         "--field-res", "16", "--out-points", "pts.csv", "--out-intensity", "lam.csv"),
        ("study", "--scenario", "loggaussian-2", "--seed", "4", "--target-points", "40",
         "--field-res", "8", "--deltas", "0.5,0.25", "--no-timing", "--replicates", "1",
         "--out", "study.csv"),
    ], ids=["simulate", "study"])
    def test_runs_with_scipy_blocked(self, toy, tmp_path, argv):
        _, net_path, _ = toy
        runs = []
        for cmd in ([sys.executable, "-c", self.BLOCKED], [sys.executable, "-m", "lineheat"]):
            wd = tmp_path / str(len(runs))
            wd.mkdir()
            proc = subprocess.run([*cmd, argv[0], "--net", str(net_path), *argv[1:]],
                                  capture_output=True, text=True, cwd=wd)
            assert proc.returncode == 0, proc.stderr
            runs.append([proc.stdout] + [(wd / f).read_bytes() for f in sorted(p.name for p in wd.iterdir())])
        assert runs[0] == runs[1] and len(runs[0]) > 1


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
        assert lines[1] == ("scenario,replicate,delta,n_points,ise,time_direct_s,"
                            "time_exact_onepass_s,time_partition_s,time_ratio")
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

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_bad_global_bandwidth_exits_2(self, toy, tmp_path, value):
        _, net_path, _ = toy
        out = tmp_path / "study.csv"
        proc = run_cli(
            "study", "--net", net_path, "--scenario", "loggaussian-1",
            "--deltas", "0.5", "--replicates", "1", "--seed", "1",
            "--target-points", "40", "--field-res", "16", "--no-timing",
            "--bw-global", value, "--out", out,
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == ["error: global bandwidth must be positive and finite"]
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (("--deltas", "0.3"), "1/delta must be an integer (got 1/0.3 = 3.3333333333333335)"),
        (("--deltas", "0.5,2"), "delta must be in (0, 1]"),
        (("--deltas", ","), "need at least one quantile step"),
        (("--replicates", "0"), "need at least one replicate"),
        (("--bw-global", "inf"), "global bandwidth must be positive and finite"),
    ], ids=["delta", "delta-above-one", "no-delta", "no-replicate", "bw-global"])
    def test_bad_study_arguments_rejected_before_the_network_is_read(self, tmp_path, flags, message):
        proc = run_cli(
            "study", "--net", tmp_path / "nope.geojson", "--scenario", "loggaussian-1", "--seed", "0",
            *flags, "--out", tmp_path / "study.csv",
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [f"error: {message}"]
        assert proc.stdout == "" and not (tmp_path / "study.csv").exists()
