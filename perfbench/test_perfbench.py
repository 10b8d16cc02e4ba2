"""Tests of the benchmark itself: deterministic inputs, a checker that rejects
corrupt outputs, counted solver work, metric names that match BENCHMARK.json,
and a clean failure without sources."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import check
import run
import trace_layers
import workloads

TINY_HEAT = workloads.Workload(
    "tiny-heat", 6, 120, 0.05, 0,
    ("--method", "heat", "--bw", "60", "--max-snap-dist", "50"), True,
)
TINY_RASTER = workloads.Workload(
    "tiny-raster", 6, 60, 0.0, 0,
    ("--method", "uniform-corrected", "--bw", "50", "--format", "raster-csv",
     "--raster-res", "32"), False,
)


def _estimate(w: workloads.Workload, tmp: Path):
    manifest = workloads.generate(w, 5, tmp)
    argv = [sys.executable, "-m", "lineheat", "estimate", "--net", "net.geojson",
            "--points", "events.csv", "--out", "out.csv", *w.args]
    proc = subprocess.run(argv, cwd=tmp, env=run.child_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return manifest, proc.stdout, tmp / "out.csv"


@pytest.fixture(scope="module")
def heat_output(tmp_path_factory):
    return _estimate(TINY_HEAT, tmp_path_factory.mktemp("heat"))


@pytest.fixture(scope="module")
def raster_output(tmp_path_factory):
    manifest, stdout, out = _estimate(TINY_RASTER, tmp_path_factory.mktemp("raster"))
    fails, summary = check.check_invocation(0, stdout, out, manifest)
    assert fails == []
    ref = {"kind": "raster row sums", "tol": check.RASTER_L1_TOL, "values": list(summary)}
    return manifest, stdout, out, ref


def _rewrite(src: Path, dst: Path, edit) -> Path:
    lines = src.read_text(encoding="utf-8").splitlines(keepends=True)
    dst.write_text("".join(edit(lines)), encoding="utf-8")
    return dst


def _scale_csv_values(lines, factor):
    out = [lines[0]]
    for ln in lines[1:]:
        e, lo, hi, v = ln.rstrip("\n").split(",")
        out.append(f"{e},{lo},{hi},{float(v) * factor!r}\n")
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(name, tmp_path):
    w = workloads.WORKLOADS[name]
    if w.side > 20:  # keep the test fast: the city workload differs only in size
        w = replace(w, side=12, n_records=800)
    a = workloads.generate(w, 3, tmp_path / "a")
    b = workloads.generate(w, 3, tmp_path / "b")
    workloads.generate(w, 4, tmp_path / "c")
    for f in ("net.geojson", "events.csv", "manifest.json"):
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
    assert (tmp_path / "a" / "events.csv").read_bytes() != (tmp_path / "c" / "events.csv").read_bytes()
    assert a == b
    assert a["records"] == w.n_records
    assert a["edges"] == len(a["edge_lengths"])
    assert a["shortest_edge"] == min(a["edge_lengths"])
    if w.stubs:
        assert a["shortest_edge"] == pytest.approx(workloads.STUB_LENGTH)
    if w.far_share:
        assert a["kept"] <= w.n_records - round(w.far_share * w.n_records)
    else:
        assert a["kept"] == w.n_records


def test_clean_heat_output_passes(heat_output):
    manifest, stdout, out = heat_output
    assert manifest["kept"] < manifest["records"]  # the drop path ran
    fails, integrals = check.check_invocation(0, stdout, out, manifest)
    assert fails == []
    assert integrals.sum() == pytest.approx(manifest["kept"], rel=1e-12)


def test_dropped_row_is_rejected(heat_output, tmp_path):
    manifest, stdout, out = heat_output
    bad = _rewrite(out, tmp_path / "o.csv", lambda ls: ls[:5] + ls[6:])
    fails, _ = check.check_invocation(0, stdout, bad, manifest)
    assert fails


def test_negated_value_is_rejected(heat_output, tmp_path):
    manifest, stdout, out = heat_output

    def negate(lines):
        k = next(i for i, ln in enumerate(lines[1:], 1) if float(ln.split(",")[3]) > 0)
        e, lo, hi, v = lines[k].rstrip("\n").split(",")
        return lines[:k] + [f"{e},{lo},{hi},{-float(v)!r}\n"] + lines[k + 1:]

    fails, _ = check.check_invocation(0, stdout, _rewrite(out, tmp_path / "o.csv", negate), manifest)
    assert any("negative" in f for f in fails)


def test_scaled_values_are_rejected(heat_output, tmp_path):
    manifest, stdout, out = heat_output
    bad = _rewrite(out, tmp_path / "o.csv", lambda ls: _scale_csv_values(ls, 1.02))
    fails, _ = check.check_invocation(0, stdout, bad, manifest)
    assert any("integral" in f for f in fails)


def test_wrong_n_points_is_rejected(heat_output, raster_output):
    for manifest, stdout, out in (heat_output, raster_output[:3]):
        n = manifest["kept"]
        bad = stdout.replace(f"n_points: {n}\n", f"n_points: {n + 1}\n")
        assert bad != stdout
        fails, _ = check.check_invocation(0, bad, out, manifest)
        assert any("n_points" in f for f in fails)


def test_nonzero_exit_is_rejected(heat_output):
    manifest, stdout, out = heat_output
    assert check.check_invocation(2, stdout, out, manifest)[0]


def test_raster_corruptions_are_rejected(raster_output, tmp_path):
    manifest, stdout, out, ref = raster_output
    assert check.check_invocation(0, stdout, out, manifest, ref)[0] == []

    def scale(lines):
        return [lines[0]] + [
            ",".join("NA" if c == "NA" else repr(float(c) * 1.02) for c in ln.rstrip("\n").split(","))
            + "\n" for ln in lines[1:]
        ]

    def negate(lines):
        r = next(i for i, ln in enumerate(lines[1:], 1) if any(c not in ("NA", "0") for c in ln.split(",")))
        cells = lines[r].rstrip("\n").split(",")
        j = next(i for i, c in enumerate(cells) if c != "NA" and float(c) > 0)
        cells[j] = repr(-float(cells[j]))
        return lines[:r] + [",".join(cells) + "\n"] + lines[r + 1:]

    for name, edit in (("scaled", scale), ("negated", negate), ("dropped", lambda ls: ls[:-1])):
        bad = _rewrite(out, tmp_path / f"{name}.csv", edit)
        assert check.check_invocation(0, stdout, bad, manifest, ref)[0], name


def test_reference_tolerance_admits_a_one_percent_change(heat_output):
    manifest, stdout, out = heat_output
    _, integrals = check.check_invocation(0, stdout, out, manifest)
    ref = {"kind": "per-edge integrals", "tol": check.EDGE_L1_TOL, "values": list(integrals)}
    signs = np.where(np.arange(len(integrals)) % 2, 1.0, -1.0)
    assert check.compare_reference(integrals * (1 + 0.01 * signs), ref) == []
    assert check.compare_reference(integrals * (1 + 0.05 * signs), ref)


def test_self_times_subtract_children():
    spans = [
        {"id": 0, "name": "pipeline", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "heat.solve", "parent": 0, "start": 1.0, "end": 5.0},
        {"id": 2, "name": "heat.deposit", "parent": 1, "start": 1.0, "end": 2.0},
        {"id": 3, "name": "lattice.build", "parent": 0, "start": 5.0, "end": 6.0},
        {"id": 4, "name": "lattice.build", "parent": 0, "start": 6.0, "end": 8.0},
    ]
    assert run.self_times(spans) == {
        "pipeline": 3.0, "heat.solve": 3.0, "heat.deposit": 1.0, "lattice.build": 3.0,
    }


@pytest.mark.parametrize("args, extra_solves", [
    (("--method", "heat", "--bw", "60"), 0),
    (("--method", "heat", "--adaptive", "--bw-global", "60"), None),
    (("--method", "heat", "--adaptive", "--bw-global", "60", "--delta", "0.1"), 1),
])
def test_traced_run_counts_the_solver_work_that_ran(heat_output, tmp_path, args, extra_solves):
    manifest, _, out = heat_output
    step_kernel = trace_layers.heat._step_values
    tr = trace_layers.Tracer("tiny")
    trace_layers.run_pipeline(tr, out.parent, tmp_path / "o.csv", [*args, "--max-snap-dist", "50"])
    c = tr.counts
    assert trace_layers.heat._step_values is step_kernel  # wrappers removed
    n = manifest["kept"]
    assert c["n_points"] == n
    if extra_solves is None:  # direct: one solve per event after the pilot
        assert c["heat.solves"] == 1 + n
    else:
        assert c["heat.solves"] == 1 + extra_solves
    if "--adaptive" not in args:
        lh = trace_layers.lh
        net = lh.read_network_geojson(out.parent / "net.geojson")
        t_over_dt = 60.0**2 / lh.heat.step_size(lh.discretize(net, lh.default_dx(net, 60.0)))
        assert math.floor(t_over_dt) <= c["heat.steps"] <= math.floor(t_over_dt) + 1
    else:
        assert c["heat.steps"] > c["heat.solves"]


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    q = {"median": 1.0}
    e2e = run.end_to_end_metrics(q, q, q)
    assert {k: v["unit"] for k, v in e2e.items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = run.layer_metrics({"runs": [{"cpu_s": 1.0}]},
                              {"imports": [0.5], "spans": [], "counts": {}}, 2.0, 0.5)
    assert {k: v["unit"] for k, v in layer.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in spec["workloads"])
    readme = (run.BENCH / "README.md").read_text(encoding="utf-8")
    for m in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]:
        assert f"`{m['name']}`" in readme, m["name"]


def test_fails_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(Path(run.__file__).parent, bench, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kernel-uc", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
