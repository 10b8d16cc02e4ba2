"""The package API that the benchmark's traced run calls.

``perfbench/trace_layers.py`` mirrors ``lineheat estimate`` with the public
functions and, after it, times ``heat_step`` and ``Lattice.distance_field``
calls; it counts ``distance_field`` calls by swapping the reference the
``Lattice`` class holds.  A rename or removal of any of these would
otherwise fail only in a traced benchmark run.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np

from lineheat.ingest import write_network_geojson

from nets import grid_network

TRACE_LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "trace_layers.py"


def load_trace_layers():
    spec = importlib.util.spec_from_file_location("trace_layers", TRACE_LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_uniform_corrected_raster_pipeline_and_micro_timings(tmp_path):
    net = grid_network(3, 3, spacing=0.5, rng=np.random.default_rng(0))
    write_network_geojson(net, tmp_path / "net.geojson")
    xy = net._xy(np.array([0, 3, 5]), 0.2)
    (tmp_path / "events.csv").write_text("x,y\n" + "".join(f"{x},{y}\n" for x, y in xy))
    tl = load_trace_layers()
    tr = tl.Tracer("tiny")
    args = ["--method", "uniform-corrected", "--bw", "0.3", "--format", "raster-csv", "--raster-res", "16"]
    out = tmp_path / "est.csv"
    net, lattice, est = tl.run_pipeline(tr, tmp_path, out, args)
    assert out.exists() and tr.counts["n_points"] == 3
    tl.micro_timings(tr, net, lattice, est)
    us = tr.counts["lattice.dijkstra_us"]
    assert math.isfinite(us) and us > 0
