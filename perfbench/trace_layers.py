"""Traced per-layer run of one workload, in a fresh process.

Calls lineheat's public functions in the same order as ``cli._cmd_estimate``
and records a span around each call: (name, start, end, parent, workload).
Counts are recorded at the same boundaries; the solver's step and solve
counts are the calls of its step kernel and solve entry points, counted by
wrapping them for the span of the pipeline.  After the mirrored pipeline,
outside its total, it times a second ``build_network`` on the parsed arrays,
a fixed number of ``heat_step`` calls and a sample of
``Lattice.distance_field`` calls on the workload lattice.  Spans and counts
stay in memory and are written as one JSON document at the end.

    PYTHONPATH=src python3 perfbench/trace_layers.py --workdir DIR --out FILE --spans FILE
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

_t0 = time.perf_counter()
import lineheat as lh  # noqa: E402
from lineheat import heat  # noqa: E402
from lineheat.heat import DEFAULT_CONFIG  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

STEP_BLOCKS = 5
STEPS_PER_BLOCK = 40
DIJKSTRA_SOURCES = 40
#: Cutoff of the timed distance fields: the support of the kernel-uc kernel
#: (gaussian, bandwidth 50, truncated at 4 sigma).
DIJKSTRA_CUTOFF = 200.0


class Tracer:
    """Spans and counts of one workload, kept in memory."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "workload": self.workload,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


def _opt(args: list[str], name: str, default=None):
    return args[args.index(name) + 1] if name in args else default


def run_pipeline(tr: Tracer, workdir: Path, out: Path, args: list[str]):
    """Mirror of cli._cmd_estimate for the options the workloads use."""
    cfg = DEFAULT_CONFIG
    method = _opt(args, "--method", "heat")
    max_snap = float(_opt(args, "--max-snap-dist", "inf"))
    fmt = _opt(args, "--format", "lattice-csv")
    res = int(_opt(args, "--raster-res", "128"))
    delta = _opt(args, "--delta")
    with count_calls(heat._step_values) as steps, \
            count_calls(heat.heat_solve, heat.estimate_heat_batch) as solves, \
            tr.span("pipeline"):
        with tr.span("ingest.read_network"):
            net = lh.read_network_geojson(workdir / "net.geojson")
        with tr.span("ingest.read_points"):
            pattern, report = lh.read_points(workdir / "events.csv", net, max_snap)
        if "--adaptive" in args:
            star = float(_opt(args, "--bw-global"))
            with tr.span("lattice.build"):
                pilot_lat = lh.discretize(net, lh.default_dx(net, star))
            with tr.span("heat.pilot"):
                with tr.span("heat.deposit"):
                    dep = lh.deposit_initial_mass(pattern, pilot_lat)
                pilot = lh.heat_solve(dep, star * star, cfg)
            with tr.span("adaptive.bandwidths"):
                bw = lh.abramson_bandwidths(pattern, pilot, star, -0.5)
            with tr.span("lattice.build"):
                lattice = lh.discretize(net, lh.default_dx(net, float(bw.bandwidths.min())))
            if delta is not None:
                with tr.span("adaptive.partition"):
                    est = lh.estimate_adaptive_partition(pattern, lattice, bw, float(delta), cfg)
                plan = lh.make_partition(bw, float(delta))
                tr.counts["adaptive.bins_nonempty"] = sum(
                    1 for d in range(plan.n_bins) if len(plan.bin_indices(d)))
            else:
                with tr.span("adaptive.direct"):
                    est = lh.estimate_adaptive_direct(pattern, lattice, bw, cfg)
            tr.counts["adaptive.n_clamped"] = bw.n_clamped
        else:
            sigma = float(_opt(args, "--bw"))
            with tr.span("lattice.build"):
                lattice = lh.discretize(net, lh.default_dx(net, sigma))
            if method == "heat":
                with tr.span("heat.solve"):
                    with tr.span("heat.deposit"):
                        dep = lh.deposit_initial_mass(pattern, lattice)
                    est = lh.heat_solve(dep, sigma * sigma, cfg)
            else:
                kernel = lh.Kernel1D("gaussian", sigma)
                with count_calls(lh.Lattice.distance_field) as calls:
                    with tr.span("kernels.estimate"):
                        est = lh.estimate_uniform_corrected(pattern, lattice, kernel)
                tr.counts["lattice.dijkstra_calls"] = calls[0]
        with tr.span("ingest.write"):
            lh.write_lattice_function(est, out, fmt, res)

    c = tr.counts
    c["network.edges"] = net.n_edges
    c["ingest.records"] = report.n_records
    c["ingest.dropped"] = report.n_dropped
    c["ingest.kept_ratio"] = report.n_snapped / report.n_records
    c["ingest.write_bytes"] = out.stat().st_size
    c["lattice.nodes"] = lattice.n_nodes
    c["lattice.dx"] = lattice.min_spacing
    c["heat.solves"] = solves[0]
    c["heat.steps"] = steps[0]
    if method == "heat":
        c["heat.mass_drift"] = abs(est.integral() - pattern.n) / pattern.n
    c["n_points"] = pattern.n
    c["estimate_integral"] = est.integral()
    return net, lattice, est


@contextmanager
def count_calls(*functions):
    """Count calls of ``functions`` until the block ends.

    Every reference that a lineheat module, or a class defined in one, holds
    to one of the functions is swapped for a counting wrapper, so a call is
    counted whichever namespace it was looked up in.  The originals are put
    back when the block ends.
    """
    calls = [0]

    def wrap(fn):
        def counted(*a, **kw):
            calls[0] += 1
            return fn(*a, **kw)
        return counted

    wrappers = {id(fn): wrap(fn) for fn in functions}
    mods = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "lineheat"]
    classes = {id(c): c for m in mods for c in vars(m).values()
               if isinstance(c, type) and c.__module__.split(".")[0] == "lineheat"}
    swapped = []
    for ns in mods + list(classes.values()):
        for name, value in list(vars(ns).items()):
            if id(value) in wrappers:
                swapped.append((ns, name, value))
                setattr(ns, name, wrappers[id(value)])
    if {id(value) for _, _, value in swapped} != set(wrappers):
        for ns, name, value in swapped:
            setattr(ns, name, value)
        raise RuntimeError("a counted function is not held by any lineheat namespace")
    try:
        yield calls
    finally:
        for ns, name, value in swapped:
            setattr(ns, name, value)


def micro_timings(tr: Tracer, net, lattice, est) -> None:
    """Layer timings taken after the pipeline, outside its total."""
    c = tr.counts
    t = time.perf_counter()
    lh.build_network(net.vertex_xy, net.edge_vertices)
    c["network.validate_s"] = time.perf_counter() - t

    f = est
    blocks = []
    for _ in range(STEP_BLOCKS):
        t = time.perf_counter()
        for _ in range(STEPS_PER_BLOCK):
            f = lh.heat_step(f)
        blocks.append((time.perf_counter() - t) / STEPS_PER_BLOCK)
    c["heat.step_us"] = sorted(blocks)[STEP_BLOCKS // 2] * 1e6
    c["heat.step_ns_per_node"] = c["heat.step_us"] * 1e3 / lattice.n_nodes

    times = []
    stride = max(1, lattice.n_nodes // DIJKSTRA_SOURCES)
    for i in range(0, stride * DIJKSTRA_SOURCES, stride):
        loc = lattice.node_location(i % lattice.n_nodes)
        t = time.perf_counter()
        lattice.distance_field(loc, DIJKSTRA_CUTOFF)
        times.append(time.perf_counter() - t)
    c["lattice.dijkstra_us"] = sorted(times)[len(times) // 2] * 1e6


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workdir", required=True, type=Path)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--spans", required=True, type=Path)
    a = ap.parse_args(argv)
    manifest = json.loads((a.workdir / "manifest.json").read_text(encoding="utf-8"))
    tr = Tracer(manifest["workload"])
    net, lattice, est = run_pipeline(tr, a.workdir, a.out, manifest["args"])
    micro_timings(tr, net, lattice, est)
    tr.counts["import_s"] = IMPORT_S
    doc = {"lineheat": lh.__file__, "spans": tr.spans, "counts": tr.counts}
    a.spans.write_text(json.dumps(doc, default=float), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
