"""Command-line interface.

Subcommands: validate, simulate, estimate, study, bench.  Every run echoes a
`#CONFIG {json}` line with the fully resolved configuration so outputs are
reproducible; seeded runs are byte-identical across invocations (timing
measurements are inherently machine-dependent, so `study` offers
--no-timing and `bench` is exempt).

Exit codes: 0 success, 2 input/usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import __version__
from .adaptive import (
    abramson_bandwidths,
    bin_count,
    estimate_adaptive_direct,
    estimate_adaptive_partition,
    heuristic_global_bandwidth,
)
from .errors import LineHeatError
from .experiment import SCENARIOS, STUDY_COLUMNS, run_partition_study, simulate_intensity
from .heat import DEFAULT_CONFIG, estimate_heat, resolve_dx
from .ingest import (
    FLOAT_FMT,
    read_network_geojson,
    read_points,
    write_lattice_function,
    write_points_csv,
)
from .kernels import (
    Kernel1D,
    equal_split_continuous,
    equal_split_discontinuous,
    estimate_jones_diggle,
    estimate_uniform_corrected,
)
from .lattice import discretize
from .sim import sample_poisson_on_network

_METHODS = ("heat", "uniform-corrected", "jones-diggle", "esd", "esc")


def _echo_config(args: argparse.Namespace, **extra) -> None:
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    cfg.update(extra)
    cfg["version"] = __version__
    print("#CONFIG " + json.dumps(cfg, sort_keys=True))


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lineheat",
        description="Intensity estimation for point patterns on linear networks",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="read a network and print its stats")
    v.add_argument("network", help="GeoJSON network file")
    v.set_defaults(func=_cmd_validate)

    s = sub.add_parser("simulate", help="simulate an intensity and a point pattern")
    s.add_argument("--net", required=True, help="GeoJSON network file")
    s.add_argument("--scenario", required=True, choices=SCENARIOS)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--target-points", type=float, default=520.0)
    s.add_argument("--field-res", type=int, default=64, help="field grid resolution")
    s.add_argument("--dx", type=float, default=None, help="lattice spacing")
    s.add_argument("--out-points", required=True, help="pattern CSV path")
    s.add_argument("--out-intensity", required=True, help="true-intensity lattice-csv path")
    s.set_defaults(func=_cmd_simulate)

    e = sub.add_parser("estimate", help="estimate intensity from points on a network")
    e.add_argument("--net", required=True)
    e.add_argument("--points", required=True, help="CSV (x,y) or GeoJSON points")
    e.add_argument("--method", choices=_METHODS, default="heat")
    e.add_argument("--adaptive", action="store_true", help="per-point bandwidths (heat only)")
    e.add_argument("--bw", type=float, default=None, help="fixed bandwidth")
    e.add_argument("--bw-global", default=None,
                   help="adaptive global bandwidth (number, or 'auto' for |L|/(2 sqrt n))")
    e.add_argument("--delta", type=float, default=None,
                   help="quantile step for the partition estimator (1/delta integer)")
    e.add_argument("--gamma-exponent", type=float, default=-0.5, choices=(-0.5, -2.0))
    e.add_argument("--kernel", default=None, choices=("gaussian", "epanechnikov", "quartic"),
                   help="kernel family for the non-heat methods")
    e.add_argument("--dx", type=float, default=None)
    e.add_argument("--max-snap-dist", type=float, default=float("inf"))
    e.add_argument("--out", required=True)
    e.add_argument("--format", choices=("lattice-csv", "raster-csv"), default="lattice-csv")
    e.add_argument("--raster-res", type=int, default=128)
    e.set_defaults(func=_cmd_estimate)

    st = sub.add_parser("study", help="partition-vs-direct ISE and timing study")
    st.add_argument("--net", required=True)
    st.add_argument("--scenario", required=True, choices=SCENARIOS)
    st.add_argument("--deltas", default="0.1,0.05,0.025,0.01",
                    help="comma-separated quantile steps")
    st.add_argument("--replicates", type=int, default=20)
    st.add_argument("--seed", type=int, required=True)
    st.add_argument("--target-points", type=float, default=520.0)
    st.add_argument("--field-res", type=int, default=64)
    st.add_argument("--bw-global", default=None)
    st.add_argument("--gamma-exponent", type=float, default=-0.5, choices=(-0.5, -2.0))
    st.add_argument("--dx", type=float, default=None)
    st.add_argument("--no-timing", action="store_true",
                    help="write NA time columns for byte-reproducible output")
    st.add_argument("--jobs", type=int, default=1)
    st.add_argument("--out", required=True, help="results CSV path")
    st.set_defaults(func=_cmd_study)

    b = sub.add_parser("bench", help="time a single estimate (one warmup discarded)")
    b.add_argument("--net", required=True)
    b.add_argument("--points", required=True)
    b.add_argument("--method", choices=_METHODS, default="heat")
    b.add_argument("--bw", type=float, required=True)
    b.add_argument("--kernel", default=None, choices=("gaussian", "epanechnikov", "quartic"))
    b.add_argument("--dx", type=float, default=None)
    b.add_argument("--max-snap-dist", type=float, default=float("inf"))
    b.set_defaults(func=_cmd_bench)
    return p


def _cmd_validate(args) -> int:
    net = read_network_geojson(args.network)
    _echo_config(args)
    degs = np.bincount(net.degrees)
    print(f"vertices: {net.n_vertices}")
    print(f"edges: {net.n_edges}")
    print("total_length: " + FLOAT_FMT % net.total_length)
    print(f"components: {net.n_components}")
    hist = " ".join(f"{d}:{int(c)}" for d, c in enumerate(degs) if c and d > 0)
    print(f"degree_histogram: {hist}")
    print("shortest_edge: " + FLOAT_FMT % float(net.edge_lengths.min()))
    return 0


def _cmd_simulate(args) -> int:
    net = read_network_geojson(args.net)
    dx = resolve_dx(args.dx, net, net.edge_lengths.min())
    _echo_config(args, resolved_dx=dx)
    lattice = discretize(net, dx)
    truth = simulate_intensity(
        net, lattice, args.scenario, [args.seed, 0], args.target_points, args.field_res
    )
    pattern = sample_poisson_on_network(truth, [args.seed, 1])
    write_points_csv(pattern, args.out_points)
    write_lattice_function(truth, args.out_intensity, "lattice-csv")
    print(f"n_points: {pattern.n}")
    print("intensity_integral: " + FLOAT_FMT % truth.integral())
    return 0


def _load_pattern(args):
    net = read_network_geojson(args.net)
    pattern, report = read_points(args.points, net, args.max_snap_dist)
    if report.warning:
        print(f"warning: {report.warning}", file=sys.stderr)
    return net, pattern


def _fixed_kernel(args, bw: float) -> Kernel1D:
    family = args.kernel
    if family is None:
        family = "epanechnikov" if args.method in ("esd", "esc") else "gaussian"
    return Kernel1D(family, bw)


def _cmd_estimate(args) -> int:
    net, pattern = _load_pattern(args)
    cfg = DEFAULT_CONFIG

    if args.adaptive:
        if args.method != "heat":
            raise LineHeatError(
                "adaptive estimation is supported for the heat method only"
            )
        if args.delta is not None:
            bin_count(args.delta)  # fail fast before the pilot estimate
        if args.bw_global is None:
            raise LineHeatError("--adaptive requires --bw-global (number or 'auto')")
        if args.bw_global == "auto":
            star = heuristic_global_bandwidth(net.total_length, pattern.n)
            print(
                "note: --bw-global auto uses the heuristic |L|/(2 sqrt n); "
                "it is a convenience default, not a bandwidth selector",
                file=sys.stderr,
            )
        else:
            star = float(args.bw_global)
        if star <= 0:
            raise LineHeatError("global bandwidth must be positive")
        pilot_lat = discretize(net, resolve_dx(args.dx, net, star))
        pilot = estimate_heat(pattern, pilot_lat, star, cfg)
        bw = abramson_bandwidths(pattern, pilot, star, args.gamma_exponent)
        dx = resolve_dx(args.dx, net, float(bw.bandwidths.min()))
        _echo_config(args, resolved_dx=dx, resolved_bw_global=star)
        lattice = discretize(net, dx)
        if args.delta is not None:
            est = estimate_adaptive_partition(pattern, lattice, bw, args.delta, cfg)
        else:
            est = estimate_adaptive_direct(pattern, lattice, bw, cfg)
    else:
        if args.bw is None:
            raise LineHeatError("--bw is required for fixed-bandwidth estimation")
        dx = resolve_dx(args.dx, net, args.bw)
        _echo_config(args, resolved_dx=dx)
        lattice = discretize(net, dx)
        est = _fixed_estimate(args, pattern, lattice, cfg)

    write_lattice_function(est, args.out, args.format, args.raster_res)
    print(f"n_points: {pattern.n}")
    print("estimate_integral: " + FLOAT_FMT % est.integral())
    print(f"out: {args.out}")
    return 0


def _fixed_estimate(args, pattern, lattice, cfg):
    if args.method == "heat":
        return estimate_heat(pattern, lattice, args.bw, cfg)
    kernel = _fixed_kernel(args, args.bw)
    if args.method == "uniform-corrected":
        return estimate_uniform_corrected(pattern, lattice, kernel)
    if args.method == "jones-diggle":
        return estimate_jones_diggle(pattern, lattice, kernel)
    if args.method == "esd":
        return equal_split_discontinuous(pattern, lattice, kernel)
    return equal_split_continuous(pattern, lattice, kernel)


def _cmd_study(args) -> int:
    net = read_network_geojson(args.net)
    deltas = [float(x) for x in args.deltas.split(",") if x]
    eps_star = None
    if args.bw_global not in (None, "auto"):
        eps_star = float(args.bw_global)
    _echo_config(args, resolved_deltas=deltas)
    rows = run_partition_study(
        net,
        args.scenario,
        deltas,
        replicates=args.replicates,
        seed=args.seed,
        target_points=args.target_points,
        field_res=args.field_res,
        eps_star=eps_star,
        gamma_exponent=args.gamma_exponent,
        dx=args.dx,
        timing=not args.no_timing,
        jobs=args.jobs,
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        cfgline = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
        cfgline["version"] = __version__
        fh.write("#CONFIG " + json.dumps(cfgline, sort_keys=True) + "\n")
        fh.write(",".join(STUDY_COLUMNS) + "\n")
        for r in rows:
            fh.write(
                ",".join(
                    [
                        r["scenario"],
                        str(r["replicate"]),
                        FLOAT_FMT % r["delta"],
                        str(r["n_points"]),
                        FLOAT_FMT % r["ise"],
                        "NA" if r["time_direct_s"] is None else FLOAT_FMT % r["time_direct_s"],
                        "NA" if r["time_partition_s"] is None else FLOAT_FMT % r["time_partition_s"],
                        "NA" if r["time_ratio"] is None else FLOAT_FMT % r["time_ratio"],
                    ]
                )
                + "\n"
            )
    print(f"rows: {len(rows)}")
    print(f"out: {args.out}")
    return 0


def _cmd_bench(args) -> int:
    net, pattern = _load_pattern(args)
    _echo_config(args)
    lattice = discretize(net, resolve_dx(args.dx, net, args.bw))
    runs = []
    for _ in range(2):  # first run is the discarded warmup
        t0 = time.perf_counter()
        est = _fixed_estimate(args, pattern, lattice, DEFAULT_CONFIG)
        runs.append(time.perf_counter() - t0)
    print(
        json.dumps(
            {
                "method": args.method,
                "bandwidth": args.bw,
                "n_points": pattern.n,
                "n_nodes": lattice.n_nodes,
                "wall_s": runs[1],
                "estimate_integral": est.integral(),
            },
            sort_keys=True,
        )
    )
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LineHeatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
