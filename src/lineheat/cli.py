"""Command-line interface.

Subcommands: validate, simulate, estimate, study.  Every run echoes a
`#CONFIG {json}` line with the fully resolved configuration so outputs are
reproducible; seeded runs are byte-identical across invocations (timing
measurements are inherently machine-dependent, so `study` offers
--no-timing).  Every argument is checked before any file is read.

Exit codes: 0 success, 2 input/usage error, 3 numerical failure or out of memory.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .errors import LineHeatError

# Only what --help and usage errors need is imported here, so they load no
# numpy; each command imports the modules its own path runs.
_METHODS = ("heat", "uniform-corrected", "jones-diggle", "esd", "esc")
#: experiment.SCENARIOS, spelled out so that building the parser imports no
#: simulator (a test keeps the two equal).
_SCENARIOS = ("loggaussian-1", "loggaussian-2", "loggaussian-3", "loggaussian-4", "paper-gm5")


def _echo_config(args: argparse.Namespace, file=None, **extra) -> None:
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    cfg.update(extra, version=__version__)
    print("#CONFIG " + json.dumps(cfg, sort_keys=True), file=file)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lineheat",
        description="Intensity estimation for point patterns on linear networks",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="read a network and print its stats")
    v.add_argument("network", help="GeoJSON network file")
    v.set_defaults(func=_cmd_validate)

    # options that two or three commands share, each declared once
    lattice = argparse.ArgumentParser(add_help=False)
    lattice.add_argument("--net", required=True, help="GeoJSON network file")
    lattice.add_argument("--dx", type=float, default=None, help="lattice spacing")
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("--scenario", required=True, choices=_SCENARIOS)
    scenario.add_argument("--seed", type=int, required=True)
    scenario.add_argument("--target-points", type=float, default=520.0)
    scenario.add_argument("--field-res", type=int, default=64, help="field grid resolution")
    adaptive = argparse.ArgumentParser(add_help=False)
    adaptive.add_argument("--bw-global", default=None,
                          help="adaptive global bandwidth (number, or 'auto' for |L|/(2 sqrt n))")
    adaptive.add_argument("--gamma-exponent", type=float, default=-0.5, choices=(-0.5, -2.0))

    s = sub.add_parser("simulate", parents=[lattice, scenario],
                       help="simulate an intensity and a point pattern")
    s.add_argument("--out-points", required=True, help="pattern CSV path")
    s.add_argument("--out-intensity", required=True, help="true-intensity lattice-csv path")
    s.set_defaults(func=_cmd_simulate)

    e = sub.add_parser("estimate", parents=[lattice, adaptive],
                       help="estimate intensity from points on a network")
    e.add_argument("--points", required=True, help="CSV (x,y) or GeoJSON points")
    e.add_argument("--method", choices=_METHODS, default="heat")
    e.add_argument("--adaptive", action="store_true", help="per-point bandwidths (heat only)")
    e.add_argument("--bw", type=float, default=None, help="fixed bandwidth")
    e.add_argument("--delta", type=float, default=None,
                   help="quantile step for the partition estimator (1/delta integer)")
    e.add_argument("--kernel", default=None, choices=("gaussian", "epanechnikov", "quartic"),
                   help="kernel family for the non-heat methods")
    e.add_argument("--max-snap-dist", type=float, default=float("inf"))
    e.add_argument("--out", required=True)
    e.add_argument("--format", choices=("lattice-csv", "raster-csv"), default="lattice-csv")
    e.add_argument("--raster-res", type=int, default=128)
    e.set_defaults(func=_cmd_estimate)

    st = sub.add_parser("study", parents=[lattice, scenario, adaptive],
                        help="partition-vs-direct ISE and timing study")
    st.add_argument("--deltas", default="0.1,0.05,0.025,0.01",
                    help="comma-separated quantile steps")
    st.add_argument("--replicates", type=int, default=20)
    st.add_argument("--no-timing", action="store_true",
                    help="write NA time columns for byte-reproducible output")
    st.add_argument("--out", required=True, help="results CSV path")
    st.set_defaults(func=_cmd_study)

    return p


def _cmd_validate(args) -> int:
    import numpy as np

    from .ingest import FLOAT_FMT, read_network_geojson

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
    from .experiment import check_simulation, simulate_pattern
    from .heat import resolve_dx
    from .ingest import FLOAT_FMT, read_network_geojson, write_lattice_function, write_points_csv
    from .lattice import Lattice

    check_simulation(args.target_points, args.field_res)
    _check_dx(args.dx)
    _check_out(args.out_points, args.out_intensity)
    net = read_network_geojson(args.net)
    dx = resolve_dx(args.dx, net.edge_lengths.min())
    _echo_config(args, resolved_dx=dx)
    truth, pattern = simulate_pattern(Lattice(net, dx), args.scenario, args.seed, args.target_points, args.field_res)
    write_points_csv(pattern, args.out_points)
    write_lattice_function(truth, args.out_intensity, "lattice-csv")
    print(f"n_points: {pattern.n}")
    print("intensity_integral: " + FLOAT_FMT % truth.integral())
    return 0


def _load_pattern(args):
    from .ingest import check_raster_res, read_network_geojson, read_points

    if args.bw is not None:
        _bandwidth(args.bw, "--bw")
    if args.bw_global not in (None, "auto"):
        _bandwidth(args.bw_global)
    if args.kernel is not None and args.method == "heat":
        raise LineHeatError("--kernel applies to the kernel methods, not --method heat")
    if args.adaptive:
        if args.method != "heat":
            raise LineHeatError("adaptive estimation is supported for the heat method only")
        if args.delta is not None:
            from .adaptive import bin_count

            bin_count(args.delta)
        if args.bw_global is None:
            raise LineHeatError("--adaptive requires --bw-global (number or 'auto')")
        if args.bw is not None:
            raise LineHeatError("--bw is for fixed-bandwidth estimation; --adaptive takes --bw-global")
    elif args.bw is None:
        raise LineHeatError("--bw is required for fixed-bandwidth estimation")
    else:
        for name, value in (("--bw-global", args.bw_global), ("--delta", args.delta)):
            if value is not None:
                raise LineHeatError(f"{name} requires --adaptive")
    if args.format == "raster-csv":
        check_raster_res(args.raster_res)
    _check_dx(args.dx)
    if not args.max_snap_dist > 0:
        raise LineHeatError("--max-snap-dist must be positive")
    _check_out(args.out)
    net = read_network_geojson(args.net)
    pattern, report = read_points(args.points, net, args.max_snap_dist)
    if report.warning:
        print(f"warning: {report.warning}", file=sys.stderr)
    return net, pattern


def _cmd_estimate(args) -> int:
    from .heat import DEFAULT_CONFIG, estimate_heat, estimate_heat_batch, resolve_dx
    from .ingest import FLOAT_FMT, write_lattice_function
    from .lattice import Lattice

    net, pattern = _load_pattern(args)
    cfg = DEFAULT_CONFIG

    if args.adaptive:
        from .adaptive import adaptive_bandwidths, estimate_adaptive_partition, heuristic_global_bandwidth

        if args.bw_global == "auto":
            star = heuristic_global_bandwidth(net.total_length, pattern.n)
            print(
                "note: --bw-global auto uses the heuristic |L|/(2 sqrt n); "
                "it is a convenience default, not a bandwidth selector",
                file=sys.stderr,
            )
        else:
            star = _bandwidth(args.bw_global)
        bw, dx = adaptive_bandwidths(pattern, star, args.dx, args.gamma_exponent, cfg)
        _echo_config(args, resolved_dx=dx, resolved_bw_global=star)
        lattice = Lattice(net, dx)
        if args.delta is not None:
            est = estimate_adaptive_partition(pattern, lattice, bw, args.delta, cfg)
        else:
            est = estimate_heat_batch(pattern, lattice, bw.bandwidths, cfg)
    else:
        dx = resolve_dx(args.dx, args.bw)
        _echo_config(args, resolved_dx=dx)
        lattice = Lattice(net, dx)
        est = (estimate_heat(pattern, lattice, args.bw, cfg) if args.method == "heat"
               else _kernel_estimate(args, pattern, lattice))

    write_lattice_function(est, args.out, args.format, args.raster_res)
    print(f"n_points: {pattern.n}")
    print("estimate_integral: " + FLOAT_FMT % est.integral())
    print(f"out: {args.out}")
    return 0


def _kernel_estimate(args, pattern, lattice):
    from .kernels import (Kernel1D, equal_split_continuous, equal_split_discontinuous, estimate_jones_diggle,
                          estimate_uniform_corrected)

    family = args.kernel or ("epanechnikov" if args.method in ("esd", "esc") else "gaussian")
    estimator = {"uniform-corrected": estimate_uniform_corrected, "jones-diggle": estimate_jones_diggle,
                 "esd": equal_split_discontinuous, "esc": equal_split_continuous}[args.method]
    return estimator(pattern, lattice, Kernel1D(family, args.bw))


def _bandwidth(value, name: str = "global bandwidth") -> float:
    from .heat import MAX_BANDWIDTH

    bw = float(value)
    if not 0 < bw < math.inf:
        raise LineHeatError(f"{name} must be positive and finite")
    if bw > MAX_BANDWIDTH:
        raise LineHeatError(f"{name} {bw:g} is above {MAX_BANDWIDTH:.6g}: its square, the diffusion time, overflows")
    return bw


def _check_dx(dx) -> None:
    """Refuse a --dx that is given but not positive and finite; any finite size runs."""
    if dx is not None and not 0 < dx < math.inf:
        raise LineHeatError("--dx must be positive and finite")


def _check_out(*paths) -> None:
    """Refuse an output path that is a directory or whose directory does not exist."""
    import os

    for path in paths:
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
            why = "it is a directory" if os.path.isdir(path) else "its directory does not exist"
            raise LineHeatError(f"cannot write {path}: {why}")


def _cmd_study(args) -> int:
    from .experiment import STUDY_COLUMNS, check_simulation, run_partition_study, study_deltas
    from .ingest import FLOAT_FMT, read_network_geojson

    eps_star = None
    if args.bw_global not in (None, "auto"):
        eps_star = _bandwidth(args.bw_global)
    deltas = study_deltas([x for x in args.deltas.split(",") if x], args.replicates)
    check_simulation(args.target_points, args.field_res)
    _check_dx(args.dx)
    _check_out(args.out)
    net = read_network_geojson(args.net)
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
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        _echo_config(args, file=fh)
        fh.write(",".join(STUDY_COLUMNS) + "\n")
        for r in rows:
            fh.write(",".join("NA" if v is None else FLOAT_FMT % v if isinstance(v, float) else str(v)
                              for v in r.values()) + "\n")
    print(f"rows: {len(rows)}")
    print(f"out: {args.out}")
    return 0


def main(argv=None) -> int:
    # OpenBLAS's idle workers spin for about 0.1 s of CPU after numpy's import
    # before they sleep, and a run's time then depends on where the scheduler
    # puts them.  Let them sleep at once (the fewest cycles OpenBLAS allows)
    # unless the caller chose; the thread count, and so every BLAS sum, stays.
    if "numpy" not in sys.modules:
        import os

        os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LineHeatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, OSError) as exc:  # OSError: an output that cannot be written after all
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # the frames that held the allocations are gone by now
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
