"""End-to-end and per-layer benchmark of ``lineheat estimate``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload is generated from the
seed (``workloads.py``), then the unmodified CLI runs as a single-client
closed loop: one child process at a time, each ``lineheat estimate`` preceded
by one ``lineheat --help``, for ``--seconds`` (the loop stops when the next
iteration, taken to last as long as the previous one, would end further past
``--seconds`` than the loop is before it, and after at least ``MIN_SAMPLES``
estimates).  Every invocation's output is checked
(``check.py``); a failed check, a nonzero exit or a run past
``INVOCATION_LIMIT_S`` counts as a failed operation.  Before the loop, one
untimed estimate on the default seed's inputs is compared with
``reference.json``, whatever ``--seed`` is; it also compiles the bytecode.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
``wall_s`` (median wall time of one estimate child, spawn to exit),
``setup_s`` (median wall time of ``python -m lineheat --help``) and
``peak_rss_mb`` (median peak RSS of the estimate child).  With ``--trace 1``
the loop runs as well, then ``import lineheat`` is timed in fresh processes
and ``trace_layers.py`` runs the pipeline once with a span around each layer;
the last line carries the per-layer metrics.  Each run also writes its
samples, spans and environment to ``perfbench/.work/results/``.

``--write-reference`` regenerates ``reference.json`` from the current code
at the default seed; changing it is a change to the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
REFERENCE = BENCH / "reference.json"
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
MIN_SAMPLES = 3
INVOCATION_LIMIT_S = 60.0
#: Stop starting loop iterations after this long, whatever --seconds says,
#: and kill any child still running at RUN_DEADLINE_S, so that a slow or hung
#: program still ends the run inside its 180 s limit.
RUN_LIMIT_S = 100.0
RUN_DEADLINE_S = 165.0
IMPORT_SAMPLES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: Span names whose self time is reported as ``<name>_s``.
LAYER_SPANS = (
    "ingest.read_network", "ingest.read_points", "lattice.build", "heat.deposit",
    "heat.pilot", "adaptive.bandwidths", "heat.solve", "adaptive.partition",
    "adaptive.direct", "kernels.estimate", "ingest.write",
)
#: Counts from the traced run, 0 where the layer does not run on the workload.
LAYER_COUNTS = {
    "network.edges": "count", "network.validate_s": "s", "ingest.records": "count",
    "ingest.dropped": "count", "ingest.kept_ratio": "ratio", "ingest.write_bytes": "bytes",
    "lattice.nodes": "count", "lattice.dx": "length", "heat.solves": "count",
    "heat.steps": "count", "heat.step_us": "us", "heat.step_ns_per_node": "ns",
    "heat.mass_drift": "ratio", "adaptive.n_clamped": "count",
    "adaptive.bins_nonempty": "count", "lattice.dijkstra_calls": "count",
    "lattice.dijkstra_us": "us",
}


class Invocation:
    """One child process: wall time, CPU, peak RSS and exit status."""

    def __init__(self, argv, cwd: Path, env: dict, stem: str, deadline: float = math.inf):
        limit = max(0.0, min(INVOCATION_LIMIT_S, deadline - time.perf_counter()))
        self.stdout_path = cwd / f"{stem}.stdout"
        stderr_path = cwd / f"{stem}.stderr"
        self.timed_out = False
        with open(self.stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
            try:
                pidfd = os.pidfd_open(proc.pid)
                try:
                    ready, _, _ = select.select([pidfd], [], [], limit)
                finally:
                    os.close(pidfd)
                if not ready:
                    self.timed_out = True
                    proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            self.wall_s = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.returncode = proc.returncode
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stdout = self.stdout_path.read_text(encoding="utf-8", errors="replace")
        self.stderr = stderr_path.read_text(encoding="utf-8", errors="replace")

    def failures(self) -> list[str]:
        if self.timed_out:
            return ["killed at its time limit"]
        if self.returncode != 0:
            return [f"exit code {self.returncode}: {self.stderr.strip()[-200:]}"]
        return []


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def environment() -> dict:
    """Machine, library and source versions recorded with every result."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unavailable: not a git checkout"
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": commit,
    }


def cpu_ticks():
    """Machine-wide CPU ticks as (all, stolen), or None without ``/proc/stat``."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            f = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return sum(f), f[7] if len(f) == 8 else 0


def steal_share(start, end):
    """Share of the machine's CPU time the hypervisor gave to other guests."""
    if start is None or end is None or end[0] == start[0]:
        return None
    return (end[1] - start[1]) / (end[0] - start[0])


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q = [values[0]] * 3
    else:
        q = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def load_reference(workload: str) -> dict:
    """The stored per-edge integrals (raster row sums) of the default seed."""
    doc = json.loads(REFERENCE.read_text(encoding="utf-8"))
    if doc["seed"] != DEFAULT_SEED:
        raise ValueError(f"{REFERENCE.name} is for seed {doc['seed']}, not {DEFAULT_SEED}")
    return doc["workloads"][workload]


def reference_check(workload: str, reference: dict, env: dict, deadline: float) -> list[str]:
    """Failures of one untimed estimate on the default seed's inputs."""
    wd = WORK / f"{workload}-seed{DEFAULT_SEED}"
    manifest = workloads.generate(workloads.WORKLOADS[workload], DEFAULT_SEED, wd)
    (wd / "out.csv").unlink(missing_ok=True)
    inv = Invocation(estimate_argv(manifest), wd, env, "reference", deadline)
    bad = inv.failures()
    if not bad:
        bad, _ = check.check_invocation(inv.returncode, inv.stdout, wd / "out.csv",
                                        manifest, reference)
    return ["reference run: " + m for m in bad]


def estimate_argv(manifest: dict) -> list[str]:
    return [sys.executable, "-m", "lineheat", "estimate", "--net", "net.geojson",
            "--points", "events.csv", "--out", "out.csv", *manifest["args"]]


def closed_loop(wd: Path, manifest: dict, reference, seconds: float, env: dict,
                deadline: float) -> dict:
    """Alternate --help and estimate children for about ``seconds``."""
    help_argv = [sys.executable, "-m", "lineheat", "--help"]
    out = wd / "out.csv"
    setup, runs, fails = [], [], []
    digest = None
    start = time.perf_counter()
    while True:
        t_iter = time.perf_counter()
        h = Invocation(help_argv, wd, env, "help", deadline)
        bad = h.failures() or ([] if h.stdout.startswith("usage: lineheat") else ["no usage text"])
        fails.append(["--help: " + m for m in bad])
        setup.append(h.wall_s)

        out.unlink(missing_ok=True)
        e = Invocation(estimate_argv(manifest), wd, env, "estimate", deadline)
        bad = e.failures()
        if not bad:
            bad, _ = check.check_invocation(e.returncode, e.stdout, out, manifest, reference)
            d = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
            digest = digest or d
            if d != digest:
                bad.append("output bytes differ from the run's first invocation")
        fails.append(bad)
        runs.append({"wall_s": e.wall_s, "cpu_s": e.cpu_s, "rss_mb": e.rss_mb})

        now = time.perf_counter()
        elapsed = now - start
        if elapsed >= RUN_LIMIT_S or (elapsed + (now - t_iter) / 2 >= seconds
                                      and len(runs) >= MIN_SAMPLES):
            break
    return {"setup_s": setup, "runs": runs, "failures": fails}


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name: summed duration minus the time its child spans cover."""
    child = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - child[s["id"]]
    return out


def traced_run(wd: Path, manifest: dict, reference, env: dict, deadline: float) -> dict:
    """Fresh-process import timings and the traced pipeline."""
    py = sys.executable
    code = ("import time; t = time.perf_counter(); import lineheat; "
            "print(time.perf_counter() - t)")
    imports, fails = [], []
    for _ in range(IMPORT_SAMPLES):
        inv = Invocation([py, "-c", code], wd, env, "import", deadline)
        fails.append(inv.failures())
        imports.append(float(inv.stdout) if not inv.failures() else inv.wall_s)

    spans_path, out = wd / "spans.json", wd / "traced_out.csv"
    spans_path.unlink(missing_ok=True)
    out.unlink(missing_ok=True)
    argv = [py, str(BENCH / "trace_layers.py"), "--workdir", ".", "--out", out.name,
            "--spans", spans_path.name]
    inv = Invocation(argv, wd, env, "trace", deadline)
    bad = inv.failures()
    doc = {"spans": [], "counts": {}}
    if not bad:
        doc = json.loads(spans_path.read_text(encoding="utf-8"))
        if Path(doc["lineheat"]).resolve().parent.parent != (ROOT / "src").resolve():
            bad.append(f"traced run imported lineheat from {doc['lineheat']}")
        c = doc["counts"]
        stdout = f"n_points: {c['n_points']}\nestimate_integral: {c['estimate_integral']!r}\n"
        more, _ = check.check_invocation(0, stdout, out, manifest, reference)
        bad += ["traced run: " + m for m in more]
    fails.append(bad)
    return {"imports": imports, "spans": doc["spans"], "counts": doc["counts"],
            "failures": fails}


def end_to_end_metrics(wall: dict, setup: dict, rss: dict) -> dict:
    return {
        "wall_s": {"value": wall["median"], "unit": "s"},
        "setup_s": {"value": setup["median"], "unit": "s"},
        "peak_rss_mb": {"value": rss["median"], "unit": "MB"},
    }


def layer_metrics(loop: dict, traced: dict, wall_s: float, setup_s: float) -> dict:
    selfs = self_times(traced["spans"])
    counts = traced["counts"]
    total = sum(s["end"] - s["start"] for s in traced["spans"] if s["parent"] is None)
    m = {
        "cli.import_s": (statistics.median(traced["imports"]), "s"),
        "cli.cpu_s": (statistics.median(r["cpu_s"] for r in loop["runs"]), "s"),
        "cli.self_s": (wall_s - setup_s - total, "s"),
        "trace.total_s": (total, "s"),
    }
    for name in LAYER_SPANS:
        m[name + "_s"] = (selfs.get(name, 0.0), "s")
    records = counts.get("ingest.records", 0)
    m["ingest.snap_us_per_record"] = (
        selfs.get("ingest.read_points", 0.0) / records * 1e6 if records else 0.0, "us")
    for name, unit in LAYER_COUNTS.items():
        m[name] = (counts.get(name, 0), unit)
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def write_reference() -> int:
    """Record per-edge integrals (or raster row sums) at the default seed."""
    env = child_env()
    doc = {"seed": DEFAULT_SEED, "workloads": {}}
    for name in sorted(workloads.WORKLOADS):
        wd = WORK / f"{name}-seed{DEFAULT_SEED}"
        manifest = workloads.generate(workloads.WORKLOADS[name], DEFAULT_SEED, wd)
        inv = Invocation(estimate_argv(manifest), wd, env, "estimate")
        fails, summary = check.check_invocation(inv.returncode, inv.stdout, wd / "out.csv",
                                                manifest)
        if fails or inv.failures():
            print(f"{name}: {fails or inv.failures()}", file=sys.stderr)
            return 1
        raster = manifest["format"] == "raster-csv"
        doc["workloads"][name] = {
            "kind": "raster row sums" if raster else "per-edge integrals",
            "tol": check.RASTER_L1_TOL if raster else check.EDGE_L1_TOL,
            "values": [float(f"{v:.12g}") for v in summary],
        }
    REFERENCE.write_text(json.dumps(doc, indent=0) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    a = ap.parse_args(argv)
    if not (ROOT / "src" / "lineheat" / "__init__.py").is_file():
        print(f"error: no lineheat sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if a.write_reference:
        return write_reference()
    if a.workload is None:
        ap.error("--workload is required")

    deadline = time.perf_counter() + RUN_DEADLINE_S
    ticks = cpu_ticks()
    env = child_env()
    wd = WORK / f"{a.workload}-seed{a.seed}"
    reference = load_reference(a.workload)
    ref_fails = reference_check(a.workload, reference, env, deadline)
    manifest = workloads.generate(workloads.WORKLOADS[a.workload], a.seed, wd)
    if a.seed != DEFAULT_SEED:
        reference = None
    loop = closed_loop(wd, manifest, reference, a.seconds, env, deadline)
    wall = quartiles([r["wall_s"] for r in loop["runs"]])
    setup = quartiles(loop["setup_s"])
    rss = quartiles([r["rss_mb"] for r in loop["runs"]])
    fails = [ref_fails] + loop["failures"]
    traced = None
    if a.trace:
        traced = traced_run(wd, manifest, reference, env, deadline)
        fails = fails + traced["failures"]
        metrics = layer_metrics(loop, traced, wall["median"], setup["median"])
    else:
        metrics = end_to_end_metrics(wall, setup, rss)
    failed = sum(1 for f in fails if f)
    result = {"correct": failed == 0, "attempted": len(fails), "failed": failed,
              "metrics": metrics}

    report = {
        "workload": a.workload, "seed": a.seed, "trace": a.trace, "seconds": a.seconds,
        "environment": environment(),
        "inputs": {k: manifest[k] for k in ("edges", "records", "kept", "shortest_edge")},
        "reference_failures": ref_fails,
        "wall_s": wall, "setup_s": setup, "peak_rss_mb": rss,
        "fail_ratio": failed / len(fails),
        "cpu_steal_share": steal_share(ticks, cpu_ticks()),
        "failures": sorted({m for f in fails for m in f}),
        "samples": loop, "traced": traced, "result": result,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{a.workload}-seed{a.seed}-trace{a.trace}.json").write_text(
        json.dumps(report, indent=1), encoding="utf-8")

    for m in report["failures"]:
        print(f"FAILED: {m}", file=sys.stderr)
    print(f"# {a.workload} seed={a.seed}: {wall['n']} estimate runs, "
          f"fail_ratio={failed}/{len(fails)}, "
          f"seed-{DEFAULT_SEED} reference run: {'failed' if ref_fails else 'passed'}")
    for name, q in (("wall_s", wall), ("setup_s", setup), ("peak_rss_mb", rss)):
        print(f"# {name:12s} median {q['median']:.4f}  q1 {q['q1']:.4f}  q3 {q['q3']:.4f}"
              f"  n={q['n']}")
    if traced:
        for name, v in metrics.items():
            print(f"# {name:28s} {v['value']:.6g} {v['unit']}")
    print(f"# cpu steal share during the run: {report['cpu_steal_share']}")
    print("# environment " + json.dumps(report["environment"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
