"""Output checks for one ``lineheat estimate`` invocation.

Uses numpy only.  Every timed invocation goes through :func:`check_invocation`;
any message it returns marks the invocation as failed.  The checks:

* exit code 0;
* stdout ``n_points`` equals the kept count the generator computed from
  point-to-segment distances;
* heat workloads: stdout ``estimate_integral`` and the integral of the written
  cells equal ``n_points`` to ``MASS_RTOL`` relative;
* every value is finite and >= 0;
* lattice-csv cells cover [0, L] of every edge without gap or overlap;
* against the stored reference of the default seed (``run.py`` checks one
  estimate on the default seed's inputs in every run): per-edge integrals of
  lattice-csv output within ``EDGE_L1_TOL``, raster row sums within
  ``RASTER_L1_TOL``, both as an L1 distance relative to the reference's L1
  norm.  Per-edge integrals do not depend on the lattice, and 2% admits the
  ~1% change a new time stepper or lattice rule is expected to make.
  The raster comes from the kernel-sum estimator, whose numerics no planned
  change alters, so its tolerance is tighter.
"""

from __future__ import annotations

import math
import re

import numpy as np

MASS_RTOL = 1e-9
COVER_RTOL = 1e-9
EDGE_L1_TOL = 0.02
RASTER_L1_TOL = 0.005

_RASTER_HEADER = re.compile(
    r"# raster xmin=(\S+) ymin=(\S+) xmax=(\S+) ymax=(\S+) res=(\d+)$"
)


def parse_stdout(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, val = line.partition(": ")
        if sep and key in ("n_points", "estimate_integral"):
            out[key] = val.strip()
    return out


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check_lattice_csv(path, manifest: dict, n_points: int):
    """Failures for a lattice-csv file, and its per-edge integrals."""
    try:
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        return [f"unreadable lattice-csv: {exc}"], None
    with open(path, encoding="utf-8") as fh:
        if fh.readline().strip() != "edge_id,offset_start,offset_end,value":
            return ["lattice-csv header is wrong"], None
    if rows.shape[1] != 4 or len(rows) == 0:
        return ["lattice-csv must have 4 columns and at least one row"], None
    edge, lo, hi, val = rows.T
    fails = []
    if not np.all(np.isfinite(rows)):
        fails.append("non-finite value in lattice-csv")
        return fails, None
    if np.any(val < 0):
        fails.append(f"{int((val < 0).sum())} negative value(s)")
    lengths = np.asarray(manifest["edge_lengths"])
    n_edges = len(lengths)
    eid = edge.astype(np.int64)
    if np.any(eid != edge) or eid.min() < 0 or eid.max() >= n_edges:
        fails.append("edge_id outside the network")
        return fails, None
    order = np.lexsort((lo, eid))
    eid, lo, hi, val = eid[order], lo[order], hi[order], val[order]
    first = np.r_[True, eid[1:] != eid[:-1]]
    last = np.r_[eid[1:] != eid[:-1], True]
    if len(np.unique(eid)) != n_edges:
        fails.append(f"cells cover {len(np.unique(eid))} of {n_edges} edges")
    tol = COVER_RTOL * lengths[eid]
    gaps = np.abs(hi[:-1] - lo[1:])[~last[:-1]]
    if np.any(np.abs(lo[first]) > tol[first]):
        fails.append("an edge's first cell does not start at 0")
    if np.any(np.abs(hi[last] - lengths[eid[last]]) > tol[last]):
        fails.append("an edge's last cell does not end at its length")
    if np.any(gaps > tol[:-1][~last[:-1]]):
        fails.append(f"{int((gaps > tol[:-1][~last[:-1]]).sum())} gap(s) between cells")
    if np.any(hi < lo):
        fails.append("a cell ends before it starts")
    integrals = np.bincount(eid, weights=(hi - lo) * val, minlength=n_edges)
    if manifest["heat"] and _rel(float(integrals.sum()), n_points) > MASS_RTOL:
        fails.append(f"file integral {integrals.sum()!r} != n_points {n_points}")
    return fails, integrals


def check_raster_csv(path, manifest: dict, res: int):
    """Failures for a raster-csv file, and its row sums (NA as 0)."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        return [f"unreadable raster-csv: {exc}"], None
    m = _RASTER_HEADER.match(lines[0]) if lines else None
    if m is None:
        return ["raster header is missing or malformed"], None
    fails = []
    bbox = [float(v) for v in m.groups()[:4]]
    if any(_rel(a, b) > COVER_RTOL for a, b in zip(bbox, manifest["bbox"])):
        fails.append(f"raster bbox {bbox} != network bbox {manifest['bbox']}")
    if int(m.group(5)) != res or len(lines) != res + 1:
        fails.append(f"raster has {len(lines) - 1} rows, res={m.group(5)}, expected {res}")
        return fails, None
    grid = np.empty((res, res))
    for r, line in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) != res:
            return fails + [f"raster row {r} has {len(cells)} cells"], None
        try:
            grid[r] = [math.nan if c == "NA" else float(c) for c in cells]
        except ValueError as exc:
            return fails + [f"raster row {r}: {exc}"], None
    data = grid[~np.isnan(grid)]
    if data.size == 0:
        fails.append("raster has no on-network pixel")
    if not np.all(np.isfinite(data)):
        fails.append("non-finite value in raster")
    elif np.any(data < 0):
        fails.append(f"{int((data < 0).sum())} negative value(s)")
    return fails, np.nansum(grid, axis=1)


def compare_reference(summary: np.ndarray, ref: dict) -> list[str]:
    """Relative L1 distance of a per-edge or per-row summary to its reference."""
    want = np.asarray(ref["values"])
    if summary.shape != want.shape:
        return [f"reference has {len(want)} entries, output gives {len(summary)}"]
    dist = float(np.abs(summary - want).sum() / np.abs(want).sum())
    if dist > ref["tol"]:
        return [f"{ref['kind']} differ from the reference by {dist:.3g} (tol {ref['tol']})"]
    return []


def check_invocation(returncode: int, stdout: str, out_path, manifest: dict, reference=None):
    """All failures of one invocation and the output summary used for references."""
    if returncode != 0:
        return [f"exit code {returncode}"], None
    fields = parse_stdout(stdout)
    fails = []
    try:
        n_points = int(fields["n_points"])
        integral = float(fields["estimate_integral"])
    except (KeyError, ValueError):
        return ["stdout lacks n_points or estimate_integral"], None
    if n_points != manifest["kept"]:
        fails.append(f"n_points {n_points} != expected kept count {manifest['kept']}")
    if manifest["heat"] and _rel(integral, n_points) > MASS_RTOL:
        fails.append(f"estimate_integral {integral!r} != n_points {n_points}")
    if manifest["format"] == "raster-csv":
        res = int(manifest["args"][manifest["args"].index("--raster-res") + 1])
        more, summary = check_raster_csv(out_path, manifest, res)
    else:
        more, summary = check_lattice_csv(out_path, manifest, n_points)
    fails += more
    if reference is not None and summary is not None:
        fails += compare_reference(summary, reference)
    return fails, summary
