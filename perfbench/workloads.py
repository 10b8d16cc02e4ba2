"""Seeded workload generator for the lineheat benchmark.

Uses numpy only and never imports ``lineheat``, so no change to the package
can alter the inputs it is measured on.  Every workload is a jittered grid
network (spacing 100, vertex jitter +-20, each edge kept with probability
0.85) and a planar event file: 60% of the events scatter around 30 cluster
centres on edges (planar sigma 60), 40% lie along edges with sigma 2 noise.

``generate(WORKLOADS[name], seed, out)`` writes ``out/net.geojson``,
``out/events.csv`` and ``out/manifest.json``.  The same seed gives
byte-identical files.  Why each workload was chosen is stated once, in
``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SPACING = 100.0
JITTER = 20.0
KEEP = 0.85
N_CLUSTERS = 30
CLUSTER_SHARE = 0.6
CLUSTER_SIGMA = 60.0
ALONG_SIGMA = 2.0
STUB_LENGTH = 2.0

#: Records closer than this to the snap limit are redrawn, so the expected
#: kept count does not hinge on the last bit of a distance computation.
SNAP_MARGIN = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    side: int
    n_records: int
    far_share: float
    stubs: int
    args: tuple[str, ...]
    heat: bool

    @property
    def max_snap_dist(self) -> float:
        if "--max-snap-dist" in self.args:
            return float(self.args[self.args.index("--max-snap-dist") + 1])
        return math.inf

    @property
    def format(self) -> str:
        if "--format" in self.args:
            return self.args[self.args.index("--format") + 1]
        return "lattice-csv"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "city-partition", 40, 8160, 0.02, 0,
            ("--method", "heat", "--adaptive", "--bw-global", "150", "--delta", "0.05",
             "--max-snap-dist", "50"),
            True,
        ),
        Workload(
            "adaptive-direct", 20, 1000, 0.0, 0,
            ("--method", "heat", "--adaptive", "--bw-global", "150"),
            True,
        ),
        Workload(
            "road-stubs", 20, 500, 0.0, 5,
            ("--method", "heat", "--bw", "100"),
            True,
        ),
        Workload(
            "kernel-uc", 20, 500, 0.0, 0,
            ("--method", "uniform-corrected", "--bw", "50", "--format", "raster-csv",
             "--raster-res", "256"),
            False,
        ),
    )
}


def grid_network(side: int, rng: np.random.Generator):
    """Jittered side x side grid with a random subset of edges; isolated vertices dropped."""
    g = np.arange(side) * SPACING
    xy = np.array([(x, y) for y in g for x in g], dtype=float)
    xy += rng.uniform(-JITTER, JITTER, xy.shape)
    segs = []
    for j in range(side):
        for i in range(side):
            v = j * side + i
            if i + 1 < side:
                segs.append((v, v + 1))
            if j + 1 < side:
                segs.append((v, v + side))
    keep = rng.random(len(segs)) < KEEP
    segs = np.array(segs, dtype=np.int64)[keep]
    used, inverse = np.unique(segs, return_inverse=True)
    return xy[used], inverse.reshape(segs.shape)


def add_stubs(xy, segs, count: int, rng: np.random.Generator):
    """Dead-end spurs of length STUB_LENGTH at a diagonal from distinct vertices.

    Grid edges leave a vertex within 22 degrees of an axis, so a diagonal
    spur meets no other edge.
    """
    roots = rng.choice(len(xy), size=count, replace=False)
    angles = math.pi / 4 + (math.pi / 2) * rng.integers(0, 4, size=count)
    tips = xy[roots] + STUB_LENGTH * np.column_stack([np.cos(angles), np.sin(angles)])
    new_ids = len(xy) + np.arange(count)
    return np.vstack([xy, tips]), np.vstack([segs, np.column_stack([roots, new_ids])])


def segment_distances(pts, a, b, chunk: int = 256) -> np.ndarray:
    """Planar distance from each point to the nearest of the segments a-b."""
    ab = b - a
    len2 = np.einsum("ij,ij->i", ab, ab)
    out = np.empty(len(pts))
    for s in range(0, len(pts), chunk):
        p = pts[s : s + chunk, None, :]
        t = np.clip(np.einsum("kij,ij->ki", p - a, ab) / len2, 0.0, 1.0)
        d = p - (a + t[..., None] * ab)
        out[s : s + chunk] = np.sqrt(np.einsum("kij,kij->ki", d, d).min(axis=1))
    return out


def _on_edges(a, b, lengths, n: int, rng: np.random.Generator) -> np.ndarray:
    e = rng.choice(len(lengths), size=n, p=lengths / lengths.sum())
    t = rng.random(n)[:, None]
    return a[e] + t * (b[e] - a[e])


def make_events(w: Workload, xy, segs, place: np.random.Generator, rng: np.random.Generator):
    """Clustered events from the fixed ``place`` stream, the rest from ``rng``.

    Returns the events and, under a snap limit, their distances to the
    network (None without one: every record is kept).
    """
    a, b = xy[segs[:, 0]], xy[segs[:, 1]]
    lengths = np.hypot(*(b - a).T)
    n_far = int(round(w.far_share * w.n_records))
    n_near = w.n_records - n_far
    n_cluster = int(round(CLUSTER_SHARE * n_near))
    centres = _on_edges(a, b, lengths, N_CLUSTERS, place)
    cluster = centres[np.arange(n_cluster) % N_CLUSTERS]
    cluster += place.normal(0.0, CLUSTER_SIGMA, cluster.shape)
    along = _on_edges(a, b, lengths, n_near - n_cluster, rng)
    along += rng.normal(0.0, ALONG_SIGMA, along.shape)
    lo, hi = xy.min(axis=0), xy.max(axis=0)
    side = rng.integers(0, 4, n_far)
    along_side = rng.random(n_far)
    gap = rng.uniform(100.0, 400.0, n_far)
    far = np.where(
        (side % 2 == 0)[:, None],
        np.column_stack([np.where(side == 0, lo[0] - gap, hi[0] + gap),
                         lo[1] + along_side * (hi[1] - lo[1])]),
        np.column_stack([lo[0] + along_side * (hi[0] - lo[0]),
                         np.where(side == 1, lo[1] - gap, hi[1] + gap)]),
    )
    events = np.vstack([cluster, along, far])[rng.permutation(w.n_records)]
    if not math.isfinite(w.max_snap_dist):
        return events, None
    while True:
        d = segment_distances(events, a, b)
        close = np.abs(d - w.max_snap_dist) < SNAP_MARGIN
        if not close.any():
            return events, d
        events[close] += rng.normal(0.0, 1.0, (int(close.sum()), 2))


def generate(w: Workload, seed: int, out: Path) -> dict:
    """Write the workload's network, events and manifest under ``out``.

    The network and the clustered events are the workload's fixed place,
    drawn from a stream named after the workload; the seed draws the events
    along edges, the far records and the record order.  The densest cluster
    sets the smallest adaptive bandwidth and with it the lattice spacing and
    step count, so drawing the clusters from the seed made the step count
    of the adaptive-direct solve spread by 11-19% between seeds (quartile
    distance over median, 12 seeds).
    """
    stream = zlib.crc32(w.name.encode())
    place = np.random.default_rng(stream)
    xy, segs = grid_network(w.side, place)
    if w.stubs:
        xy, segs = add_stubs(xy, segs, w.stubs, place)
    a, b = xy[segs[:, 0]], xy[segs[:, 1]]
    lengths = np.hypot(*(b - a).T)
    events, dist = make_events(w, xy, segs, place, np.random.default_rng([seed, stream]))
    kept = len(events) if dist is None else int((dist <= w.max_snap_dist).sum())

    out.mkdir(parents=True, exist_ok=True)
    feats = [
        {"type": "Feature", "properties": {"edge_id": e},
         "geometry": {"type": "LineString",
                      "coordinates": [[float(x), float(y)] for x, y in (a[e], b[e])]}}
        for e in range(len(segs))
    ]
    (out / "net.geojson").write_text(
        json.dumps({"type": "FeatureCollection", "features": feats}), encoding="utf-8"
    )
    (out / "events.csv").write_text(
        "x,y\n" + "".join(f"{float(x)!r},{float(y)!r}\n" for x, y in events), encoding="utf-8"
    )
    manifest = {
        "workload": w.name,
        "seed": seed,
        "edges": int(len(segs)),
        "records": int(len(events)),
        "kept": kept,
        "shortest_edge": float(lengths.min()),
        "total_length": float(lengths.sum()),
        "bbox": [float(v) for v in (*xy.min(axis=0), *xy.max(axis=0))],
        "edge_lengths": [float(x) for x in lengths],
        "args": list(w.args),
        "format": w.format,
        "heat": w.heat,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return manifest
