"""File ingestion and export.

Networks come in as GeoJSON FeatureCollections of LineString /
MultiLineString features in a projected (planar, metric) CRS; events come in
as CSV (header columns x,y) or GeoJSON Points in the same CRS.  Lattice
functions go out as ``lattice-csv`` (piecewise-constant over node cells) or
``raster-csv`` (regular grid over the bounding box).  Floats are written with
17 significant digits so text round-trips are bit-faithful.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    AllPointsTooFar,
    GeometryTypeError,
    ParseError,
    TooFarFromNetwork,
)
from .lattice import Lattice, LatticeFunction
from .network import LinearNetwork, PointPattern, build_network, snap_to_network

FLOAT_FMT = "%.17g"


@dataclass
class SnapReport:
    """Outcome of snapping event records onto a network."""

    n_records: int
    n_snapped: int
    n_dropped: int
    max_snap_dist: float

    @property
    def warning(self) -> str | None:
        if self.n_records == 0:
            return "input contained no event records"
        if self.n_dropped:
            return f"{self.n_dropped} record(s) beyond max snap distance were dropped"
        return None


def read_network_geojson(path, merge_tolerance: float = 1e-8) -> LinearNetwork:
    """Read a network from GeoJSON, merging endpoints within ``merge_tolerance``."""
    coords: list[tuple[float, float]] = []
    raw_segments: list[tuple[int, int]] = []
    for i, gtype, lines in _features(path, ("LineString", "MultiLineString")):
        for line in [lines] if gtype == "LineString" else lines:
            if not isinstance(line, list) or len(line) < 2:
                raise ParseError(f"feature {i}: LineString with fewer than 2 coordinates")
            idx = []
            for pt in line:
                x, y = _position(pt, i)
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise ParseError(f"feature {i}: non-finite coordinate ({x}, {y})")
                coords.append((x, y))
                idx.append(len(coords) - 1)
            raw_segments.extend(zip(idx[:-1], idx[1:]))

    if not raw_segments:
        raise ParseError("no line segments found")

    xy = np.asarray(coords)
    parent = np.arange(len(xy))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in cKDTree(xy).query_pairs(merge_tolerance):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    roots = np.array([find(i) for i in range(len(xy))])
    used_roots = sorted({int(roots[a]) for a, b in raw_segments if roots[a] != roots[b]}
                        | {int(roots[b]) for a, b in raw_segments if roots[a] != roots[b]})
    relabel = {r: k for k, r in enumerate(used_roots)}

    vertices = xy[used_roots]
    segments = []
    for a, b in raw_segments:
        ra, rb = int(roots[a]), int(roots[b])
        if ra == rb:
            continue  # degenerate piece collapsed by the merge
        segments.append((relabel[ra], relabel[rb]))
    if not segments:
        raise ParseError("all segments collapsed under the merge tolerance")
    return build_network(vertices, segments)


def write_network_geojson(net: LinearNetwork, path) -> None:
    feats = []
    for e in range(net.n_edges):
        u, v = net.edge_vertices[e]
        feats.append(
            {
                "type": "Feature",
                "properties": {"edge_id": e},
                "geometry": {
                    "type": "LineString",
                    "coordinates": [
                        [float(net.vertex_xy[u][0]), float(net.vertex_xy[u][1])],
                        [float(net.vertex_xy[v][0]), float(net.vertex_xy[v][1])],
                    ],
                },
            }
        )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"type": "FeatureCollection", "features": feats}, fh)


def read_points(path, net: LinearNetwork, max_snap_dist: float):
    """Read event points and snap them to the network.

    Returns (pattern, report); records farther than ``max_snap_dist`` from the
    network are dropped and counted.  CSV needs header columns x,y; GeoJSON
    needs Point features.  A non-finite coordinate is a ParseError naming its
    record (counted from 1).
    """
    name = str(path)
    if name.endswith((".geojson", ".json")):
        rows = _read_points_geojson(path)
    else:
        rows = _read_points_csv(path)
    for i, (x, y) in enumerate(rows, 1):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ParseError(f"record {i}: non-finite coordinate ({x}, {y})")

    points = []
    dropped = 0
    for x, y in rows:
        try:
            points.append(snap_to_network(net, (x, y), max_snap_dist))
        except TooFarFromNetwork:
            dropped += 1
    if rows and not points:
        raise AllPointsTooFar(
            f"all {len(rows)} record(s) are farther than {max_snap_dist} from the network"
        )
    report = SnapReport(len(rows), len(points), dropped, max_snap_dist)
    return PointPattern(net, points), report


def _read_points_csv(path):
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not {"x", "y"} <= set(reader.fieldnames):
                raise ParseError("points CSV must have header columns x,y")
            try:
                return [(float(r["x"]), float(r["y"])) for r in reader]
            except (TypeError, ValueError) as exc:
                raise ParseError(f"bad coordinate value: {exc}") from exc
    except OSError as exc:
        raise ParseError(f"cannot read points CSV: {exc}") from exc


def _read_points_geojson(path):
    return [_position(xy, i) for i, _, xy in _features(path, ("Point",))]


def _features(path, types: tuple[str, ...]):
    """Yield (number from 1, geometry type, coordinates) per GeoJSON feature."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read GeoJSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise ParseError("expected a GeoJSON FeatureCollection")
    features = doc.get("features", [])
    if not isinstance(features, list):
        raise ParseError("FeatureCollection 'features' is not an array")
    for i, feat in enumerate(features, 1):
        if not isinstance(feat, dict):
            raise ParseError(f"feature {i}: not a JSON object")
        geom = feat.get("geometry")
        gtype = geom.get("type") if isinstance(geom, dict) else None
        if gtype not in types:
            raise GeometryTypeError(
                f"feature {i}: unsupported geometry type {gtype!r}; expected {'/'.join(types)}"
            )
        if not isinstance(geom.get("coordinates"), list):
            raise ParseError(f"feature {i}: {gtype} without a coordinates array")
        yield i, gtype, geom["coordinates"]


def _position(pt, i: int) -> tuple[float, float]:
    if isinstance(pt, list) and len(pt) >= 2:
        try:
            return float(pt[0]), float(pt[1])
        except (TypeError, ValueError):
            pass
    raise ParseError(f"feature {i}: bad position {pt!r}")


def write_points_csv(pattern: PointPattern, path) -> None:
    """Event pattern as CSV rows (x, y, edge_id, offset)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y", "edge_id", "offset"])
        for p in pattern:
            x, y = pattern.network.location_xy(p)
            w.writerow([FLOAT_FMT % x, FLOAT_FMT % y, p.edge, FLOAT_FMT % p.offset])


def write_lattice_function(
    f: LatticeFunction, path, format: str = "lattice-csv", raster_res: int = 128
) -> None:
    """Serialize a lattice function.

    ``lattice-csv``: one row per node cell (edge_id, offset_start, offset_end,
    value), piecewise-constant.  ``raster-csv``: raster_res x raster_res grid of
    the network bounding box; each pixel takes the value of the nearest lattice
    node within half a pixel diagonal, NA otherwise.
    """
    if format == "lattice-csv":
        _write_lattice_csv(f, path)
    elif format == "raster-csv":
        _write_raster_csv(f, path, raster_res)
    else:
        raise ValueError(f"unknown format {format!r}")


def _write_lattice_csv(f: LatticeFunction, path) -> None:
    ce, cl, ch, cn = f.lattice.node_cells
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["edge_id", "offset_start", "offset_end", "value"])
        for k in range(len(ce)):
            w.writerow(
                [
                    int(ce[k]),
                    FLOAT_FMT % cl[k],
                    FLOAT_FMT % ch[k],
                    FLOAT_FMT % f.values[cn[k]],
                ]
            )


def read_lattice_function(path, lattice: Lattice) -> LatticeFunction:
    """Read a lattice-csv written for the same lattice back into node values."""
    per_edge: dict[int, list[tuple[float, float]]] = {}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                per_edge.setdefault(int(row["edge_id"]), []).append(
                    (float(row["offset_start"]), float(row["value"]))
                )
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad lattice-csv: {exc}") from exc

    values = np.full(lattice.n_nodes, np.nan)
    for e, rows in per_edge.items():
        if not 0 <= e < lattice.network.n_edges:
            raise ParseError(f"edge_id {e} out of range [0, {lattice.network.n_edges})")
        chain = lattice.edge_chains[e]
        if len(rows) != len(chain):
            raise ParseError(
                f"edge {e}: {len(rows)} cells in file, lattice has {len(chain)}"
            )
        rows.sort()
        for (start, val), node in zip(rows, chain):
            values[node] = val
    if np.isnan(values).any():
        raise ParseError("file does not cover every lattice node")
    return LatticeFunction(lattice, values)


def raster_grid(net: LinearNetwork, res: int):
    """Pixel-center coordinates of the res x res raster over the bounding box."""
    xmin, ymin = net.vertex_xy.min(axis=0)
    xmax, ymax = net.vertex_xy.max(axis=0)
    dx = (xmax - xmin) / res
    dy = (ymax - ymin) / res
    xs = xmin + (np.arange(res) + 0.5) * dx
    ys = ymin + (np.arange(res) + 0.5) * dy
    return xs, ys, (xmin, ymin, xmax, ymax), math.hypot(dx, dy) / 2


def rasterize(f: LatticeFunction, res: int):
    """Raster of nearest-node values; cells without a node in reach are NaN."""
    if res < 1:
        raise ValueError("raster resolution must be >= 1")
    net = f.lattice.network
    xs, ys, bbox, half_diag = raster_grid(net, res)
    gx, gy = np.meshgrid(xs, ys)
    centers = np.column_stack([gx.ravel(), gy.ravel()])
    dist, idx = cKDTree(f.lattice.node_xy).query(centers)
    vals = np.where(dist <= half_diag, f.values[idx], np.nan)
    return vals.reshape(res, res), bbox


def _write_raster_csv(f: LatticeFunction, path, res: int) -> None:
    grid, bbox = rasterize(f, res)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            "# raster xmin=%s ymin=%s xmax=%s ymax=%s res=%d\n"
            % (FLOAT_FMT % bbox[0], FLOAT_FMT % bbox[1], FLOAT_FMT % bbox[2], FLOAT_FMT % bbox[3], res)
        )
        for r in range(res - 1, -1, -1):  # north-up: top row = max y
            fh.write(
                ",".join(
                    "NA" if math.isnan(v) else FLOAT_FMT % v for v in grid[r]
                )
                + "\n"
            )
