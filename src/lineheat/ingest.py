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

from .errors import AllPointsTooFar, GeometryTypeError, ParseError
from .lattice import Lattice, LatticeFunction
from .network import MAX_COORDINATE, MERGE_TOLERANCE, LinearNetwork, PointPattern, build_network
from .network import _box_pairs, _close_pairs, _min_labels, _nearest, _ragged, _snap

FLOAT_FMT = "%.17g"
_LATTICE_ROW = f"%d,{FLOAT_FMT},{FLOAT_FMT},{FLOAT_FMT}\r\n"  # a csv.writer row, terminator included

#: Most raster cells (resolution squared) one raster may have: a raster of
#: this size peaks at about 0.6 GB.
MAX_RASTER_CELLS = 4_000_000


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


def read_network_geojson(path) -> LinearNetwork:
    """Read a network from GeoJSON, merging endpoints within ``MERGE_TOLERANCE``."""
    pts, sizes, owner = [], [], []
    try:
        for i, gtype, coords in _features(path, ("LineString", "MultiLineString")):
            for line in [coords] if gtype == "LineString" else coords:
                if not isinstance(line, list) or len(line) < 2:
                    raise ParseError(f"feature {i}: LineString with fewer than 2 coordinates")
                pts.extend(line)
                sizes.append(len(line))
                owner.append(i)
    finally:  # also on an error: a bad position before it is reported instead
        xy = _positions(pts, np.array(owner, dtype=np.int64)[_ragged(sizes)[0]], "feature")

    if not sizes:
        raise ParseError("no line segments found")

    tail = np.delete(np.arange(len(xy)), np.cumsum(sizes) - 1)  # every position but a line's last
    # every point takes the lowest id of its cluster of points within the tolerance
    ends = _min_labels(len(xy), *_close_pairs(xy, MERGE_TOLERANCE))[np.column_stack((tail, tail + 1))]
    ends = ends[ends[:, 0] != ends[:, 1]]  # degenerate pieces collapsed by the merge
    if not len(ends):
        raise ParseError("all segments collapsed under the merge tolerance")
    used, inverse = np.unique(ends, return_inverse=True)
    return build_network(xy[used], inverse.reshape(ends.shape))


def _positions(pts: list, ids, what: str) -> np.ndarray:
    """(n, 2) float coordinates of positions, each a list of two or more
    numbers (a GeoJSON position, RFC 7946 3.1.1) within ``MAX_COORDINATE``.
    They are converted as one array; where that fails, one by one, and a
    ParseError names the first bad position as ``{what} {id}``."""
    try:
        a = np.array(pts)
    except (ValueError, OverflowError):  # ragged, or an integer beyond 64 bits
        a = np.empty(0)
    if a.ndim == 2 and a.shape[1] >= 2 and a.dtype.kind in "biuf":
        xy = a[:, :2].astype(float)
        if (np.abs(xy) <= MAX_COORDINATE).all():  # False for nan and inf too
            return xy
    xy = []
    for pt, i in zip(pts, ids):
        try:  # fewer than two values fail to unpack; an integer beyond any float overflows
            x, y = map(float, pt[:2] if isinstance(pt, list) else ())
        except (TypeError, ValueError, OverflowError):
            raise ParseError(f"{what} {i}: bad position {pt!r}") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ParseError(f"{what} {i}: non-finite coordinate {(x, y)}")
        if max(abs(x), abs(y)) > MAX_COORDINATE:
            raise ParseError(f"{what} {i}: coordinate beyond +-{MAX_COORDINATE:.6g} {(x, y)}")
        xy.append((x, y))
    return np.array(xy).reshape(-1, 2)


def write_network_geojson(net: LinearNetwork, path) -> None:
    xy = net.vertex_xy.tolist()
    feats = [
        {
            "type": "Feature",
            "properties": {"edge_id": e},
            "geometry": {"type": "LineString", "coordinates": [xy[u], xy[v]]},
        }
        for e, (u, v) in enumerate(net.edge_vertices.tolist())
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"type": "FeatureCollection", "features": feats}, fh)


def read_points(path, net: LinearNetwork, max_snap_dist: float):
    """Read event points and snap them to the network.

    Returns (pattern, report); records farther than ``max_snap_dist`` from the
    network are dropped and counted.  CSV needs header columns x,y; GeoJSON
    needs Point features.  A bad position is a ParseError naming its CSV
    record or its feature (counted from 1), as :func:`_positions` does.
    """
    if str(path).endswith((".geojson", ".json")):
        pts = []
        try:
            pts.extend(p for _, _, p in _features(path, ("Point",)))
        finally:  # also on an error: a bad position before it is reported instead
            xy = _positions(pts, range(1, len(pts) + 1), "feature")
    else:
        xy = _read_points_csv(path)

    n = len(xy)
    edge, offset, dist = _snap(net, xy, max_snap_dist)
    kept = np.flatnonzero(dist <= max_snap_dist)
    if n and not len(kept):
        raise AllPointsTooFar(f"all {n} record(s) are farther than {max_snap_dist} from the network")
    report = SnapReport(n, len(kept), n - len(kept), max_snap_dist)
    return PointPattern(net, edge[kept], offset[kept]), report


def _read_points_csv(path) -> np.ndarray:
    """(n, 2) array of the x, y columns, found by header name (the last of a
    repeated one); blank lines are skipped, as ``csv.DictReader`` does."""
    xy: list[list[float]] = []
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            col = {name: k for k, name in enumerate(next(reader, []))}
            if not {"x", "y"} <= col.keys():
                raise ParseError("points CSV must have header columns x,y")
            ix, iy = col["x"], col["y"]
            xy.extend([float(r[ix]), float(r[iy])] for r in reader if r)  # on an error, len(xy) were read
    except (OSError, UnicodeDecodeError, csv.Error) as exc:  # before ValueError, which UnicodeDecodeError is
        raise ParseError(f"cannot read points CSV: {exc}") from exc
    except IndexError:
        raise ParseError(f"record {len(xy) + 1}: too few fields for columns x,y") from None
    except ValueError as exc:
        raise ParseError(f"record {len(xy) + 1}: bad coordinate value: {exc}") from None
    return _positions(xy, range(1, len(xy) + 1), "record")


def _features(path, types: tuple[str, ...]):
    """Yield (number from 1, geometry type, coordinates) per GeoJSON feature."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
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


def write_points_csv(pattern: PointPattern, path) -> None:
    """Event pattern as CSV rows (x, y, edge_id, offset)."""
    edge, offset = pattern.edge, pattern.offset
    xy = pattern.network._xy(edge, offset)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y", "edge_id", "offset"])
        w.writerows(
            [FLOAT_FMT % x, FLOAT_FMT % y, e, FLOAT_FMT % o]
            for (x, y), e, o in zip(xy.tolist(), edge.tolist(), offset.tolist())
        )


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
    rows = zip(ce.tolist(), cl.tolist(), ch.tolist(), f.values[cn].tolist())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("edge_id,offset_start,offset_end,value\r\n")
        fh.writelines(_LATTICE_ROW % row for row in rows)


def read_lattice_function(path, lattice: Lattice) -> LatticeFunction:
    """Read a lattice-csv written for the same lattice back into node values."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            col = {name: k for k, name in enumerate(next(reader, []))}
            at = [col[name] for name in ("edge_id", "offset_start", "value")]
            rows = np.array([[r[k] for k in at] for r in reader if r]).reshape(-1, 3)
        edge, (start, value) = rows[:, 0].astype(np.int64), rows[:, 1:].T.astype(float)
    except (OSError, KeyError, IndexError, ValueError, csv.Error) as exc:
        raise ParseError(f"bad lattice-csv: {exc}") from exc

    order = np.lexsort((start, edge))
    edge, value = edge[order], value[order]
    ne, (cell_edge, _, _, cell_node) = lattice.network.n_edges, lattice.node_cells
    cells = np.bincount(cell_edge, minlength=ne)
    off = (edge < 0) | (edge >= ne)
    if off.any():
        raise ParseError(f"edge_id {edge[off][0]} out of range [0, {ne})")
    count = np.bincount(edge, minlength=ne)
    bad = np.flatnonzero((count > 0) & (count != cells))
    if len(bad):
        raise ParseError(f"edge {bad[0]}: {count[bad[0]]} cells in file, lattice has {cells[bad[0]]}")
    values = np.full(lattice.n_nodes, np.nan)
    values[cell_node[(count > 0)[cell_edge]]] = value  # the cells of the edges read
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


def check_raster_res(res: int) -> None:
    """Reject a raster resolution below 1 or with more than ``MAX_RASTER_CELLS`` cells."""
    if not (res >= 1 and res * res <= MAX_RASTER_CELLS):
        raise ValueError(f"--raster-res must be from 1 to {math.isqrt(MAX_RASTER_CELLS)}, got {res}")


def rasterize(f: LatticeFunction, res: int):
    """Raster of nearest-node values; cells without a node in reach are NaN."""
    check_raster_res(res)
    net = f.lattice.network
    xs, ys, bbox, half_diag = raster_grid(net, res)
    gx, gy = np.meshgrid(xs, ys)
    centers = np.column_stack([gx.ravel(), gy.ravel()])
    # every node within half a diagonal is a candidate; the nearest wins, then the lowest id
    node_xy = f.lattice.node_xy
    reach = half_diag * (1 + 1e-9) + 1e-9 * float(np.abs(node_xy).max())
    vals = np.full(len(centers), np.nan)
    for k, c in _box_pairs(node_xy - reach, node_xy + reach, centers, centers, 2 * half_diag):
        d = centers[c] - node_xy[k]
        d2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
        near = np.flatnonzero(np.sqrt(d2) <= half_diag)
        win = near[_nearest(c[near], d2[near], k[near])]
        vals[c[win]] = f.values[k[win]]
    return vals.reshape(res, res), bbox


def _write_raster_csv(f: LatticeFunction, path, res: int) -> None:
    grid, bbox = rasterize(f, res)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# raster xmin=%s ymin=%s xmax=%s ymax=%s res=%d\n" % (*(FLOAT_FMT % b for b in bbox), res))
        for row in grid[::-1].tolist():  # north-up: top row = max y
            fh.write(",".join("NA" if math.isnan(v) else FLOAT_FMT % v for v in row) + "\n")
