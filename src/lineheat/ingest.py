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
import reprlib
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import AllPointsTooFar, GeometryTypeError, ParseError
from .lattice import LatticeFunction
from .network import MAX_COORDINATE, MERGE_TOLERANCE, LinearNetwork, PointPattern, build_network
from .network import _close_pairs, _min_labels, _nearest, _ragged, _snap, _spans

FLOAT_FMT = "%.17g"

#: Rows per run of the CSV writers (points CSV and lattice-csv): one run's
#: Python lists, not all rows', set their peak (about 1 MB at this size).
CSV_RUN = 4096

_NUMBER = {int, float}  # the types json.load gives a JSON number

#: Most raster cells (resolution squared) one raster may have: a raster of
#: this size adds about 0.07 GB to an estimate's peak.
MAX_RASTER_CELLS = 4_000_000


@dataclass
class SnapReport:
    """Outcome of snapping event records onto a network."""

    n_records: int
    n_snapped: int
    n_dropped: int

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
    numbers (a GeoJSON position, RFC 7946 3.1.1: each value an ``int`` or
    ``float``, not a ``bool`` or a string) within ``MAX_COORDINATE``.
    They are converted as one array; where that fails, one by one, and a
    ParseError names the first bad position as ``{what} {id}``."""
    try:
        a = np.array(pts)
    except (ValueError, OverflowError):  # ragged, or an integer beyond 64 bits
        a = np.empty(0)
    numeric = a.ndim == 2 and a.shape[1] >= 2 and a.dtype.kind in "iuf"
    if numeric and set(map(type, chain.from_iterable(pts))) <= _NUMBER:  # numpy reads booleans as numbers
        xy = a[:, :2].astype(float)
        if (np.abs(xy) <= MAX_COORDINATE).all():  # False for nan and inf too
            return xy
    xy = []
    for pt, i in zip(pts, ids):
        try:  # fewer than two values fail to unpack; an integer beyond any float overflows
            x, y = map(float, pt[:2] if isinstance(pt, list) and set(map(type, pt)) <= _NUMBER else ())
        except (TypeError, ValueError, OverflowError):
            raise ParseError(f"{what} {i}: bad position {pt!r}") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ParseError(f"{what} {i}: non-finite coordinate {(x, y)}")
        if max(abs(x), abs(y)) > MAX_COORDINATE:
            raise ParseError(f"{what} {i}: coordinate beyond +-{MAX_COORDINATE:.6g} {(x, y)}")
        xy.append((x, y))
    return np.array(xy).reshape(-1, 2)


def read_points(path, net: LinearNetwork, max_snap_dist: float):
    """Read event points and snap them to the network.

    Returns (pattern, report); records farther than ``max_snap_dist`` from the
    network are dropped and counted.  A path ending in .geojson or .json, in
    any letter case, is read as GeoJSON of Point features, any other as CSV
    with header columns x,y.  A bad position is a ParseError naming its CSV
    record or its feature (counted from 1), as :func:`_positions` does.
    """
    if str(path).lower().endswith((".geojson", ".json")):
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
    report = SnapReport(n, len(kept), n - len(kept))
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
            xy.extend([_number(r[ix]), _number(r[iy])] for r in reader if r)  # on an error, len(xy) were read
    except (OSError, UnicodeDecodeError, csv.Error) as exc:  # before ValueError, which UnicodeDecodeError is
        raise ParseError(f"cannot read points CSV: {exc}") from exc
    except IndexError:
        raise ParseError(f"record {len(xy) + 1}: too few fields for columns x,y") from None
    except ValueError as exc:
        raise ParseError(f"record {len(xy) + 1}: bad coordinate value: {exc}") from None
    a = np.array(xy).reshape(-1, 2)  # floats already, so only the bounds need checking
    return a if (np.abs(a) <= MAX_COORDINATE).all() else _positions(xy, range(1, len(xy) + 1), "record")


def _number(text: str) -> float:
    """``float(text)``, refusing a finite number too large for any float, which float() reads as inf."""
    x = float(text)
    if math.isinf(x) and "inf" not in text.lower():
        raise ValueError(f"{reprlib.repr(text)} is beyond +-{MAX_COORDINATE:.6g}")
    return x


def _features(path, types: tuple[str, ...]):
    """Yield (number from 1, geometry type, coordinates) per GeoJSON feature."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8, bad JSON, an integer past the digit limit
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
    edge, offset, xy_of = pattern.edge, pattern.offset, pattern.network._xy
    _write_rows(path, "x,y,edge_id,offset", f"{FLOAT_FMT},{FLOAT_FMT},%d,{FLOAT_FMT}", len(edge),
                lambda s: (*xy_of(edge[s], offset[s]).T, edge[s], offset[s]))


def _write_rows(path, header: str, row: str, n: int, columns) -> None:
    """Write ``header`` and ``n`` rows, each ``row % cells``, as ``csv.writer``
    would (numbers need no quoting); ``columns(s)`` gives the column arrays
    of the rows in slice ``s``, taken in runs of ``CSV_RUN`` rows."""
    row += "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(header + "\r\n")
        for a in range(0, n, CSV_RUN):
            cols = [c.tolist() for c in columns(slice(a, a + CSV_RUN))]
            fh.writelines(row % cells for cells in zip(*cols))


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
        ce, cl, ch, cn = f.lattice.node_cells
        _write_rows(path, "edge_id,offset_start,offset_end,value", f"%d,{FLOAT_FMT},{FLOAT_FMT},{FLOAT_FMT}", len(ce),
                    lambda s: (ce[s], cl[s], ch[s], f.values[cn[s]]))
    elif format == "raster-csv":
        _write_raster_csv(f, path, raster_res)
    else:
        raise ValueError(f"unknown format {format!r}")


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
    """Raster of nearest-node values; cells without a node in reach are NaN.

    Each node lists the pixels of its index window, whose centres can lie
    within half a diagonal of it.  The nodes go in runs of about ``BLOCK_PAIRS``
    candidates, and each pixel keeps its best (d2, node id) from run to run:
    the nearest node wins, then the lowest id."""
    check_raster_res(res)
    xs, ys, bbox, half_diag = raster_grid(f.lattice.network, res)
    node_xy = f.lattice.node_xy
    reach = half_diag * (1 + 1e-9) + 1e-9 * float(np.abs(node_xy).max())
    window = []  # per axis: each node's first index and index count, and the indices picked on
    for axis, p in enumerate(node_xy.T):
        origin, pitch = bbox[axis], (bbox[axis + 2] - bbox[axis]) / res
        # centre i lies at origin + (i + 1/2) pitch; one index of slack a side for rounding.
        # On a flat axis (zero pitch) all centres are one: the pick runs on index 0, then is copied.
        lo = np.ceil((p - reach - origin) / (pitch or math.inf) - 0.5) - 1
        hi = np.floor((p + reach - origin) / (pitch or math.inf) - 0.5) + 1
        lo, hi = (np.clip(b, 0, res - 1).astype(np.int64) for b in (lo, hi))
        window.append((lo, hi - lo + 1, res if pitch else 1))
    (x0, nx, wx), (y0, ny, wy) = window
    count = nx * ny
    best, node = np.full(wx * wy, np.inf), np.full(wx * wy, -1)
    for a, b in _spans(count):
        k, t = _ragged(count[a:b])
        k += a
        col, row = x0[k] + t % nx[k], y0[k] + t // nx[k]
        dx, dy = xs[col] - node_xy[k, 0], ys[row] - node_xy[k, 1]
        d2 = dx * dx + dy * dy
        near = np.flatnonzero(np.sqrt(d2) <= half_diag)
        cell = row[near] * wx + col[near]
        by_cell = np.argsort(cell)  # _nearest takes each cell's candidates as one run
        near, cell = near[by_cell], cell[by_cell]
        win = _nearest(cell, d2[near], k[near])
        near, cell = near[win], cell[win]
        gain = d2[near] < best[cell]  # on a tie the earlier run's node, the lower id, stays
        best[cell[gain]], node[cell[gain]] = d2[near[gain]], k[near[gain]]
    del best
    vals = f.values[node]
    vals[node < 0] = np.nan
    grid = vals.reshape(wy, wx)
    if grid.shape != (res, res):
        grid = np.broadcast_to(grid, (res, res)).copy()
    return grid, bbox


def _write_raster_csv(f: LatticeFunction, path, res: int) -> None:
    grid, bbox = rasterize(f, res)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# raster xmin=%s ymin=%s xmax=%s ymax=%s res=%d\n" % (*(FLOAT_FMT % b for b in bbox), res))
        for row in grid[::-1]:  # north-up: top row = max y
            line, at = ["NA"] * res, np.flatnonzero(~np.isnan(row))  # only covered cells are formatted
            for i, v in zip(at.tolist(), row[at].tolist()):
                line[i] = FLOAT_FMT % v
            fh.write(",".join(line) + "\n")
