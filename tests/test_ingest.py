import csv
import json
import math

import numpy as np
import pytest

from lineheat.errors import AllPointsTooFar, GeometryTypeError, ParseError
from lineheat.ingest import (
    _read_points_csv,
    rasterize,
    read_lattice_function,
    read_network_geojson,
    read_points,
    write_lattice_function,
    write_network_geojson,
    write_points_csv,
)
from lineheat.lattice import LatticeFunction, discretize
from lineheat.network import MAX_COORDINATE, MERGE_TOLERANCE, NetworkLocation, build_network

from nets import (
    assert_same,
    csv_write_lattice,
    dictreader_points,
    grid_network,
    kdtree_merge,
    kdtree_raster,
    lexsort_raster,
    pattern_of,
    pointwise_read_network,
    random_lattices,
    random_locations,
    random_network,
    segment_network,
    special_locations,
    two_disjoint_segments,
)


def _write_geojson(path, features):
    path.write_text(json.dumps({"type": "FeatureCollection", "features": features}))


def _line(coords):
    return {"type": "Feature", "properties": {}, "geometry": {"type": "LineString", "coordinates": coords}}


class TestReadNetwork:
    def test_two_disjoint_linestrings(self, tmp_path):
        p = tmp_path / "net.geojson"
        _write_geojson(p, [_line([[0, 0], [1, 0]]), _line([[0, 2], [1, 2]])])
        net = read_network_geojson(p)
        assert net.n_vertices == 4
        assert net.n_edges == 2
        assert net.n_components == 2

    def test_collinear_linestring_splits(self, tmp_path):
        p = tmp_path / "net.geojson"
        _write_geojson(p, [_line([[0, 0], [1, 0], [2, 0]])])
        net = read_network_geojson(p)
        assert net.n_edges == 2
        assert sorted(net.degrees) == [1, 1, 2]

    def test_endpoint_merge_within_tolerance(self, tmp_path):
        p = tmp_path / "net.geojson"
        _write_geojson(
            p, [_line([[0, 0], [1, 0]]), _line([[1 + 5e-9, 0], [2, 0]])]
        )
        net = read_network_geojson(p)
        assert net.n_vertices == 3
        assert max(net.degrees) == 2

    def test_multilinestring(self, tmp_path):
        p = tmp_path / "net.geojson"
        _write_geojson(
            p,
            [
                {
                    "type": "Feature",
                    "properties": {},
                    "geometry": {
                        "type": "MultiLineString",
                        "coordinates": [[[0, 0], [1, 0]], [[0, 1], [1, 1]]],
                    },
                }
            ],
        )
        net = read_network_geojson(p)
        assert net.n_edges == 2

    def test_rejects_polygons(self, tmp_path):
        p = tmp_path / "net.geojson"
        _write_geojson(
            p,
            [
                {
                    "type": "Feature",
                    "properties": {},
                    "geometry": {"type": "Polygon", "coordinates": [[[0, 0], [1, 0], [0, 1], [0, 0]]]},
                }
            ],
        )
        with pytest.raises(GeometryTypeError):
            read_network_geojson(p)

    def test_rejects_garbage(self, tmp_path):
        p = tmp_path / "net.geojson"
        p.write_text("{not json")
        with pytest.raises(ParseError):
            read_network_geojson(p)

    def test_linestring_without_coordinates_rejected(self, tmp_path):
        p = tmp_path / "net.geojson"
        bare = {"type": "Feature", "properties": {}, "geometry": {"type": "LineString"}}
        _write_geojson(p, [_line([[0, 0], [1, 0]]), bare])
        with pytest.raises(ParseError, match="feature 2: LineString without a coordinates array"):
            read_network_geojson(p)

    def test_feature_not_an_object_rejected(self, tmp_path):
        p = tmp_path / "net.geojson"
        _write_geojson(p, [1])
        with pytest.raises(ParseError, match="feature 1: not a JSON object"):
            read_network_geojson(p)

    def test_short_position_rejected(self, tmp_path):
        p = tmp_path / "net.geojson"
        _write_geojson(p, [_line([[0, 0], [1]])])
        with pytest.raises(ParseError, match=r"feature 1: bad position \[1\]"):
            read_network_geojson(p)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_network_coordinate_rejected(self, tmp_path, value):
        p = tmp_path / "net.geojson"
        _write_geojson(p, [_line([[0, 0], [1, 0]]), _line([[1, 0], [value, 1]])])
        with pytest.raises(ParseError, match="feature 2: non-finite coordinate"):
            read_network_geojson(p)

    @pytest.mark.parametrize("value", [1e160, -1e300, MAX_COORDINATE * (1 + 1e-15)])
    def test_network_coordinate_beyond_bound_rejected(self, tmp_path, value):
        p = tmp_path / "net.geojson"
        _write_geojson(p, [_line([[0, 0], [1, 0]]), _line([[1, 0], [value, 1]])])
        with pytest.raises(ParseError, match=r"feature 2: coordinate beyond \+-3.35195e\+153"):
            read_network_geojson(p)

    def test_network_at_the_coordinate_bound_reads(self, tmp_path):
        # no RuntimeWarning either: the predicates' products stay finite
        m = MAX_COORDINATE
        p = tmp_path / "net.geojson"
        corners = [[-m, -m], [m, -m], [m, m], [-m, m], [-m, -m]]
        _write_geojson(p, [_line(corners[k : k + 2]) for k in range(4)] + [_line([[-m, -m], [m, m]])])
        net = read_network_geojson(p)
        assert (net.n_vertices, net.n_edges) == (4, 5)
        assert net.total_length == pytest.approx((8 + 2 * math.sqrt(2)) * m)

    def test_roundtrip_idempotent_up_to_relabeling(self, tmp_path):
        net = grid_network(3, 3, spacing=1.0, keep=0.8, rng=np.random.default_rng(2))
        p = tmp_path / "rt.geojson"
        write_network_geojson(net, p)
        back = read_network_geojson(p)
        assert back.n_vertices == net.n_vertices
        assert back.n_edges == net.n_edges
        assert back.total_length == pytest.approx(net.total_length, rel=1e-12)
        assert sorted(back.degrees) == sorted(net.degrees)


@pytest.mark.parametrize("doc, message", [
    ([], "expected a GeoJSON FeatureCollection"),
    ({"type": "Feature", "features": []}, "expected a GeoJSON FeatureCollection"),
    ({"type": "FeatureCollection", "features": {}}, "FeatureCollection 'features' is not an array"),
    ({"type": "FeatureCollection", "features": []}, "no line segments found"),
    ({"type": "FeatureCollection", "features": [_line([[0, 0], [0, 0]]), _line([[1, 1], [1, 1 + 1e-9]])]},
     "all segments collapsed under the merge tolerance"),
    ({"type": "FeatureCollection", "features": [_line([[0, 0], [1, 0]]), _line([[1, 0], [10**400, 0]])]},
     r"feature 2: bad position \[1000"),
], ids=["array", "not-a-collection", "features-not-an-array", "no-features", "all-collapsed", "oversized-int"])
def test_network_refusal_named(tmp_path, doc, message):
    p = tmp_path / "net.geojson"
    p.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=message):
        read_network_geojson(p)


def _outcome(read, path):
    """(vertex_xy, edge_vertices) of a read, or its error's type and message."""
    try:
        net = read(path)
    except ParseError as exc:
        return type(exc), str(exc)
    return net.vertex_xy, net.edge_vertices


class TestCoordinateWalk:
    """The one-array conversion of network positions against the walk it replaced."""

    def test_random_networks_match_pointwise_walk(self, tmp_path):
        rng = np.random.default_rng(35)
        p = tmp_path / "net.geojson"
        for trial in range(30):
            net = random_network(rng, max_side=5, spacing=float(rng.choice([1.0, 0.7, 2.5])))
            xy = net.vertex_xy.tolist()
            if trial % 3 == 1:  # integer coordinates where they are whole
                xy = [[int(v) if v == int(v) else v for v in pt] for pt in xy]
            if trial % 3 == 2:  # a z on some positions
                xy = [pt + [1.0] if rng.random() < 0.5 else pt for pt in xy]
            lines = []
            for u, v in net.edge_vertices.tolist():
                mid = (np.array(xy[u][:2]) + xy[v][:2]) / 2
                lines.append([xy[u], mid.tolist(), xy[v]] if rng.random() < 0.3 else [xy[u], xy[v]])
            cuts = [0, *sorted(rng.choice(np.arange(1, len(lines) + 1), 3).tolist()), len(lines)]
            groups = [lines[a:b] for a, b in zip(cuts, cuts[1:])] if trial % 2 else [[ln] for ln in lines]
            feats = [
                {"type": "Feature", "properties": {},
                 "geometry": {"type": "MultiLineString", "coordinates": g}} if len(g) > 1 else _line(g[0])
                for g in groups if g
            ]
            _write_geojson(p, feats)
            got, want = _outcome(read_network_geojson, p), _outcome(pointwise_read_network, p)
            for a, b in zip(got, want):
                assert_same(a, b)

    @pytest.mark.parametrize("features", [
        [_line([[0, 0], [1, 0]]), _line([[1, 0], [None, 1]])],
        [_line([[0, 0], [math.nan, 0]]), _line([[0, 0], [1]])],
        [_line([[0, 0], [1, "a"]])],
        [_line([[0, 0], [1, 0]]), _line([[0, 0], [math.inf, 1]]),
         {"type": "Feature", "geometry": {"type": "Polygon", "coordinates": []}}],
        [_line([[0, math.nan], [1, 0]]), _line([[0, 0]])],
        [_line([[0, 0], [1, 0, 5]]), _line([[2, 2], [3, 3]])],
        [_line([[True, 0], [1, 1]])],
        [_line([[10**30, 0], [0, 0]])],
        [_line([["1.5", "0"], [0, 0]])],
        [_line([[0, 0], [[1], [2]]])],
        [_line([[0, 0], 1])],
        [{"type": "Feature", "geometry": {"type": "MultiLineString", "coordinates": [[[0, 0], [1, 0]], 7]}}],
        [_line([[0, 0], [1, 0]]), _line([[1, 0], [1, -1e200]]), _line([[0, 0], [1]])],
        [_line([[0, 0], [1, 0]]), _line([[1, 0], [10**400, 0]])],
    ], ids=["none", "nan-then-short", "string", "inf-then-polygon", "nan-then-one-position",
            "mixed-dims", "bool", "huge-int", "numeric-string", "nested", "number", "multi-not-a-list",
            "beyond-bound-then-short", "oversized-int"])
    def test_bad_or_odd_positions_read_as_the_walk_did(self, tmp_path, features):
        p = tmp_path / "net.geojson"
        _write_geojson(p, features)
        got, want = _outcome(read_network_geojson, p), _outcome(pointwise_read_network, p)
        if isinstance(want[1], str):
            assert got == want
        else:
            for a, b in zip(got, want):
                assert_same(a, b)


def _write_lines(path, lines):
    """One LineString per list of points; returns the points and the raw segments."""
    _write_geojson(path, [_line([[float(x), float(y)] for x, y in ln]) for ln in lines])
    starts = np.cumsum([0] + [len(ln) for ln in lines])
    raw = [(s + k, s + k + 1) for s, ln in zip(starts, lines) for k in range(len(ln) - 1)]
    return np.array([q for ln in lines for q in ln], dtype=float), raw


class TestMergeMatchesKdtree:
    def test_random_networks(self, tmp_path):
        # every edge its own LineString, some split at an inner point; the ends
        # move by up to a third of the tolerance, so each vertex's copies merge
        rng = np.random.default_rng(31)
        p = tmp_path / "net.geojson"
        tol = MERGE_TOLERANCE
        for _ in range(25):
            net = random_network(rng, max_side=5, spacing=float(rng.uniform(0.5, 3.0)))
            lines = []
            for u, v in net.edge_vertices:
                a, b = net.vertex_xy[u], net.vertex_xy[v]
                pts = [a, b] if rng.random() < 0.7 else [a, a + rng.uniform(0.3, 0.7) * (b - a), b]
                lines.append([q + rng.uniform(-tol / 3, tol / 3, 2) * (rng.random() < 0.7) for q in pts])
            xy, raw = _write_lines(p, [lines[k] for k in rng.permutation(len(lines))])
            want_xy, want_ev = kdtree_merge(xy, raw, tol)
            got = read_network_geojson(p)
            assert_same(got.vertex_xy, want_xy)
            assert_same(got.edge_vertices, want_ev)

    def test_chain_of_close_points_merges_to_its_lowest(self, tmp_path):
        # six spoke ends 0.9 tolerances apart on a line, listed last to first:
        # only the chain, not any one pair, joins them into one centre
        tol = MERGE_TOLERANCE
        ends = [(k * 0.9 * tol, 0.0) for k in range(6)][::-1]
        angles = np.linspace(0.3, 2 * math.pi, 6, endpoint=False)
        lines = [[e, (10 * math.cos(t), 10 * math.sin(t))] for e, t in zip(ends, angles)]
        xy, raw = _write_lines(tmp_path / "net.geojson", lines)
        got = read_network_geojson(tmp_path / "net.geojson")
        assert got.n_vertices == 7 and sorted(got.degrees) == [1] * 6 + [6]
        want_xy, want_ev = kdtree_merge(xy, raw, tol)
        assert_same(got.vertex_xy, want_xy)
        assert_same(got.edge_vertices, want_ev)

    def test_ends_merge_within_the_tolerance_only(self, tmp_path):
        # a gap of half the tolerance closes; one of twice the tolerance stays open
        p = tmp_path / "net.geojson"
        for gap, n_vertices in ((0.5 * MERGE_TOLERANCE, 4), (2 * MERGE_TOLERANCE, 5)):
            lines = [[(0.0, 0.0), (1.0, 0.0)], [(1.0, 0.0), (1.0, 1.0)], [(1.0 + gap, 0.0), (2.0, 0.0)]]
            xy, raw = _write_lines(p, lines)
            got = read_network_geojson(p)
            assert got.n_vertices == n_vertices
            want_xy, want_ev = kdtree_merge(xy, raw, MERGE_TOLERANCE)
            assert_same(got.vertex_xy, want_xy)
            assert_same(got.edge_vertices, want_ev)


class TestReadPoints:
    def test_csv_rows_on_edges(self, tmp_path):
        net = segment_network(2.0)
        p = tmp_path / "pts.csv"
        p.write_text("x,y\n0.2,0\n1.0,0\n1.8,0\n")
        pattern, report = read_points(p, net, max_snap_dist=0.5)
        assert pattern.n == 3
        assert report.n_dropped == 0
        assert report.warning is None

    def test_far_rows_dropped(self, tmp_path):
        net = segment_network(2.0)
        p = tmp_path / "pts.csv"
        p.write_text("x,y\n0.2,0.0\n0.5,1.0\n")
        pattern, report = read_points(p, net, max_snap_dist=0.5)
        assert pattern.n == 1
        assert report.n_dropped == 1
        assert "dropped" in report.warning

    def test_all_points_too_far(self, tmp_path):
        net = segment_network(2.0)
        p = tmp_path / "pts.csv"
        p.write_text("x,y\n0.5,9.0\n")
        with pytest.raises(AllPointsTooFar):
            read_points(p, net, max_snap_dist=0.5)

    def test_empty_csv_warns(self, tmp_path):
        net = segment_network(2.0)
        p = tmp_path / "pts.csv"
        p.write_text("x,y\n")
        pattern, report = read_points(p, net, max_snap_dist=0.5)
        assert pattern.n == 0
        assert report.warning == "input contained no event records"

    def test_geojson_points(self, tmp_path):
        net = segment_network(2.0)
        p = tmp_path / "pts.geojson"
        _write_geojson(
            p,
            [
                {"type": "Feature", "properties": {}, "geometry": {"type": "Point", "coordinates": [0.5, 0.0]}},
            ],
        )
        pattern, _ = read_points(p, net, max_snap_dist=0.5)
        assert pattern.n == 1

    def test_geojson_point_without_coordinates_rejected(self, tmp_path):
        net = segment_network(2.0)
        p = tmp_path / "pts.geojson"
        _write_geojson(p, [{"type": "Feature", "properties": {}, "geometry": {"type": "Point"}}])
        with pytest.raises(ParseError, match="feature 1: Point without a coordinates array"):
            read_points(p, net, max_snap_dist=0.5)

    def test_missing_columns(self, tmp_path):
        net = segment_network(2.0)
        p = tmp_path / "pts.csv"
        p.write_text("lon,lat\n0.5,0\n")
        with pytest.raises(ParseError):
            read_points(p, net, max_snap_dist=0.5)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e300", repr(-MAX_COORDINATE * 1.000001)])
    def test_csv_non_finite_coordinate_rejected(self, tmp_path, value):
        net = segment_network(2.0)
        p = tmp_path / "pts.csv"
        p.write_text(f"x,y\n0.2,0\n{value},0\n")
        with pytest.raises(ParseError, match="record 2"):
            read_points(p, net, max_snap_dist=math.inf)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 1e300])
    def test_geojson_non_finite_coordinate_rejected(self, tmp_path, value):
        net = segment_network(2.0)
        p = tmp_path / "pts.geojson"
        _write_geojson(
            p,
            [
                {"type": "Feature", "properties": {}, "geometry": {"type": "Point", "coordinates": xy}}
                for xy in ([0.5, 0.0], [0.5, value])
            ],
        )
        with pytest.raises(ParseError, match="feature 2: (non-finite coordinate|coordinate beyond)"):
            read_points(p, net, max_snap_dist=math.inf)

    def test_oversized_integer_point_rejected(self, tmp_path):
        # an integer no float can hold is a bad position, not an OverflowError
        p = tmp_path / "pts.geojson"
        _write_geojson(p, [{"type": "Feature", "geometry": {"type": "Point", "coordinates": xy}}
                           for xy in ([0.5, 0], [10**400, 0])])
        with pytest.raises(ParseError, match=r"feature 2: bad position \[1000"):
            read_points(p, segment_network(2.0), max_snap_dist=math.inf)

    def test_oversized_integer_csv_record_rejected(self, tmp_path):
        # float() reads the digits as inf
        p = tmp_path / "pts.csv"
        p.write_text(f"x,y\n0.5,0\n{10**400},0\n")
        with pytest.raises(ParseError, match=r"record 2: non-finite coordinate \(inf, 0.0\)"):
            read_points(p, segment_network(2.0), max_snap_dist=math.inf)

    def test_geojson_point_fault_before_a_later_feature_error_is_named(self, tmp_path):
        # as for lines: the positions read before a structural error are checked first
        p = tmp_path / "pts.geojson"
        _write_geojson(p, [{"type": "Feature", "geometry": {"type": "Point", "coordinates": [math.nan, 0]}},
                           {"type": "Feature", "geometry": {"type": "Polygon", "coordinates": []}}])
        with pytest.raises(ParseError, match="feature 1: non-finite coordinate"):
            read_points(p, segment_network(2.0), max_snap_dist=math.inf)

    def test_records_at_the_coordinate_bound_snap(self, tmp_path):
        # records as far as the bound allows snap to the nearer end, with no RuntimeWarning
        net = segment_network(2.0)
        p = tmp_path / "pts.csv"
        m = MAX_COORDINATE
        p.write_text(f"x,y\n{m!r},{m!r}\n{-m!r},0\n")
        pattern, report = read_points(p, net, max_snap_dist=math.inf)
        assert report.n_snapped == 2
        assert_same(pattern.offset, np.array([2.0, 0.0]))

    def test_snap_never_exceeds_max_dist(self, tmp_path):
        rng = np.random.default_rng(7)
        net = grid_network(3, 3, rng=rng)
        rows = ["x,y"]
        for _ in range(30):
            rows.append(f"{rng.uniform(-0.5, 2.5)},{rng.uniform(-0.5, 2.5)}")
        p = tmp_path / "pts.csv"
        p.write_text("\n".join(rows) + "\n")
        pattern, report = read_points(p, net, max_snap_dist=0.3)
        for xy in net._xy(pattern.edge, pattern.offset):
            # snapped location is within max_snap_dist of SOME input row
            d = min(
                math.hypot(xy[0] - float(r.split(",")[0]), xy[1] - float(r.split(",")[1]))
                for r in rows[1:]
            )
            assert d <= 0.3 + 1e-9


class TestPointsDialect:
    """The column reader against ``csv.DictReader``, and the BOM."""

    def test_column_reader_matches_dictreader(self, tmp_path):
        rng = np.random.default_rng(36)
        p = tmp_path / "pts.csv"
        formats = [repr, "{:.3f}".format, lambda v: f" {v} ", lambda v: f"{v:+e}", lambda v: str(int(v * 10))]
        for trial in range(40):
            header = ["x", "y"] + rng.choice(["id", "note", "w"], int(rng.integers(0, 3)), replace=False).tolist()
            header = [header[k] for k in rng.permutation(len(header))]
            if trial % 5 == 0:
                header.append("x")  # a repeated name: the last column wins
            rows = [header]
            for _ in range(int(rng.integers(0, 30))):
                fmt = formats[int(rng.integers(len(formats)))]
                row = [fmt(float(v)) for v in rng.uniform(-50, 50, len(header))]
                rows.append(row + ["extra"] * int(rng.integers(0, 2)))
            quoting = [csv.QUOTE_MINIMAL, csv.QUOTE_ALL][trial % 2]
            with open(p, "w", newline="", encoding="utf-8") as fh:
                w = csv.writer(fh, quoting=quoting, lineterminator=["\r\n", "\n"][trial % 3 == 0])
                for row in rows:
                    w.writerow(row)
                    if rng.random() < 0.2:
                        fh.write("\n")  # a blank line
            got = _read_points_csv(p)
            assert_same(got, np.array(dictreader_points(p), dtype=float).reshape(-1, 2))

    def test_short_row_missing_only_an_unused_column_reads(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("x,y,id\n0.5,0,a\n1.5,0\n")
        assert _read_points_csv(p).tolist() == [[0.5, 0.0], [1.5, 0.0]]

    @pytest.mark.parametrize("rows, message", [
        ("0.5,0\n1.5\n", "record 2: too few fields for columns x,y"),
        ("\n0.5,0\n\n\n,1\n", "record 2: bad coordinate value"),
        ("0.5\n", "record 1: too few fields"),
    ])
    def test_bad_record_named(self, tmp_path, rows, message):
        p = tmp_path / "pts.csv"
        p.write_text("x,y\n" + rows)
        with pytest.raises(ParseError, match=message):
            read_points(p, segment_network(2.0), max_snap_dist=1.0)

    @pytest.mark.parametrize("suffix, content, message", [
        (".csv", b"x,y\n" + b"1" * 200_000 + b",0\n", "cannot read points CSV: field larger than field limit"),
        (".csv", "x,y\n0.5,0\n\u00e9,0\n".encode("latin-1"), "cannot read points CSV: 'utf-8' codec"),
        (".geojson", '{"type": "FeatureCollection", "n\u00e9": []}'.encode("latin-1"), "cannot read GeoJSON: 'utf-8'"),
    ], ids=["csv-huge-field", "csv-latin-1", "geojson-latin-1"])
    def test_unreadable_file_is_a_parse_error(self, tmp_path, suffix, content, message):
        p = tmp_path / f"pts{suffix}"
        p.write_bytes(content)
        with pytest.raises(ParseError, match=message):
            read_points(p, segment_network(2.0), max_snap_dist=1.0)

    def test_csv_bom_reads_as_without(self, tmp_path):
        net = grid_network(3, 3, rng=np.random.default_rng(3))
        text = "x,y\n0.2,0.1\n1.5,1.9\n0.9,0.4\n"
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        bom.write_text(text, encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        (a, ra), (b, rb) = read_points(plain, net, 1.0), read_points(bom, net, 1.0)
        assert_same(a.edge, b.edge)
        assert_same(a.offset, b.offset)
        assert ra == rb and ra.n_records == 3

    def test_geojson_bom_reads_as_without(self, tmp_path):
        net = grid_network(3, 3, keep=0.8, jitter=0.1, rng=np.random.default_rng(4))
        plain, bom = tmp_path / "plain.geojson", tmp_path / "bom.geojson"
        write_network_geojson(net, plain)
        bom.write_text(plain.read_text(encoding="utf-8"), encoding="utf-8-sig")
        a, b = read_network_geojson(plain), read_network_geojson(bom)
        assert_same(a.vertex_xy, b.vertex_xy)
        assert_same(a.edge_vertices, b.edge_vertices)
        pts = [{"type": "Feature", "properties": {}, "geometry": {"type": "Point", "coordinates": [0.3, 0.1]}}]
        _write_geojson(plain, pts)
        bom.write_text(plain.read_text(encoding="utf-8"), encoding="utf-8-sig")
        (pa, ra), (pb, rb) = read_points(plain, net, 1.0), read_points(bom, net, 1.0)
        assert_same(pa.edge, pb.edge)
        assert_same(pa.offset, pb.offset)
        assert ra == rb


class TestLatticeCsv:
    def test_constant_function_rows(self, tmp_path):
        lat = discretize(segment_network(1.0), 0.25)
        f = LatticeFunction(lat, np.full(lat.n_nodes, 2.0))
        p = tmp_path / "f.csv"
        write_lattice_function(f, p, "lattice-csv")
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "edge_id,offset_start,offset_end,value"
        assert len(lines) == 1 + 5
        assert all(line.endswith(",2") for line in lines[1:])

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        net = grid_network(3, 2, rng=rng)
        lat = discretize(net, 0.3)
        f = LatticeFunction(lat, rng.uniform(0, 7, lat.n_nodes))
        p = tmp_path / "f.csv"
        write_lattice_function(f, p, "lattice-csv")
        g = read_lattice_function(p, lat)
        assert np.array_equal(f.values, g.values)

    def test_bom_reads_as_without(self, tmp_path):
        lat = discretize(grid_network(2, 2), 0.3)
        f = LatticeFunction(lat, np.random.default_rng(5).random(lat.n_nodes))
        p = tmp_path / "f.csv"
        write_lattice_function(f, p, "lattice-csv")
        p.write_bytes(b"\xef\xbb\xbf" + p.read_bytes())
        assert_same(read_lattice_function(p, lat).values, f.values)

    @pytest.mark.parametrize("bad_id", [-1, 1])
    def test_edge_id_out_of_range_rejected(self, tmp_path, bad_id):
        # one edge: without the check -1 would wrap around to edge 0
        lat = discretize(segment_network(1.0), 0.25)
        p = tmp_path / "f.csv"
        write_lattice_function(LatticeFunction(lat, np.ones(lat.n_nodes)), p, "lattice-csv")
        header, *rows = p.read_text().splitlines()
        rows = [f"{bad_id},{row.split(',', 1)[1]}" for row in rows]
        p.write_text("\n".join([header, *rows]) + "\n")
        with pytest.raises(ParseError, match=f"edge_id {bad_id} out of range"):
            read_lattice_function(p, lat)

    @pytest.mark.parametrize("edit, message", [
        (lambda header, rows: ["edge_id,offset_start,offset_end,v", *rows], "bad lattice-csv: 'value'"),
        (lambda header, rows: [header, *rows[:-1]], "edge 1: 4 cells in file, lattice has 5"),
        (lambda header, rows: [header, *(r for r in rows if not r.startswith("1,"))],
         "file does not cover every lattice node"),
    ], ids=["no-value-column", "cell-missing", "edge-missing"])
    def test_lattice_csv_refusal_named(self, tmp_path, edit, message):
        lat = discretize(two_disjoint_segments(), 0.25)  # 5 cells on each edge
        p = tmp_path / "f.csv"
        write_lattice_function(LatticeFunction(lat, np.ones(lat.n_nodes)), p, "lattice-csv")
        header, *rows = p.read_text().splitlines()
        p.write_text("\n".join(edit(header, rows)) + "\n")
        with pytest.raises(ParseError, match=message):
            read_lattice_function(p, lat)

    def test_bytes_equal_the_csv_writer(self, tmp_path):
        # zeros of both signs, the smallest normal and subnormals, integers, random values
        special = [0.0, -0.0, 1e-300, 2.2250738585072014e-308, 5e-324, 1.5e-310, 3.0, -7.0,
                   1e16, 2.0**53 + 2, 1 / 3, -1e300]
        for lat, rng in random_lattices(61, count=15):
            values = np.where(rng.random(lat.n_nodes) < 0.5, rng.choice(special, lat.n_nodes),
                              rng.normal(0.0, 10.0 ** rng.uniform(-5, 5), lat.n_nodes))
            f = LatticeFunction(lat, values)
            write_lattice_function(f, tmp_path / "got.csv", "lattice-csv")
            csv_write_lattice(f, tmp_path / "want.csv")
            assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_integral_preserved_through_cells(self, tmp_path):
        net = grid_network(3, 2, rng=np.random.default_rng(1))
        lat = discretize(net, 0.3)
        rng = np.random.default_rng(4)
        f = LatticeFunction(lat, rng.uniform(0, 5, lat.n_nodes))
        p = tmp_path / "f.csv"
        write_lattice_function(f, p, "lattice-csv")
        total = 0.0
        for line in p.read_text().strip().splitlines()[1:]:
            _, lo, hi, v = line.split(",")
            total += (float(hi) - float(lo)) * float(v)
        assert total == pytest.approx(f.integral(), rel=1e-9)


class TestRasterCsv:
    def test_diagonal_segment_offnet_cells_na(self, tmp_path):
        from lineheat.network import build_network

        net = build_network([(0, 0), (1, 1)], [(0, 1)])
        lat = discretize(net, 0.1)
        f = LatticeFunction(lat, np.ones(lat.n_nodes))
        p = tmp_path / "r.csv"
        write_lattice_function(f, p, "raster-csv", raster_res=4)
        lines = p.read_text().strip().splitlines()
        assert lines[0].startswith("# raster")
        grid = [line.split(",") for line in lines[1:]]
        assert len(grid) == 4 and all(len(r) == 4 for r in grid)
        flat = [c for row in grid for c in row]
        assert "NA" in flat
        assert any(c != "NA" for c in flat)
        # corners away from the diagonal are off-network
        assert grid[0][0] == "NA" and grid[3][3] == "NA"

    def test_refined_raster_agrees_at_common_centers(self, tmp_path):
        # pixel centers coincide between res R and 3R (center registration)
        from lineheat.ingest import rasterize

        net = grid_network(3, 3, rng=np.random.default_rng(8))
        lat = discretize(net, 0.2)
        f = LatticeFunction(lat, np.arange(lat.n_nodes, dtype=float))
        coarse, _ = rasterize(f, 5)
        fine, _ = rasterize(f, 15)
        common_fine = fine[1::3, 1::3]
        both = ~(np.isnan(coarse) | np.isnan(common_fine))
        assert both.any()
        assert np.array_equal(coarse[both], common_fine[both])

    @pytest.mark.parametrize("res", [0, -3, 2001])
    def test_resolution_outside_limits_rejected(self, res):
        f = LatticeFunction(discretize(segment_network(), 0.5), np.ones(3))
        with pytest.raises(ValueError, match=f"--raster-res must be from 1 to 2000, got {res}"):
            rasterize(f, res)


class TestRasterMatchesKdtree:
    def test_random_lattices(self):
        # the nearest node's value wherever that node is unique; a node within
        # reach exists or not whatever the tie rule
        for lat, rng in random_lattices(32, count=20):
            f = LatticeFunction(lat, rng.random(lat.n_nodes))
            for res in (1, 7, 16, 40):
                got, _ = rasterize(f, res)
                want, unique = kdtree_raster(f, res)
                assert_same(got[unique], want[unique])
                assert_same(np.isnan(got), np.isnan(want))

    def test_random_lattices_match_lexsort_pick(self, monkeypatch):
        # every pixel, ties included: an axis-aligned grid at a spacing that
        # divides its cells puts pixel centres halfway between nodes
        from lineheat import network

        cases = list(random_lattices(34, count=12))
        cases += [(discretize(grid_network(4, 3), 0.5), np.random.default_rng(k)) for k in range(3)]
        ties = 0
        for pairs in (97, network.BLOCK_PAIRS):
            monkeypatch.setattr(network, "BLOCK_PAIRS", pairs)
            for lat, rng in cases:
                f = LatticeFunction(lat, rng.random(lat.n_nodes))
                for res in (1, 6, 12, 40):
                    got, bbox = rasterize(f, res)
                    want, want_bbox = lexsort_raster(f, res)
                    assert_same(got, want)
                    assert bbox == want_bbox
                    ties += int((~kdtree_raster(f, res)[1] & ~np.isnan(want)).sum())
        assert ties > 0

    def test_vertical_line_ties_take_lowest_node_id(self):
        # zero-width bounding box; each pixel centre lies halfway between two nodes
        net = build_network([(0.0, 0.0), (0.0, 2.0)], [(0, 1)])
        lat = discretize(net, 1.0)  # nodes 0 at y=0, 1 at y=2, 2 at y=1
        grid, bbox = rasterize(LatticeFunction(lat, np.array([10.0, 11.0, 12.0])), 2)
        assert bbox == (0.0, 0.0, 0.0, 2.0)
        assert grid.tolist() == [[10.0, 10.0], [11.0, 11.0]]

    def test_vertical_polyline_matches_kdtree(self):
        rng = np.random.default_rng(33)
        ys = np.cumsum(rng.uniform(0.2, 1.0, 8))
        net = build_network([(5.0, y) for y in ys], [(k, k + 1) for k in range(7)])
        lat = discretize(net, 0.13)
        f = LatticeFunction(lat, rng.random(lat.n_nodes))
        for res in (3, 9, 50):
            got, _ = rasterize(f, res)
            want, unique = kdtree_raster(f, res)
            assert_same(got[unique], want[unique])
            assert_same(np.isnan(got), np.isnan(want))


class TestPointsCsv:
    def test_write_schema(self, tmp_path):
        net = segment_network(2.0)
        pattern = pattern_of(net, [NetworkLocation(0, 0.5)])
        p = tmp_path / "pts.csv"
        write_points_csv(pattern, p)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "x,y,edge_id,offset"
        assert lines[1] == "0.5,0,0,0.5"

    def test_rows_match_per_point_formula(self, tmp_path):
        # the column writer against the scalar formula, one point at a time
        for lat, rng in random_lattices(71, 6):
            net = lat.network
            pattern = pattern_of(net, random_locations(net, 20, rng) + special_locations(lat, rng))
            p = tmp_path / "pts.csv"
            write_points_csv(pattern, p)
            want = ["x,y,edge_id,offset"]
            for e, o in zip(pattern.edge.tolist(), pattern.offset.tolist()):
                u, v = net.edge_vertices[e]
                t = o / float(net.edge_lengths[e])
                x, y = ((1.0 - t) * a + t * b for a, b in zip(net.vertex_xy[u], net.vertex_xy[v]))
                want.append(f"{x:.17g},{y:.17g},{e},{o:.17g}")
            assert p.read_text().splitlines() == want
