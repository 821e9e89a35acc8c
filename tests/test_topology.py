"""Topology loading, validation, geometry queries, and the generator."""

import functools
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cellpilot
from cellpilot import topology as topology_module
from cellpilot.cli import main
from cellpilot.topology import (
    FIELDS,
    GENERATOR_PRESETS,
    Cell,
    Placement,
    Topology,
    Tower,
    TopologyError,
    generate_topology,
    load_topology,
    sample_placement,
    save_topology,
    street_points_at,
    topology_doc,
    validate_topology,
    wall_crossings_to_cells,
)
from cellpilot.topology import _REQUIRED, _street_wall_rows
from cellpilot.reselect import CONFIG_B
from cellpilot.simcore import (EpisodeConfig, constant_controller, reference_fingerprint,
                               run_episode)
from cellpilot.traffic import TrafficConfig

from oracles import placement_point, polyline_point_at, wall_crossings

DATA = Path(cellpilot.__file__).parent / "data"


def minimal_doc():
    return {
        "format": "cellpilot-topology",
        "version": 1,
        "area_bounds": [0.0, 0.0, 100.0, 100.0],
        "towers": [{"id": "T1", "x": 50.0, "y": 50.0}],
        "cells": [
            {"id": "C1", "tower": "T1", "azimuth_deg": 0.0,
             "beamwidth_deg": 120.0, "frequency_hz": 2.0e9,
             "bandwidth_hz": 2.0e7, "priority": 3, "tx_power_dbm": 30.0},
        ],
        "buildings": [],
        "streets": [[[0.0, 10.0], [100.0, 10.0]]],
    }


def write_doc(tmp_path, doc, name="t.topo"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def test_load_minimal(tmp_path):
    topo = load_topology(write_doc(tmp_path, minimal_doc()))
    assert topo.n_cells == 1
    assert topo.cells[0].position == (50.0, 50.0)  # inherited from tower
    assert topo.cell_priority[0] == 3


def test_save_load_fingerprint_stable(tmp_path):
    topo = generate_topology("desk", seed=4)
    p = tmp_path / "d.topo"
    save_topology(topo, p)
    again = load_topology(p)
    assert again.fingerprint == topo.fingerprint


def test_save_topology_is_atomic(tmp_path, monkeypatch, failing_write):
    topo = generate_topology("desk", seed=4)
    path = tmp_path / "d.topo"
    save_topology(topo, path)
    old = path.read_bytes()
    with open(tmp_path / "ref.topo", "w") as fh:   # the bytes of a plain dump
        json.dump(topology_doc(topo), fh, indent=1, sort_keys=True)
        fh.write("\n")
    assert old == (tmp_path / "ref.topo").read_bytes()
    (tmp_path / "ref.topo").unlink()
    failing_write()
    with pytest.raises(OSError):
        save_topology(generate_topology("desk", seed=5), path)
    with pytest.raises(OSError):
        save_topology(topo, tmp_path / "other.topo")
    monkeypatch.undo()
    assert path.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.topo"]


def test_parse_error_names_position(tmp_path):
    p = tmp_path / "bad.topo"
    p.write_text('{"area_bounds": [0,0,1,]\n}')
    with pytest.raises(TopologyError, match=r"line \d+"):
        load_topology(p)


def test_duplicate_cell_id_rejected(tmp_path):
    doc = minimal_doc()
    doc["cells"].append(dict(doc["cells"][0]))
    with pytest.raises(TopologyError, match="C1"):
        load_topology(write_doc(tmp_path, doc))


def test_unknown_tower_rejected(tmp_path):
    doc = minimal_doc()
    doc["cells"][0]["tower"] = "T9"
    with pytest.raises(TopologyError, match="T9"):
        load_topology(write_doc(tmp_path, doc))


def test_priority_range_enforced(tmp_path):
    doc = minimal_doc()
    doc["cells"][0]["priority"] = 8
    with pytest.raises(TopologyError, match="priority"):
        load_topology(write_doc(tmp_path, doc))


def test_nonsimple_polygon_rejected(tmp_path):
    doc = minimal_doc()
    # bowtie: edges cross
    doc["buildings"] = [[[20, 20], [30, 30], [30, 20], [20, 30]]]
    with pytest.raises(TopologyError, match="self-intersect"):
        load_topology(write_doc(tmp_path, doc))


def test_zero_length_street_rejected(tmp_path):
    # a UE on it would reflect at both ends forever in step_mobility
    doc = minimal_doc()
    doc["streets"].append([[10.0, 10.0], [10.0, 10.0]])
    with pytest.raises(TopologyError, match=r"streets\[1\]: polyline has zero length"):
        load_topology(write_doc(tmp_path, doc))
    doc["streets"][1] = [[10.0, 10.0], [10.0, 10.0], [20.0, 10.0]]  # one empty segment
    assert len(load_topology(write_doc(tmp_path, doc)).streets) == 2


def test_out_of_bounds_tower_rejected(tmp_path):
    doc = minimal_doc()
    doc["towers"][0]["x"] = 500.0
    with pytest.raises(TopologyError, match="bounds"):
        load_topology(write_doc(tmp_path, doc))


def _set(*path):
    """An edit of minimal_doc(): doc[path[0]]...[path[-2]] = path[-1]."""
    def edit(doc):
        *keys, last, value = path
        for k in keys:
            doc = doc[k]
        doc[last] = value
    return edit


def _raw(edit):
    """An edit of the file's bytes: `edit` maps minimal_doc()'s JSON to them."""
    return lambda doc: edit(json.dumps(doc).encode())


@pytest.mark.parametrize("edit, message", [
    (_set("streets", 0, 0, 0, math.inf),
     r"streets\[0\]\[0\]: x: expected a number in .*, got inf"),
    (_set("cells", 0, "tx_power_dbm", math.nan),
     r"cells\[0\]: tx_power_dbm: expected a number in .*, got nan"),
    (_set("buildings", [[1, 2, 3]]), r"buildings\[0\]: expected a list of \[x, y\] points"),
    (_set("buildings", [[[20, 20], [30, 30, 1], [30, 20]]]),
     r"buildings\[0\]: expected a list of \[x, y\] points"),
    (_set("cells", []), "cells: at least one cell is required"),
    (_set("buildings", [[[math.nan, 20], [30, 20], [30, 30], [20, 30]]]),
     r"buildings\[0\]\[0\]: x: expected a number in .*, got nan"),
    (_set("area_bounds", 2, math.inf), "area_bounds: xmax: expected a number in .*, got inf"),
    (_set("towers", 0, "x", math.inf), r"towers\[0\]: x: expected a number in .*, got inf"),
    (_set("cells", 0, "frequency_hz", math.inf),
     r"cells\[0\]: frequency_hz: expected a number in .*, got inf"),
    (_set("cells", 0, "bandwidth_hz", math.inf),
     r"cells\[0\]: bandwidth_hz: expected a number in .*, got inf"),
    (_set("towers", 0, "x", "a"), r"towers\[0\]: x: expected a number in .*, got 'a'"),
    (_set("cells", 0, "priority", 2.7),
     r"cells\[0\]: priority: expected an integer in \[0, 7\], got 2.7"),
    (_set("area_bounds", 1, "a"), "area_bounds: ymin: expected a number in .*, got 'a'"),
    # minimal_doc has no buildings: with no street either, no UE can be placed
    (_set("streets", []), "buildings, streets: at least one building or street"),
    # an int too large for the Topology's arrays, refused before they are built
    (_set("cells", 0, "priority", 1e300),
     r"cells\[0\]: priority: expected an integer in \[0, 7\], got 1e\+300"),
    # bytes that json cannot decode: not UTF-8, and an integer of 5000 digits
    (_raw(lambda text: text.replace(b'"C1"', b'"C\xff"')),
     r"t\.topo: parse error: 'utf-8' codec can't decode byte 0xff"),
    (_raw(lambda text: text.replace(b'"priority": 3', b'"priority": 1' + b"0" * 4999)),
     r"t\.topo: parse error: Exceeds the limit .* for integer string conversion"),
], ids=["street-infinity", "tx-power-nan", "building-flat", "building-ragged",
        "no-cells", "building-nan-vertex", "bounds-infinity", "tower-infinity",
        "frequency-infinity", "bandwidth-infinity", "tower-x-string", "priority-fraction",
        "bounds-string", "no-placement-zone", "priority-huge", "not-utf8",
        "integer-5000-digits"])
def test_malformed_topology_fails_early_naming_the_field(tmp_path, capsys, edit,
                                                          message):
    doc = minimal_doc()
    raw = edit(doc)
    path = write_doc(tmp_path, doc)   # json writes NaN and Infinity, and reads them
    if raw is not None:
        path.write_bytes(raw)
    with pytest.raises(TopologyError, match=message):
        load_topology(path)
    rc = main(["eval", "--topology", str(path), "--params", "config_a",
               "--seeds", "1", "--ues", "2", "--length", "5",
               "--cache", str(tmp_path / "cache")])
    assert rc == 2
    assert re.search(message, capsys.readouterr().err)
    assert not (tmp_path / "cache").exists()


def declared_fields():
    """(field, path, record) for every field of topology.FIELDS: the path
    to its value in a minimal_doc() with one building, and the record that
    a message about it names."""
    for kind, fields in FIELDS.items():
        for i, f in enumerate(fields):
            if kind == "area_bounds":
                yield f, (kind, i), kind
            elif kind in ("buildings", "streets"):
                yield f, (kind, 0, 0, i), f"{kind}[0][0]"
            else:
                yield f, (kind, 0, f.key), f"{kind}[0]"


def field_mutants(f):
    """Values that field `f` refuses: NaN, infinities, the wrong JSON types
    (a number where a string belongs; a string, a numeric string and a bool
    where a number does), values just outside its range, and a fraction for
    an integer."""
    values = [math.nan, math.inf, -math.inf, None, [1], {}, True, False]
    if f.kind is str:
        return values + [1, 2.5]
    values += ["a", "1", str(f.lo), f.lo - 1, f.hi + 1,
               float(np.nextafter(f.lo, -math.inf)), float(np.nextafter(f.hi, math.inf))]
    return values + ([f.lo + 0.5] if f.kind is int else [])


def mutated(doc, path, value):
    """A copy of `doc` with the value at `path` set to `value`, or deleted
    when `value` is _REQUIRED."""
    doc = json.loads(json.dumps(doc))
    *keys, last = path
    holder = functools.reduce(lambda d, k: d[k], keys, doc)
    if value is _REQUIRED:
        del holder[last]
    else:
        holder[last] = value
    return doc


def test_every_declared_field_refuses_its_mutants(tmp_path, capsys):
    # generated from the declaration: a field added to FIELDS is tried too
    base = minimal_doc()
    base["buildings"] = [[[20.0, 20.0], [30.0, 20.0], [30.0, 30.0], [20.0, 30.0]]]
    load_topology(write_doc(tmp_path, base))
    cache = tmp_path / "cache"
    tried = []
    for f, path, record in declared_fields():
        mutants = [(v, f"{f.key}: expected") for v in field_mutants(f)]
        if f.default is _REQUIRED and path[-1] == f.key:
            mutants.append((_REQUIRED, f"missing field '{f.key}'"))
        for value, says in mutants:
            p = write_doc(tmp_path, mutated(base, path, value))
            with pytest.raises(TopologyError, match=re.escape(f"{p}: {record}: {says}")):
                load_topology(p)
            rc = main(["eval", "--topology", str(p), "--params", "config_a", "--seeds", "1",
                       "--ues", "2", "--length", "5", "--cache", str(cache)])
            assert rc == 2 and f"{record}: {says}" in capsys.readouterr().err
            assert not cache.exists()
        tried.append((record, f.key))
        # the range is closed: its ends are not refused as this field's
        for end in ((f.lo, f.hi) if f.kind is not str else ()):
            try:
                load_topology(write_doc(tmp_path, mutated(base, path, end)))
            except TopologyError as exc:
                assert f"{f.key}: expected" not in str(exc)
    assert len(set(tried)) == sum(len(fields) for fields in FIELDS.values())


# --- wall crossings ---------------------------------------------------------

def box(x0, y0, x1, y1):
    return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=float)


def make_topo_with_buildings(buildings):
    return Topology(
        area_bounds=(0.0, 0.0, 100.0, 100.0),
        towers=[],
        cells=[],
        buildings=[np.asarray(b, dtype=float) for b in buildings],
        streets=[],
    )


def test_segment_through_box_crosses_twice():
    topo = make_topo_with_buildings([box(40, 40, 60, 60)])
    assert wall_crossings((0, 50), (100, 50), topo) == 2


def test_segment_ending_inside_crosses_once():
    topo = make_topo_with_buildings([box(40, 40, 60, 60)])
    assert wall_crossings((0, 50), (50, 50), topo) == 1


def test_segment_missing_box_crosses_zero():
    topo = make_topo_with_buildings([box(40, 40, 60, 60)])
    assert wall_crossings((0, 80), (100, 80), topo) == 0


def test_vertex_graze_counted_once():
    # path passes exactly through the (60,60) corner
    topo = make_topo_with_buildings([box(40, 40, 60, 60)])
    assert wall_crossings((50, 70), (70, 50), topo) == 1


def test_two_buildings_accumulate():
    topo = make_topo_with_buildings([box(10, 40, 20, 60), box(80, 40, 90, 60)])
    assert wall_crossings((0, 50), (100, 50), topo) == 4


def test_vectorized_matches_scalar():
    rng = np.random.default_rng(7)
    # borrow a generated topology for its cells, swap in hand-made buildings
    base = generate_topology("desk", seed=1)
    blds = [box(20, 20, 40, 35), box(55, 50, 70, 80), box(10, 70, 25, 90)]
    topo = Topology(area_bounds=base.area_bounds, towers=base.towers,
                    cells=base.cells,
                    buildings=[np.asarray(b, dtype=float) for b in blds],
                    streets=[])
    pts = rng.uniform(5, 95, size=(40, 2))
    counts = wall_crossings_to_cells(pts, topo)
    assert counts.shape == (40, topo.n_cells)
    for i in range(8):
        for c in range(topo.n_cells):
            expect = wall_crossings(pts[i], tuple(topo.cell_xy[c]), topo)
            assert counts[i, c] == expect


def assert_matches_scalar(pts, topo):
    counts = wall_crossings_to_cells(pts, topo)
    expect = [[wall_crossings(p, tuple(xy), topo) for xy in topo.cell_xy]
              for p in pts]
    assert counts.tolist() == expect
    return counts


def test_vectorized_matches_scalar_on_large_shared_sites():
    # 48 cells on 6 towers: counts are taken per site and scattered to cells
    topo = load_topology(DATA / "large.topo")
    assert topo.n_cells == 48 and len(np.unique(topo.cell_xy, axis=0)) == 6
    rng = np.random.default_rng(11)
    xmin, ymin, xmax, ymax = topo.area_bounds
    pts = [(x, y) for x, y in rng.uniform((xmin, ymin), (xmax, ymax), size=(30, 2))]
    pts += [placement_point(topo, sample_placement(topo, rng)) for _ in range(12)]
    # segments parallel to the axis-aligned building walls
    pts += [(tx, ymin + 0.3 * (ymax - ymin)) for tx, _ in topo.cell_xy[::16]]
    pts += [(xmin + 0.6 * (xmax - xmin), ty) for _, ty in topo.cell_xy[::16]]
    counts = assert_matches_scalar(np.array(pts), topo)
    assert counts.any()
    for tower in topo.towers:
        cols = [c for c, cell in enumerate(topo.cells) if cell.tower_id == tower.id]
        assert (counts[:, cols] == counts[:, cols[:1]]).all()


def test_vectorized_matches_scalar_one_cell_per_site_out_of_order():
    # site order (sorted by position) and cell ids both differ from index order
    xy = [(80.0, 15.0), (10.0, 90.0), (55.0, 5.0), (10.0, 20.0), (95.0, 60.0)]
    towers = [Tower(f"T{i}", x, y) for i, (x, y) in enumerate(xy)]
    cells = [Cell(id=f"C{5 - i}", tower_id=t.id, position=(t.x, t.y),
                  azimuth=0.0, beamwidth=120.0, frequency=1.0e9,
                  bandwidth=10e6, priority=1) for i, t in enumerate(towers)]
    blds = [box(20, 20, 40, 35), box(55, 50, 70, 80), box(10, 70, 25, 90),
            box(60, 10, 75, 30)]
    topo = Topology((0.0, 0.0, 100.0, 100.0), towers, cells,
                    [np.asarray(b, dtype=float) for b in blds], [])
    pts = np.random.default_rng(5).uniform(0, 100, size=(40, 2))
    counts = assert_matches_scalar(pts, topo)
    assert len(set(map(tuple, counts.T.tolist()))) == topo.n_cells


# Lattice geometry: every coordinate is a multiple of 0.5, so both counting
# paths compute exact products and any disagreement is a pruning error.
TRIANGLE = np.array([(0, 0), (6, 0), (0, 6)], dtype=float)
PENTAGON = np.array([(0, 0), (4, 0), (6, 3), (2, 6), (-2, 3)], dtype=float)
RECT = box(0, 0, 6, 4)


def lattice_topology(sites, buildings, offset, streets=()):
    towers = [Tower(f"T{i}", x + offset, y + offset)
              for i, (x, y) in enumerate(sites)]
    cells = [Cell(id=f"C{i}", tower_id=t.id, position=(t.x, t.y), azimuth=0.0,
                  beamwidth=120.0, frequency=1.0e9, bandwidth=10e6, priority=1)
             for i, t in enumerate(towers)]
    return Topology((offset - 20, offset - 20, offset + 70, offset + 70), towers,
                    cells, [np.asarray(b, dtype=float) + offset for b in buildings],
                    [np.asarray(s, dtype=float) + offset for s in streets])


def degenerate_points(sites, buildings):
    """UE points that end segments on vertices and on edges, and send them
    through vertices and along edges (from sites on an edge's line)."""
    pts = []
    for poly in buildings:
        for p, q in zip(poly, np.roll(poly, -1, axis=0)):
            pts += [p, (p + q) / 2, 2 * q - p]
            pts += [2 * p - np.asarray(s) for s in sites]
    # the scalar count is undefined for a segment of length zero
    return [pt for pt in pts if tuple(pt) not in set(map(tuple, sites))]


@pytest.mark.parametrize("offset", [0.0, 1_000_000.25])
def test_pruned_matches_scalar_on_degenerate_segments(offset):
    buildings = [TRIANGLE, PENTAGON + (20, 0), RECT + (0, 20), PENTAGON + (24, 24)]
    sites = [(10, 10),
             (26, -4),     # below the pentagon's rightmost vertex (26, 3)
             (-6, 0),      # on the line of the triangle's bottom edge
             (0, 14),      # on the line of the triangle's left edge
             (6, 24)]      # a rectangle corner: segments leave from a vertex
    # (site, UE, count), checked by hand
    cases = [(1, (26, 12), 1),   # boxes touch only at the vertex it runs through
             (3, (0, -6), 2),    # along the triangle's left edge: both vertices
             (2, (12, 0), 2),    # along the triangle's bottom edge
             (4, (6, 10), 1),    # along the rectangle's right edge, from its corner
             (0, (-2, -2), 2),   # crosses the hypotenuse, leaves through (0, 0)
             (0, (3, 3), 0),     # ends on the triangle's hypotenuse
             (0, (6, 0), 0)]     # ends on a triangle vertex
    pts = [ue for _, ue, _ in cases] + degenerate_points(sites, buildings)
    topo = lattice_topology(sites, buildings, offset)
    counts = assert_matches_scalar(np.array(pts, dtype=float) + offset, topo)
    assert [counts[i, site] for i, (site, _, _) in enumerate(cases)] == \
        [n for _, _, n in cases]


@pytest.mark.parametrize("offset", [0.0, 1_000_000.25])
def test_pruned_matches_scalar_lattice_fuzz(offset):
    rng = np.random.default_rng(31)
    shapes = [TRIANGLE, PENTAGON, RECT, TRIANGLE[:, ::-1]]
    for _ in range(12):
        buildings = [shapes[rng.integers(len(shapes))] + rng.integers(0, 40, 2)
                     for _ in range(rng.integers(3, 9))]
        sites = [tuple(s) for s in rng.integers(-4, 48, (3, 2))]
        sites.append(tuple(buildings[0][0]))               # a site on a vertex
        x0, y0 = buildings[1].min(axis=0)
        x1, y1 = buildings[1].max(axis=0)
        # east of a building at its mid-height (so the building's span seen
        # from it crosses +-pi), inside one, and on an edge's midpoint
        sites.append((x1 + rng.integers(1, 20), (y0 + y1) / 2))
        sites.append(tuple(buildings[2].mean(axis=0).round()))
        sites.append(tuple((buildings[0][0] + buildings[0][1]) / 2))
        sites = list(dict.fromkeys(sites))
        pts = [p for p in rng.integers(-8, 52, (40, 2)) / rng.choice([1, 2], (40, 1))
               if tuple(p) not in sites]
        pts += degenerate_points(sites, buildings[:2])
        topo = lattice_topology(sites, buildings, offset)
        pts = np.array(pts, dtype=float) + offset
        assert_matches_scalar(pts, topo)
        # UEs at the sites: no walls to their own site
        at = wall_crossings_to_cells(topo.cell_xy, topo)
        assert at[np.arange(len(sites)), np.arange(len(sites))].tolist() == [0] * len(sites)
        assert at.tolist() == dense_counts(topo.cell_xy, topo).tolist()


def dense_counts(pts, topo):
    """The pair math of wall_crossings_to_cells on every (UE, site, edge)
    triple, without pruning: where the two disagree, pruning dropped a
    triple that counts, whatever the rounding of the geometry."""
    pts = np.asarray(pts, dtype=float)
    sites, site_of = np.unique(topo.cell_xy, axis=0, return_inverse=True)
    x1, y1, x2, y2 = (v[None, :] for v in topo._wall_edges)
    per_site = []
    for cx, cy in sites:
        dx, dy = pts[:, 0:1] - cx, pts[:, 1:2] - cy
        p1x, p1y, p2x, p2y = x1 - cx, y1 - cy, x2 - cx, y2 - cy
        ex, ey = x2 - x1, y2 - y1
        d1 = dx * p1y - dy * p1x
        d2 = dx * p2y - dy * p2x
        d3 = ey * p1x - ex * p1y
        d4 = dy * ex - dx * ey + d3
        dot = dx * p1x + dy * p1y
        hits = (((d1 * d2 < 0) & (d3 * d4 < 0))
                | ((d1 == 0) & (dot > 0) & (dot < dx * dx + dy * dy)))
        per_site.append(hits.sum(axis=1))
    return np.array(per_site).T[:, site_of.ravel()]


def test_site_sectors_split_at_pi_and_cover_near_buildings():
    west = box(10, 40, 20, 60)        # straddles the -x direction from (50, 50)
    inside = box(45, 45, 55, 55)      # holds the site
    east = box(80, 45, 90, 70)
    topo = lattice_topology([(50, 50)], [west, inside, east], 0.0)
    lo, hi, bld = topo._site_sectors[0]
    assert sorted(bld.tolist()) == [0, 0, 1, 2]
    assert -np.pi in lo[bld == 0].tolist() and np.pi in hi[bld == 0].tolist()
    assert (lo[bld == 1], hi[bld == 1]) == (-np.inf, np.inf)
    # every padded corner seen from the site lies inside its building's span
    bx0, by0, bx1, by1 = topo._wall_boxes
    for b in (0, 2):
        for x, y in [(bx0[b], by0[b]), (bx1[b], by0[b]), (bx0[b], by1[b]), (bx1[b], by1[b])]:
            a = np.arctan2(y - 50, x - 50)
            assert ((lo[bld == b] < a) & (a < hi[bld == b])).any()


def straddle_and_grazing_points(sites, buildings, rng):
    """UEs at every site, on the axis-parallel lines through the sites, and
    random ones around the buildings."""
    pts = [np.asarray(s, dtype=float) for s in sites]
    for sx, sy in sites:
        for t in (-30, -9, -3.5, 3.5, 9, 30):
            pts += [np.array([sx + t, sy]), np.array([sx, sy + t])]
    lo = np.min([b.min(axis=0) for b in buildings], axis=0) - 10
    hi = np.max([b.max(axis=0) for b in buildings], axis=0) + 10
    pts += list(rng.integers(lo, hi, (60, 2)) / rng.choice([1, 2], (60, 1)))
    return pts


@pytest.mark.parametrize("offset", [0.0, 1_000_000.25])
def test_pruned_matches_scalar_across_the_pi_cut_and_inside_buildings(offset):
    # sites beside buildings at their mid-height, so segments and building
    # spans cross the +-pi cut; a site inside a building; sites on an edge;
    # UEs at the sites and on their axis-parallel lines
    buildings = [RECT + (10, 10), RECT + (30, 10), PENTAGON + (10, 30), TRIANGLE + (34, 30)]
    sites = [(40, 12),        # east of RECT + (30, 10), level with its centre
             (4, 12),         # west of both rectangles
             (24, 33),        # level with the pentagon's rightmost vertex
             (33, 12),        # inside RECT + (30, 10)
             (13, 10),        # midpoint of a rectangle's bottom edge
             (34, 33)]        # on the triangle's left edge
    topo = lattice_topology(sites, buildings, offset)
    pts = straddle_and_grazing_points(sites, buildings, np.random.default_rng(3))
    pts += degenerate_points(sites, buildings)
    pts = np.array(pts, dtype=float) + offset
    counts = wall_crossings_to_cells(pts, topo)
    assert counts.tolist() == dense_counts(pts, topo).tolist()
    at_site = [[tuple(p) == tuple(xy) for xy in topo.cell_xy] for p in pts]
    expect = [[0 if same else wall_crossings(p, tuple(xy), topo)
               for xy, same in zip(topo.cell_xy, row)] for p, row in zip(pts, at_site)]
    assert counts.tolist() == expect
    assert counts[np.array(at_site)].tolist() == [0] * len(sites)
    assert counts.any()


def test_pruned_matches_dense_for_sites_on_and_near_padded_boxes():
    # off-lattice sites: on padded-box corners and edges, and just inside and
    # outside the distance at which a building takes every UE as candidate
    base = generate_topology("baseline", seed=3)
    bx0, by0, bx1, by1 = base._wall_boxes
    margin = 1e3 * base._wall_pad
    sites = []
    for b in range(0, len(bx0), 7):
        sites += [(bx0[b], by0[b]), (bx1[b], by1[b]), ((bx0[b] + bx1[b]) / 2, by1[b]),
                  (bx0[b], (by0[b] + by1[b]) / 2)]
        for f in (0.5, 1.5, 3.0, 1e3):
            sites += [(bx1[b] + f * margin, by1[b] + f * margin),
                      (bx0[b] - f * margin, (by0[b] + by1[b]) / 2)]
    towers = [Tower(f"T{i}", float(x), float(y)) for i, (x, y) in enumerate(sites)]
    cells = [Cell(id=f"C{i}", tower_id=t.id, position=(t.x, t.y), azimuth=0.0,
                  beamwidth=120.0, frequency=1.0e9, bandwidth=10e6, priority=1)
             for i, t in enumerate(towers)]
    topo = Topology(base.area_bounds, towers, cells, base.buildings, [])
    rng = np.random.default_rng(8)
    pts = [placement_point(base, sample_placement(base, rng)) for _ in range(150)]
    # on the corners of every seventh building, and beyond each corner as
    # seen from the first building's padded corners and edges
    for b in range(0, len(bx0), 7):
        poly = base.buildings[b]
        pts += [tuple(v) for v in poly]
        pts += [tuple(2 * v - np.asarray(s)) for v in poly for s in sites[:4]]
    pts += [tuple(s) for s in sites]
    counts = wall_crossings_to_cells(np.array(pts), topo)
    assert counts.tolist() == dense_counts(pts, topo).tolist()
    assert counts.any()


@pytest.mark.parametrize("name", ["baseline", "large"])
def test_pruned_matches_dense_on_bundled_topologies(name):
    topo = load_topology(DATA / f"{name}.topo")
    rng = np.random.default_rng(17)
    xmin, ymin, xmax, ymax = topo.area_bounds
    pts = rng.uniform((xmin - 50, ymin - 50), (xmax + 50, ymax + 50), (400, 2))
    placed = [placement_point(topo, sample_placement(topo, rng)) for _ in range(200)]
    pts = np.vstack([pts, placed,
                     topo.cell_xy, topo.cell_xy + (0.0, 250.0), topo.cell_xy - (250.0, 0.0)])
    assert wall_crossings_to_cells(pts, topo).tolist() == dense_counts(pts, topo).tolist()


# --- the street table ---------------------------------------------------------

STREET_SITES = [(4, 6), (24, 22), (44, 20), (20, 40)]
STREET_BUILDINGS = [RECT + (10, 10), PENTAGON + (30, 10), TRIANGLE + (10, 30),
                    RECT + (30, 30)]
STREETS = [[(0, 0), (50, 50)],            # through the vertices (10, 10) and (30, 30)
           [(-5, 10), (60, 10)],          # along two bottom edges' line
           [(13, -5), (13, 50)],          # through two buildings
           # joints at the vertices (10, 14), (28, 13) and (36, 34)
           [(0, 20), (10, 14), (28, 13), (36, 34), (45, 40)],
           [(0, 6), (60, 6)]]             # past the site (4, 6)
ALONG_EDGES = 1


def street_rows(topo, rng, n_random):
    """(street, arc) rows: `n_random` random arcs, then every safe interval
    end, at 0, 1 ulp, 1e-9, 1e-6 and 1e-3 either side of it, the segment
    joints and the street ends."""
    t = topo._street_walls
    street = rng.integers(0, len(topo.streets), n_random)
    arcs = [rng.random(n_random) * topo.street_lengths[street]]
    ends, end_street = np.concatenate([t.lo, t.hi]), np.concatenate([t.street, t.street])
    arcs += [np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf)]
    arcs += [ends + d for d in (0.0, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3, -1e-3)]
    streets = [street] + [end_street] * 9
    for k, lens in enumerate(topo.street_segment_lengths):
        joints = np.concatenate([[0.0], np.cumsum(lens), topo.street_lengths[k:k + 1]])
        arcs.append(joints)
        streets.append(np.full(len(joints), k))
    return np.concatenate(streets), np.concatenate(arcs)


def assert_table_matches(topo, street, arc):
    """The table path gives the per-site test's counts and the unpruned
    pair math's, on every row; returns the counts and which rows read the
    table."""
    pts = street_points_at(topo, street, arc)
    got = wall_crossings_to_cells(pts, topo, street, arc)
    assert got.tolist() == wall_crossings_to_cells(pts, topo).tolist()
    assert got.tolist() == dense_counts(pts, topo).tolist()
    return got, _street_wall_rows(topo, street, arc) >= 0


@pytest.mark.parametrize("offset", [0.0, 1_000_000.25])
def test_street_table_matches_the_per_site_test_on_lattice_streets(offset):
    topo = lattice_topology(STREET_SITES, STREET_BUILDINGS, offset, STREETS)
    t = topo._street_walls
    assert (t.lo < t.hi).all() and (np.diff(t.key) >= 0).all()
    # a street along an edge's line is unsafe everywhere: there the count
    # depends on the rounding of the UE's side of that line
    assert ALONG_EDGES not in t.street.tolist()
    street, arc = street_rows(topo, np.random.default_rng(41), 600)
    counts, table = assert_table_matches(topo, street, arc)
    assert len(np.unique(counts, axis=0)) > 5    # the counts do change
    assert table.any() and not table.all()       # rows near interval ends fall back
    # at 1e6, e = 2^-36 M^2 is about 15: the unsafe intervals are wide, and
    # street 2 is unsafe everywhere, as the vertical edges' constant d4 is 12
    if offset == 0.0:
        assert set(t.street.tolist()) == set(range(len(STREETS))) - {ALONG_EDGES}
        assert table[:600][street[:600] != ALONG_EDGES].mean() > 0.9


@pytest.mark.parametrize("street, offset", [(ALONG_EDGES, 0.0), (2, 1_000_000.25)])
def test_a_street_unsafe_everywhere_leaves_the_table_empty(street, offset):
    # the only street runs along an edge's line, or, at 1e6, through
    # buildings whose vertical edges' d4 stays within e of zero: no arc is
    # safe, every row takes the per-site test, and an episode with moving
    # UEs runs on
    topo = lattice_topology(STREET_SITES, STREET_BUILDINGS, offset, [STREETS[street]])
    assert len(topo._street_walls.key) == 0
    rows, arc = street_rows(topo, np.random.default_rng(47), 200)
    _, table = assert_table_matches(topo, rows, arc)
    assert not table.any()
    cfg = EpisodeConfig(topo, 2, n_ues=20, length=5.0,
                        traffic=TrafficConfig(mobility_enabled=True),
                        obstruction_enabled=True)
    res = run_episode(cfg, constant_controller(CONFIG_B))
    assert len(res.steps.reselection_events) == 5


@pytest.mark.parametrize("name", ["desk", "baseline", "large"])
def test_street_table_matches_the_per_site_test_on_bundled_topologies(name):
    topo = load_topology(DATA / f"{name}.topo")
    rng = np.random.default_rng(43)
    street, arc = street_rows(topo, rng, 2000)
    # the random rows, and 3000 of the rows at and near interval ends
    keep = np.concatenate([np.arange(2000),
                           2000 + rng.choice(len(street) - 2000, 3000, replace=False)])
    _, table = assert_table_matches(topo, street[keep], arc[keep])
    assert table[:2000].mean() > 0.99
    # indoor UEs (street -1) go through the per-site test
    pts = np.array([placement_point(topo, sample_placement(topo, rng)) for _ in range(50)])
    counts = wall_crossings_to_cells(pts, topo, np.full(50, -1), np.zeros(50))
    assert counts.tolist() == wall_crossings_to_cells(pts, topo).tolist()


# --- placement / polyline ---------------------------------------------------

def test_polyline_point_at_interpolates():
    line = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 5.0]])
    assert np.allclose(polyline_point_at(line, 0.0), (0, 0))
    assert np.allclose(polyline_point_at(line, 10.0), (10, 0))
    assert np.allclose(polyline_point_at(line, 12.5), (10, 2.5))
    assert np.allclose(polyline_point_at(line, 15.0), (10, 5))


def test_sample_placement_lands_in_zones():
    topo = generate_topology("desk", seed=2)
    rng = np.random.default_rng(0)
    x0, y0, x1, y1 = topo.area_bounds
    streets_seen = set()
    for _ in range(200):
        p = sample_placement(topo, rng, building_weight=0.5)
        assert isinstance(p, Placement)
        streets_seen.add(p.street_index)
        if p.street_index < 0:
            assert p.street_index == -1 and p.arc_pos == 0.0
            assert x0 <= p.point[0] <= x1 and y0 <= p.point[1] <= y1
        else:
            assert 0 <= p.street_index < len(topo.streets) and p.point is None
            assert 0.0 <= p.arc_pos <= topo.street_lengths[p.street_index]
    assert -1 in streets_seen and len(streets_seen) > 1


def test_sample_placement_deterministic():
    topo = generate_topology("desk", seed=2)
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(9)
        runs.append(([sample_placement(topo, rng) for _ in range(50)],
                     rng.bit_generator.state))
    (a, state_a), (b, state_b) = runs
    assert a == b and state_a == state_b
    assert {p.street_index >= 0 for p in a} == {True, False}


def old_sample_placement(topo, rng, building_weight=0.5):
    """sample_placement as it was on numpy scalars, kept to check the
    table-driven one bit for bit; a street draw comes with the point the
    numpy-scalar walk gave it."""
    def point_in_polygon(x, y, poly):
        inside, j = False, len(poly) - 1
        for i in range(len(poly)):
            xi, yi = poly[i]
            xj, yj = poly[j]
            if (yi > y) != (yj > y) and x < (xj - xi) * (y - yi) / (yj - yi) + xi:
                inside = not inside
            j = i
        return inside

    def point_at(line, arc, seg):
        total = seg.sum()
        arc = min(max(arc, 0.0), total)
        acc = 0.0
        for i, s in enumerate(seg):
            if arc <= acc + s or i == len(seg) - 1:
                t = 0.0 if s == 0 else (arc - acc) / s
                p0, p1 = line[i], line[i + 1]
                return (float(p0[0] + t * (p1[0] - p0[0])),
                        float(p0[1] + t * (p1[1] - p0[1])))
            acc += s

    has_streets, has_buildings = len(topo.streets) > 0, len(topo.buildings) > 0
    if has_streets and has_buildings:
        indoor = rng.random() < building_weight
    else:
        indoor = has_buildings
    if not indoor:
        lengths = topo.street_lengths
        cum = np.cumsum(lengths)
        target = rng.random() * lengths.sum()
        idx = min(int(np.searchsorted(cum, target, side="right")), len(topo.streets) - 1)
        arc = target - (cum[idx] - lengths[idx])
        point = point_at(topo.streets[idx], arc, topo.street_segment_lengths[idx])
        return Placement(idx, float(arc), point)
    areas = topo.building_areas
    target = rng.random() * areas.sum()
    idx = min(int(np.searchsorted(np.cumsum(areas), target, side="right")),
              len(topo.buildings) - 1)
    poly = topo.buildings[idx]
    xmin, ymin = poly.min(axis=0)
    xmax, ymax = poly.max(axis=0)
    while True:
        x = xmin + rng.random() * (xmax - xmin)
        y = ymin + rng.random() * (ymax - ymin)
        if point_in_polygon(x, y, poly):
            return Placement(point=(float(x), float(y)))


def placement_fields(p, topo=None):
    """The draw and the point it places the UE at; with `topo`, a street
    draw is placed by ``street_points_at``."""
    point = p.point
    if topo is not None and p.street_index >= 0:
        point = tuple(street_points_at(topo, np.array([p.street_index]),
                                       np.array([p.arc_pos]))[0].tolist())
    return (p.street_index, p.arc_pos, type(p.arc_pos), point, type(point[0]),
            type(point[1]))


@pytest.mark.parametrize("name", ["desk", "baseline", "alt", "large", "generated-desk"])
def test_sample_placement_matches_the_numpy_scalar_code(name):
    topo = (generate_topology("desk", seed=13) if name == "generated-desk"
            else load_topology(DATA / f"{name}.topo"))
    for weight in (0.0, 0.35, 1.0):
        new, old = np.random.default_rng(41), np.random.default_rng(41)
        for _ in range(300):
            assert placement_fields(sample_placement(topo, new, weight), topo) == \
                placement_fields(old_sample_placement(topo, old, weight))
        assert new.random() == old.random()


def test_sample_placement_on_streets_only_and_buildings_only():
    # eleven multi-segment streets of irregular lengths: their total (a
    # pairwise sum) is not their running sum
    rng = np.random.default_rng(2)
    streets = [np.cumsum(rng.uniform(0.1, 7.0, (rng.integers(2, 12), 2)), axis=0)
               for _ in range(11)]
    streets_only = Topology((0.0, 0.0, 80.0, 80.0), [], [], [], streets)
    assert streets_only.street_lengths.sum() != sum(streets_only.street_lengths.tolist())
    buildings_only = make_topo_with_buildings([TRIANGLE + 10, PENTAGON + 30])
    for topo in (streets_only, buildings_only):
        new, old = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(500):
            assert placement_fields(sample_placement(topo, new), topo) == \
                placement_fields(old_sample_placement(topo, old))
        assert new.random() == old.random()
    with pytest.raises(TopologyError, match="no placement zones"):
        sample_placement(make_topo_with_buildings([]), np.random.default_rng(0))


# --- generator --------------------------------------------------------------

def test_generate_deterministic_per_seed():
    f1 = generate_topology("baseline", seed=5).fingerprint
    f2 = generate_topology("baseline", seed=5).fingerprint
    f3 = generate_topology("baseline", seed=6).fingerprint
    assert f1 == f2
    assert f1 != f3


def test_a_topology_computes_its_fingerprint_once(monkeypatch):
    topo = generate_topology("desk", seed=4)
    docs = []
    doc = topology_module.topology_doc
    monkeypatch.setattr(topology_module, "topology_doc", lambda t: docs.append(t) or doc(t))
    cfg = EpisodeConfig(topo, 0, n_ues=5, length=3.0)
    refs = {reference_fingerprint(replace(cfg, episode_seed=s), CONFIG_B) for s in range(3)}
    assert len(refs) == 3 and len(topo.fingerprint) == 64
    assert docs == [topo]


@pytest.mark.parametrize("preset", [None, "bogus"])
def test_generate_refuses_a_preset_it_does_not_know(preset):
    with pytest.raises(TopologyError, match=f"unknown preset '{preset}'"):
        generate_topology(preset, seed=0)


@pytest.mark.parametrize("preset", sorted(GENERATOR_PRESETS))
def test_generate_presets_validate(preset):
    topo = generate_topology(preset, seed=1)
    validate_topology(topo)  # raises on any inconsistency
    spec = GENERATOR_PRESETS[preset]
    assert len(topo.towers) == spec["towers"]
    assert topo.n_cells == spec["cells"]


def test_generate_sector_coverage_full_circle():
    # three 120-degree sectors per tower must tile all bearings
    topo = generate_topology("desk", seed=3)
    az = np.sort(topo.cell_azimuth[topo.cell_priority == topo.cell_priority.max()])
    gaps = np.diff(np.concatenate([az, [az[0] + 360.0]]))
    assert np.allclose(gaps, 120.0)
