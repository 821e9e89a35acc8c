"""Topology loading, validation, geometry queries, and the generator."""

import json
from pathlib import Path

import numpy as np
import pytest

import cellpilot
from cellpilot.topology import (
    GENERATOR_PRESETS,
    Cell,
    Placement,
    Topology,
    Tower,
    TopologyError,
    generate_topology,
    load_topology,
    polyline_point_at,
    sample_placement,
    save_topology,
    topology_doc,
    topology_fingerprint,
    validate_topology,
    wall_crossings,
    wall_crossings_to_cells,
)

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
    assert topology_fingerprint(again) == topology_fingerprint(topo)


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
    pts += [sample_placement(topo, rng).point for _ in range(12)]
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


def lattice_topology(sites, buildings, offset):
    towers = [Tower(f"T{i}", x + offset, y + offset)
              for i, (x, y) in enumerate(sites)]
    cells = [Cell(id=f"C{i}", tower_id=t.id, position=(t.x, t.y), azimuth=0.0,
                  beamwidth=120.0, frequency=1.0e9, bandwidth=10e6, priority=1)
             for i, t in enumerate(towers)]
    return Topology((offset - 20, offset - 20, offset + 70, offset + 70), towers,
                    cells, [np.asarray(b, dtype=float) + offset for b in buildings], [])


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
        pts = [p for p in rng.integers(-8, 52, (40, 2)) / rng.choice([1, 2], (40, 1))
               if tuple(p) not in sites]
        pts += degenerate_points(sites, buildings[:2])
        topo = lattice_topology(sites, buildings, offset)
        assert_matches_scalar(np.array(pts, dtype=float) + offset, topo)


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
    indoor_seen = street_seen = False
    for _ in range(200):
        p = sample_placement(topo, rng, building_weight=0.5)
        assert isinstance(p, Placement)
        assert x0 <= p.point[0] <= x1 and y0 <= p.point[1] <= y1
        indoor_seen |= p.indoor
        street_seen |= not p.indoor
        if p.indoor:
            assert p.street_index == -1
        else:
            assert 0 <= p.street_index < len(topo.streets)
            line = topo.streets[p.street_index]
            pt = polyline_point_at(line, p.arc_pos)
            assert np.allclose(pt, p.point)
    assert indoor_seen and street_seen


def test_sample_placement_deterministic():
    topo = generate_topology("desk", seed=2)
    a = [sample_placement(topo, np.random.default_rng(9)).point for _ in (0,)]
    b = [sample_placement(topo, np.random.default_rng(9)).point for _ in (0,)]
    assert a == b


# --- generator --------------------------------------------------------------

def test_generate_deterministic_per_seed():
    f1 = topology_fingerprint(generate_topology("baseline", seed=5))
    f2 = topology_fingerprint(generate_topology("baseline", seed=5))
    f3 = topology_fingerprint(generate_topology("baseline", seed=6))
    assert f1 == f2
    assert f1 != f3


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
