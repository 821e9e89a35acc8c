"""Propagation and spectral-efficiency lookup.

Reference values were computed independently at 30-digit precision from the
closed-form definitions and are asserted here as frozen constants.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cellpilot
from cellpilot import radio
from cellpilot.radio import (
    MAIN_LOBE_GAIN_DB,
    SE_MAX,
    WALL_LOSS_DB,
    antenna_gain_db,
    default_se_table,
    fspl_db,
    noise_floor_dbm,
    received_power_matrix,
    spectral_efficiency,
)
from cellpilot.topology import (Cell, Topology, Tower, generate_topology,
                                load_topology, sample_placement, street_points_at)

from oracles import placement_point, wall_crossings

DATA = Path(cellpilot.__file__).parent / "data"


# --- free-space path loss ---------------------------------------------------

def test_fspl_frozen_values():
    assert fspl_db(1000.0, 1.0e9) == pytest.approx(92.4475647101967116, rel=1e-14)
    assert fspl_db(100.0, 3.5e9) == pytest.approx(83.3289255972022244, rel=1e-14)
    assert fspl_db(1.0, 7.0e8) == pytest.approx(29.3495255104818483, rel=1e-14)
    assert fspl_db(1.0, 1.8e9) == pytest.approx(37.5530148122628331, rel=1e-14)


def test_fspl_distance_clamped_below_one_meter():
    assert fspl_db(0.05, 2.0e9) == fspl_db(1.0, 2.0e9)
    assert fspl_db(0.0, 2.0e9) == fspl_db(1.0, 2.0e9)


def test_fspl_slope_20db_per_decade():
    assert fspl_db(1000.0, 1e9) - fspl_db(100.0, 1e9) == pytest.approx(20.0)
    assert fspl_db(100.0, 1e9) - fspl_db(100.0, 1e8) == pytest.approx(20.0)


def test_fspl_broadcasts():
    d = np.array([10.0, 100.0, 1000.0])
    out = fspl_db(d, 1e9)
    assert out.shape == (3,)
    assert np.all(np.diff(out) > 0)


# --- antenna ------------------------------------------------------------------

def test_antenna_gain_lobe_and_boundary():
    assert antenna_gain_db(0.0, 0.0, 120.0) == MAIN_LOBE_GAIN_DB
    assert antenna_gain_db(60.0, 0.0, 120.0) == MAIN_LOBE_GAIN_DB   # inclusive
    assert antenna_gain_db(60.001, 0.0, 120.0) == 0.0
    assert antenna_gain_db(180.0, 0.0, 120.0) == 0.0


def test_antenna_gain_wraps_around_circle():
    # 359 deg is 2 deg from 1 deg, not 358
    assert antenna_gain_db(359.0, 1.0, 120.0) == MAIN_LOBE_GAIN_DB
    assert antenna_gain_db(181.0, 359.0, 120.0) == 0.0
    assert antenna_gain_db(300.0, 350.0, 120.0) == MAIN_LOBE_GAIN_DB


def mod_gain_db(bearing_deg, azimuth_deg, beamwidth_deg):
    """antenna_gain_db in its floor-mod form."""
    diff = np.abs((np.asarray(bearing_deg, dtype=float)
                   - np.asarray(azimuth_deg, dtype=float) + 180.0) % 360.0 - 180.0)
    return np.where(diff <= np.asarray(beamwidth_deg, dtype=float) / 2.0,
                    MAIN_LOBE_GAIN_DB, 0.0)


def test_antenna_gain_equals_the_floor_mod_form():
    # both zeros, the ends of [0, 360], lobe edges, and values outside the
    # validated ranges (which take the floor-mod path)
    ulp = np.nextafter
    edges = [0.0, -0.0, 360.0, ulp(360.0, 0.0), ulp(0.0, 1.0), 1e-300, 1e-17, 180.0,
             ulp(180.0, 0.0), 60.0, ulp(60.0, 0.0), ulp(60.0, 90.0), 300.0,
             ulp(300.0, 0.0), 240.0, 120.0, 359.0, 1.0]
    rng = np.random.default_rng(5)
    bearing = np.array(edges + rng.uniform(0.0, 360.0, 300).tolist()
                       + [-1e3, -360.0, 725.5, 1e6, -1e-20])
    azimuth = np.array(edges[:4] + [ulp(360.0, 0.0) - 60.0, 59.0, 300.0]
                       + rng.uniform(0.0, 360.0, 60).tolist() + [-400.0, 1e5])
    b, a = np.meshgrid(bearing, azimuth, indexing="ij")
    for width in (0.5, 90.0, 120.0, 359.0, 360.0):
        assert antenna_gain_db(b, a, width).tobytes() == mod_gain_db(b, a, width).tobytes()


@pytest.mark.parametrize("name", ["desk", "baseline", "large"])
def test_rx_without_obstruction_equals_the_floor_mod_form(name, monkeypatch):
    topo = load_topology(DATA / f"{name}.topo")
    rng = np.random.default_rng(9)
    xmin, ymin, xmax, ymax = topo.area_bounds
    pts = [rng.uniform((xmin, ymin), (xmax, ymax), (200, 2))]
    for (cx, cy), az, bw in zip(topo.cell_xy, topo.cell_azimuth, topo.cell_beamwidth):
        for r in (3.0, 70.0, 900.0):
            # the lobe edges, and due north: the 0/360 wrap of the bearing
            theta = np.radians([az - bw / 2, az + bw / 2, 0.0])
            pts.append(np.column_stack([cx + r * np.sin(theta), cy + r * np.cos(theta)]))
            pts.append([(cx - 1e-12, cy + r), (cx + 1e-12, cy + r), (cx, cy - r)])
    pts = np.vstack(pts)
    rx = received_power_matrix(pts, topo, obstruction_enabled=False)
    monkeypatch.setattr(radio, "antenna_gain_db", mod_gain_db)
    assert rx.tobytes() == received_power_matrix(pts, topo, obstruction_enabled=False).tobytes()


# --- noise --------------------------------------------------------------------

def test_noise_floor_frozen_values():
    assert noise_floor_dbm(10e6) == pytest.approx(-104.0, abs=1e-12)
    assert noise_floor_dbm(80e6) == pytest.approx(-94.9691001300805641, rel=1e-14)


# --- received power matrix ------------------------------------------------------

def one_cell_topo(buildings=()):
    tower = Tower("T1", 0.0, 0.0)
    cell = Cell(id="C1", tower_id="T1", position=(0.0, 0.0), azimuth=0.0,
                beamwidth=120.0, frequency=1.0e9, bandwidth=10e6, priority=1,
                tx_power=30.0)
    return Topology((-50.0, -50.0, 1200.0, 1200.0), [tower], [cell],
                    [np.asarray(b, dtype=float) for b in buildings], [])


def test_rx_in_lobe_matches_hand_computation():
    topo = one_cell_topo()
    rx = received_power_matrix(np.array([[0.0, 1000.0]]), topo)
    # tx 30 + lobe 10 - fspl(1000 m, 1 GHz)
    assert rx[0, 0] == pytest.approx(40.0 - 92.4475647101967116, rel=1e-14)


def test_rx_off_lobe_drops_gain():
    topo = one_cell_topo()
    on = received_power_matrix(np.array([[0.0, 1000.0]]), topo)[0, 0]
    off = received_power_matrix(np.array([[1000.0, 0.0]]), topo)[0, 0]
    assert on - off == pytest.approx(MAIN_LOBE_GAIN_DB, rel=1e-12)


def test_rx_wall_losses_accumulate():
    box = [[-15.0, 400.0], [15.0, 400.0], [15.0, 430.0], [-15.0, 430.0]]
    topo = one_cell_topo(buildings=[box])
    clear = received_power_matrix(np.array([[0.0, 300.0]]), topo)[0, 0]
    behind = received_power_matrix(np.array([[0.0, 1000.0]]), topo)[0, 0]
    through = fspl_db(300.0, 1e9) - fspl_db(1000.0, 1e9)
    assert behind - clear == pytest.approx(through - 2 * WALL_LOSS_DB, rel=1e-12)


def test_rx_obstruction_toggle():
    box = [[-15.0, 400.0], [15.0, 400.0], [15.0, 430.0], [-15.0, 430.0]]
    topo = one_cell_topo(buildings=[box])
    ue = np.array([[0.0, 1000.0]])
    loss_on = received_power_matrix(ue, topo, obstruction_enabled=True)[0, 0]
    loss_off = received_power_matrix(ue, topo, obstruction_enabled=False)[0, 0]
    assert loss_off - loss_on == pytest.approx(2 * WALL_LOSS_DB)


def test_rx_deterministic_bytes():
    topo = one_cell_topo()
    pts = np.random.default_rng(3).uniform(0, 1000, size=(64, 2))
    a = received_power_matrix(pts, topo)
    b = received_power_matrix(pts, topo)
    assert a.tobytes() == b.tobytes()


def per_cell_rx(ue_xy, topo, obstruction_enabled):
    """received_power_matrix as it was, with every term taken per (UE, cell)
    and the walls counted by the scalar `wall_crossings` (none for a UE at
    the cell)."""
    dx = ue_xy[:, 0:1] - topo.cell_xy[None, :, 0]
    dy = ue_xy[:, 1:2] - topo.cell_xy[None, :, 1]
    bearing = np.degrees(np.arctan2(dx, dy)) % 360.0
    loss = fspl_db(np.hypot(dx, dy), topo.cell_frequency[None, :])
    gain = antenna_gain_db(bearing, topo.cell_azimuth[None, :],
                           topo.cell_beamwidth[None, :])
    rx = topo.cell_tx_power[None, :] + gain - loss
    if obstruction_enabled:
        walls = np.array([[0 if (p == xy).all() else wall_crossings(p, xy, topo)
                           for xy in topo.cell_xy] for p in ue_xy])
        rx = rx - WALL_LOSS_DB * walls
    return rx


def one_cell_per_site_topo():
    base = generate_topology("baseline", seed=6)
    rng = np.random.default_rng(2)
    xy = rng.uniform(100.0, 1200.0, (7, 2)).round(1)
    towers = [Tower(f"T{i}", x, y) for i, (x, y) in enumerate(xy.tolist())]
    cells = [Cell(id=f"C{i}", tower_id=t.id, position=(t.x, t.y),
                  azimuth=float(rng.uniform(0, 360)), beamwidth=120.0,
                  frequency=[7e8, 1.8e9, 2.6e9][i % 3], bandwidth=10e6,
                  priority=1 + i % 3, tx_power=20.0 + i) for i, t in enumerate(towers)]
    return Topology(base.area_bounds, towers, cells, base.buildings, base.streets)


def rx_test_topology(name):
    if name == "one-cell-per-site":
        return one_cell_per_site_topo()
    if name == "generated":
        return generate_topology("large", seed=17)
    if name == "mixed-beamwidths":
        # cells of one site and azimuth in lobes of three widths
        large = load_topology(DATA / "large.topo")
        cells = [replace(c, beamwidth=(60.0, 120.0, 359.0)[i % 5 % 3])
                 for i, c in enumerate(large.cells)]
        return Topology(large.area_bounds, large.towers, cells, large.buildings,
                        large.streets)
    return load_topology(DATA / f"{name}.topo")


# `large` has 48 cells on 6 sites in 4 bands and 18 antenna lobes, `baseline`
# 15 cells on 6 lobes and `desk` one cell per lobe; the last topology has one
# cell per site, each in a band of its own at that site
RX_TOPOLOGIES = ["desk", "baseline", "large", "generated", "mixed-beamwidths",
                 "one-cell-per-site"]


@pytest.mark.parametrize("obstruction", [True, False])
@pytest.mark.parametrize("name", RX_TOPOLOGIES)
def test_rx_per_site_matches_per_cell_terms(name, obstruction):
    topo = rx_test_topology(name)
    rng = np.random.default_rng(12)
    xmin, ymin, xmax, ymax = topo.area_bounds
    pts = np.vstack([rng.uniform((xmin, ymin), (xmax, ymax), (40, 2)),
                     [placement_point(topo, sample_placement(topo, rng)) for _ in range(40)],
                     topo.cell_xy[:3], topo.cell_xy[:3] + (0.25, 0.0)])
    rx = received_power_matrix(pts, topo, obstruction_enabled=obstruction)
    assert rx.shape == (len(pts), topo.n_cells)
    assert rx.tobytes() == per_cell_rx(pts, topo, obstruction).tobytes()


@pytest.mark.parametrize("obstruction", [True, False])
@pytest.mark.parametrize("name", RX_TOPOLOGIES)
def test_rx_of_movers_matches_per_cell_terms(name, obstruction):
    # street movers pass their street and arc, indoor ones street -1
    topo = rx_test_topology(name)
    rng = np.random.default_rng(13)
    street = np.where(rng.random(60) < 0.75,
                      rng.integers(0, len(topo.streets), 60), -1)
    arc = rng.uniform(0.0, 1.0, 60) * topo.street_lengths[street]
    xmin, ymin, xmax, ymax = topo.area_bounds
    pts = rng.uniform((xmin, ymin), (xmax, ymax), (60, 2))
    on = street >= 0
    pts[on] = street_points_at(topo, street[on], arc[on])
    rx = received_power_matrix(pts, topo, obstruction_enabled=obstruction,
                               street=street, arc=arc)
    assert rx.tobytes() == per_cell_rx(pts, topo, obstruction).tobytes()


# --- SE table -------------------------------------------------------------------

def test_default_table_frozen_entries():
    snr, se = default_se_table()
    assert snr[0] == -10.0 and snr[-1] == 19.0 and len(snr) == 30
    lut = dict(zip(snr, se))
    assert lut[-10.0] == pytest.approx(0.1375035237499349, rel=1e-14)
    assert lut[0.0] == pytest.approx(1.0, rel=1e-14)
    assert lut[13.0] == pytest.approx(4.3890589673630449, rel=1e-14)
    assert lut[19.0] == pytest.approx(6.3297124594419096, rel=1e-14)
    assert np.all(se <= SE_MAX)


def test_lookup_nearest_with_ties_to_lower():
    table = default_se_table()
    snr, se = table
    assert spectral_efficiency(3.2, table) == se[13]      # nearest is 3.0
    assert spectral_efficiency(3.6, table) == se[14]      # nearest is 4.0
    assert spectral_efficiency(3.5, table) == se[13]      # midpoint -> lower
    assert spectral_efficiency(-9.5, table) == se[0]      # midpoint -> lower
    assert spectral_efficiency(-50.0, table) == se[0]     # clamp below
    assert spectral_efficiency(50.0, table) == se[-1]     # clamp above


def test_lookup_vectorized():
    table = default_se_table()
    out = spectral_efficiency(np.array([-50.0, 0.0, 50.0]), table)
    assert out.tolist() == [table[1][0], 1.0, table[1][-1]]
