"""Deterministic propagation model: free-space path loss, a sectorized
antenna main lobe, per-wall penetration loss, thermal noise, and the
SNR -> spectral-efficiency lookup used by the scheduler.

No fading. Received power is a pure function of geometry: bit-identical
across runs on one machine. Across machines it can differ in the last ulp,
because numpy picks SIMD kernels for ``log10`` and friends by CPU. The
simulator reads rx only through threshold comparisons and the nearest-entry
SE lookup, so such an ulp changes a trajectory only where it carries rx
across a threshold or an SE midpoint.
"""

from __future__ import annotations

import math

import numpy as np

from .topology import Topology, wall_crossings_to_cells

SPEED_OF_LIGHT = 2.998e8        # m/s
MIN_DISTANCE_M = 1.0            # FSPL distance clamp (near-field guard)
MAIN_LOBE_GAIN_DB = 10.0
WALL_LOSS_DB = 6.0              # per wall crossing
NOISE_DENSITY_DBM_HZ = -174.0   # thermal noise density
SE_MAX = 7.8                    # bit/s/Hz cap (256-QAM region)


def fspl_db(distance_m, frequency_hz):
    """Free-space path loss, 20*log10(4*pi*d*f/c); d clamped to >= 1 m."""
    d = np.maximum(np.asarray(distance_m, dtype=float), MIN_DISTANCE_M)
    return 20.0 * np.log10(4.0 * math.pi * d * np.asarray(frequency_hz, dtype=float)
                           / SPEED_OF_LIGHT)


def antenna_gain_db(bearing_deg, azimuth_deg, beamwidth_deg):
    """Sector antenna: +10 dB inside the main lobe, 0 dB outside.

    The lobe spans azimuth +/- beamwidth/2, boundary inclusive; angles
    compare on the circle, so 359 deg is 2 deg away from 1 deg.

    The angle off the azimuth is |(bearing - azimuth + 180) % 360 - 180|.
    For x = bearing - azimuth + 180 in [-360, 720), which holds wherever
    bearing is in [0, 360] and azimuth in [0, 360) as the simulator passes
    them, ``x % 360`` is x + 360 below 0 (the addition numpy's floor mod
    makes after its exact fmod), the exact x - 360 from 360 on, and x
    otherwise; that form differs only in the sign of a zero, which the
    - 180 removes. Two ``where``s take it several times faster than ``%``.
    An x outside that range leaves an angle over 180, and then ``%`` is
    taken.
    """
    x = (np.asarray(bearing_deg, dtype=float)
         - np.asarray(azimuth_deg, dtype=float) + 180.0)
    diff = np.abs(np.where(x < 0.0, x + 360.0, np.where(x >= 360.0, x - 360.0, x)) - 180.0)
    if not diff.max(initial=0.0) <= 180.0:
        diff = np.abs(x % 360.0 - 180.0)
    return np.where(diff <= np.asarray(beamwidth_deg, dtype=float) / 2.0,
                    MAIN_LOBE_GAIN_DB, 0.0)


def noise_floor_dbm(bandwidth_hz):
    """Thermal noise power over `bandwidth_hz`: -174 + 10*log10(BW)."""
    return NOISE_DENSITY_DBM_HZ + 10.0 * np.log10(np.asarray(bandwidth_hz, dtype=float))


def received_power_matrix(ue_xy: np.ndarray, topo: Topology, *,
                          obstruction_enabled: bool = True,
                          street: np.ndarray | None = None,
                          arc: np.ndarray | None = None) -> np.ndarray:
    """RSRP-like received power in dBm for every (UE, cell) pair; shape (N, C).

    rx = tx + antenna_gain - fspl - walls * 6 dB. Wall counts come from the
    segment UE->cell against building polygons; `street` and `arc`, the
    UEs' street (-1 indoors) and arc length, let street UEs read them from
    the topology's street table (``topology.wall_crossings_to_cells``).
    With `obstruction_enabled` False the wall term is 0. Distances and
    bearings are taken once per (UE, cell site), path losses once per
    (UE, site, frequency) and antenna gains once per (UE, site, azimuth,
    beamwidth), then gathered to the cells.
    """
    ue_xy = np.asarray(ue_xy, dtype=float).reshape(-1, 2)
    n = len(ue_xy)
    sites, site_of = topo._cell_sites
    band_site, band_freq, band_of = topo._site_bands
    dx = ue_xy[:, 0:1] - sites[None, :, 0]   # (N, S)
    dy = ue_xy[:, 1:2] - sites[None, :, 1]
    dist = np.hypot(dx, dy)
    # bearing from cell to UE, degrees clockwise from +y (compass convention)
    bearing = np.degrees(np.arctan2(dx, dy)) % 360.0
    loss = fspl_db(dist[:, band_site], band_freq[None, :])[:, band_of]
    lobe_site, lobe_azimuth, lobe_beamwidth, lobe_of = topo._lobes
    gain = antenna_gain_db(bearing[:, lobe_site], lobe_azimuth[None, :],
                           lobe_beamwidth[None, :])[:, lobe_of]
    rx = topo.cell_tx_power[None, :] + gain - loss
    if obstruction_enabled and len(topo.buildings) > 0 and n > 0:
        walls = wall_crossings_to_cells(ue_xy, topo, street, arc)
        rx = rx - WALL_LOSS_DB * walls
    return rx


# ---------------------------------------------------------------------------
# Spectral-efficiency lookup
# ---------------------------------------------------------------------------

def default_se_table() -> tuple[np.ndarray, np.ndarray]:
    """The table every episode uses: SNR -10..19 dB in 1 dB steps, Shannon
    capped at 7.8."""
    snr = np.arange(-10.0, 20.0, 1.0)
    se = np.minimum(np.log2(1.0 + 10.0 ** (snr / 10.0)), SE_MAX)
    return snr, se


def spectral_efficiency(snr, table: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Nearest-neighbor lookup in the SE table.

    Clamps below the first and above the last entry; an SNR exactly midway
    between two entries resolves to the lower-SNR entry.
    """
    snr_col, se_col = table
    q = np.asarray(snr, dtype=float)
    # insertion points of q among midpoints give nearest entries with the
    # required "ties to lower" behavior (midpoint itself goes left)
    mid = (snr_col[:-1] + snr_col[1:]) / 2.0
    idx = np.searchsorted(mid, q, side="left")
    return se_col[idx]
