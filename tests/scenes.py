"""A link-limited test scene, shared by the tests that need rx to reach
the throughput columns.

With the bundled cells and presets every scheduled UE's SNR is above the
SE table's last entry, so a cell's throughput is 0 or its full capacity
and an error in the SE lookup, the noise floor or the SNR changes no
trajectory byte. `large` with every cell 40 dB weaker and every dBm
threshold 40 dB lower camps as the presets do, at SNRs 40 dB lower, where
most lookups read an entry below the top. More UEs also sit near
`q_rxlevmin` there.
"""

from dataclasses import replace
from pathlib import Path

import cellpilot
from cellpilot.reselect import CONFIG_B, ReselectionParams
from cellpilot.simcore import EpisodeConfig
from cellpilot.topology import Topology, load_topology
from cellpilot.traffic import TrafficConfig

DATA = Path(cellpilot.__file__).parent / "data"
WEAKER_DB = 40.0


def weakened(topo: Topology, params: ReselectionParams, db: float):
    """`topo` with every cell `db` weaker and `params` with every dBm
    threshold `db` lower: the same camping, at SNRs `db` lower."""
    cells = [replace(c, tx_power=c.tx_power - db) for c in topo.cells]
    shifted = {f: getattr(params, f) - db
               for f in ("t_xhigh", "t_xlow", "t_slow", "q_rxlevmin")}
    return (Topology(topo.area_bounds, topo.towers, cells, topo.buildings,
                     topo.streets), replace(params, **shifted))


def link_limited_large() -> tuple[EpisodeConfig, ReselectionParams]:
    """A `large` 100-UE, 10 s mobility and obstruction episode (seed 7),
    WEAKER_DB weaker, and config_b shifted to match."""
    topo, params = weakened(load_topology(DATA / "large.topo"), CONFIG_B, WEAKER_DB)
    return EpisodeConfig(topo, 7, n_ues=100, length=10.0,
                         traffic=TrafficConfig(mobility_enabled=True),
                         obstruction_enabled=True), params
