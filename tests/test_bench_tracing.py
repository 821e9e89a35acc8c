"""The benchmark's span tracer against the simulator it wraps.

`cellbench/tracing.py` patches cellpilot functions by name and reads their
results (for instance `step_reselection`'s third return value), so a change
to one of those signatures breaks the traced benchmark run. This runs one
small traced episode to catch that here.
"""

import importlib.resources
import importlib.util
from pathlib import Path

from cellpilot import simcore
from cellpilot.reselect import CONFIG_B
from cellpilot.simcore import EpisodeConfig
from cellpilot.topology import load_topology
from cellpilot.traffic import TrafficConfig

TRACING = Path(__file__).resolve().parents[1] / "cellbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("cellbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_episode_records_the_simulator_layers():
    tracing = load_tracing()
    with importlib.resources.as_file(
            importlib.resources.files("cellpilot.data") / "desk.topo") as p:
        topo = load_topology(p)
    cfg = EpisodeConfig(topo, 0, n_ues=6, length=8.0,
                        traffic=TrafficConfig(mobility_enabled=True),
                        obstruction_enabled=True)
    with tracing.installed(tracing.Tracer()) as tracer:
        simcore.run_episode(cfg, simcore.constant_controller(CONFIG_B))
    for span in ("reselect", "traffic.step_modes", "simcore.run_episode"):
        assert tracer.calls[span] >= 1, span
    # `reselect` spans both initial_select and step_reselection, each at
    # most once per step: more calls than steps means step_reselection ran
    assert tracer.calls["reselect"] > simcore.step_count(cfg.length)
