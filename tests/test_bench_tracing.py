"""The benchmark's span tracer against the simulator it wraps.

`cellbench/tracing.py` patches cellpilot functions by name and reads their
results (for instance `step_reselection`'s third return value), so a change
to one of those signatures breaks the traced benchmark run. This runs one
small traced episode to catch that here.
"""

import importlib.resources
import importlib.util
from pathlib import Path

import pytest

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


def desk_topology():
    with importlib.resources.as_file(
            importlib.resources.files("cellpilot.data") / "desk.topo") as p:
        return load_topology(p)


def test_traced_episode_records_the_simulator_layers():
    tracing = load_tracing()
    topo = desk_topology()
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


@pytest.mark.parametrize("pri", [1, 3])
def test_traced_reference_fill_records_its_spans(tmp_path, pri):
    # a fill runs as one control interval, but still through
    # `simcore.run_episode` (a span baseline-eval must record) and with one
    # observation; the cache write counts as the lookup's miss
    tracing = load_tracing()
    cfg = EpisodeConfig(desk_topology(), 0, n_ues=6, length=8.0, pri=pri)
    with tracing.installed(tracing.Tracer()) as tracer:
        simcore.run_heuristic_reference(cfg, CONFIG_B, tmp_path)
    assert tracer.calls["simcore.reference"] == 1
    assert tracer.calls["simcore.run_episode"] == 1
    assert tracer.calls["rlenv.build_observation"] == 1
    assert tracer.counts["simcore.reference.misses"] == 1
