"""Constant-controller trajectories do not depend on the host.

Heuristic references are cached under a key with no host stamp, so a file
filled on one machine is served on another. That is safe while a
trajectory's bytes depend neither on the SIMD kernels numpy dispatches to
nor on the BLAS core. Each case here runs a fixed set of episodes in a
child process, under one numpy dispatch level this host has above its
baseline (``NPY_DISABLE_CPU_FEATURES``) or under another OpenBLAS core
(``OPENBLAS_CORETYPE``), and compares its trajectory bytes with the same
set run in this process. A level that equals this process's is skipped,
and the skip names it.

Run as a script, the file prints the child's report: its enabled dispatch
targets and the digest of the set's trajectory bytes.
"""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cellpilot
from cellpilot import simcore
from cellpilot.reselect import CONFIG_A, CONFIG_B, ReselectionParams
from cellpilot.simcore import EpisodeConfig
from cellpilot.topology import Topology, load_topology
from cellpilot.traffic import TrafficConfig

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:   # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

DATA = Path(cellpilot.__file__).parent / "data"
HOST_VARS = ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")

# case id -> the environment its child runs under. The dispatch targets
# are in ascending order, so disabling one and every target above it
# leaves the level below it
CASES = {f"numpy-below-{target}":
         {"NPY_DISABLE_CPU_FEATURES": " ".join(__cpu_dispatch__[k:])}
         for k, target in enumerate(__cpu_dispatch__)}
CASES["openblas-Haswell"] = {"OPENBLAS_CORETYPE": "Haswell"}


def enabled_targets() -> list[str]:
    return [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]


def weakened(topo: Topology, params: ReselectionParams, db: float):
    """`topo` with every cell `db` weaker and `params` with every dBm
    threshold `db` lower: the same camping, at SNRs `db` lower."""
    cells = [replace(c, tx_power=c.tx_power - db) for c in topo.cells]
    shifted = {f: getattr(params, f) - db
               for f in ("t_xhigh", "t_xlow", "t_slow", "q_rxlevmin")}
    return (Topology(topo.area_bounds, topo.towers, cells, topo.buildings,
                     topo.streets), replace(params, **shifted))


def trajectory_digest() -> str:
    """SHA-256 over the trajectory bytes of a `large` 100-UE, 10 s mobility
    and obstruction episode and a 3-seed lockstep `baseline` run, both under
    constant controllers, and of the `large` episode again 40 dB weaker.
    With the bundled cells and presets every scheduled UE's SNR is above the
    SE table's last entry, so rx reaches the throughput columns only in the
    weakened run."""
    moving = TrafficConfig(mobility_enabled=True)
    large_topo = load_topology(DATA / "large.topo")
    large = EpisodeConfig(large_topo, 7, n_ues=100, length=10.0, traffic=moving,
                          obstruction_enabled=True)
    base = EpisodeConfig(load_topology(DATA / "baseline.topo"), 0, n_ues=50,
                         length=10.0, traffic=moving, obstruction_enabled=True)
    weak_topo, weak_params = weakened(large_topo, CONFIG_B, 40.0)
    results = [simcore.run_episode(large, simcore.constant_controller(CONFIG_B)),
               *simcore.run_episodes(base, [11, 12, 13],
                                     simcore.constant_controller(CONFIG_A)),
               simcore.run_episode(replace(large, topology=weak_topo),
                                   simcore.constant_controller(weak_params))]
    digest = hashlib.sha256()
    for res in results:
        for name, arr in sorted(vars(res.steps).items()):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def report() -> dict:
    return {"targets": enabled_targets(), "digest": trajectory_digest()}


def equals_this_process(case: str) -> bool:
    """Whether the case's child would run with this process's kernels: a
    numpy level that disables no target enabled here."""
    disabled = CASES[case].get("NPY_DISABLE_CPU_FEATURES")
    return disabled is not None and not set(disabled.split()) & set(enabled_targets())


@pytest.fixture(scope="module")
def children():
    """Every case that differs from this process, run in child processes
    started together; case id -> the child's report."""
    src = str(Path(cellpilot.__file__).resolve().parents[1])
    procs = {}
    for case, extra in CASES.items():
        if equals_this_process(case):
            continue
        env = {k: v for k, v in os.environ.items() if k not in HOST_VARS}
        env.update(extra, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        procs[case] = subprocess.Popen([sys.executable, __file__], env=env,
                                       stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                       text=True)
    out = {}
    try:
        for case, proc in procs.items():
            stdout, stderr = proc.communicate(timeout=60)
            assert proc.returncode == 0, (case, stderr)
            out[case] = json.loads(stdout)
    finally:
        for proc in procs.values():
            proc.kill()
            proc.wait()
    return out


@pytest.fixture(scope="module")
def here():
    return report()


@pytest.mark.parametrize("case", list(CASES))
def test_trajectory_bytes_do_not_depend_on_the_host(case, children, here):
    if equals_this_process(case):
        pytest.skip(f"{case}: this host enables no dispatch target it disables "
                    f"({CASES[case]['NPY_DISABLE_CPU_FEATURES']}), so it runs "
                    f"this process's kernels")
    child = children[case]
    if "NPY_DISABLE_CPU_FEATURES" in CASES[case]:
        # the level took effect: the child runs fewer targets than this process
        assert set(child["targets"]) < set(here["targets"]), child["targets"]
    assert child["digest"] == here["digest"], (case, child["targets"])


if __name__ == "__main__":
    print(json.dumps(report()))
