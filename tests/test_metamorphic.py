"""Metamorphic relations of the episode loop: changes of its input whose
effect is known without a second implementation (Chen et al., "Metamorphic
Testing: A Review of Challenges and Opportunities", ACM CSUR 2018).

Edits of a ``.topo`` document, each loaded through ``load_topology``, with
a known effect on every Trajectory column:

- Cell order: with the cells shuffled or reversed in the file, every
  per-cell column comes out permuted the same way and every count column
  bit-equal. Reversed, every pair of cells changes order, so a tie of rx
  broken by column index instead of by cell id shows wherever one decides
  a reselection (it does on `large`, where co-sited cells of one band tie
  outside both their lobes).
- A deaf cell: a cell at -300 dBm added first or last serves no UE, so its
  throughput and ACTIVE columns are all zero, its leftover bandwidth is
  all of its bandwidth, and every other column is bit-equal.

In both, ``total_tput`` is the row sum of ``per_cell_tput`` in another
order (another column order, or one more exact zero that shifts the
pairwise blocks), so it agrees only up to rounding: a sum of C
nonnegative terms differs between two orders by at most (C - 1) eps of
itself, and ``per_ue_mean_tput`` divides it once more (one more eps).

More UEs, with a known effect on each UE's steps:

- UE prefix: under a constant controller, the first n rows of the serving
  cells, the IDLE mask and the event codes of every ``reselect.step_ues``
  call are the same for n UEs and for n + k UEs. Each UE draws only from its
  own stream, and no stage but the scheduler couples UEs. The larger run
  also updates at another PRI, which a constant controller cannot feel, so
  a stage that acts only at PRI boundaries shows as well.
"""

import functools
import json
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from cellpilot import reselect
from cellpilot.reselect import CONFIG_A, CONFIG_B
from cellpilot.simcore import EpisodeConfig, constant_controller, run_episode, run_episodes
from cellpilot.topology import load_topology
from cellpilot.traffic import TrafficConfig

PER_CELL = ("per_cell_tput", "per_cell_avail_bw", "per_cell_active")
COUNTS = ("time", "active_count", "idle_count", "reselection_events")
TOTALS = ("total_tput", "per_ue_mean_tput")
SEEDS = [7, 8]
POPULATIONS = {"desk": 15, "large": 25}
PRESETS = {"config_a": CONFIG_A, "config_b": CONFIG_B}


def bundled_doc(name):
    return json.loads((resources.files("cellpilot.data") / f"{name}.topo").read_text())


def trajectories(doc, path, name, preset):
    """Seeds 7 and 8 of `doc`, loaded from `path`, each run alone and then
    both as one lockstep batch, with mobility and obstruction on."""
    path.write_text(json.dumps(doc))
    cfg = EpisodeConfig(load_topology(path), SEEDS[0], n_ues=POPULATIONS[name],
                        length=12.0, traffic=TrafficConfig(mobility_enabled=True),
                        obstruction_enabled=True)
    controller = constant_controller(PRESETS[preset])
    alone = [run_episode(replace(cfg, episode_seed=s), controller).steps for s in SEEDS]
    return alone + [r.steps for r in run_episodes(cfg, SEEDS, controller)]


@functools.cache
def unedited(name, preset, tmp_dir):
    runs = trajectories(bundled_doc(name), tmp_dir / f"{name}.topo", name, preset)
    assert sum(t.reselection_events.sum() for t in runs) > 0
    return runs


def bits(a):
    return np.ascontiguousarray(a).tobytes()


def assert_counts_equal_and_totals_close(got, want, n_cells):
    for col in COUNTS:
        assert bits(getattr(got, col)) == bits(getattr(want, col)), col
    rtol = n_cells * np.finfo(float).eps
    for col in TOTALS:
        np.testing.assert_allclose(getattr(got, col), getattr(want, col), rtol=rtol, atol=0)


@pytest.fixture(scope="module")
def tmp_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("metamorphic")


@pytest.mark.parametrize("order", ["shuffled", "reversed"])
@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("name", sorted(POPULATIONS))
def test_reordered_cells_permute_the_per_cell_columns(tmp_dir, name, preset, order):
    doc = bundled_doc(name)
    n = len(doc["cells"])
    perm = (np.random.default_rng(5).permutation(n) if order == "shuffled"
            else np.arange(n)[::-1])
    doc["cells"] = [doc["cells"][i] for i in perm]
    runs = trajectories(doc, tmp_dir / "shuffled.topo", name, preset)
    for got, want in zip(runs, unedited(name, preset, tmp_dir)):
        for col in PER_CELL:
            assert bits(getattr(got, col)) == bits(getattr(want, col)[:, perm]), col
        assert_counts_equal_and_totals_close(got, want, len(perm))


@pytest.mark.parametrize("at", ["first", "last"])
@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("name", sorted(POPULATIONS))
def test_a_deaf_cell_serves_no_one(tmp_dir, name, preset, at):
    doc = bundled_doc(name)
    n = len(doc["cells"])
    k = 0 if at == "first" else n
    # the top priority, so every reselection measures it first
    doc["cells"].insert(k, {**doc["cells"][0], "id": "DEAF", "priority": 7,
                            "tx_power_dbm": -300.0})
    others = [i for i in range(n + 1) if i != k]
    runs = trajectories(doc, tmp_dir / "deaf.topo", name, preset)
    for got, want in zip(runs, unedited(name, preset, tmp_dir)):
        assert not got.per_cell_tput[:, k].any() and not got.per_cell_active[:, k].any()
        assert (got.per_cell_avail_bw[:, k] == doc["cells"][k]["bandwidth_hz"]).all()
        for col in PER_CELL:
            assert bits(getattr(got, col)[:, others]) == bits(getattr(want, col)), col
        assert_counts_equal_and_totals_close(got, want, n + 1)


def reselection_rows(monkeypatch, cfg, seeds, preset):
    """The serving cells (after the call), IDLE masks and event codes of
    every ``reselect.step_ues`` call of a run of `cfg` at `seeds`, each as a
    (steps, seeds, UEs) array."""
    kernel, calls = reselect.step_ues, []

    def recorded(serving, rx, may_reselect, *rest):
        event = kernel(serving, rx, may_reselect, *rest)
        calls.append((serving.copy(), may_reselect.copy(), event))
        return event
    monkeypatch.setattr(reselect, "step_ues", recorded)
    run_episodes(cfg, seeds, constant_controller(PRESETS[preset]))
    monkeypatch.setattr(reselect, "step_ues", kernel)
    return [np.array(rows).reshape(len(calls), len(seeds), cfg.n_ues)
            for rows in zip(*calls)]


@pytest.mark.parametrize("seeds", [SEEDS[:1], SEEDS[1:], SEEDS],
                         ids=["first-seed", "second-seed", "lockstep"])
@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("name", sorted(POPULATIONS))
def test_a_ues_steps_do_not_depend_on_the_ues_after_it(tmp_dir, monkeypatch, name,
                                                       preset, seeds):
    n = POPULATIONS[name]
    path = tmp_dir / f"{name}.topo"
    path.write_text(json.dumps(bundled_doc(name)))
    # 90 s: many UEs use up the dwells drawn at init and refill from their stream
    cfg = EpisodeConfig(load_topology(path), seeds[0], n_ues=n, length=90.0, pri=1,
                        traffic=TrafficConfig(mobility_enabled=True),
                        obstruction_enabled=True)
    few = reselection_rows(monkeypatch, cfg, seeds, preset)
    more = reselection_rows(monkeypatch, replace(cfg, n_ues=n + 10, pri=3), seeds, preset)
    for col, a, b in zip(("serving", "idle", "event"), few, more):
        assert bits(a) == bits(b[..., :n]), col
    _, idle, event = few
    # not vacuous: in every seed UEs change mode, and some lose, regain or
    # change their cell after the first step
    assert (idle[1:] != idle[:-1]).any(axis=(0, 2)).all()
    assert (event[1:] >= 0).any(axis=(0, 2)).all()
