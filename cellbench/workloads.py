"""The benchmark's workloads.

Each workload is a setup function ``setup(seed, cache_dir) -> run``. Setup
builds everything the timed section needs from the seed (topology load,
policy init and warm start, reference-cache fill) and returns
``run(out_dir) -> (episodes, outputs)``, one repetition of the timed work:
`episodes` is how many episodes it completed and `outputs` names the files
whose bytes are its deterministic result.

Why these three:

- desk-train exercises the learner: one policy forward per step, REINFORCE
  backward and the Adam step per update, observations and rewards, and the
  per-UE reselection loop over a small static population. It reads the
  reference cache every episode and writes a checkpoint every 50.
- large-mobility exercises the simulator's geometry: wall crossings, rx,
  placement and mobility on 48 cells with a reselection loop ten times
  larger. Policy and cache do no work.
- baseline-eval exercises forward-only rollouts and the write side of the
  reference cache: every repetition starts from an empty cache.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, NamedTuple

import cellpilot
from cellpilot import policy, rlenv, simcore, trainer
from cellpilot.reselect import CONFIG_A, CONFIG_B, PRESETS
from cellpilot.simcore import EpisodeConfig
from cellpilot.topology import load_topology
from cellpilot.traffic import TrafficConfig
from cellpilot.trainer import (SEED_STREAM_EVAL, SEED_STREAM_TRAIN,
                               SEED_STREAM_VALIDATION, CurriculumSchedule,
                               TrainRunConfig, derive_seeds)

DATA = Path(cellpilot.__file__).parent / "data"

Run = Callable[[Path], "tuple[int, dict[str, Path]]"]


def desk_train(seed: int, cache: Path) -> Run:
    """Scorecard-6 acceptance config with one pass per curriculum round:
    60 updates (20 seeds x 30/40/50 s), one periodic checkpoint and
    validation, then the final ones."""
    cfg = TrainRunConfig(topology=load_topology(DATA / "desk.topo"),
                         run_seed=seed, seed_count=20, n_ues=50, pri=1,
                         hidden=1024, lr=3e-4, checkpoint_every=50)
    schedule = CurriculumSchedule(initial_length=30.0, increment=10.0,
                                  passes_per_round=1, rounds=3)
    # the references train() looks up: training seeds without obstruction,
    # validation seeds with it, all at the longest curriculum length
    train_seeds = derive_seeds(seed, SEED_STREAM_TRAIN, cfg.seed_count)
    val_seeds = derive_seeds(seed, SEED_STREAM_VALIDATION,
                             cfg.validation_seed_count, exclude=train_seeds)
    for seeds, is_train in ((train_seeds, True), (val_seeds, False)):
        for s in seeds:
            simcore.run_heuristic_reference(
                cfg.episode_cfg(s, schedule.final_length, train=is_train),
                PRESETS[cfg.preset], cache)

    def run(out: Path):
        res = trainer.train(cfg, schedule, out, cache=cache)
        return len(res.log_rows), {"training_log": out / "training_log.csv",
                                   "final_checkpoint": res.final_checkpoint}
    return run


def large_mobility(seed: int, cache: Path) -> Run:
    """One 20 s episode on `large` with 500 moving UEs and obstruction, under
    a constant config_b controller and without the reference cache."""
    topo = load_topology(DATA / "large.topo")
    ep = EpisodeConfig(topology=topo, episode_seed=seed, n_ues=500, length=20.0,
                       pri=1, traffic=TrafficConfig(mobility_enabled=True),
                       obstruction_enabled=True)
    cell_ids = [c.id for c in topo.cells]

    def run(out: Path):
        res = simcore.run_episode(ep, simcore.constant_controller(CONFIG_B))
        path = out / "trajectory.csv"
        simcore.write_trajectory_csv(res, path, cell_ids)
        return 1, {"trajectory": path}
    return run


def baseline_eval(seed: int, cache: Path) -> Run:
    """Serial evaluation of 20 unseen seeds on `baseline` (50 UEs, 50 s,
    obstruction on) for a hidden-1024 net warm-started to config_a, so its
    gains are those of scorecard check 5 and no training is needed."""
    topo = load_topology(DATA / "baseline.topo")
    cfg = TrainRunConfig(topology=topo, run_seed=seed, n_ues=50, pri=1,
                         hidden=1024)
    net = policy.warm_start(
        policy.init_policy(rlenv.observation_dim(topo.n_cells, cfg.history_k),
                           cfg.hidden, seed=seed), CONFIG_A)
    train_seeds = derive_seeds(seed, SEED_STREAM_TRAIN, 20)
    eval_seeds = derive_seeds(seed, SEED_STREAM_EVAL, 20, exclude=train_seeds)

    def run(out: Path):
        report = trainer.evaluate(net, cfg, eval_seeds, train_seeds, length=50.0,
                                  cache=out / "cache", jobs=1)
        path = out / "eval.csv"
        trainer.write_eval_csv(report, path)
        return len(report.rows), {"eval_csv": path}
    return run


# Spans every workload records: each runs simcore.run_episode, with
# obstruction on in at least some episodes.
SIM_SPANS = (
    "simcore.run_episode", "reselect", "scheduler.allocate",
    "scheduler.network_throughput", "topology.wall_crossings_to_cells",
    "topology.sample_placement", "radio.received_power_matrix",
    "radio.spectral_efficiency", "traffic.init_population",
    "traffic.step_mobility", "traffic.step_modes", "rlenv.build_observation",
)


class Workload(NamedTuple):
    setup: Callable[[int, Path], Run]
    expected_spans: tuple[str, ...]
    # whether each timed repetition starts from an empty reference cache;
    # the traced run then requires cache misses, and otherwise none at all
    cold_cache: bool


WORKLOADS = {
    "desk-train": Workload(desk_train, SIM_SPANS + (
        "policy.forward", "policy.reinforce_backward", "policy.apply_update",
        "policy.save_checkpoint", "rlenv.interval_aggregates",
        "rlenv.compute_reward", "trainer.validation_score", "trainer.train",
        "simcore.reference", "container.save", "container.load"), False),
    "large-mobility": Workload(large_mobility, SIM_SPANS, False),
    "baseline-eval": Workload(baseline_eval, SIM_SPANS + (
        "policy.forward", "trainer.evaluate", "simcore.reference",
        "container.save"), True),
}
