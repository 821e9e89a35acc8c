from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cellpilot
from cellpilot import simcore, trainer
from cellpilot.container import load_container
from cellpilot.policy import BLOCK_ROWS, init_policy, load_checkpoint, warm_start
from cellpilot.reselect import CONFIG_A, CONFIG_B, PRESETS
from cellpilot.rlenv import BASELINE_ARRAYS, normalize_params, observation_dim
from cellpilot.simcore import EpisodeConfig
from cellpilot.topology import Cell, Topology, Tower, load_topology
from cellpilot.trainer import (
    SEED_STREAM_EVAL,
    SEED_STREAM_TRAIN,
    SEED_STREAM_VALIDATION,
    ConvergenceMonitor,
    CurriculumSchedule,
    EvalReport,
    EvalRow,
    TrainRunConfig,
    TrainerError,
    _eval_rows,
    _gain_ratio,
    _mean_action_controller,
    ablation_config,
    derive_seeds,
    evaluate,
    train,
    write_eval_csv,
    write_training_log,
)


def tiny_topo():
    tower = Tower("T1", 100.0, 100.0)
    mk = lambda cid, freq, pri, tx: Cell(
        id=cid, tower_id="T1", position=(100.0, 100.0), azimuth=0.0,
        beamwidth=360.0, frequency=freq, bandwidth=10e6, priority=pri,
        tx_power=tx)
    building = np.array([[10.0, 10.0], [35.0, 10.0], [35.0, 35.0], [10.0, 35.0]])
    street = np.array([[10.0, 190.0], [190.0, 190.0]])
    return Topology((0.0, 0.0, 200.0, 200.0), [tower],
                    [mk("A", 1.0e9, 2, 15.0), mk("B", 2.0e9, 3, -3.0)],
                    [building], [street])


def tiny_cfg(topo, **over):
    base = dict(topology=topo, run_seed=1, seed_count=2, eval_seed_count=2,
                validation_seed_count=1, n_ues=4, pri=1, hidden=8,
                history_k=2, lr=1e-3, checkpoint_every=2)
    base.update(over)
    return TrainRunConfig(**base)


DATA = Path(cellpilot.__file__).parent / "data"

TINY_SCHED = CurriculumSchedule(initial_length=3.0, increment=1.0,
                                passes_per_round=1, rounds=2)


def test_derive_seeds():
    a = derive_seeds(7, SEED_STREAM_TRAIN, 10)
    assert a == derive_seeds(7, SEED_STREAM_TRAIN, 10)
    assert len(set(a)) == 10
    assert derive_seeds(8, SEED_STREAM_TRAIN, 10) != a
    b = derive_seeds(7, SEED_STREAM_EVAL, 10, exclude=a)
    c = derive_seeds(7, SEED_STREAM_VALIDATION, 3, exclude=a + b)
    assert not (set(a) & set(b)) and not (set(c) & set(a + b))
    # exclusion actually skips: force a collision
    d = derive_seeds(7, SEED_STREAM_TRAIN, 5, exclude=a[:3])
    assert d == a[3:8]


def test_curriculum_schedule():
    s = CurriculumSchedule(initial_length=30.0, increment=10.0,
                           passes_per_round=3, rounds=3)
    assert s.lengths() == [30.0, 40.0, 50.0]
    assert s.final_length == 50.0
    with pytest.raises(ValueError):
        CurriculumSchedule(rounds=0).validate()
    with pytest.raises(ValueError):
        CurriculumSchedule(initial_length=0.0).validate()


def test_config_validation_and_episode_cfg():
    topo = tiny_topo()
    cfg = tiny_cfg(topo)
    cfg.validate()
    with pytest.raises(ValueError):
        tiny_cfg(topo, weights=(0.5, 0.4, 0.2)).validate()
    with pytest.raises(ValueError, match="preset must be one of config_a, "
                       "config_b, got 'config_c'"):
        tiny_cfg(topo, preset="config_c").validate()
    # obstruction only in eval; mobility only in eval, and there only when
    # mobility_eval is set
    for mobility_eval in (False, True):
        cfg = tiny_cfg(topo, mobility_eval=mobility_eval)
        ep_t = cfg.episode_cfg(seed=5, length=10.0, train=True)
        ep_e = cfg.episode_cfg(seed=5, length=10.0, train=False)
        assert not ep_t.obstruction_enabled and ep_e.obstruction_enabled
        assert not ep_t.traffic.mobility_enabled
        assert ep_e.traffic.mobility_enabled == mobility_eval
    # population and PRI come from the config alone
    ep_o = replace(cfg, pri=7, n_ues=9).episode_cfg(seed=5, length=10.0,
                                                    train=False)
    assert (ep_o.pri, ep_o.n_ues, ep_o.traffic.mobility_enabled) == (7, 9, True)


def test_convergence_monitor_math():
    m = ConvergenceMonitor(alpha=0.2, window=4, eps=0.05, std_threshold=0.1)
    ewma, std = m.update(1.0)
    assert ewma == 1.0 and std == float("inf")
    ewma, _ = m.update(0.0)
    assert ewma == pytest.approx(0.8)
    assert not m.converged()                 # window not yet full
    for _ in range(15):
        m.update(0.0)
    assert len(m.recent) == 4
    assert m.ewma == pytest.approx(0.8 ** 16)
    assert m.converged()                     # ewma decayed, variance ~0
    st = m.state()
    m2 = ConvergenceMonitor(alpha=0.2, window=4, eps=0.05, std_threshold=0.1)
    m2.restore(st)
    assert m2.ewma == m.ewma and list(m2.recent) == list(m.recent)
    m2.update(50.0)                          # a spike breaks convergence
    assert not m2.converged()


def test_reference_is_the_cut_of_one_max_length_run(tmp_path, monkeypatch):
    ep = EpisodeConfig(tiny_topo(), 5, n_ues=4, length=8.0)
    full = trainer._reference(replace(ep, length=20.0), CONFIG_B, 20.0, tmp_path)
    # the shorter length is served from the one cached run, never re-run
    monkeypatch.setattr(simcore, "run_episode", None)
    part = trainer._reference(ep, CONFIG_B, 20.0, tmp_path)
    assert (len(full), len(part)) == (20, 8)
    for k, v in vars(part).items():
        assert v.tobytes() == getattr(full, k)[:8].tobytes(), k
    # the one entry is keyed by the max-length config; the literal name pins
    # the cache key, so existing caches keep serving
    assert [p.name for p in tmp_path.iterdir()] == [
        "ref_f23ffa6b5147cf537f6da310d47f221f4e7e92d5f20963bb9a3e2cdc54b39044.bin"]


def test_evaluate_fills_references_at_the_eval_length(tmp_path, monkeypatch):
    cfg = tiny_cfg(tiny_topo())
    net = init_policy(18, 8, seed=4)
    seeds = [200, 201]
    rep = evaluate(net, cfg, seeds, [1], length=5.0, cache=tmp_path / "short")
    files = sorted((tmp_path / "short").iterdir())
    assert len(files) == len(seeds)
    for path in files:
        meta, arrays = load_container(path)
        assert meta["length"] == 5.0 and len(arrays["total_tput"]) == 5
    # the same rows as against 50 s references cut to 5 s
    real = simcore.run_heuristic_reference

    def cut_from_50(ep, params, cache):
        full = real(replace(ep, length=50.0), params, cache)
        return simcore.Trajectory(**{k: v[:5] for k, v in vars(full).items()})
    monkeypatch.setattr(simcore, "run_heuristic_reference", cut_from_50)
    cut = evaluate(net, cfg, seeds, [1], length=5.0, cache=tmp_path / "long")
    assert cut.rows == rep.rows
    assert any(r.tput_gain != 0.0 for r in rep.rows)


def test_gain_ratio_guard():
    assert _gain_ratio(2e6, 1e6) == pytest.approx(1.0)
    assert _gain_ratio(0.0, 0.0) == 0.0
    assert _gain_ratio(0.5, 0.2) == 0.0      # both under the 1 bit/s guard
    assert _gain_ratio(0.0, 2.0) == pytest.approx(-0.5)


def test_mean_action_controller_reproduces_preset():
    topo = tiny_topo()
    net = init_policy(18, 8, seed=0)
    warm_start(net, CONFIG_B)
    ctl = _mean_action_controller(net)
    [p] = ctl(np.random.default_rng(0).random((1, 18)), 0)
    assert normalize_params(p) == pytest.approx(normalize_params(CONFIG_B), abs=1e-9)


def test_eval_report_and_csv(tmp_path):
    rows = [EvalRow(1, 0.1, 0.2, 0.3), EvalRow(2, 0.3, -0.2, 0.1),
            EvalRow(3, 0.2, 0.0, -0.1)]
    rep = EvalReport.from_rows(rows, n_ues=10, pri=1, length=50.0)
    assert rep.medians["tput_gain"] == pytest.approx(0.2)
    assert rep.p25["bal_gain"] == pytest.approx(-0.1)
    path = tmp_path / "eval.csv"
    write_eval_csv(rep, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "seed,tput_gain,bal_gain,ue_gain"
    assert len(lines) == 1 + 3 + 3
    assert lines[4].startswith("median,")


def test_evaluate_refuses_seed_overlap(tmp_path):
    topo = tiny_topo()
    cfg = tiny_cfg(topo)
    with pytest.raises(TrainerError, match="overlap"):
        evaluate(CONFIG_B, cfg, [1, 2, 3], [3, 4], length=3.0, cache=tmp_path)


def test_evaluating_the_baseline_gives_zero_gains(tmp_path):
    # the preset evaluated against itself reproduces the reference exactly
    topo = tiny_topo()
    cfg = tiny_cfg(topo)
    rep = evaluate(CONFIG_B, cfg, [100, 101], [1], length=5.0,
                   cache=tmp_path / "cache")
    for row in rep.rows:
        assert row.tput_gain == 0.0
        assert row.bal_gain == 0.0
        assert row.ue_gain == 0.0


def test_evaluate_takes_the_reference_preset_from_the_config(tmp_path):
    # config_a against a config_a reference gains nothing; against the
    # default config_b reference on the same seeds it does differ
    cfg = tiny_cfg(load_topology(DATA / "desk.topo"), n_ues=30)
    seeds = [100, 101, 102]
    same = evaluate(CONFIG_A, replace(cfg, preset="config_a"), seeds, [1],
                    length=10.0, cache=tmp_path / "cache")
    assert all((r.tput_gain, r.bal_gain, r.ue_gain) == (0.0, 0.0, 0.0)
               for r in same.rows)
    other = evaluate(CONFIG_A, replace(cfg, preset="config_b"), seeds, [1],
                     length=10.0, cache=tmp_path / "cache")
    assert any((r.tput_gain, r.bal_gain, r.ue_gain) != (0.0, 0.0, 0.0)
               for r in other.rows)


def test_constant_parameter_eval_rows_equal_per_step_control(tmp_path, monkeypatch):
    # evaluate(ReselectionParams) runs the agent episodes, like the reference
    # fills, as one control interval; the rows are those of a run whose
    # controller is called at every step
    cfg = tiny_cfg(load_topology(DATA / "desk.topo"), n_ues=20, mobility_eval=True)
    seeds = [100, 101, 102]
    observations = []
    build = simcore.build_observation

    def counted(*args):
        observations.append(args[1])
        return build(*args)

    monkeypatch.setattr(simcore, "build_observation", counted)
    one = evaluate(CONFIG_A, cfg, seeds, [1], length=10.0, cache=tmp_path)
    assert observations == [0] * (len(seeds) + 1)   # three fills, one batch
    observations.clear()
    monkeypatch.setattr(simcore, "one_interval", lambda ep: ep)
    per_step = evaluate(CONFIG_A, cfg, seeds, [1], length=10.0, cache=tmp_path)
    assert observations == list(range(10))   # the references are hits now
    assert per_step.rows == one.rows
    assert any(r.tput_gain != 0.0 for r in one.rows)


def test_evaluate_shards_give_the_same_rows(tmp_path):
    # jobs=k runs k lockstep shards of contiguous seeds in worker processes;
    # the rows and their order do not depend on k
    topo = tiny_topo()
    cfg = tiny_cfg(topo)
    net = init_policy(18, 8, seed=4)
    seeds = [200, 201, 202, 203, 204]
    one = evaluate(net, cfg, seeds, [1], length=4.0, cache=tmp_path / "a", jobs=1)
    two = evaluate(net, cfg, seeds, [1], length=4.0, cache=tmp_path / "b", jobs=2)
    many = evaluate(net, cfg, seeds, [1], length=4.0, cache=tmp_path / "b", jobs=9)
    assert [r.seed for r in one.rows] == seeds
    assert two.rows == one.rows and many.rows == one.rows
    assert any(r.tput_gain != 0.0 for r in one.rows)


def test_lockstep_eval_rows_match_seeds_run_alone(tmp_path):
    # evaluate(jobs=1) runs the seeds as one lockstep batch, so its mean-action
    # forward has BLOCK_ROWS rows and more and reads the weights block by
    # block; each row equals that of its seed evaluated alone (one-row
    # forwards). The hidden-300 net is not warm-started, so the mean action
    # reads every layer's GEMV results (a warm start zeroes the mean head)
    topo = load_topology(DATA / "desk.topo")
    cfg = tiny_cfg(topo, n_ues=10, hidden=300)
    net = init_policy(observation_dim(topo.n_cells, cfg.history_k), 300, seed=6)
    seeds = list(range(300, 300 + BLOCK_ROWS + 2))
    together = evaluate(net, cfg, seeds, [1], length=8.0, cache=tmp_path, jobs=1)
    alone = [row for s in seeds
             for row in _eval_rows((net, cfg.episode_cfg(s, 8.0, train=False), [s],
                                    PRESETS[cfg.preset], tmp_path))]
    assert together.rows == alone
    assert any(r.tput_gain != 0.0 for r in alone)


def test_evaluate_caps_the_ues_of_a_lockstep_batch(tmp_path, monkeypatch):
    # a shard runs its seeds in lockstep batches of at most LOCKSTEP_UES UEs;
    # the rows do not depend on the batch size
    topo = tiny_topo()
    cfg = tiny_cfg(topo)   # 4 UEs per seed
    net = init_policy(18, 8, seed=4)
    seeds = [200, 201, 202, 203, 204]
    whole = evaluate(net, cfg, seeds, [1], length=4.0, cache=tmp_path / "a")
    widths = []
    run_episodes = trainer.simcore.run_episodes

    def counted(cfg, seeds, controller):
        widths.append(len(seeds))
        return run_episodes(cfg, seeds, controller)

    monkeypatch.setattr(trainer.simcore, "run_episodes", counted)
    monkeypatch.setattr(trainer, "LOCKSTEP_UES", 9)
    # the references are cached now, so only agent episodes run
    batched = evaluate(net, cfg, seeds, [1], length=4.0, cache=tmp_path / "a")
    assert widths == [2, 2, 1]
    assert batched.rows == whole.rows


def test_ablation_config_single_deviation():
    topo = tiny_topo()
    cfg = tiny_cfg(topo)
    sched = TINY_SCHED
    c2, s2, ev = ablation_config(cfg, sched, "no_curriculum")
    assert c2 is cfg and ev is c2
    assert s2.initial_length == sched.final_length and s2.increment == 0.0
    assert s2.lengths() == [4.0, 4.0]
    c2, s2, ev = ablation_config(cfg, sched, "seeds_500")
    assert (c2.seed_count, s2) == (500, sched) and ev is c2
    c2, s2, ev = ablation_config(cfg, sched, "mobility_eval")
    assert c2.mobility_eval and not cfg.mobility_eval and ev is c2
    # the one variant whose evaluation deviates instead of its training
    c2, s2, ev = ablation_config(cfg, sched, "stress_test")
    assert c2 is cfg and s2 is sched and ev == replace(cfg, pri=10)
    c2, s2, ev = ablation_config(cfg, sched, "slow_updates")
    assert c2.pri == 10 and ev is c2
    c2, s2, ev = ablation_config(cfg, sched, "synchronous_updates")
    assert (c2.pri, c2.weights, c2.baseline_window) == (5, (0.025, 0.95, 0.025), 10)
    assert ev is c2
    with pytest.raises(TrainerError, match="unknown ablation"):
        ablation_config(cfg, sched, "bogus")


def test_ablate_stress_test_trains_at_the_base_pri_and_evaluates_at_10(tmp_path):
    cfg = tiny_cfg(tiny_topo())
    result = trainer.ablate(cfg, TINY_SCHED, "stress_test", tmp_path / "run",
                            cache=tmp_path / "cache")
    ck = load_checkpoint(result.train.final_checkpoint)
    assert ck.meta["config"]["pri"] == 1
    assert (result.report.pri, len(result.report.rows)) == (10, cfg.eval_seed_count)


def test_train_smoke(tmp_path):
    topo = tiny_topo()
    cfg = tiny_cfg(topo)
    res = train(cfg, TINY_SCHED, tmp_path / "run", cache=tmp_path / "cache")
    # 2 rounds x 1 pass x 2 seeds
    assert [r.episode for r in res.log_rows] == [1, 2, 3, 4]
    assert [r.round for r in res.log_rows] == [0, 0, 1, 1]
    assert [r.length for r in res.log_rows] == [3.0, 3.0, 4.0, 4.0]
    assert [r.lr for r in res.log_rows] == [1e-3, 1e-3, 5e-4, 5e-4]
    assert set(r.seed for r in res.log_rows) == set(res.train_seeds)
    assert res.final_checkpoint.exists()
    assert res.best_checkpoint is not None and res.best_checkpoint.exists()
    assert (tmp_path / "run" / "ckpt_ep000002.bin").exists()
    assert (tmp_path / "run" / "ckpt_ep000004.bin").exists()
    log = (tmp_path / "run" / "training_log.csv").read_text().splitlines()
    assert log[0].startswith("episode,seed,round,pass_index,lr,length,r_total")
    assert len(log) == 5
    ck = load_checkpoint(res.final_checkpoint)
    assert ck.meta["loop"]["episode"] == 4
    assert ck.net.obs_dim == 18 and ck.net.hidden == 8
    assert sorted(ck.meta["loop"]["train_seeds"]) == sorted(res.train_seeds)


def test_train_no_lr_halving_and_episode_cap(tmp_path):
    topo = tiny_topo()
    cfg = tiny_cfg(topo, episode_cap=3)
    sched = CurriculumSchedule(initial_length=3.0, increment=1.0,
                               passes_per_round=1, rounds=2, lr_halving=False)
    res = train(cfg, sched, tmp_path / "run", cache=tmp_path / "cache")
    assert [r.episode for r in res.log_rows] == [1, 2, 3]
    assert all(r.lr == 1e-3 for r in res.log_rows)


def test_resume_reproduces_uninterrupted_run(tmp_path):
    topo = tiny_topo()
    cache = tmp_path / "cache"
    full = train(tiny_cfg(topo), TINY_SCHED, tmp_path / "full", cache=cache)
    part = train(tiny_cfg(topo, episode_cap=2), TINY_SCHED, tmp_path / "part",
                 cache=cache)
    assert [r.episode for r in part.log_rows] == [1, 2]
    resumed = train(tiny_cfg(topo), TINY_SCHED, tmp_path / "resumed",
                    cache=cache,
                    resume_from=tmp_path / "part" / "ckpt_ep000002.bin")
    assert [r.episode for r in resumed.log_rows] == [3, 4]
    a = load_checkpoint(full.final_checkpoint)
    b = load_checkpoint(resumed.final_checkpoint)
    for n, p in a.net.params().items():
        assert p.tobytes() == b.net.params()[n].tobytes(), n
    for n in a.opt.m:
        assert a.opt.m[n].tobytes() == b.opt.m[n].tobytes()
        assert a.opt.v[n].tobytes() == b.opt.v[n].tobytes()
    assert a.opt.step == b.opt.step == 4
    assert a.rng_state == b.rng_state
    for name in BASELINE_ARRAYS:
        assert np.array_equal(getattr(a.baselines, name), getattr(b.baselines, name))
    # the two halves of the log line up with the uninterrupted run
    whole = [(r.episode, r.seed, r.r_total, r.grad_norm) for r in full.log_rows]
    split = [(r.episode, r.seed, r.r_total, r.grad_norm)
             for r in part.log_rows + resumed.log_rows]
    assert whole == split


# 3 seeds x 2 passes x 2 rounds = 12 episodes, a checkpoint every 2: the
# periodic checkpoints fall mid-pass (4, 8, 10) and at pass ends (6, 12)
PASSES_SCHED = CurriculumSchedule(initial_length=3.0, increment=1.0,
                                  passes_per_round=2, rounds=2)


@pytest.fixture(scope="module")
def three_seed_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("three_seed")
    full = train(tiny_cfg(tiny_topo(), seed_count=3), PASSES_SCHED,
                 root / "full", cache=root / "cache")
    return root, full


def loop_position(path):
    loop = load_checkpoint(path).meta["loop"]
    order = loop["seed_order"]
    return (loop["episode"], loop["round"], loop["pass"], loop["pos"],
            None if order is None else len(order))


def assert_resumed_run_matches(full, before, resumed):
    assert resumed.final_checkpoint.read_bytes() == \
        full.final_checkpoint.read_bytes()
    whole = [(r.episode, r.seed, r.round, r.pass_index, r.lr, r.r_total,
              r.grad_norm) for r in full.log_rows]
    split = [(r.episode, r.seed, r.round, r.pass_index, r.lr, r.r_total,
              r.grad_norm) for r in before + resumed.log_rows]
    assert whole == split


def test_loop_position_of_periodic_and_final_checkpoints(three_seed_run):
    root, full = three_seed_run
    run = root / "full"
    # (episode, round, pass, episodes done in the pass, seed_order length)
    assert loop_position(run / "ckpt_ep000002.bin") == (2, 0, 0, 2, 3)
    assert loop_position(run / "ckpt_ep000004.bin") == (4, 0, 1, 1, 3)
    assert loop_position(run / "ckpt_ep000006.bin") == (6, 0, 1, 3, 3)
    assert loop_position(run / "ckpt_ep000008.bin") == (8, 1, 0, 2, 3)
    assert loop_position(run / "ckpt_ep000012.bin") == (12, 1, 1, 3, 3)
    # the final checkpoint of a finished run points past the last pass
    assert loop_position(full.final_checkpoint) == (12, 2, 0, 3, None)


def test_resume_from_a_mid_pass_periodic_checkpoint(three_seed_run):
    root, full = three_seed_run
    resumed = train(tiny_cfg(tiny_topo(), seed_count=3), PASSES_SCHED,
                    root / "resumed_ep4", cache=root / "cache",
                    resume_from=root / "full" / "ckpt_ep000004.bin")
    assert [r.episode for r in resumed.log_rows] == list(range(5, 13))
    assert_resumed_run_matches(full, full.log_rows[:4], resumed)


@pytest.mark.parametrize("cap, position", [
    (7, (7, 1, 0, 1, 3)),       # stopped mid-pass: the pass's order is kept
    (6, (6, 1, 0, 3, None)),    # stopped at a pass end: the next pass draws
], ids=["mid-pass", "pass-end"])
def test_resume_from_a_capped_final_checkpoint(three_seed_run, cap, position):
    root, full = three_seed_run
    topo = tiny_topo()
    part = train(tiny_cfg(topo, seed_count=3, episode_cap=cap), PASSES_SCHED,
                 root / f"part{cap}", cache=root / "cache")
    assert loop_position(part.final_checkpoint) == position
    resumed = train(tiny_cfg(topo, seed_count=3), PASSES_SCHED,
                    root / f"resumed{cap}", cache=root / "cache",
                    resume_from=part.final_checkpoint)
    assert_resumed_run_matches(full, part.log_rows, resumed)


def test_resume_into_a_fresh_directory_keeps_the_best_checkpoint(three_seed_run):
    # the uninterrupted run's best is from episode 2 and never beaten
    root, full = three_seed_run
    topo = tiny_topo()
    part = train(tiny_cfg(topo, seed_count=3, episode_cap=4), PASSES_SCHED,
                 root / "part4", cache=root / "cache")
    resumed = train(tiny_cfg(topo, seed_count=3), PASSES_SCHED,
                    root / "resumed4", cache=root / "cache",
                    resume_from=part.final_checkpoint)
    assert resumed.best_checkpoint == root / "resumed4" / "ckpt_best.bin"
    assert resumed.best_checkpoint.read_bytes() == \
        full.best_checkpoint.read_bytes()
    assert_resumed_run_matches(full, part.log_rows, resumed)


@pytest.mark.parametrize("field, cfg_over, sched", [
    ("run_seed", {"run_seed": 2}, PASSES_SCHED),
    ("seed_count", {"seed_count": 2}, PASSES_SCHED),
    ("schedule", {}, CurriculumSchedule(initial_length=3.0, increment=1.0,
                                        passes_per_round=1, rounds=2)),
    ("n_ues", {"n_ues": 5}, PASSES_SCHED),
    ("pri", {"pri": 2}, PASSES_SCHED),
    ("weights", {"weights": (0.5, 0.3, 0.2)}, PASSES_SCHED),
    ("lr", {"lr": 2e-3}, PASSES_SCHED),
    ("hidden", {"hidden": 16}, PASSES_SCHED),
    ("baseline_window", {"baseline_window": 3}, PASSES_SCHED),
    ("preset", {"preset": "config_a"}, PASSES_SCHED),
    # another cell count: the network's input width differs
    ("obs_dim", {"topology": load_topology(DATA / "desk.topo")}, PASSES_SCHED),
], ids=["run_seed", "seed_count", "schedule", "n_ues", "pri", "weights", "lr",
        "hidden", "baseline_window", "preset", "topology"])
def test_resume_rejects_another_run_layout(three_seed_run, tmp_path, field,
                                           cfg_over, sched):
    # a resume continues the recorded run: its position comes from the
    # episode count, which means nothing under another seed set or schedule,
    # and any other setting would quietly train another run
    root, _ = three_seed_run
    cfg = tiny_cfg(tiny_topo(), **{"seed_count": 3, **cfg_over})
    with pytest.raises(TrainerError,
                       match=f"checkpoint {field} .+ differs from this run's "):
        train(cfg, sched, tmp_path / "other", cache=root / "cache",
              resume_from=root / "full" / "ckpt_ep000004.bin")
    assert not list((tmp_path / "other").glob("*.bin"))


def test_config_rejects_counts_below_one():
    topo = tiny_topo()
    for name in ("seed_count", "eval_seed_count", "validation_seed_count",
                 "checkpoint_every", "baseline_window", "pri", "n_ues", "hidden",
                 "episode_cap"):
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            tiny_cfg(topo, **{name: 0}).validate()
    tiny_cfg(topo, episode_cap=None).validate()


def test_ablate_refuses_no_eval_seeds_before_it_trains(tmp_path):
    with pytest.raises(ValueError, match="eval_seed_count must be >= 1"):
        trainer.ablate(tiny_cfg(tiny_topo(), eval_seed_count=0), TINY_SCHED,
                       "stress_test", tmp_path / "run", cache=tmp_path / "cache")
    assert list(tmp_path.iterdir()) == []


def test_evaluate_rejects_an_empty_seed_list(tmp_path):
    with pytest.raises(ValueError, match="eval_seeds is empty"):
        evaluate(CONFIG_B, tiny_cfg(tiny_topo()), [], [1], length=3.0,
                 cache=tmp_path)


def test_write_training_log_append(tmp_path):
    from cellpilot.trainer import TrainLogRow
    row = TrainLogRow(1, 5, 0, 0, 1e-3, 30.0, 0.1, 0.1, 0.1, 0.1, 2.0, 0, 0.1, 0.0)
    path = tmp_path / "log.csv"
    write_training_log([row], path)
    write_training_log([row], path, append=True)
    lines = path.read_text().splitlines()
    assert len(lines) == 3 and lines[1] == lines[2]
    write_training_log([row], path)          # plain write truncates
    assert len(path.read_text().splitlines()) == 2


def test_write_training_log_append_is_atomic(tmp_path, monkeypatch, failing_write):
    from cellpilot.trainer import TrainLogRow
    rows = [TrainLogRow(e, 5, 0, 0, 1e-3, 30.0, 0.1 * e, 0.1, 0.1, 0.1, 2.0, 0, 0.1, 0.0)
            for e in (1, 2, 3)]
    path, whole = tmp_path / "log.csv", tmp_path / "whole.csv"
    write_training_log(rows[:1], path)
    write_training_log(rows[1:2], path, append=True)
    write_training_log(rows[:2], whole)
    assert path.read_bytes() == whole.read_bytes()
    whole.unlink()
    old = path.read_bytes()
    failing_write()
    with pytest.raises(OSError):
        write_training_log(rows[2:], path, append=True)
    monkeypatch.undo()
    assert path.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["log.csv"]
