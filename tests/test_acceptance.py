"""Acceptance scorecard: ten end-to-end checks, each printing one PASS/FAIL
line with its headline numbers (visible with -rA or -s).

Check 6 is the heavyweight item: it trains the bundled desk scenario from
scratch (600 episodes, a few minutes) and its checkpoint is reused by the
population-scaling and slow-update checks (7, 8).
"""
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import cellpilot
from cellpilot.policy import (
    PARAM_NAMES,
    init_policy,
    load_checkpoint,
    reinforce_backward,
    warm_start,
)
from cellpilot.reselect import (
    CONFIG_A,
    CONFIG_B,
    PARAM_RANGES,
    ReselectionParams,
    cell_id_rank,
)
from cellpilot.rlenv import (
    BASELINE_ARRAYS,
    BaselineTable,
    compute_reward,
    interval_aggregates,
    observation_dim,
)
from cellpilot.scheduler import allocate
from cellpilot.simcore import (
    EpisodeConfig,
    constant_controller,
    run_episode,
    write_trajectory_csv,
)
from cellpilot.topology import load_topology
from cellpilot.trainer import (
    SEED_STREAM_EVAL,
    SEED_STREAM_TRAIN,
    CurriculumSchedule,
    TrainRunConfig,
    derive_seeds,
    evaluate,
    train,
)

from oracles import (brute_force_oracle, oracle_water_fill, reinforce_loss,
                     run_ue_trace, write_updates_csv)
from test_policy import make_records

DATA = Path(cellpilot.__file__).parent / "data"
JOBS = 4


def _line(num: int, ok: bool, msg: str) -> None:
    print(f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'}  {msg}", flush=True)
    assert ok, f"acceptance {num:02d}: {msg}"


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("cache"))


@pytest.fixture(scope="module")
def desk():
    return load_topology(DATA / "desk.topo")


@pytest.fixture(scope="module")
def desk_run(desk, cache, tmp_path_factory):
    """Check 6 training run; checks 7 and 8 probe the same best checkpoint."""
    cfg = TrainRunConfig(topology=desk, run_seed=0, seed_count=20, n_ues=50,
                         pri=1, hidden=1024, lr=3e-4, checkpoint_every=50)
    sched = CurriculumSchedule(initial_length=30.0, increment=10.0,
                               passes_per_round=10, rounds=3)
    t0 = time.perf_counter()
    res = train(cfg, sched, tmp_path_factory.mktemp("desk_run"), cache=cache)
    wall = time.perf_counter() - t0
    best = res.best_checkpoint if res.best_checkpoint else res.final_checkpoint
    net = load_checkpoint(best).net
    eval_seeds = derive_seeds(0, SEED_STREAM_EVAL, 20, exclude=res.train_seeds)
    return SimpleNamespace(cfg=cfg, res=res, net=net, wall=wall,
                           eval_seeds=eval_seeds)


# -- 1: vectorized reselection == brute-force oracle ------------------------

def _random_reselection_instance(rng, wide):
    n_cells = int(rng.integers(2, 7))
    t_steps = int(rng.integers(5, 41))
    prio = rng.integers(0, 4, size=n_cells)
    freq = rng.choice([7e8, 1.8e9, 2.6e9], size=n_cells)
    trace = rng.uniform(-75.0, -45.0, size=n_cells) \
        + rng.normal(0.0, 2.5, size=(t_steps, n_cells)).cumsum(axis=0)
    if wide:  # anywhere in the legal ranges, service loss included
        params = ReselectionParams(**{k: float(rng.uniform(*PARAM_RANGES[k]))
                                      for k in PARAM_RANGES})
    else:     # concentrated where the criteria actually trigger
        params = ReselectionParams(
            t_xhigh=float(rng.uniform(-65, -45)),
            t_xlow=float(rng.uniform(-70, -50)),
            t_slow=float(rng.uniform(-65, -45)),
            q_hyst=float(rng.uniform(0, 6)),
            q_offset=float(rng.uniform(0, 18)),
            q_rxlevmin=float(rng.uniform(-75, -50)))
    return trace, prio, freq, params


def test_01_reselection_matches_oracle():
    rng = np.random.default_rng(20240501)
    id_rng = np.random.default_rng(20240502)   # its own stream: the traces stay the same
    t0 = time.perf_counter()
    kinds: dict[str, int] = {}
    for trial in range(10_000):
        trace, prio, freq, params = _random_reselection_instance(
            rng, wide=trial % 2 == 0)
        ids = [f"C{v}" for v in id_rng.choice(np.arange(1, 40), len(prio), replace=False)]
        got = run_ue_trace(trace, prio, freq, params, cell_id_rank(ids))
        want = brute_force_oracle(trace, prio, freq, params, cell_ids=ids)
        assert got == want, f"trial {trial}: {got} != {want}"
        for _, kind, _, _ in got:
            kinds[kind] = kinds.get(kind, 0) + 1
    wall = time.perf_counter() - t0
    covered = {"select", "outage", "high", "equal", "low"} <= set(kinds)
    _line(1, covered and wall < 60.0,
          f"10000 random traces identical to oracle; events {kinds} [{wall:.1f}s]")


# -- 2: analytic REINFORCE gradient == finite differences --------------------

def test_02_gradient_matches_finite_differences():
    t0 = time.perf_counter()
    h = 1e-6
    checked, worst = 0, 0.0
    for obs_dim, hidden, seed in ((10, 8, 5), (14, 12, 7), (6, 5, 9)):
        net = init_policy(obs_dim=obs_dim, hidden=hidden, seed=seed)
        records = make_records(net, 4, seed=100 + seed)
        grads = reinforce_backward(net, records)
        rng = np.random.default_rng(seed)
        for name in PARAM_NAMES:
            p = net.params()[name]
            for flat in rng.choice(p.size, size=min(14, p.size), replace=False):
                idx = np.unravel_index(flat, p.shape)
                keep = p[idx]
                p[idx] = keep + h
                up = reinforce_loss(net, records)
                p[idx] = keep - h
                dn = reinforce_loss(net, records)
                p[idx] = keep
                fd = (up - dn) / (2 * h)
                an = grads[name][idx]
                worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-8))
                checked += 1
    wall = time.perf_counter() - t0
    _line(2, checked >= 200 and worst < 1e-4 and wall < 60.0,
          f"{checked} weights, worst rel err {worst:.2e} vs central FD [{wall:.1f}s]")


# -- 3: warm-started untrained policy reproduces its preset ------------------

def test_03_warm_start_matches_preset(desk, cache):
    t0 = time.perf_counter()
    cfg = TrainRunConfig(topology=desk, run_seed=0, seed_count=20, n_ues=50,
                         pri=1, hidden=1024)
    net = warm_start(init_policy(observation_dim(desk.n_cells, cfg.history_k),
                                 hidden=cfg.hidden, seed=0), CONFIG_B)
    tr = derive_seeds(0, SEED_STREAM_TRAIN, cfg.seed_count)
    ev = derive_seeds(0, SEED_STREAM_EVAL, 20, exclude=tr)
    rep = evaluate(net, cfg, ev, tr, length=50.0, cache=cache, jobs=JOBS)
    gains = np.array([[r.tput_gain, r.bal_gain, r.ue_gain] for r in rep.rows])
    wall = time.perf_counter() - t0
    worst = float(np.abs(gains).max())
    _line(3, worst <= 0.005 and wall < 120.0,
          f"20 seeds, worst |gain| vs config_b {worst:.2e} (tolerance 5e-3) "
          f"[{wall:.1f}s]")


# -- 4: replaying the reference trajectory scores zero reward ----------------

def test_04_reward_zero_fixpoint(desk):
    worst, intervals = 0.0, 0
    for seed in (3, 11, 42):
        for pri in (1, 5):
            cfg = EpisodeConfig(topology=desk, episode_seed=seed, n_ues=50,
                                length=50.0, pri=pri, obstruction_enabled=True)
            res = run_episode(cfg, constant_controller(CONFIG_B))
            aggs = interval_aggregates(res.steps, pri)
            table = BaselineTable(window=2)
            table.seed_reference(seed, aggs)
            for a in aggs:
                rb = compute_reward(a, table, seed, (0.4, 0.4, 0.2), ue_max=50)
                worst = max(worst, abs(rb.r_total))
                intervals += 1
    _line(4, worst < 1e-9,
          f"{intervals} intervals replayed, max |r_total| = {worst:.1e}")


# -- 5: the aggressive preset does not beat the conservative one -------------

def test_05_config_a_not_better_than_config_b(cache):
    t0 = time.perf_counter()
    topo = load_topology(DATA / "baseline.topo")
    cfg = TrainRunConfig(topology=topo, run_seed=0, n_ues=50, pri=1)
    tr = derive_seeds(0, SEED_STREAM_TRAIN, 20)
    ev = derive_seeds(0, SEED_STREAM_EVAL, 100, exclude=tr)
    rep = evaluate(CONFIG_A, cfg, ev, tr, length=50.0, cache=cache, jobs=JOBS)
    med = rep.medians["tput_gain"]
    frac = float(np.mean([r.tput_gain <= 0.0 for r in rep.rows]))
    wall = time.perf_counter() - t0
    _line(5, med <= 0.0 and wall < 300.0,
          f"config_a vs config_b on 100 seeds: median tput gain {med:+.2%}, "
          f"frac<=0 {frac:.2f} [{wall:.0f}s]")


# -- 6: desk-scale training beats the heuristic on unseen seeds --------------

def test_06_training_beats_heuristic(desk_run, cache):
    episodes = len(desk_run.res.log_rows)
    t0 = time.perf_counter()
    rep = evaluate(desk_run.net, desk_run.cfg, desk_run.eval_seeds,
                   desk_run.res.train_seeds, length=50.0, cache=cache,
                   jobs=JOBS)
    wall = desk_run.wall + (time.perf_counter() - t0)
    med_t = rep.medians["tput_gain"]
    med_b = rep.medians["bal_gain"]
    _line(6, episodes <= 2000 and med_t > 0.05 and med_b >= 0.0
          and wall < 3600.0,
          f"{episodes} episodes; 20 unseen seeds: median tput gain {med_t:+.2%} "
          f"(>+5%), median balance gain {med_b:+.2%} (>=0) [{wall:.0f}s]")


# -- 7: gains do not collapse when the population grows ----------------------

def test_07_gains_scale_with_population(desk_run, cache):
    meds = {}
    for n in (25, 50, 100):
        rep = evaluate(desk_run.net, replace(desk_run.cfg, n_ues=n),
                       desk_run.eval_seeds, desk_run.res.train_seeds,
                       length=50.0, cache=cache, jobs=JOBS)
        meds[n] = rep.medians["tput_gain"]
    _line(7, meds[100] >= meds[25] - 0.02,
          "median tput gain " + ", ".join(f"N={n}: {meds[n]:+.2%}"
                                          for n in (25, 50, 100))
          + " (N=100 within 2pp of N=25)")


# -- 8: policy trained at pri=1 survives pri=10 updates ----------------------

def test_08_slow_update_stress(desk_run, cache):
    rep = evaluate(desk_run.net, replace(desk_run.cfg, pri=10),
                   desk_run.eval_seeds, desk_run.res.train_seeds, length=50.0,
                   cache=cache, jobs=JOBS)
    med = rep.medians["tput_gain"]
    _line(8, med >= 0.0, f"pri=10 eval: median tput gain {med:+.2%} (>=0)")


# -- 9: bit-level determinism and exact checkpoint resume --------------------

def test_09_determinism_and_resume(desk, cache, tmp_path):
    cfg = EpisodeConfig(topology=desk, episode_seed=7, n_ues=50, length=50.0,
                        pri=5, obstruction_enabled=True)
    ids = [c.id for c in desk.cells]
    csvs = []
    for tag in ("a", "b"):
        res = run_episode(cfg, constant_controller(CONFIG_B))
        write_trajectory_csv(res, tmp_path / f"traj_{tag}.csv", ids)
        write_updates_csv(res, tmp_path / f"upd_{tag}.csv")
        csvs.append((tmp_path / f"traj_{tag}.csv").read_bytes()
                    + (tmp_path / f"upd_{tag}.csv").read_bytes())
    csv_ok = csvs[0] == csvs[1]

    # interrupted-and-resumed training must land on the uninterrupted state
    tcfg = dict(topology=desk, run_seed=1, seed_count=2, eval_seed_count=2,
                validation_seed_count=1, n_ues=4, pri=1, hidden=8,
                history_k=2, lr=1e-3, checkpoint_every=2)
    sched = CurriculumSchedule(3.0, 1.0, 1, 2)
    full = train(TrainRunConfig(**tcfg), sched, tmp_path / "full", cache=cache)
    part = train(TrainRunConfig(**tcfg, episode_cap=2), sched,
                 tmp_path / "part", cache=cache)
    resumed = train(TrainRunConfig(**tcfg), sched, tmp_path / "resumed",
                    cache=cache,
                    resume_from=tmp_path / "part" / "ckpt_ep000002.bin")
    a = load_checkpoint(full.final_checkpoint)
    b = load_checkpoint(resumed.final_checkpoint)
    state_ok = all(p.tobytes() == b.net.params()[n].tobytes()
                   for n, p in a.net.params().items())
    state_ok &= all(a.opt.m[n].tobytes() == b.opt.m[n].tobytes()
                    and a.opt.v[n].tobytes() == b.opt.v[n].tobytes()
                    for n in a.opt.m)
    state_ok &= a.rng_state == b.rng_state
    state_ok &= all(np.array_equal(getattr(a.baselines, n), getattr(b.baselines, n))
                    for n in BASELINE_ARRAYS)
    log_ok = [(r.episode, r.seed, r.r_total, r.grad_norm) for r in full.log_rows] \
        == [(r.episode, r.seed, r.r_total, r.grad_norm)
            for r in part.log_rows + resumed.log_rows]
    _line(9, csv_ok and state_ok and log_ok,
          f"trajectory csv reruns byte-identical: {csv_ok}; resumed training "
          f"state bit-identical: {state_ok}; logs align: {log_ok}")


# -- 10: scheduler conservation, fairness, and water-filling oracle ----------

def test_10_scheduler_conservation_and_waterfill():
    rng = np.random.default_rng(77)
    fairness_worst, oracle_trials, pinned_seen = 0.0, 0, False
    for trial in range(2000):
        n = int(rng.integers(1, 13))
        bw = float(rng.uniform(1e6, 60e6))
        se = rng.uniform(0.0, 7.8, n)
        se[rng.random(n) < 0.1] = 0.0
        if trial % 2:
            a = allocate([bw], se, np.array([n]))
            fairness_worst = max(fairness_worst,
                                 float(np.abs(a.bandwidth * n / bw - 1.0).max()))
        else:
            caps = rng.uniform(0.2e6, 30e6, n)
            caps[rng.random(n) < 0.3] = np.inf
            a = allocate([bw], se, np.array([n]), rate_caps=caps)
            if n <= 6:
                want = oracle_water_fill(bw, se, caps)
                assert np.allclose(a.bandwidth, want, rtol=1e-9, atol=1e-6), trial
                oracle_trials += 1
            if a.available_bw[0] > 1e-3:
                pinned_seen = True
        # per-UE throughputs sum to the per-cell figure exactly
        assert a.cell_throughput[0] == float(a.throughput.sum())
        assert abs(a.bandwidth.sum() + a.available_bw[0] - bw) <= 1e-9 * bw
    _line(10, fairness_worst <= 1e-9 and oracle_trials >= 200 and pinned_seen,
          f"2000 instances: equal-split fairness off by <= {fairness_worst:.1e}, "
          f"{oracle_trials} capped instances match the subset-enumeration oracle")
