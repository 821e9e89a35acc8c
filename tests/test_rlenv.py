from types import SimpleNamespace

import numpy as np
import pytest

from cellpilot.policy import (init_optimizer, init_policy, load_checkpoint,
                              save_checkpoint)
from cellpilot.reselect import CONFIG_B, PARAM_ORDER, PARAM_RANGES, clamp_params
from cellpilot.rlenv import (
    BASELINE_ARRAYS,
    BaselineTable,
    IntervalAggregate,
    RlenvError,
    build_observation,
    compute_reward,
    interval_aggregates,
    map_action,
    normalize_params,
    observation_dim,
)
from cellpilot.simcore import Trajectory


def frames(avail, active, idle):
    return SimpleNamespace(per_cell_avail_bw=np.asarray(avail, float),
                           per_cell_active=np.asarray(active, float),
                           idle_count=np.asarray(idle, float))


def test_observation_layout_and_padding():
    cell_bw = np.array([10e6, 20e6])
    traj = frames([[5e6, 20e6], [0.0, 10e6]], [[4, 0], [8, 2]], [2, 0])
    obs = build_observation(traj, 2, cell_bw, n_ues=10, k=3)
    flen = 2 * 2 + 5
    assert obs.shape == (observation_dim(2, 3),) == (3 * flen,)
    assert not obs[:flen].any()              # zero padding, oldest first
    got1 = obs[flen:2 * flen]
    # interleaved [avail, active] pairs then mean/std/mean/std/idle
    assert got1[:4] == pytest.approx([0.5, 0.4, 1.0, 0.0])
    assert got1[4] == pytest.approx(np.mean([0.5, 1.0]))
    assert got1[5] == pytest.approx(np.std([0.5, 1.0]))
    assert got1[6] == pytest.approx(np.mean([0.4, 0.0]))
    assert got1[7] == pytest.approx(np.std([0.4, 0.0]))
    assert got1[8] == pytest.approx(0.2)
    got2 = obs[2 * flen:]
    assert got2[:4] == pytest.approx([0.0, 0.8, 0.5, 0.2])
    assert np.all(obs >= 0.0) and np.all(obs <= 1.0)


def test_observation_keeps_last_k():
    cell_bw = np.array([10e6])
    traj = frames([[i * 1e6] for i in range(5)], [[0]] * 5, [0] * 5)
    obs = build_observation(traj, 5, cell_bw, n_ues=10, k=2)
    assert obs[0] == pytest.approx(0.3)      # frame 3, not frame 0
    assert obs[7] == pytest.approx(0.4)
    with pytest.raises(RlenvError):
        build_observation(traj, 5, cell_bw, 10, k=0)


def test_map_action_endpoints_and_clip():
    lo = map_action(np.zeros(6))
    hi = map_action(np.ones(6))
    for name in PARAM_ORDER:
        assert getattr(lo, name) == PARAM_RANGES[name][0]
        assert getattr(hi, name) == PARAM_RANGES[name][1]
    wild = map_action(np.array([-3.0, 7.0, 0.5, 0.5, 0.5, 0.5]))
    assert wild.t_xhigh == -100.0 and wild.t_xlow == 0.0
    assert wild.t_slow == -50.0


def test_normalize_round_trip_and_frozen_values():
    u = normalize_params(CONFIG_B)
    assert u == pytest.approx([0.44, 0.42, 0.46, 0.1, 14.0 / 30.0, 0.4], rel=1e-12)
    assert map_action(u) == CONFIG_B
    rng = np.random.default_rng(6)
    for _ in range(50):
        raw = rng.random(6)
        p = map_action(raw)
        assert normalize_params(p) == pytest.approx(raw, abs=1e-12)
        assert clamp_params(p)[1] == []


def test_interval_aggregates_grouping():
    traj = Trajectory.zeros(3, 2)
    traj.total_tput[:] = [10.0, 20.0, 30.0]
    traj.per_cell_tput[:] = [[10, 0], [10, 10], [0, 30]]
    traj.per_ue_mean_tput[:] = [5.0, 10.0, 15.0]
    traj.active_count[:] = [2, 2, 4]
    aggs = interval_aggregates(traj, pri=2)
    assert [a.interval for a in aggs] == [0, 1]
    assert aggs[0].tput == pytest.approx(15.0)
    assert aggs[0].sigma == pytest.approx(np.mean([np.std([10, 0]), np.std([10, 10])]))
    assert aggs[0].ue == pytest.approx(7.5)
    assert aggs[0].avg_active == pytest.approx(2.0)
    assert aggs[1].tput == pytest.approx(30.0)  # short trailing interval
    assert aggs[1].avg_active == pytest.approx(4.0)


def looped_interval_aggregates(traj, pri):
    """The per-interval loop interval_aggregates replaced."""
    sigma = traj.per_cell_tput.std(axis=1)
    out = []
    for t in range(0, (len(traj) + pri - 1) // pri):
        chunk = slice(t * pri, (t + 1) * pri)
        out.append(IntervalAggregate(
            interval=t,
            tput=float(traj.total_tput[chunk].mean()),
            sigma=float(sigma[chunk].mean()),
            ue=float(traj.per_ue_mean_tput[chunk].mean()),
            avg_active=float(traj.active_count[chunk].mean()),
        ))
    return out


# from 8 elements on, numpy sums an interval with its unrolled pairwise loop
@pytest.mark.parametrize("pri", [1, 2, 3, 7, 8, 10, 16])
def test_interval_aggregates_match_the_interval_loop(pri):
    rng = np.random.default_rng(pri)
    for n_steps in (1, pri, 4 * pri + 1, 50, 61):
        traj = Trajectory.zeros(n_steps, 9)
        traj.total_tput[:] = rng.uniform(0, 1e8, n_steps)
        traj.per_cell_tput[:] = rng.uniform(0, 3e7, (n_steps, 9))
        traj.per_ue_mean_tput[:] = rng.uniform(0, 1e6, n_steps)
        traj.active_count[:] = rng.integers(0, 50, n_steps)
        got = interval_aggregates(traj, pri)
        want = looped_interval_aggregates(traj, pri)
        assert len(got) == len(want) == -(-n_steps // pri)
        for a, b in zip(got, want):
            assert a == b   # floats compared exactly
            assert all(type(v) is float for v in (a.tput, a.sigma, a.ue, a.avg_active))


def test_observation_with_a_seed_axis_matches_each_seed():
    # 48 cells: row reductions long enough for numpy's blocked pairwise sum
    rng = np.random.default_rng(5)
    cell_bw = rng.uniform(5e6, 20e6, 48)
    traj = Trajectory.zeros(20, 48, n_seeds=3)
    traj.per_cell_avail_bw[:] = rng.uniform(0, 20e6, traj.per_cell_avail_bw.shape)
    traj.per_cell_active[:] = rng.integers(0, 9, traj.per_cell_active.shape)
    traj.idle_count[:] = rng.integers(0, 300, traj.idle_count.shape)
    for step in (0, 3, 10, 19):
        obs = build_observation(traj, step, cell_bw, 300, 10)
        assert obs.shape == (3, observation_dim(48, 10))
        for i in range(3):
            alone = build_observation(traj.seed(i), step, cell_bw, 300, 10)
            assert obs[i].tobytes() == alone.tobytes()


def agg(interval=0, tput=1e6, sigma=1e5, ue=1e4, active=25):
    return IntervalAggregate(interval, tput, sigma, ue, active)


def seeded_table(seed=0, tput=1e6, sigma=1e5, ue=1e4, intervals=1, window=2):
    t = BaselineTable(window=window)
    t.seed_reference(seed, [agg(i, tput, sigma, ue) for i in range(intervals)])
    return t


def test_baseline_ring_buffer_and_first_touch():
    t = BaselineTable(window=2)
    t.seed_reference(3, [agg(0, tput=100.0)])
    for seed, interval in ((3, 1), (4, 0)):
        with pytest.raises(RlenvError, match="baseline missing"):
            t.means(seed, interval)
    assert t.means(3, 0)[0] == 100.0
    t.seed_reference(3, [agg(0, tput=999.0)])   # no overwrite on second touch
    assert t.means(3, 0)[0] == 100.0
    t.push(3, [agg(0, tput=200.0)])
    assert t.means(3, 0)[0] == pytest.approx(150.0)
    t.push(3, [agg(0, tput=400.0)])
    assert t.means(3, 0)[0] == pytest.approx(300.0)  # 100 fell out of the window
    assert t.bl_vals[0, 0, 0].tolist() == [200.0, 400.0]
    with pytest.raises(RlenvError, match="baseline missing"):
        t.means(3, 1)


def test_baseline_serialization_round_trip(tmp_path):
    t = BaselineTable(window=3)
    t.push(7, [agg(0, tput=5.0, sigma=2.0, ue=1.0)])
    t.seed_reference(1, [agg(0, tput=10.0), agg(1, tput=20.0)])
    t.push(1, [agg(0, tput=30.0)])
    # rows sorted by seed, T = longest interval, values oldest first
    assert t.bl_seeds.dtype == np.int64 and t.bl_seeds.tolist() == [1, 7]
    assert t.bl_fill.dtype == np.int64 and t.bl_fill.shape == (2, 2, 3)
    assert t.bl_fill[:, :, 0].tolist() == [[2, 1], [1, 0]]
    assert t.bl_vals.shape == (2, 2, 3, 3)
    assert t.bl_vals[0, 0, 0].tolist() == [10.0, 30.0, 0.0]
    assert t.bl_vals[0, 1, 0].tolist() == [20.0, 0.0, 0.0]
    assert t.bl_vals[1, 0, :, 0].tolist() == [5.0, 2.0, 1.0]
    assert not t.bl_vals[1, 1].any()
    net = init_policy(4, 2)
    save_checkpoint(tmp_path / "ck.bin", net, init_optimizer(net), t, None, {})
    back = load_checkpoint(tmp_path / "ck.bin").baselines
    assert back.window == 3
    for name in BASELINE_ARRAYS:
        a, b = getattr(t, name), getattr(back, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert back.means(1, 0) == t.means(1, 0) == (20.0, 1e5, 1e4)


def test_reward_zero_fixpoint():
    t = seeded_table()
    r = compute_reward(agg(), t, 0, (0.4, 0.4, 0.2), ue_max=50)
    assert r.r_tput == 0.0 and r.r_bal == 0.0 and r.r_ue_eff == 0.0
    assert abs(r.r_total) < 1e-9


def test_reward_doubling_example():
    # doubled throughput and halved imbalance at unchanged per-UE rate:
    # 0.4*1 + 0.4*1 + 0.2*0 = 0.8
    t = seeded_table()
    r = compute_reward(agg(tput=2e6, sigma=5e4), t, 0, (0.4, 0.4, 0.2), ue_max=50)
    assert r.r_tput == 1.0 and r.r_bal == 1.0 and r.r_ue_eff == 0.0
    assert r.r_total == pytest.approx(0.8)


def test_reward_components_clip_at_one():
    t = seeded_table()
    r = compute_reward(agg(tput=5e6, sigma=1e3, ue=9e4, active=50), t, 0,
                       (0.4, 0.4, 0.2), ue_max=50)
    assert r.r_tput == 1.0 and r.r_bal == 1.0 and r.r_ue_eff == 1.0
    assert r.r_total == pytest.approx(1.0)
    # a blackout interval reads as perfect balance but stays net-negative
    r = compute_reward(agg(tput=0.0, sigma=0.0, ue=0.0, active=25), t, 0,
                       (0.4, 0.4, 0.2), ue_max=50)
    assert r.r_tput == -1.0 and r.r_bal == 1.0
    assert r.r_ue_eff == pytest.approx(-0.5)
    assert r.r_total == pytest.approx(-0.1) and r.r_total < 0.0


def test_reward_guards():
    # zero baselines silence their terms
    t = seeded_table(tput=0.0, ue=0.0)
    r = compute_reward(agg(tput=5e5, ue=3e3), t, 0, (0.4, 0.4, 0.2), ue_max=50)
    assert r.r_tput == 0.0 and r.r_ue_eff == 0.0
    # both sigmas under the 1 bit/s guard read as equal balance
    t = seeded_table(sigma=0.2)
    r = compute_reward(agg(sigma=0.9), t, 0, (0.4, 0.4, 0.2), ue_max=50)
    assert r.r_bal == 0.0


def test_reward_scale_invariance():
    w = (0.4, 0.4, 0.2)
    t1 = seeded_table(tput=1e6, sigma=1e5, ue=1e4)
    r1 = compute_reward(agg(tput=1.3e6, sigma=0.8e5, ue=1.1e4), t1, 0, w, ue_max=50)
    k = 1000.0
    t2 = seeded_table(tput=1e6 * k, sigma=1e5 * k, ue=1e4 * k)
    r2 = compute_reward(agg(tput=1.3e6 * k, sigma=0.8e5 * k, ue=1.1e4 * k),
                        t2, 0, w, ue_max=50)
    assert r2.r_total == pytest.approx(r1.r_total, rel=1e-12)
    assert (r2.r_tput, r2.r_bal, r2.r_ue_eff) == pytest.approx(
        (r1.r_tput, r1.r_bal, r1.r_ue_eff), rel=1e-12)


def test_ue_term_participation_scaling():
    t = seeded_table()
    full = compute_reward(agg(ue=1.5e4, active=50), t, 0, (0.4, 0.4, 0.2), ue_max=50)
    half = compute_reward(agg(ue=1.5e4, active=25), t, 0, (0.4, 0.4, 0.2), ue_max=50)
    over = compute_reward(agg(ue=1.5e4, active=80), t, 0, (0.4, 0.4, 0.2), ue_max=50)
    assert full.r_ue_eff == pytest.approx(0.5)
    assert half.r_ue_eff == pytest.approx(0.25)
    assert over.r_ue_eff == pytest.approx(0.5)  # participation factor caps at 1
