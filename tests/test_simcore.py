import hashlib
import importlib.resources
import itertools
import multiprocessing
import types
from dataclasses import replace

import numpy as np
import pytest

from cellpilot import radio, simcore
from cellpilot.container import load_container, save_container
from cellpilot.policy import BLOCK_ROWS, init_policy
from cellpilot.reselect import CONFIG_A, CONFIG_B, ReselectionParams
from cellpilot.rlenv import observation_dim
from cellpilot.simcore import (
    EpisodeConfig,
    EpisodeResult,
    SimError,
    Trajectory,
    cache_dir,
    constant_controller,
    reference_fingerprint,
    run_episode,
    run_episodes,
    run_heuristic_reference,
    write_trajectory_csv,
)
from cellpilot.topology import Cell, Topology, Tower, load_topology
from cellpilot.traffic import TrafficConfig
from cellpilot.trainer import _mean_action_controller

from oracles import write_updates_csv


def bundled_topology(name):
    with importlib.resources.as_file(
            importlib.resources.files("cellpilot.data") / f"{name}.topo") as p:
        return load_topology(p)


def two_layer_topo():
    """One strong low-priority cell and one weak high-priority cell, with
    every placement zone 90-128 m from the shared mast so rx stays inside
    a designed window (A in [-50, -46], B in [-74, -70])."""
    tower = Tower("T1", 100.0, 100.0)
    mk = lambda cid, freq, pri, tx: Cell(
        id=cid, tower_id="T1", position=(100.0, 100.0), azimuth=0.0,
        beamwidth=360.0, frequency=freq, bandwidth=10e6, priority=pri,
        tx_power=tx)
    a = mk("A", 1.0e9, 2, 15.0)
    b = mk("B", 2.0e9, 3, -3.0)
    building = np.array([[10.0, 10.0], [35.0, 10.0], [35.0, 35.0], [10.0, 35.0]])
    street = np.array([[10.0, 190.0], [190.0, 190.0]])
    return Topology((0.0, 0.0, 200.0, 200.0), [tower], [a, b],
                    [building], [street])


FROZEN_TRAFFIC = TrafficConfig(lambda_idle=1e-6, lambda_active=1e-6)
DESCENT_PARAMS = ReselectionParams(t_xhigh=-56.0, t_xlow=-58.0, t_slow=-54.0,
                                   q_hyst=3.0, q_offset=14.0, q_rxlevmin=-75.0)


def test_config_validation():
    topo = two_layer_topo()
    cfg = EpisodeConfig(topo, 0, n_ues=50, length=50.0)
    cfg.validate()
    for bad in (dict(length=0.0), dict(pri=0), dict(n_ues=0)):
        with pytest.raises(ValueError):
            replace(cfg, **bad).validate()


def test_idle_only_reselection_and_event_counting():
    # all UEs camp on the high-priority weak cell B at step 0 (not counted),
    # then every IDLE UE descends to A at step 1 while ACTIVE UEs hold B
    topo = two_layer_topo()
    cfg = EpisodeConfig(topo, episode_seed=17, n_ues=40, length=4.0, pri=1,
                        traffic=FROZEN_TRAFFIC)
    res = run_episode(cfg, constant_controller(DESCENT_PARAMS))
    tr = res.steps
    idle0 = tr.idle_count[0]
    assert 0 < idle0 < 40  # the seed must give a mixed population
    assert tr.idle_count.tolist() == [idle0] * 4  # no mode flips
    assert tr.reselection_events.tolist() == [0, idle0, 0, 0]
    for i in range(len(tr)):
        # scheduling covers ACTIVE UEs only, all of them still on B
        assert tr.per_cell_active[i].tolist() == [0, 40 - idle0]
        assert tr.per_cell_tput[i][0] == 0.0
        assert tr.per_cell_tput[i][1] > 0.0
        assert tr.per_cell_avail_bw[i][0] == 10e6


def test_camp_on_tie_breaks_by_cell_id_not_index():
    # two co-located identical same-priority cells listed "B" then "A"; with
    # every UE ACTIVE from step 0, all of them must be scheduled on "A"
    base = two_layer_topo()
    cells = [Cell(id=cid, tower_id="T1", position=(100.0, 100.0), azimuth=0.0,
                  beamwidth=360.0, frequency=1.0e9, bandwidth=10e6, priority=2,
                  tx_power=15.0) for cid in ("B", "A")]
    topo = Topology(base.area_bounds, base.towers, cells, base.buildings,
                    base.streets)
    all_active = TrafficConfig(lambda_idle=1e6, lambda_active=1e-6)
    cfg = EpisodeConfig(topo, 17, n_ues=20, length=3.0, pri=1, traffic=all_active)
    tr = run_episode(cfg, constant_controller(CONFIG_B)).steps
    assert tr.per_cell_active.tolist() == [[0, 20]] * 3
    assert tr.reselection_events.tolist() == [0, 0, 0]


def test_updates_recorded_at_pri_boundaries():
    topo = two_layer_topo()
    cfg = EpisodeConfig(topo, 3, n_ues=10, length=10.0, pri=4,
                        traffic=FROZEN_TRAFFIC)
    seen = []
    def ctl(obs, interval):
        seen.append(interval)
        return [CONFIG_B]
    res = run_episode(cfg, ctl)
    assert seen == [0, 1, 2]
    assert [(u.interval, u.step) for u in res.updates] == [(0, 0), (1, 4), (2, 8)]
    assert all(u.params == CONFIG_B and u.clamped == [] for u in res.updates)


def test_out_of_range_controller_output_is_clamped():
    topo = two_layer_topo()
    cfg = EpisodeConfig(topo, 3, n_ues=5, length=2.0, pri=1,
                        traffic=FROZEN_TRAFFIC)
    wild = ReselectionParams(t_xhigh=-56.0, t_xlow=-58.0, t_slow=-54.0,
                             q_hyst=40.0, q_offset=14.0, q_rxlevmin=-60.0)
    res = run_episode(cfg, constant_controller(wild))
    assert res.updates[0].clamped == ["q_hyst"]
    assert res.updates[0].params.q_hyst == 30.0


def test_degenerate_se_table_makes_tput_equal_bandwidth(monkeypatch):
    # every episode looks the table up here; at SE 1 bit/s/Hz everywhere a
    # loaded cell carries exactly its bandwidth
    monkeypatch.setattr(radio, "default_se_table",
                        lambda: (np.array([0.0]), np.array([1.0])))
    topo = two_layer_topo()
    cfg = EpisodeConfig(topo, 17, n_ues=40, length=2.0, pri=1,
                        traffic=FROZEN_TRAFFIC)
    res = run_episode(cfg, constant_controller(DESCENT_PARAMS))
    tr = res.steps
    assert tr.per_cell_tput[0][1] == pytest.approx(10e6, rel=1e-12)
    assert tr.total_tput[0] == pytest.approx(10e6, rel=1e-12)


def arrays_bytes(traj):
    return {k: v.tobytes() for k, v in vars(traj).items()}


def test_episode_determinism():
    topo = bundled_topology("desk")
    cfg = EpisodeConfig(topo, 123, n_ues=25, length=8.0, pri=1,
                        obstruction_enabled=True)
    a = run_episode(cfg, constant_controller(CONFIG_B))
    b = run_episode(cfg, constant_controller(CONFIG_B))
    assert arrays_bytes(a.steps) == arrays_bytes(b.steps)
    c = run_episode(EpisodeConfig(topo, 124, n_ues=25, length=8.0, pri=1,
                                  obstruction_enabled=True),
                    constant_controller(CONFIG_B))
    assert arrays_bytes(c.steps) != arrays_bytes(a.steps)


def test_prefix_property_under_mobility():
    # per-UE RNG streams make a shorter run a bitwise prefix of a longer one
    topo = bundled_topology("desk")
    mob = TrafficConfig(mobility_enabled=True)
    long_cfg = EpisodeConfig(topo, 9, n_ues=15, length=30.0, pri=1, traffic=mob)
    short_cfg = EpisodeConfig(topo, 9, n_ues=15, length=12.0, pri=1, traffic=mob)
    long_res = run_episode(long_cfg, constant_controller(CONFIG_B))
    short_res = run_episode(short_cfg, constant_controller(CONFIG_B))
    la, sa = vars(long_res.steps), vars(short_res.steps)
    for k in sa:
        assert la[k][:12].tobytes() == sa[k].tobytes(), k


def test_mobility_with_obstruction_trajectory_digest():
    # moving UEs get fresh rx rows (walls included) while indoor rows are
    # kept; the digest pins the trajectory of the full per-step recompute
    cfg = EpisodeConfig(bundled_topology("baseline"), 3, n_ues=40, length=10.0,
                        traffic=TrafficConfig(mobility_enabled=True),
                        obstruction_enabled=True)
    res = run_episode(cfg, constant_controller(CONFIG_B))
    h = hashlib.sha256()
    for name, arr in vars(res.steps).items():
        h.update(name.encode())
        h.update(arr.tobytes())
    assert res.steps.reselection_events.sum() > 0
    assert h.hexdigest() == (
        "9115109450dfa391b248dbe8655b9e8a764e331704f51bf27507a905d6f16e6c")


def test_large_lockstep_mobility_digest():
    # two seeds of 30 street and indoor UEs on `large`, with mobility and
    # obstruction: from step 1 on, the movers' wall counts come from the
    # street table; the digest was taken when every count came from the
    # per-site test
    cfg = EpisodeConfig(bundled_topology("large"), 0, n_ues=30, length=10.0,
                        traffic=TrafficConfig(mobility_enabled=True),
                        obstruction_enabled=True)
    res = run_episodes(cfg, [4, 5], constant_controller(CONFIG_A))
    h = hashlib.sha256()
    for r in res:
        for name, arr in vars(r.steps).items():
            h.update(name.encode())
            h.update(arr.tobytes())
    assert sum(r.steps.reselection_events.sum() for r in res) > 0
    assert h.hexdigest() == (
        "594e919d032f5cc0e293990b027f78c8c4c61a98dface1572b7bde6fc7ff2352")


def test_only_a_run_with_mobility_builds_the_street_table():
    # not at load, and not in an episode without mobility, whose wall
    # counts all come from the per-site test; the first mover step builds it
    topo = bundled_topology("large")
    cfg = EpisodeConfig(topo, 1, n_ues=10, length=3.0, obstruction_enabled=True)
    run_episode(cfg, constant_controller(CONFIG_B))
    assert "_street_walls" not in vars(topo)
    run_episode(replace(cfg, traffic=TrafficConfig(mobility_enabled=True)),
                constant_controller(CONFIG_B))
    assert "_street_walls" in vars(topo)


@pytest.mark.parametrize("name, n_ues", [("desk", 15), ("large", 25)])
@pytest.mark.parametrize("params", [CONFIG_A, CONFIG_B], ids=["config_a", "config_b"])
def test_pri_and_history_leave_constant_controller_trajectories_unchanged(
        name, n_ues, params):
    # reference_fingerprint leaves pri and history_k out of the cache key
    # on this claim: a constant controller's trajectory reads neither
    cfg = EpisodeConfig(bundled_topology(name), 7, n_ues=n_ues, length=12.0, pri=1,
                        traffic=TrafficConfig(mobility_enabled=True),
                        obstruction_enabled=True)
    seeds = [7, 8]
    base = run_episodes(cfg, seeds, constant_controller(params))
    assert sum(r.steps.reselection_events.sum() for r in base) > 0
    want = [arrays_bytes(r.steps) for r in base]
    for change in (dict(pri=3), dict(pri=5), dict(history_k=3), dict(pri=5, history_k=3)):
        changed = replace(cfg, **change)
        got = run_episodes(changed, seeds, constant_controller(params))
        assert [arrays_bytes(r.steps) for r in got] == want, change
        alone = run_episode(changed, constant_controller(params))   # seed 7 alone
        assert arrays_bytes(alone.steps) == want[0], change


def test_lockstep_matches_serial_runs():
    # ten seeds in one lockstep run, with mobility, obstruction and pri=2:
    # two under constant parameters and eight under the mean action of one
    # un-warm-started hidden-300 net, whose rows go through one forward call
    # (BLOCK_ROWS of them, so the weights are read block by block). Per-seed
    # parameters reach the kernel as columns. Each seed's trajectory and
    # updates are those of its own run, bit for bit
    topo = bundled_topology("baseline")
    policy_controller = _mean_action_controller(
        init_policy(observation_dim(topo.n_cells, 10), 300, seed=3))
    fixed = {0: CONFIG_B, 5: CONFIG_A}   # seed slot -> constant parameters
    cfg = EpisodeConfig(topo, 0, n_ues=30, length=12.0, pri=2,
                        traffic=TrafficConfig(mobility_enabled=True),
                        obstruction_enabled=True)
    seeds = list(range(5, 15))
    policy_slots = [i for i in range(len(seeds)) if i not in fixed]
    assert len(policy_slots) >= BLOCK_ROWS

    def dispatch(obs, interval):
        mean = iter(policy_controller(obs[policy_slots], interval))
        return [fixed[i] if i in fixed else next(mean) for i in range(len(obs))]

    together = run_episodes(cfg, seeds, dispatch)
    assert len(together) == len(seeds)
    for i, (seed, got) in enumerate(zip(seeds, together)):
        alone = (constant_controller(fixed[i]) if i in fixed
                 else policy_controller)
        want = run_episode(replace(cfg, episode_seed=seed), alone)
        assert arrays_bytes(got.steps) == arrays_bytes(want.steps)
        assert got.updates == want.updates
    params = {u.params for r in together for u in r.updates}
    assert len(params) > 2   # the seeds really ran under different parameters
    assert sum(r.steps.reselection_events.sum() for r in together) > 0


def test_run_episodes_rejects_empty_and_mismatched_lists():
    # no seeds, or a controller that returns other than one parameter set
    # per seed
    cfg = EpisodeConfig(two_layer_topo(), 1, n_ues=4, length=2.0)
    with pytest.raises(ValueError, match="at least one"):
        run_episodes(cfg, [], constant_controller(CONFIG_B))
    with pytest.raises(ValueError, match="returned 1 parameter sets for 2 seeds"):
        run_episodes(cfg, [1, 2], lambda obs, interval: [CONFIG_B])
    with pytest.raises(ValueError, match="returned 2 parameter sets for 1 seeds"):
        run_episode(cfg, lambda obs, interval: [CONFIG_B, CONFIG_A])


def test_reference_cache_roundtrip(tmp_path):
    topo = two_layer_topo()
    cfg = EpisodeConfig(topo, 5, n_ues=12, length=6.0, pri=1,
                        traffic=FROZEN_TRAFFIC)
    r1 = run_heuristic_reference(cfg, CONFIG_B, cache=tmp_path)
    fp = reference_fingerprint(cfg, CONFIG_B)
    path = tmp_path / f"ref_{fp}.bin"
    assert path.exists()
    meta, _ = load_container(path)
    assert meta == {"fingerprint": fp, "n_ues": 12, "preset": "", "length": 6.0}
    r2 = run_heuristic_reference(cfg, CONFIG_B, cache=tmp_path)
    assert arrays_bytes(r1) == arrays_bytes(r2)
    # the cache stores count columns as float; the CSV must still print ints
    ids = [c.id for c in topo.cells]
    fresh, hit = tmp_path / "fresh.csv", tmp_path / "hit.csv"
    write_trajectory_csv(EpisodeResult(r1, []), fresh, ids)
    write_trajectory_csv(EpisodeResult(r2, []), hit, ids)
    assert hit.read_bytes() == fresh.read_bytes()
    rows = [line.split(",") for line in hit.read_text().splitlines()[1:]]
    assert all(v.isdigit() for row in rows for v in row[4:7] + row[-len(ids):])


def test_an_int_length_shares_the_float_lengths_cache_entry(tmp_path):
    # 6 and 6.0 give one trajectory, so they share one key and one file
    cfg = EpisodeConfig(two_layer_topo(), 5, n_ues=12, length=6, pri=1,
                        traffic=FROZEN_TRAFFIC)
    first = run_heuristic_reference(cfg, CONFIG_B, cache=tmp_path)
    [path] = tmp_path.iterdir()
    length = load_container(path)[0]["length"]
    assert (type(length), length) == (float, 6.0)
    again = run_heuristic_reference(replace(cfg, length=6.0), CONFIG_B, cache=tmp_path)
    assert list(tmp_path.iterdir()) == [path]
    assert arrays_bytes(again) == arrays_bytes(first)


@pytest.mark.parametrize("name", ["desk", "baseline", "large"])
def test_a_reference_fill_writes_the_file_of_per_step_control(tmp_path, name):
    # a fill runs as one control interval whatever the configured pri; its
    # file is the one a run at pri 1, with a controller call every step,
    # gives under the same meta
    topo = bundled_topology(name)
    for mobility, obstruction in itertools.product((False, True), repeat=2):
        cfg = EpisodeConfig(topo, 11, n_ues=20, length=9.0, pri=1,
                            traffic=TrafficConfig(mobility_enabled=mobility),
                            obstruction_enabled=obstruction)
        steps = run_episode(cfg, constant_controller(CONFIG_A)).steps
        fp = reference_fingerprint(cfg, CONFIG_A)
        want = tmp_path / f"want_{mobility}_{obstruction}.bin"
        save_container(want, {"fingerprint": fp, "n_ues": 20, "preset": "",
                              "length": 9.0}, vars(steps))
        for pri in (1, 3):
            cache = tmp_path / f"cache_{mobility}_{obstruction}_{pri}"
            traj = run_heuristic_reference(replace(cfg, pri=pri), CONFIG_A, cache)
            assert (cache / f"ref_{fp}.bin").read_bytes() == want.read_bytes()
            assert arrays_bytes(traj) == arrays_bytes(steps)


def _fill_cfg():
    return EpisodeConfig(bundled_topology("desk"), 5, n_ues=30, length=30.0, pri=1)


def _fill_reference(cache, barrier, out):
    cfg = _fill_cfg()
    barrier.wait(timeout=60)
    out.put(arrays_bytes(run_heuristic_reference(cfg, CONFIG_B, cache=cache)))


def test_concurrent_reference_fill_leaves_one_whole_file(tmp_path):
    ctx = multiprocessing.get_context("spawn")
    barrier, out = ctx.Barrier(2), ctx.Queue()
    procs = [ctx.Process(target=_fill_reference, args=(str(tmp_path), barrier, out))
             for _ in range(2)]
    for p in procs:
        p.start()
    try:
        results = [out.get(timeout=120) for _ in procs]
    finally:
        for p in procs:
            p.join(timeout=60)
    assert [p.exitcode for p in procs] == [0, 0]
    assert results[0] == results[1]
    fp = reference_fingerprint(_fill_cfg(), CONFIG_B)
    assert [f.name for f in tmp_path.iterdir()] == [f"ref_{fp}.bin"]  # no temp file
    _, arrays = load_container(tmp_path / f"ref_{fp}.bin")
    assert arrays_bytes(Trajectory(**arrays)) == results[0]


def test_corrupt_cache_raises(tmp_path):
    topo = two_layer_topo()
    cfg = EpisodeConfig(topo, 5, n_ues=12, length=6.0, pri=1,
                        traffic=FROZEN_TRAFFIC)
    fp = reference_fingerprint(cfg, CONFIG_B)
    (tmp_path / f"ref_{fp}.bin").write_bytes(b"not a container")
    with pytest.raises(SimError, match="corrupt"):
        run_heuristic_reference(cfg, CONFIG_B, cache=tmp_path)


def test_fingerprint_sensitivity(monkeypatch):
    topo = two_layer_topo()
    cfg = EpisodeConfig(topo, 5, n_ues=12, length=6.0, pri=1)
    base = reference_fingerprint(cfg, CONFIG_B)
    import dataclasses
    assert reference_fingerprint(dataclasses.replace(cfg, episode_seed=6), CONFIG_B) != base
    assert reference_fingerprint(dataclasses.replace(cfg, n_ues=13), CONFIG_B) != base
    assert reference_fingerprint(dataclasses.replace(cfg, length=7.0), CONFIG_B) != base
    # one key per length, however it is spelled
    assert reference_fingerprint(dataclasses.replace(cfg, length=6), CONFIG_B) == base
    assert reference_fingerprint(dataclasses.replace(cfg, obstruction_enabled=True),
                                 CONFIG_B) != base
    # every traffic setting shapes the trajectory, so each is in the key
    for f in dataclasses.fields(TrafficConfig):
        value = getattr(cfg.traffic, f.name)
        other = (not value) if isinstance(value, bool) else value + 0.125
        changed = dataclasses.replace(
            cfg, traffic=dataclasses.replace(cfg.traffic, **{f.name: other}))
        assert reference_fingerprint(changed, CONFIG_B) != base, f.name
    other = ReselectionParams(-56.0, -58.0, -54.0, 3.0, 14.0, -61.0)
    assert reference_fingerprint(cfg, other) != base
    # a constant controller reads neither the PRI nor the observation history
    assert reference_fingerprint(dataclasses.replace(cfg, pri=7), CONFIG_B) == base
    assert reference_fingerprint(dataclasses.replace(cfg, history_k=3), CONFIG_B) == base
    # a new simulator version never serves an older version's references
    monkeypatch.setattr(simcore, "SIM_VERSION", simcore.SIM_VERSION + 1)
    assert reference_fingerprint(cfg, CONFIG_B) != base


def test_cache_dir_resolution(monkeypatch):
    assert cache_dir("/x/y") == __import__("pathlib").Path("/x/y")
    monkeypatch.setenv("CELLPILOT_CACHE", "/from/env")
    assert str(cache_dir()) == "/from/env"
    monkeypatch.delenv("CELLPILOT_CACHE")
    assert str(cache_dir()).endswith(".cache/cellpilot")


def test_empty_cache_variable_counts_as_unset(tmp_path, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setenv("CELLPILOT_CACHE", "")
    assert cache_dir() == tmp_path / ".cache" / "cellpilot"


def test_trajectory_csv(tmp_path):
    topo = two_layer_topo()
    cfg = EpisodeConfig(topo, 17, n_ues=8, length=3.0, pri=1,
                        traffic=FROZEN_TRAFFIC)
    res = run_episode(cfg, constant_controller(CONFIG_B))
    ids = [c.id for c in topo.cells]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trajectory_csv(res, p1, ids)
    write_trajectory_csv(res, p2, ids)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert len(lines) == 1 + 3
    head = lines[0].split(",")
    assert head[:7] == ["step", "time", "total_tput", "per_ue_mean_tput",
                        "active", "idle", "reselections"]
    assert "tput_A" in head and "avail_bw_B" in head and "active_A" in head
    assert lines[1].split(",")[0] == "0"


def test_trajectory_csv_write_is_atomic(tmp_path, monkeypatch, failing_write):
    topo = two_layer_topo()
    ids = [c.id for c in topo.cells]
    short = run_episode(EpisodeConfig(topo, 17, n_ues=8, length=3.0, pri=1,
                                      traffic=FROZEN_TRAFFIC),
                        constant_controller(CONFIG_B))
    longer = run_episode(EpisodeConfig(topo, 17, n_ues=8, length=40.0, pri=1,
                                       traffic=FROZEN_TRAFFIC),
                         constant_controller(CONFIG_B))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(short, path, ids)
    old = path.read_bytes()
    failing_write()
    with pytest.raises(OSError):
        write_trajectory_csv(longer, path, ids)
    with pytest.raises(OSError):
        write_trajectory_csv(longer, tmp_path / "other.csv", ids)
    monkeypatch.undo()
    assert path.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["traj.csv"]


def test_updates_csv(tmp_path):
    topo = two_layer_topo()
    cfg = EpisodeConfig(topo, 17, n_ues=8, length=4.0, pri=2,
                        traffic=FROZEN_TRAFFIC)
    res = run_episode(cfg, constant_controller(CONFIG_B))
    rewards = [types.SimpleNamespace(r_tput=0.1, r_bal=0.2, r_ue_eff=0.3,
                                     r_total=0.6) for _ in res.updates]
    path = tmp_path / "upd.csv"
    write_updates_csv(res, path, rewards)
    lines = path.read_text().splitlines()
    assert lines[0].split(",")[:2] == ["interval", "step"]
    assert lines[0].endswith("r_tput,r_bal,r_ue_eff,r_total")
    assert len(lines) == 1 + len(res.updates) == 3
    assert float(lines[1].split(",")[-1]) == 0.6
    write_updates_csv(res, path)  # reward columns are optional
    assert "r_total" not in path.read_text().splitlines()[0]
