"""The discrete-time engine (dt = 1 s).

Per step, in fixed order: mobility (from step 1 on) -> frozen rx snapshot
-> parameter update at PRI boundaries -> mode switching -> (re)selection
-> scheduling -> metrics. The UE population is a `traffic.Population` of
arrays, and (re)selection is one `reselect.step_ues` call per step over
all UEs, reading only the step's frozen snapshot.

`run_episodes(cfg, seeds, controller)` runs one configuration once per
seed in lockstep: one population holds every seed's UEs, seed by seed on
the UE axis, every layer runs once per step for all seeds, and at each PRI
boundary one controller call maps all seeds' observation rows, (S, D), to
one parameter set per seed. `run_episode(cfg, controller)` runs the one seed `cfg.episode_seed`.

Episodes are pure functions of (config, controller outputs). Constant-
parameter reference episodes are cached on disk, keyed by a fingerprint
of everything that shapes the trajectory.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import radio, reselect, scheduler, traffic
from .container import load_container, save_container, write_atomic
from .reselect import ReselectionParams
from .rlenv import build_observation
from .topology import Topology
from .traffic import TrafficConfig

DT = 1.0  # s per step
# part of the reference cache key; bump it whenever a change to the
# simulator alters trajectories, so stale cached references are never served
SIM_VERSION = 1

CACHE_ENV_VAR = "CELLPILOT_CACHE"
DEFAULT_CACHE_DIR = "~/.cache/cellpilot"


class SimError(Exception):
    pass


def step_count(length: float) -> int:
    """The number of DT steps an episode of `length` seconds runs."""
    return int(round(length / DT))


@dataclass
class EpisodeConfig:
    topology: Topology
    episode_seed: int
    n_ues: int
    length: float                 # s
    pri: int = 1                  # steps between parameter updates
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    obstruction_enabled: bool = False
    history_k: int = 10           # observation frames

    def validate(self) -> None:
        if not math.isfinite(self.length) or step_count(self.length) < 1:
            raise ValueError(f"length must be finite and give at least one "
                             f"{DT:g} s step, got {self.length}")
        if self.pri < 1:
            raise ValueError("pri must be >= 1")
        if self.n_ues < 1:
            raise ValueError("n_ues must be >= 1")
        self.traffic.validate()


@dataclass(eq=False)
class Trajectory:
    """Per-step episode record, one row per step: (T,) and (T, C) float64
    arrays. Count columns are stored as float."""
    time: np.ndarray
    total_tput: np.ndarray
    per_cell_tput: np.ndarray
    per_cell_avail_bw: np.ndarray
    per_cell_active: np.ndarray      # ACTIVE UEs scheduled per cell
    active_count: np.ndarray
    idle_count: np.ndarray
    per_ue_mean_tput: np.ndarray
    reselection_events: np.ndarray

    @classmethod
    def zeros(cls, n_steps: int, n_cells: int, n_seeds: int | None = None) -> "Trajectory":
        """All-zero rows; with `n_seeds`, every array gains a leading seed axis."""
        lead = () if n_seeds is None else (n_seeds,)
        return cls(**{f.name: np.zeros(lead + ((n_steps, n_cells)
                                               if f.name.startswith("per_cell")
                                               else (n_steps,)))
                      for f in fields(cls)})

    def seed(self, i: int) -> "Trajectory":
        """Seed i's rows of a trajectory with a leading seed axis (views)."""
        return Trajectory(**{k: v[i] for k, v in vars(self).items()})

    def __len__(self) -> int:
        return len(self.time)


@dataclass
class UpdateRecord:
    interval: int
    step: int
    params: ReselectionParams
    clamped: list[str]


@dataclass
class EpisodeResult:
    steps: Trajectory
    updates: list[UpdateRecord]


@dataclass(frozen=True)
class ConstantController:
    """Returns `params` for every seed whatever it sees, so `run_episodes`
    runs it as one control interval: one observation, call and record."""
    params: ReselectionParams

    def __call__(self, obs, interval) -> list[ReselectionParams]:
        return [self.params] * len(obs)


constant_controller = ConstantController


def run_episode(cfg: EpisodeConfig, controller) -> EpisodeResult:
    """Run one seeded episode; `controller(obs, interval)` is invoked at
    every PRI boundary with one observation row, (1, D), and returns a
    sequence of one ReselectionParams, applied network-wide (clamped into
    range if needed, with the clamp recorded)."""
    return run_episodes(cfg, [cfg.episode_seed], controller)[0]


def run_episodes(cfg: EpisodeConfig, seeds: list[int],
                 controller) -> list[EpisodeResult]:
    """Run `cfg` in lockstep once per seed in `seeds` (`cfg.episode_seed`
    is not read). One population holds all seeds' UEs, seed by seed on the
    UE axis, so each step makes one call per layer for all seeds. At each PRI boundary
    `controller(obs, interval)` gets the observation rows of all seeds,
    (S, D), and returns S ReselectionParams, row i's for seed i. Each seed's
    result is exactly that of its run alone when the controller's row i does
    not depend on the other rows. A `ConstantController` is called only at
    step 0, with the trajectory that a call at every boundary gives."""
    if len(seeds) == 0:
        raise ValueError("run_episodes needs at least one seed")
    cfg.validate()
    n_seeds, n_ues = len(seeds), cfg.n_ues
    topo = cfg.topology
    n_cells = topo.n_cells
    se_table = radio.default_se_table()
    noise_floor = radio.noise_floor_dbm(topo.cell_bandwidth)
    cell_bw = np.tile(topo.cell_bandwidth, n_seeds)
    id_rank = reselect.cell_id_rank([c.id for c in topo.cells])
    pop = traffic.init_population(n_ues, topo, seeds, cfg.traffic)
    # a UE's (seed, cell) slot is slot_base + its cell; seed i owns UE rows
    # i * n_ues onwards and cell slots i * n_cells onwards
    slot_base = np.repeat(np.arange(n_seeds) * n_cells, n_ues)
    n_steps = step_count(cfg.length)
    traj = Trajectory.zeros(n_steps, n_cells, n_seeds)
    updates: list[list[UpdateRecord]] = [[] for _ in seeds]
    params: ReselectionParams | None = None
    pri = n_steps if isinstance(controller, ConstantController) else cfg.pri

    for s in range(n_steps):
        t = s * DT
        if s == 0:
            rx = radio.received_power_matrix(
                pop.pos, topo, obstruction_enabled=cfg.obstruction_enabled)
        else:
            # rows are pure functions of position: only movers need new ones
            moved = traffic.step_mobility(pop, topo, DT, cfg.traffic)
            if moved.size:
                rx[moved] = radio.received_power_matrix(
                    pop.pos[moved], topo,
                    obstruction_enabled=cfg.obstruction_enabled,
                    street=pop.street_index[moved], arc=pop.arc_pos[moved])
        if s % pri == 0:
            obs = build_observation(traj, s, topo.cell_bandwidth, n_ues,
                                    cfg.history_k)
            chosen = controller(obs, s // pri)
            if len(chosen) != n_seeds:
                raise ValueError(f"controller returned {len(chosen)} parameter "
                                 f"sets for {n_seeds} seeds")
            applied = []
            for i, choice in enumerate(chosen):
                p, clamped = reselect.clamp_params(choice)
                updates[i].append(UpdateRecord(s // pri, s, p, clamped))
                applied.append(p)
            params = (applied[0] if n_seeds == 1
                      else reselect.param_columns(applied, n_ues))
        traffic.step_modes(pop, t, DT, cfg.traffic)

        idle = pop.mode == traffic.IDLE
        event = reselect.step_ues(pop.serving, rx, idle, topo.cell_priority,
                                  topo.cell_frequency, params, id_rank)
        # recoveries and reselections count; camp-on at t=0 and outages do not
        resel = (event >= 0) & (event != reselect.OUTAGE)

        # ACTIVE UEs per (seed, serving cell), in UE-id order within each cell
        scheduled = np.flatnonzero(~idle & (pop.serving >= 0))
        slots = slot_base[scheduled] + pop.serving[scheduled]
        order = np.argsort(slots, kind="stable")
        ids, cells = scheduled[order], pop.serving[scheduled[order]]
        per_cell_active = np.bincount(slots, minlength=n_seeds * n_cells)
        se = radio.spectral_efficiency(rx[ids, cells] - noise_floor[cells], se_table)
        alloc = scheduler.allocate(cell_bw, se, per_cell_active)
        per_cell = alloc.cell_throughput.reshape(n_seeds, n_cells)
        per_cell_active = per_cell_active.reshape(n_seeds, n_cells)
        total, ue_mean = scheduler.network_throughput(
            per_cell, per_cell_active.sum(axis=1))
        idle_count = idle.reshape(n_seeds, n_ues).sum(axis=1)
        traj.time[:, s] = t
        traj.total_tput[:, s] = total
        traj.per_cell_tput[:, s] = per_cell
        traj.per_cell_avail_bw[:, s] = alloc.available_bw.reshape(n_seeds, n_cells)
        traj.per_cell_active[:, s] = per_cell_active
        traj.active_count[:, s] = n_ues - idle_count
        traj.idle_count[:, s] = idle_count
        traj.per_ue_mean_tput[:, s] = ue_mean
        traj.reselection_events[:, s] = (resel.reshape(n_seeds, n_ues).sum(axis=1)
                                         if s > 0 else 0)

    return [EpisodeResult(traj.seed(i), updates[i]) for i in range(n_seeds)]


# ---------------------------------------------------------------------------
# Heuristic reference cache
# ---------------------------------------------------------------------------

def cache_dir(override: str | os.PathLike | None = None) -> Path:
    """`override`, else $CELLPILOT_CACHE, else the default; an empty
    string counts as unset in either place."""
    if override:
        return Path(override)
    return Path(os.environ.get(CACHE_ENV_VAR) or DEFAULT_CACHE_DIR).expanduser()


def reference_fingerprint(cfg: EpisodeConfig, params: ReselectionParams) -> str:
    """Everything that shapes a constant-parameter trajectory (PRI excluded:
    with a constant controller it cannot change the dynamics)."""
    se = radio.default_se_table()
    doc = {
        "sim_version": SIM_VERSION,
        "topology": cfg.topology.fingerprint,
        "episode_seed": cfg.episode_seed,
        "n_ues": cfg.n_ues,
        "length": float(cfg.length),
        "dt": DT,
        "obstruction": cfg.obstruction_enabled,
        "traffic": [cfg.traffic.lambda_idle, cfg.traffic.lambda_active,
                    cfg.traffic.mobility_enabled, cfg.traffic.speed_kmh,
                    cfg.traffic.speed_spread, cfg.traffic.building_weight],
        "se_table": hashlib.sha256(np.ascontiguousarray(se[0]).tobytes()
                                   + np.ascontiguousarray(se[1]).tobytes()).hexdigest(),
        "params": list(params.to_vector()) + [reselect.T_RESEL, reselect.S_INTRA,
                                              reselect.S_INTER],
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def run_heuristic_reference(cfg: EpisodeConfig, params: ReselectionParams,
                            cache: str | os.PathLike | None = None) -> Trajectory:
    """Constant-parameter episode trajectory, cached on disk by fingerprint.
    A cache hit and a fill return the same `Trajectory`. A fill runs under
    a `ConstantController`, so as one control interval, whatever `cfg.pri`.

    Its prefix does not depend on the configured length (per-UE streams are
    consumed identically), so callers cache one run at the longest length
    they need and cut it (`trainer._reference`).
    """
    fp = reference_fingerprint(cfg, params)
    cdir = cache_dir(cache)
    path = cdir / f"ref_{fp}.bin"
    if path.exists():
        try:
            _, arrays = load_container(path)
            return Trajectory(**arrays)
        except Exception as exc:
            raise SimError(f"corrupt reference cache {path}: {exc}") from exc
    traj = run_episode(cfg, constant_controller(params)).steps
    try:
        cdir.mkdir(parents=True, exist_ok=True)
        # "preset" is always empty; it stays so fills keep their bytes
        meta = {"fingerprint": fp, "n_ues": cfg.n_ues, "preset": "",
                "length": float(cfg.length)}
        save_container(path, meta, vars(traj))
    except OSError as exc:
        raise SimError(f"cannot write reference cache {path}: {exc}") from exc
    return traj


# ---------------------------------------------------------------------------
# CSV dumps
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def write_trajectory_csv(result: EpisodeResult, path, cell_ids: list[str]) -> None:
    """Per-step trajectory; one wide row per step, the per-cell columns in
    the order of `cell_ids` (every caller gives the topology's order)."""
    cols = ["step", "time", "total_tput", "per_ue_mean_tput", "active",
            "idle", "reselections"]
    cols += [f"tput_{cid}" for cid in cell_ids]
    cols += [f"avail_bw_{cid}" for cid in cell_ids]
    cols += [f"active_{cid}" for cid in cell_ids]
    lines = [",".join(cols)]
    tr = result.steps
    for i in range(len(tr)):
        row = [str(i), _fmt(tr.time[i]), _fmt(tr.total_tput[i]),
               _fmt(tr.per_ue_mean_tput[i]), str(int(tr.active_count[i])),
               str(int(tr.idle_count[i])), str(int(tr.reselection_events[i]))]
        row += [_fmt(v) for v in tr.per_cell_tput[i]]
        row += [_fmt(v) for v in tr.per_cell_avail_bw[i]]
        row += [str(int(v)) for v in tr.per_cell_active[i]]
        lines.append(",".join(row))
    write_atomic(path, [("\n".join(lines) + "\n").encode()])
