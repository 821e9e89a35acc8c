"""UE population dynamics: IDLE/ACTIVE Poisson mode switching and optional
street-constrained mobility.

Every UE owns an independent RNG stream derived from
SeedSequence([episode_seed, ue_index]), so populations are reproducible
and invariant to iteration order. The per-UE draw order at init is fixed:
placement, speed, travel direction, initial mode, first dwell. After init
a UE's stream serves only its later dwells, which it hands out from a small
buffer of pre-drawn standard exponentials: a block draw continues the
stream exactly as single draws would, and ``scale * standard_exponential``
is what ``exponential(scale)`` computes, so the dwells are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .topology import Topology, sample_placement, street_points_at

IDLE, ACTIVE = 0, 1
DWELL_BUFFER = 16   # dwell draws a UE takes from its stream at a time


@dataclass
class TrafficConfig:
    lambda_idle: float = 0.2      # 1/s, rate of leaving IDLE (mean dwell 5 s)
    lambda_active: float = 0.2    # 1/s, rate of leaving ACTIVE
    mobility_enabled: bool = False
    speed_kmh: float = 30.0       # mean street speed
    speed_spread: float = 0.2     # per-UE uniform spread, +/- fraction of mean
    building_weight: float = 0.5  # probability a UE is placed indoors

    def validate(self) -> None:
        if self.lambda_idle <= 0 or self.lambda_active <= 0:
            raise ValueError("traffic rates must be > 0")
        if not (0.0 <= self.building_weight <= 1.0):
            raise ValueError("building_weight must be in [0, 1]")


@dataclass(eq=False)
class Population:
    """The UE population, one array per field; row i is UE i."""
    pos: np.ndarray               # (N, 2) position
    indoor: np.ndarray            # (N,) bool
    street_index: np.ndarray      # (N,) int; valid for street UEs, else -1
    arc_pos: np.ndarray           # (N,) arc length along the street polyline
    direction: np.ndarray         # (N,) int, +1/-1 along the polyline
    speed_mps: np.ndarray         # (N,)
    mode: np.ndarray              # (N,) int, IDLE | ACTIVE
    next_switch_time: np.ndarray  # (N,) absolute sim time of the next mode flip
    serving: np.ndarray           # (N,) int camped cell index, -1 = out of service
    timers: np.ndarray            # (N, 3, C) reselection dwell timers
    rngs: list[np.random.Generator]   # UE i's stream, SeedSequence([episode_seed, i])
    dwell_draws: np.ndarray       # (N, DWELL_BUFFER) standard exponentials drawn ahead
    dwell_next: np.ndarray        # (N,) int, next unused column; DWELL_BUFFER = empty

    def __len__(self) -> int:
        return len(self.mode)

    @classmethod
    def stack(cls, pops: list["Population"]) -> "Population":
        """One population whose rows are those of `pops`, in order."""
        if len(pops) == 1:
            return pops[0]
        return cls(**{f.name: ([rng for p in pops for rng in p.rngs]
                               if f.name == "rngs" else
                               np.concatenate([getattr(p, f.name) for p in pops]))
                      for f in fields(cls)})


def _dwell_rate(mode: int, cfg: TrafficConfig) -> float:
    return cfg.lambda_idle if mode == IDLE else cfg.lambda_active


def init_population(n: int, topo: Topology, episode_seed: int,
                    cfg: TrafficConfig) -> Population:
    """n UEs with positions, speeds, modes, and first switch times drawn
    from their own streams; bit-identical for the same episode_seed."""
    if n <= 0:
        raise ValueError("population size must be > 0")
    cfg.validate()
    pos, indoor, street_index, arc_pos = [], [], [], []
    direction, speed_mps, mode, next_switch_time, rngs = [], [], [], [], []
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence([episode_seed, i]))
        placement = sample_placement(topo, rng, cfg.building_weight)
        speed = cfg.speed_kmh * (1.0 + cfg.speed_spread * (2.0 * rng.random() - 1.0))
        direction.append(1 if rng.random() < 0.5 else -1)
        m = ACTIVE if rng.random() < 0.5 else IDLE
        mode.append(m)
        next_switch_time.append(rng.exponential(1.0 / _dwell_rate(m, cfg)))
        pos.append(placement.point)
        indoor.append(placement.indoor)
        street_index.append(placement.street_index)
        arc_pos.append(placement.arc_pos)
        speed_mps.append(speed / 3.6)
        rngs.append(rng)
    return Population(np.array(pos, dtype=float).reshape(n, 2),
                      np.array(indoor, dtype=bool), np.array(street_index, dtype=int),
                      np.array(arc_pos, dtype=float), np.array(direction, dtype=int),
                      np.array(speed_mps, dtype=float), np.array(mode, dtype=int),
                      np.array(next_switch_time, dtype=float), np.full(n, -1),
                      np.zeros((n, 3, topo.n_cells)), rngs,
                      np.empty((n, DWELL_BUFFER)), np.full(n, DWELL_BUFFER))


def _next_dwell_draws(pop: Population, ues: np.ndarray) -> np.ndarray:
    """The next standard exponential of each UE in `ues` (distinct indices),
    refilling a UE's buffer from its own stream when it has run out."""
    col = pop.dwell_next[ues]
    empty = col == DWELL_BUFFER
    for i in ues[empty].tolist():
        pop.dwell_draws[i] = pop.rngs[i].standard_exponential(DWELL_BUFFER)
    col[empty] = 0
    pop.dwell_next[ues] = col + 1
    return pop.dwell_draws[ues, col]


def step_modes(pop: Population, t: float, dt: float, cfg: TrafficConfig) -> int:
    """Process every mode-switch event in (t, t+dt]; returns the flip count.

    A UE may flip more than once inside one window (each flip draws the
    next dwell from the UE's own stream); each round flips every UE still
    due. Any flip invalidates the UE's reselection dwell timers.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    horizon = t + dt
    scale = 1.0 / np.array([cfg.lambda_idle, cfg.lambda_active])   # by mode
    due = np.flatnonzero(pop.next_switch_time <= horizon)
    flips = 0
    ues = due
    while ues.size:
        mode = 1 - pop.mode[ues]   # IDLE <-> ACTIVE
        pop.mode[ues] = mode
        nxt = pop.next_switch_time[ues] + scale[mode] * _next_dwell_draws(pop, ues)
        pop.next_switch_time[ues] = nxt
        flips += ues.size
        ues = ues[nxt <= horizon]
    pop.timers[due] = 0.0
    return flips


def step_mobility(pop: Population, topo: Topology, dt: float,
                  cfg: TrafficConfig) -> list[int]:
    """Advance street UEs along their polyline by speed*dt, reflecting at
    the ends; indoor UEs do not move. Returns the indices of the UEs it
    moved (none when mobility is off)."""
    if not cfg.mobility_enabled:
        return []
    moved = np.flatnonzero(~pop.indoor & (pop.street_index >= 0))
    k = pop.street_index[moved]
    total = topo.street_lengths[k]
    direction = pop.direction[moved]
    arc = pop.arc_pos[moved] + direction * pop.speed_mps[moved] * dt
    while True:
        low, high = arc < 0.0, arc > total
        bounce = low | high
        if not bounce.any():
            break
        arc = np.where(low, -arc, np.where(high, 2.0 * total - arc, arc))
        direction = np.where(bounce, -direction, direction)
    pop.arc_pos[moved] = arc
    pop.direction[moved] = direction
    pop.pos[moved] = street_points_at(topo, k, arc)
    return moved.tolist()
