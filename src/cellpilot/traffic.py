"""UE population dynamics: IDLE/ACTIVE Poisson mode switching and optional
street-constrained mobility.

Every UE owns an independent RNG stream derived from
SeedSequence([episode_seed, ue_index]), so populations are reproducible
and invariant to iteration order. The per-UE draw order at init is fixed:
placement, speed, travel direction, initial mode, first dwell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import reselect
from .topology import Topology, polyline_point_at, sample_placement

IDLE, ACTIVE = 0, 1
MODE_NAMES = ("IDLE", "ACTIVE")


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

    @property
    def mean_dwell_s(self) -> float:
        """Mean state dwell time across the two modes."""
        return 0.5 * (1.0 / self.lambda_idle + 1.0 / self.lambda_active)


@dataclass
class UeState:
    id: int
    position: tuple[float, float]
    indoor: bool
    mode: int                     # IDLE | ACTIVE
    next_switch_time: float       # absolute sim time of the next mode flip
    rng: np.random.Generator
    speed_mps: float
    street_index: int = -1        # valid for street UEs
    arc_pos: float = 0.0          # arc length along the street polyline
    direction: int = 1            # +1/-1 along the polyline
    serving: int | None = None    # camped cell index
    timers: np.ndarray = field(default_factory=lambda: np.zeros((3, 0)))


def _dwell_rate(mode: int, cfg: TrafficConfig) -> float:
    return cfg.lambda_idle if mode == IDLE else cfg.lambda_active


def init_population(n: int, topo: Topology, episode_seed: int,
                    cfg: TrafficConfig) -> list[UeState]:
    """n UEs with positions, speeds, modes, and first switch times drawn
    from their own streams; bit-identical for the same episode_seed."""
    if n <= 0:
        raise ValueError("population size must be > 0")
    cfg.validate()
    ues = []
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence([episode_seed, i]))
        placement = sample_placement(topo, rng, cfg.building_weight)
        speed = cfg.speed_kmh * (1.0 + cfg.speed_spread * (2.0 * rng.random() - 1.0))
        direction = 1 if rng.random() < 0.5 else -1
        mode = ACTIVE if rng.random() < 0.5 else IDLE
        dwell = rng.exponential(1.0 / _dwell_rate(mode, cfg))
        ues.append(
            UeState(
                id=i,
                position=placement.point,
                indoor=placement.indoor,
                mode=mode,
                next_switch_time=dwell,
                rng=rng,
                speed_mps=speed / 3.6,
                street_index=placement.street_index,
                arc_pos=placement.arc_pos,
                direction=direction,
                timers=reselect.new_timers(topo.n_cells),
            )
        )
    return ues


def step_modes(ues: list[UeState], t: float, dt: float, cfg: TrafficConfig) -> int:
    """Process every mode-switch event in (t, t+dt]; returns the flip count.

    A UE may flip more than once inside one window (each flip draws the
    next dwell from the UE's own stream). Any flip invalidates the UE's
    reselection dwell timers.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    flips = 0
    horizon = t + dt
    for ue in ues:
        flipped = False
        while ue.next_switch_time <= horizon:
            ue.mode = ACTIVE if ue.mode == IDLE else IDLE
            ue.next_switch_time += ue.rng.exponential(1.0 / _dwell_rate(ue.mode, cfg))
            flips += 1
            flipped = True
        if flipped:
            ue.timers[:] = 0.0
    return flips


def step_mobility(ues: list[UeState], topo: Topology, dt: float,
                  cfg: TrafficConfig) -> list[int]:
    """Advance street UEs along their polyline by speed*dt, reflecting at
    the ends; indoor UEs do not move. Returns the indices of the UEs it
    moved (none when mobility is off)."""
    if not cfg.mobility_enabled:
        return []
    moved = []
    for i, ue in enumerate(ues):
        if ue.indoor or ue.street_index < 0:
            continue
        k = ue.street_index
        total = float(topo.street_lengths[k])
        pos = ue.arc_pos + ue.direction * ue.speed_mps * dt
        while pos < 0.0 or pos > total:
            if pos < 0.0:
                pos = -pos
                ue.direction = -ue.direction
            else:
                pos = 2.0 * total - pos
                ue.direction = -ue.direction
        ue.arc_pos = pos
        ue.position = polyline_point_at(topo.streets[k], pos,
                                        topo.street_segment_lengths[k])
        moved.append(i)
    return moved
