"""UE population dynamics: IDLE/ACTIVE Poisson mode switching and optional
street-constrained mobility.

Every UE owns an independent RNG stream, exactly the one numpy's
SeedSequence([episode_seed, ue_index]) seeds, so populations are
reproducible and invariant to iteration order. The seed words of all UEs
of a batch of episodes come from one array pass of SeedSequence's hash per
seed word count, not from one SeedSequence object per UE. The per-UE draw
order at init is fixed: placement, speed, travel direction, initial mode,
then one block of 1 + DWELL_BUFFER standard exponentials, the first dwell
and a full buffer of later ones. A UE hands out its later dwells from that
buffer and refills it from its stream when it runs out: a block draw
continues the stream exactly as single draws would, and
``scale * standard_exponential`` is what ``exponential(scale)`` computes,
so the dwells are unchanged.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .topology import Topology, sample_placement, street_points_at

IDLE, ACTIVE = 0, 1
DWELL_BUFFER = 16   # dwell draws a UE takes from its stream at a time

# SeedSequence's hash (numpy.random.bit_generator, after M. E. O'Neill's
# seed_seq_fe): its uint32 constants and pool size
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875   # pool mixing
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED   # state generation
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


@dataclass
class TrafficConfig:
    lambda_idle: float = 0.2      # 1/s, rate of leaving IDLE (mean dwell 5 s)
    lambda_active: float = 0.2    # 1/s, rate of leaving ACTIVE
    mobility_enabled: bool = False
    speed_kmh: float = 30.0       # mean street speed
    speed_spread: float = 0.2     # per-UE uniform spread, +/- fraction of mean
    building_weight: float = 0.5  # probability a UE is placed indoors

    def validate(self) -> None:
        """Each check is written so that NaN fails it."""
        if not (0.0 < self.lambda_idle < math.inf and 0.0 < self.lambda_active < math.inf):
            raise ValueError("traffic rates must be finite and > 0")
        if not 0.0 <= self.speed_kmh < math.inf:
            raise ValueError(f"speed_kmh must be finite and >= 0, got {self.speed_kmh}")
        if not 0.0 <= self.speed_spread <= 1.0:
            raise ValueError(f"speed_spread must be in [0, 1], got {self.speed_spread}")
        if not (0.0 <= self.building_weight <= 1.0):
            raise ValueError("building_weight must be in [0, 1]")


@dataclass(eq=False)
class Population:
    """The UE population, one array per field; row i is UE i."""
    pos: np.ndarray               # (N, 2) position
    street_index: np.ndarray      # (N,) int; the UE's street, -1 indoors
    arc_pos: np.ndarray           # (N,) arc length along the street polyline
    direction: np.ndarray         # (N,) int, +1/-1 along the polyline
    speed_mps: np.ndarray         # (N,)
    mode: np.ndarray              # (N,) int, IDLE | ACTIVE
    next_switch_time: np.ndarray  # (N,) absolute sim time of the next mode flip
    serving: np.ndarray           # (N,) int camped cell index, -1 = out of service
    # UE i's stream, exactly the one SeedSequence([episode_seed, i]) seeds;
    # the seed words of all N come from one array pass (_seed_words)
    rngs: list[np.random.Generator]
    dwell_draws: np.ndarray       # (N, DWELL_BUFFER) standard exponentials drawn ahead
    dwell_next: np.ndarray        # (N,) int, next unused column: 0 = full (as at
                                  # init), DWELL_BUFFER = empty

    def __len__(self) -> int:
        return len(self.mode)


def _dwell_scale(cfg: TrafficConfig) -> np.ndarray:
    """Mean dwell 1/rate, indexed by mode."""
    return 1.0 / np.array([cfg.lambda_idle, cfg.lambda_active])


def _hash_consts(init: int, mult: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiply constants of k successive hash steps, as (k, 1)
    columns: each step multiplies the running constant by `mult`."""
    c = [init]
    for _ in range(k):
        c.append(c[-1] * mult & _MASK32)
    c = np.array(c, dtype=np.uint64)[:, None]
    return c[:-1], c[1:]


def _hash(v: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """Hash steps, one per row: xor, multiply (mod 2**32), xorshift."""
    v = (v ^ xor) * mul & _MASK32
    return v ^ (v >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mixes hashed words y into pool words x."""
    v = (_MIX_L * x - _MIX_R * y) & _MASK32   # a uint64 wrap is 0 mod 2**32
    return v ^ (v >> 16)


def _seed_words(seeds: list[int], n: int) -> np.ndarray:
    """(len(seeds) * n, 4) uint64 whose row j * n + i equals
    SeedSequence([seeds[j], i]).generate_state(4, np.uint64), the words PCG64
    seeds from, for all rows in one hash pass per 32-bit word count among
    the seeds. The uint32 arithmetic runs in uint64 arrays masked to 32
    bits, one row per pool word and one column per (seed, i); the pool
    words a step updates depend only on words it leaves alone, so each is
    one op."""
    seeds = [operator.index(s) for s in seeds]
    for seed in seeds:
        if seed < 0:
            raise ValueError(f"episode_seed must be >= 0, got {seed}")
    # rows contiguous, as PCG64 reads them from memory
    out = np.empty((len(seeds), n, 4), dtype=np.uint64)
    groups: dict[int, list[int]] = {}
    for j, seed in enumerate(seeds):
        groups.setdefault(len(range(0, max(seed.bit_length(), 1), 32)), []).append(j)
    for n_words, members in groups.items():
        # entropy words as SeedSequence lays them out: the seed's 32-bit
        # words, low first (one word for 0), then i's (a single word, as
        # n < 2**32), then zeros up to the pool size
        words = np.array([[seeds[j] >> b & _MASK32 for b in range(0, 32 * n_words, 32)]
                          for j in members], dtype=np.uint64)
        entropy = np.zeros((max(n_words + 1, _POOL), len(members), n), dtype=np.uint64)
        entropy[:n_words] = words.T[:, :, None]
        entropy[n_words] = np.arange(n)
        state = _seed_state(entropy.reshape(len(entropy), -1), n_words)
        out[members] = state.reshape(len(members), n, 4)
    return out.reshape(-1, 4)


def _seed_state(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """SeedSequence's hash of each column of `entropy` (rows: the entropy
    words, `n_words` of the seed then i's, zero-padded to the pool size) to
    its 4 uint64 state words, one row per column."""
    extra = entropy[_POOL:n_words + 1]
    xor, mul = _hash_consts(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * len(extra))
    pool = _hash(entropy[:_POOL], xor[:_POOL], mul[:_POOL])
    k = _POOL
    for src in range(_POOL):   # mix every pool word into every other
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], xor[k:k + 3], mul[k:k + 3]))
        k += 3
    for word in extra:         # then each entropy word past the pool into all
        pool = _mix(pool, _hash(word, xor[k:k + _POOL], mul[k:k + _POOL]))
        k += _POOL
    xor, mul = _hash_consts(_INIT_B, _MULT_B, 8)
    state = _hash(np.concatenate([pool, pool]), xor, mul)   # the pool, cycled
    # little-endian pairs, one row per column
    return (state[0::2] | (state[1::2] << 32)).T


@ISeedSequence.register
class _SeedWords:
    """Hands PCG64 one row of `_seed_words` as its seed state."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if (n_words, dtype) != (4, np.uint64):
            raise ValueError("only PCG64's 4 uint64 words are precomputed")
        return self.words


def init_population(n: int, topo: Topology, seeds: list[int],
                    cfg: TrafficConfig) -> Population:
    """n UEs per seed in `seeds`, seed by seed on the UE axis; UE j of seed s
    draws its placement, speed, mode, first switch time and full dwell buffer
    from the stream SeedSequence([s, j]) seeds, whatever the other seeds.
    One :func:`street_points_at` call places the street UEs."""
    if n <= 0:
        raise ValueError("population size must be > 0")
    cfg.validate()
    words = _seed_words(seeds, n)
    total = len(words)
    indoor_pos, street_index, arc_pos = [], [], []
    direction, speed_mps, mode, rngs = [], [], [], []
    draws = np.empty((total, 1 + DWELL_BUFFER))
    for i in range(total):
        rng = np.random.Generator(np.random.PCG64(_SeedWords(words[i])))
        placement = sample_placement(topo, rng, cfg.building_weight)
        speed = cfg.speed_kmh * (1.0 + cfg.speed_spread * (2.0 * rng.random() - 1.0))
        direction.append(1 if rng.random() < 0.5 else -1)
        mode.append(ACTIVE if rng.random() < 0.5 else IDLE)
        rng.standard_exponential(out=draws[i])
        if placement.point is not None:
            indoor_pos.append(placement.point)
        street_index.append(placement.street_index)
        arc_pos.append(placement.arc_pos)
        speed_mps.append(speed / 3.6)
        rngs.append(rng)
    street_index = np.array(street_index, dtype=int)
    arc_pos = np.array(arc_pos, dtype=float)
    street = street_index >= 0
    pos = np.empty((total, 2))
    pos[~street] = np.array(indoor_pos, dtype=float).reshape(-1, 2)
    pos[street] = street_points_at(topo, street_index[street], arc_pos[street])
    mode = np.array(mode, dtype=int)
    return Population(pos, street_index, arc_pos, np.array(direction, dtype=int),
                      np.array(speed_mps, dtype=float), mode,
                      _dwell_scale(cfg)[mode] * draws[:, 0], np.full(total, -1), rngs,
                      draws[:, 1:].copy(), np.zeros(total, dtype=int))


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
    due. Reselection keeps no per-UE state across steps (T_RESEL is one
    step), so a flip resets nothing.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    horizon = t + dt
    scale = _dwell_scale(cfg)
    flips = 0
    ues = np.flatnonzero(pop.next_switch_time <= horizon)
    while ues.size:
        mode = 1 - pop.mode[ues]   # IDLE <-> ACTIVE
        pop.mode[ues] = mode
        nxt = pop.next_switch_time[ues] + scale[mode] * _next_dwell_draws(pop, ues)
        pop.next_switch_time[ues] = nxt
        flips += ues.size
        ues = ues[nxt <= horizon]
    return flips


def step_mobility(pop: Population, topo: Topology, dt: float,
                  cfg: TrafficConfig) -> np.ndarray:
    """Advance street UEs along their polyline by speed*dt, reflecting at
    the ends; indoor UEs do not move. Returns the indices of the UEs it
    moved, an int array (empty when mobility is off).

    An arc more than one reflection away, outside [-L, 2L] for a street of
    length L, is first reduced as the reflections would reduce it: mirrored
    at 0 if negative, then cut by whole periods 2L (two reflections each)
    into (0, 2L]. So every step ends after at most one more reflection,
    whatever the speed."""
    if not cfg.mobility_enabled:
        return np.empty(0, dtype=np.intp)
    moved = np.flatnonzero(pop.street_index >= 0)
    k = pop.street_index[moved]
    total = topo.street_lengths[k]
    direction = pop.direction[moved]
    arc = pop.arc_pos[moved] + direction * pop.speed_mps[moved] * dt
    far = (arc < -total) | (arc > 2.0 * total)
    if far.any():
        direction = np.where(far & (arc < 0.0), -direction, direction)
        period = 2.0 * total[far]
        rest = np.mod(np.abs(arc[far]), period)
        arc[far] = np.where(rest == 0.0, period, rest)
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
    return moved
