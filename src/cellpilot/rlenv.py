"""Simulator <-> learner bridge: history-stacked scale-invariant
observations, the [0,1] action <-> physical-parameter maps, per-seed
per-interval moving-average baselines, and the composite reward.

All reward terms are ratios against the baseline table, so an agent that
exactly reproduces its baseline trajectory earns exactly zero at every
interval, and rescaling bandwidths/throughputs leaves rewards unchanged
once baselines are regenerated under the same scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .reselect import PARAM_ORDER, PARAM_RANGES, ReselectionParams

EPS_SIGMA = 1.0      # bit/s guard for the balance ratio
REWARD_CLIP = 1.0    # per-component clip; see compute_reward
BASELINE_ARRAYS = ("bl_seeds", "bl_fill", "bl_vals")  # BaselineTable state


class RlenvError(Exception):
    pass


# ---------------------------------------------------------------------------
# Observation
# ---------------------------------------------------------------------------

def observation_dim(n_cells: int, k: int) -> int:
    return k * (2 * n_cells + 5)


def build_observation(traj, step: int, cell_bw: np.ndarray, n_ues: int,
                      k: int) -> np.ndarray:
    """Stack the k trajectory rows before `step`, oldest first, zero-padded
    at episode start. Per frame: per-cell [avail_bw ratio, active ratio]
    pairs, then five global summaries (mean/std of each ratio, idle ratio).

    A trajectory with a leading seed axis, (S, T, ...), gives one
    observation row per seed, (S, k * (2C + 5)).
    """
    if k < 1:
        raise RlenvError("history length k must be >= 1")
    cell_bw = np.asarray(cell_bw, dtype=float)
    n_cells = len(cell_bw)
    lo = max(step - k, 0)
    avail = traj.per_cell_avail_bw[..., lo:step, :] / cell_bw
    active = traj.per_cell_active[..., lo:step, :] / n_ues
    lead = avail.shape[:-2]
    out = np.zeros(lead + (k, 2 * n_cells + 5))
    f = out[..., k - (step - lo):, :]
    f[..., 0:2 * n_cells:2] = avail
    f[..., 1:2 * n_cells:2] = active
    f[..., 2 * n_cells + 0] = avail.mean(axis=-1)
    f[..., 2 * n_cells + 1] = avail.std(axis=-1)
    f[..., 2 * n_cells + 2] = active.mean(axis=-1)
    f[..., 2 * n_cells + 3] = active.std(axis=-1)
    f[..., 2 * n_cells + 4] = traj.idle_count[..., lo:step] / n_ues
    return out.reshape(lead + (-1,))


# ---------------------------------------------------------------------------
# Action mapping
# ---------------------------------------------------------------------------

def map_action(action) -> ReselectionParams:
    """The six action values, clipped to [0,1], linearly mapped to the
    physical parameter ranges in canonical order."""
    u = np.clip(np.asarray(action, dtype=float), 0.0, 1.0)
    vals = []
    for ui, name in zip(u, PARAM_ORDER):
        lo, hi = PARAM_RANGES[name]
        vals.append(lo + ui * (hi - lo))
    return ReselectionParams.from_vector(vals)


def normalize_params(params: ReselectionParams) -> np.ndarray:
    """Inverse of map_action on the six tunables; values in [0,1]."""
    out = np.empty(6)
    for i, name in enumerate(PARAM_ORDER):
        lo, hi = PARAM_RANGES[name]
        out[i] = (getattr(params, name) - lo) / (hi - lo)
    return out


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntervalAggregate:
    """Reward inputs for one update interval (means over its steps)."""
    interval: int
    tput: float        # mean network throughput, bit/s
    sigma: float       # mean per-step population std of per-cell throughput
    ue: float          # mean per-step per-UE mean throughput
    avg_active: float  # mean ACTIVE count


def interval_aggregates(traj, pri: int) -> list[IntervalAggregate]:
    """Group a trajectory into PRI-sized intervals (last may be short)."""
    n = len(traj)
    full = n - n % pri

    def means(x):
        m = x[:full].reshape(-1, pri).mean(axis=1).tolist()
        return m + [float(x[full:].mean())] if full < n else m

    return [IntervalAggregate(t, *v) for t, v in enumerate(zip(
        means(traj.total_tput), means(traj.per_cell_tput.std(axis=1)),
        means(traj.per_ue_mean_tput), means(traj.active_count)))]


@dataclass(eq=False)
class BaselineTable:
    """Per (seed, interval) ring buffers of the last `window` episode values
    for each reward metric; the baseline is the buffer's arithmetic mean.

    The state is the checkpoint's own arrays: `bl_seeds` (S,) sorted,
    `bl_fill` (S, T, 3) the values held per metric (tput, sigma, ue) and
    `bl_vals` (S, T, 3, window) those values, oldest first, zeros past the
    fill. A seed gets its row when first touched, and T grows to the
    longest interval seen.
    """

    window: int = 2
    bl_seeds: np.ndarray | None = None
    bl_fill: np.ndarray | None = None
    bl_vals: np.ndarray | None = None

    def __post_init__(self):
        if self.bl_seeds is None:
            self.bl_seeds = np.zeros(0, dtype=np.int64)
            self.bl_fill = np.zeros((0, 0, 3), dtype=np.int64)
            self.bl_vals = np.zeros((0, 0, 3, self.window))

    def _find(self, seed: int, interval: int) -> int | None:
        """Row of `seed` if its (seed, interval) buffers hold values."""
        i = int(np.searchsorted(self.bl_seeds, seed))
        if (i < len(self.bl_seeds) and self.bl_seeds[i] == seed
                and interval < self.bl_fill.shape[1] and self.bl_fill[i, interval, 0]):
            return i
        return None

    def _row(self, seed: int, aggs: list[IntervalAggregate]) -> int:
        """Row of `seed`, added if new, with T grown to cover `aggs`."""
        i = int(np.searchsorted(self.bl_seeds, seed))
        if i == len(self.bl_seeds) or self.bl_seeds[i] != seed:
            self.bl_seeds = np.insert(self.bl_seeds, i, seed)
            self.bl_fill = np.insert(self.bl_fill, i, 0, axis=0)
            self.bl_vals = np.insert(self.bl_vals, i, 0.0, axis=0)
        grow = max(a.interval for a in aggs) + 1 - self.bl_fill.shape[1]
        if grow > 0:
            self.bl_fill = np.pad(self.bl_fill, ((0, 0), (0, grow), (0, 0)))
            self.bl_vals = np.pad(self.bl_vals, ((0, 0), (0, grow), (0, 0), (0, 0)))
        return i

    def _append(self, i: int, a: IntervalAggregate) -> None:
        ring = self.bl_vals[i, a.interval]                # (3, window) view
        n = int(self.bl_fill[i, a.interval, 0])
        if n == self.window:
            ring[:, :-1] = ring[:, 1:]
            n -= 1
        ring[:, n] = (a.tput, a.sigma, a.ue)
        self.bl_fill[i, a.interval] = n + 1

    def seed_reference(self, seed: int, aggs: list[IntervalAggregate]) -> None:
        """First-touch initialization from a heuristic reference trajectory;
        existing entries are left alone."""
        if aggs:
            i = self._row(seed, aggs)
            for a in aggs:
                if not self.bl_fill[i, a.interval, 0]:
                    self._append(i, a)

    def push(self, seed: int, aggs: list[IntervalAggregate]) -> None:
        if aggs:
            i = self._row(seed, aggs)
            for a in aggs:
                self._append(i, a)

    def means(self, seed: int, interval: int) -> tuple[float, float, float]:
        i = self._find(seed, interval)
        if i is None:
            raise RlenvError(
                f"baseline missing for seed {seed}, interval {interval}; "
                "initialize it from the heuristic reference first")
        vals, fill = self.bl_vals[i, interval], self.bl_fill[i, interval]
        return tuple(float(np.mean(vals[m, :fill[m]])) for m in range(3))


# ---------------------------------------------------------------------------
# Reward
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RewardBreakdown:
    r_tput: float
    r_bal: float
    r_ue_eff: float
    r_total: float


def compute_reward(agg: IntervalAggregate, baselines: BaselineTable, seed: int,
                   weights: tuple[float, float, float],
                   ue_max: int) -> RewardBreakdown:
    """Composite interval reward against the (seed, interval) baselines.

    r_tput = T/B - 1; r_bal = B_sigma/sigma - 1 (both sides floored at
    1 bit/s); r_ue_eff = (ue/B_ue - 1) * min(1, avg_active/ue_max). A zero
    throughput or per-UE baseline silences its term for the interval.

    Each component is clipped into [-REWARD_CLIP, +REWARD_CLIP]. The ratio
    forms are unbounded above, and the balance ratio in particular explodes
    when a parameter excursion drops every cell to zero throughput in one
    step (sigma -> 0 reads as "perfectly balanced"). Clipping keeps a
    blackout interval strictly net-negative while leaving ordinary signal
    (well inside +-1) untouched. `weights` are those of a validated
    ``TrainRunConfig``, which sum to 1.
    """
    w1, w2, w3 = weights
    b_tput, b_sigma, b_ue = baselines.means(seed, agg.interval)
    r_tput = agg.tput / b_tput - 1.0 if b_tput > 0.0 else 0.0
    r_bal = max(b_sigma, EPS_SIGMA) / max(agg.sigma, EPS_SIGMA) - 1.0
    if b_ue > 0.0:
        r_ue = (agg.ue / b_ue - 1.0) * min(1.0, agg.avg_active / ue_max)
    else:
        r_ue = 0.0
    r_tput = float(np.clip(r_tput, -REWARD_CLIP, REWARD_CLIP))
    r_bal = float(np.clip(r_bal, -REWARD_CLIP, REWARD_CLIP))
    r_ue = float(np.clip(r_ue, -REWARD_CLIP, REWARD_CLIP))
    total = w1 * r_tput + w2 * r_bal + w3 * r_ue
    return RewardBreakdown(r_tput, r_bal, r_ue, total)

