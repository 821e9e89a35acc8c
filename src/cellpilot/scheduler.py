"""Per-cell bandwidth allocation and network throughput aggregation.

Without rate caps every ACTIVE UE on a cell gets an equal bandwidth
share. With caps the allocator runs resource-fair water-filling: UEs
whose cap needs less than the current fair share are pinned to exactly
their cap's bandwidth and the surplus is re-split equally among the
rest, iterated to a fixpoint.

One :func:`allocate` call serves many cells: the UEs of each cell form a
contiguous segment, and per-cell sums are slice sums with the same
pairwise summation a cell's own ``.sum()`` uses, so every figure is
bit-identical to allocating the cells one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Allocation:
    bandwidth: np.ndarray        # Hz per UE, in the order of `se`
    throughput: np.ndarray       # bit/s per UE
    cell_throughput: np.ndarray  # bit/s per cell, (K,)
    available_bw: np.ndarray     # Hz left unallocated per cell, (K,)


def segment_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sums over the consecutive segments of the last axis of `values`
    whose lengths are `counts` (K,); shape (..., K), 0 for an empty segment.

    Each sum is a slice's ``.sum()``, equal bit for bit to the segment's own
    ``.sum()``: numpy sums a run of contiguous elements pairwise, the same
    way wherever it starts. ``np.add.reduceat``, ``np.bincount`` and a sum
    along an axis whose elements are not adjacent in memory add in another
    order.
    """
    counts = np.asarray(counts)
    ends = np.cumsum(counts)
    out = np.zeros(values.shape[:-1] + counts.shape)
    for k, (a, b) in enumerate(zip((ends - counts).tolist(), ends.tolist())):
        if b > a:
            out[..., k] = values[..., a:b].sum(axis=-1)
    return out


def _water_fill(cell_bw: float, se: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Bandwidth per UE of one cell under rate caps."""
    n = len(se)
    # bandwidth each UE needs to reach its cap; se=0 can never cap
    with np.errstate(divide="ignore"):
        need = np.where(se > 0.0, caps / np.where(se > 0.0, se, 1.0), np.inf)
    bw = np.zeros(n)
    free = np.ones(n, dtype=bool)
    budget = float(cell_bw)
    while True:
        share = budget / free.sum()
        newly = free & (need < share)
        if not newly.any():
            bw[free] = share
            break
        bw[newly] = need[newly]
        budget -= float(need[newly].sum())
        free &= ~newly
        if not free.any():
            break
    return bw


def allocate(cell_bw, se: np.ndarray, counts: np.ndarray,
             rate_caps: np.ndarray | None = None) -> Allocation:
    """Allocate each cell's bandwidth among its ACTIVE UEs with the given
    spectral efficiencies; throughput_ue = bandwidth_ue * se_ue always.

    `counts` (K,) gives each cell's UE count, `se` lists the UEs cell by
    cell, and `cell_bw` is (K,). Water-filling under `rate_caps` runs one
    cell at a time.
    """
    se = np.asarray(se, dtype=float)
    cell_bw = np.asarray(cell_bw, dtype=float)
    if rate_caps is None:
        bw = np.repeat(cell_bw / np.maximum(counts, 1), counts)
    else:
        caps = np.asarray(rate_caps, dtype=float)
        ends = np.cumsum(counts)
        bw = np.concatenate([np.zeros(0)] + [
            _water_fill(b, se[e - n:e], caps[e - n:e])
            for b, n, e in zip(cell_bw.tolist(), counts.tolist(), ends.tolist())
            if n])
    tput = bw * se
    cell_tput, used = segment_sums(np.stack([tput, bw]), counts)
    return Allocation(bw, tput, cell_tput, cell_bw - used)


def network_throughput(per_cell: np.ndarray, n_active
                       ) -> tuple[np.ndarray, np.ndarray]:
    """(total, per_ue_mean) from per-cell throughputs (..., C) and the
    scheduled ACTIVE UE counts (...).

    per_ue_mean averages over ACTIVE UEs only and is 0 when none are active.
    """
    per_cell = np.asarray(per_cell, dtype=float)
    total = per_cell.sum(axis=-1)
    n_active = np.asarray(n_active)
    per_ue_mean = np.where(n_active > 0, total / np.maximum(n_active, 1), 0.0)
    return total, per_ue_mean
