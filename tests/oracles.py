"""Independent references and test-only helpers: the one place that decides
what the suite counts as an independent check of the program in
`src/cellpilot`.

Independent references re-derive a result without the kernel code they
check, and import nothing from it but data types and constants:

* :func:`brute_force_oracle` — the reselection protocol in plain Python
  loops with explicit dwell timers (scorecard check 1);
* :func:`reinforce_loss` and :func:`log_prob` — the REINFORCE loss whose
  finite differences the analytic gradient must match (check 2);
* :func:`oracle_water_fill` — water-filling by subset enumeration
  (check 10);
* :func:`wall_crossings` — the wall count of one segment, the reference
  for ``topology.wall_crossings_to_cells``;
* :func:`polyline_point_at` — the walk along one street polyline in Python
  floats, the reference for ``topology.street_points_at``.

Test-only helpers run program code in the shape a check needs and are not
independent of it: :func:`run_traces` and :func:`run_ue_trace` drive
``reselect.step_ues`` over rx traces (what check 1 holds to the oracle),
:func:`placement_point` places a ``topology.sample_placement`` draw with
:func:`polyline_point_at`, and :func:`write_updates_csv` writes an
episode's parameter updates (check 9).

No name with a leading underscore is imported from the program
(``test_imports.py`` checks this).
"""

import math
from itertools import combinations

import numpy as np

from cellpilot.container import write_atomic
from cellpilot.policy import effective_sigma, forward
from cellpilot.reselect import (PARAM_ORDER, S_INTER, S_INTRA, T_RESEL,
                                ReselectionParams, step_ues)

# names of the event codes of `reselect.step_ues`, indexed by code
EVENT_NAMES = ("high", "equal", "low", "select", "outage")
LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Reselection: the kernel runner and the brute-force oracle (check 1)
# ---------------------------------------------------------------------------

def _cell(c) -> int | None:
    return int(c) if c >= 0 else None


def run_traces(rx_traces: np.ndarray, priorities: np.ndarray,
               frequencies: np.ndarray, params: ReselectionParams,
               id_rank: np.ndarray
               ) -> list[list[tuple[int, str, int | None, int | None]]]:
    """Full idle-UE protocol for N UEs over a (T, N, C) rx trace, one
    ``step_ues`` call per step with the cells' id ranks (``cell_id_rank``;
    ``np.arange(C)`` when the ids sort in column order); returns each UE's
    event list.

    Events are (step, kind, from, to) with kind in {select, outage, high,
    equal, low}: `select` when an out-of-service UE acquires a cell (this
    includes step 0), `outage` when the serving cell loses suitability
    (initial selection then re-runs on the next step).
    """
    rx_traces = np.asarray(rx_traces, dtype=float)
    t_steps, n, _ = rx_traces.shape
    serving = np.full(n, -1)
    idle = np.ones(n, dtype=bool)
    events: list[list] = [[] for _ in range(n)]
    for t in range(t_steps):
        before = serving.copy()
        event = step_ues(serving, rx_traces[t], idle, priorities,
                         frequencies, params, id_rank)
        for i in np.flatnonzero(event >= 0):
            events[i].append((t, EVENT_NAMES[event[i]], _cell(before[i]),
                              _cell(serving[i])))
    return events


def run_ue_trace(rx_trace: np.ndarray, priorities: np.ndarray,
                 frequencies: np.ndarray, params: ReselectionParams,
                 id_rank: np.ndarray
                 ) -> list[tuple[int, str, int | None, int | None]]:
    """:func:`run_traces` for one UE over a (T, C) rx trace."""
    rx_trace = np.asarray(rx_trace, dtype=float)
    return run_traces(rx_trace[:, None, :], priorities, frequencies, params,
                      id_rank)[0]


def brute_force_oracle(rx_trace, priorities, frequencies, params: ReselectionParams,
                       dt: float = 1.0, cell_ids: list[str] | None = None
                       ) -> list[tuple[int, str, int | None, int | None]]:
    """Exhaustive per-step re-evaluation of the reselection protocol.

    Same event contract as :func:`run_ue_trace`, computed with explicit
    loops and dict timer bookkeeping. Exists to cross-check the vectorized
    implementation, so it deliberately shares no code with it. Final ties
    go to the smaller cell id string when `cell_ids` is given, else to the
    smaller cell index.
    """
    trace = [[float(v) for v in row] for row in np.asarray(rx_trace, dtype=float)]
    prio = [int(p) for p in priorities]
    freq = [float(f) for f in frequencies]
    n = len(prio)

    def tie(c):
        return cell_ids[c] if cell_ids is not None else c

    timers: dict[tuple[str, int], float] = {}
    serving = None
    events = []
    for t, rx in enumerate(trace):
        if serving is None:
            suitable = [c for c in range(n) if rx[c] - params.q_rxlevmin > 0.0]
            if suitable:
                serving = sorted(suitable,
                                 key=lambda c: (-prio[c], -rx[c], tie(c)))[0]
                events.append((t, "select", None, serving))
            timers.clear()
            continue
        if not (rx[serving] - params.q_rxlevmin > 0.0):
            events.append((t, "outage", serving, None))
            serving = None
            timers.clear()
            continue
        s_lev = rx[serving] - params.q_rxlevmin
        fired: dict[str, list[int]] = {"high": [], "equal": [], "low": []}
        for c in range(n):
            if c == serving:
                ok = {"high": False, "equal": False, "low": False}
            else:
                suit = rx[c] - params.q_rxlevmin > 0.0
                ok = {
                    "high": suit and prio[c] > prio[serving] and rx[c] > params.t_xhigh,
                    "equal": (suit and prio[c] == prio[serving]
                              and rx[c] - params.q_offset > rx[serving] + params.q_hyst),
                    "low": (suit and prio[c] < prio[serving]
                            and s_lev < (S_INTRA if freq[c] == freq[serving]
                                         else S_INTER)
                            and rx[serving] < params.t_slow
                            and rx[c] > params.t_xlow),
                }
            for crit in ("high", "equal", "low"):
                if ok[crit]:
                    elapsed = min(timers.get((crit, c), 0.0) + dt, T_RESEL)
                    timers[(crit, c)] = elapsed
                    if elapsed >= T_RESEL:
                        fired[crit].append(c)
                else:
                    timers.pop((crit, c), None)
        target = crit_name = None
        if fired["high"]:
            target = sorted(fired["high"],
                            key=lambda c: (-prio[c], -rx[c], tie(c)))[0]
            crit_name = "high"
        elif fired["equal"]:
            target = sorted(fired["equal"],
                            key=lambda c: (-(rx[c] - params.q_offset), tie(c)))[0]
            crit_name = "equal"
        elif fired["low"]:
            target = sorted(fired["low"], key=lambda c: (-rx[c], tie(c)))[0]
            crit_name = "low"
        if target is not None:
            events.append((t, crit_name, serving, target))
            serving = target
            timers.clear()
    return events


# ---------------------------------------------------------------------------
# Geometry: the scalar wall count and a point along one polyline
# ---------------------------------------------------------------------------

def wall_crossings(a, b, topo) -> int:
    """Number of building wall crossings of the open segment (a, b).

    Counts edges whose interior the segment crosses transversally, plus
    polygon vertices lying strictly inside the open segment (a vertex hit
    counts once, not once per incident edge). Collinear overlap with an
    edge therefore contributes only through that edge's vertices.
    """
    ax, ay = float(a[0]), float(a[1])
    bx, by = float(b[0]), float(b[1])
    if ax == bx and ay == by:
        raise ValueError("wall_crossings: segment endpoints coincide")
    x1, y1, x2, y2 = topo._wall_edges
    dx, dy = bx - ax, by - ay
    # orientation of each edge endpoint relative to the segment line
    d1 = dx * (y1 - ay) - dy * (x1 - ax)
    d2 = dx * (y2 - ay) - dy * (x2 - ax)
    # orientation of the segment endpoints relative to each edge line
    ex, ey = x2 - x1, y2 - y1
    d3 = ex * (ay - y1) - ey * (ax - x1)
    d4 = ex * (by - y1) - ey * (bx - x1)
    proper = (d1 * d2 < 0) & (d3 * d4 < 0)
    # vertices (the edge start points) exactly on the open segment, each
    # counted once; d1 is their orientation relative to the segment line
    dot = (x1 - ax) * dx + (y1 - ay) * dy
    seg_len2 = dx * dx + dy * dy
    on_open = (d1 == 0) & (dot > 0) & (dot < seg_len2)
    return int(np.count_nonzero(proper)) + int(np.count_nonzero(on_open))


def polyline_point_at(line: np.ndarray, arc: float) -> tuple[float, float]:
    """Point at arc-length `arc` along the polyline, clamped to its ends: on
    the first segment whose end the running sum of the segment lengths does
    not pass, else on the last one. The segment lengths are numpy's
    ``hypot`` and the polyline's length their pairwise ``sum``, as the
    program's street tables take them."""
    seg = np.hypot(np.diff(line[:, 0]), np.diff(line[:, 1]))
    arc = min(max(float(arc), 0.0), float(seg.sum()))
    start = 0.0
    for i, s in enumerate(seg.tolist()):
        if arc <= start + s or i == len(seg) - 1:
            t = (arc - start) / s if s else 0.0
            (x0, y0), (x1, y1) = line[i].tolist(), line[i + 1].tolist()
            return (x0 + t * (x1 - x0), y0 + t * (y1 - y0))
        start += s


def placement_point(topo, p) -> tuple[float, float]:
    """Where the ``topology.sample_placement`` draw `p` puts its UE: the
    drawn point indoors, :func:`polyline_point_at` on a street."""
    if p.point is not None:
        return p.point
    return polyline_point_at(topo.streets[p.street_index], p.arc_pos)


# ---------------------------------------------------------------------------
# Policy: the REINFORCE loss the analytic gradient is checked against (check 2)
# ---------------------------------------------------------------------------

def log_prob(mu: np.ndarray, sigma_raw: np.ndarray, action6: np.ndarray) -> float:
    sigma = effective_sigma(sigma_raw)
    z = (np.asarray(action6, dtype=float) - mu) / sigma
    return float(np.sum(-0.5 * z ** 2 - np.log(sigma) - 0.5 * LOG_2PI))


def reinforce_loss(net, records) -> float:
    """Scalar L = -sum_j r_j log pi; the finite-difference oracle target."""
    total = 0.0
    for obs, action, r in records:
        (mu,), (sr,) = forward(net, np.asarray(obs, dtype=float)[None])
        total -= float(r) * log_prob(mu, sr, action)
    return total


# ---------------------------------------------------------------------------
# Scheduler: water-filling by subset enumeration (check 10)
# ---------------------------------------------------------------------------

def oracle_water_fill(cell_bw, se, caps):
    """Subset enumeration: find the pinned set S with share = (B - sum needs)
    / |free| such that every pinned need < share <= every free need."""
    n = len(se)
    need = [caps[i] / se[i] if se[i] > 0 else np.inf for i in range(n)]
    for k in range(n):
        for S in combinations(range(n), k):
            used = sum(need[i] for i in S)
            share = (cell_bw - used) / (n - k)
            if all(need[i] < share for i in S) and \
               all(need[j] >= share for j in range(n) if j not in S):
                bw = np.array([need[i] if i in S else share for i in range(n)])
                return bw
    assert sum(need) <= cell_bw  # everyone pinned
    return np.array(need)


# ---------------------------------------------------------------------------
# Output: an episode's parameter updates (check 9)
# ---------------------------------------------------------------------------

def write_updates_csv(result, path, rewards: list | None = None) -> None:
    """Per-update record: parameters applied, clamped fields, and (when
    provided by the caller) the reward breakdown per interval."""
    def fmt(v):
        return f"{float(v):.17g}"

    cols = ["interval", "step", *PARAM_ORDER, "clamped"]
    if rewards is not None:
        cols += ["r_tput", "r_bal", "r_ue_eff", "r_total"]
    lines = [",".join(cols)]
    for i, u in enumerate(result.updates):
        row = [str(u.interval), str(u.step)]
        row += [fmt(getattr(u.params, f)) for f in PARAM_ORDER]
        row.append("|".join(u.clamped))
        if rewards is not None:
            r = rewards[i]
            row += [fmt(r.r_tput), fmt(r.r_bal), fmt(r.r_ue_eff),
                    fmt(r.r_total)]
        lines.append(",".join(row))
    write_atomic(path, [("\n".join(lines) + "\n").encode()])
