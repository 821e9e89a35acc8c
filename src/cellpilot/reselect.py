"""Idle-mode cell (re)selection: suitability, hierarchical priority-based
reselection and equal-priority ranking.

Three criteria are evaluated for a camped UE each step, each per target
cell, each gated on target suitability:

* high  — target priority above serving: rx_target > t_xhigh
* equal — same priority: rx_target - q_offset > rx_serving + q_hyst
* low   — target priority below serving, measured only while the serving
          level s_rxlev = rx_serving - q_rxlevmin is under the search
          threshold (S_INTRA on the serving frequency, S_INTER off it):
          rx_serving < t_slow and rx_target > t_xlow

The reselection timer T_RESEL is one simulation step, so a criterion fires
in the step its condition holds and no dwell time carries over to the next
step. When several targets fire in one step the order high > equal > low
applies, then (priority desc,) metric desc, cell id asc.

The state machine is one kernel over a leading UE axis: the simulator
advances its whole population with one :func:`step_ues` call per step.
Parameters are either one scalar `ReselectionParams` for every row, or
per-row (N, 1) columns (:func:`param_columns`) broadcast against rx (N, C);
each element sees the same float expressions either way.

The test suite's ``tests/oracles.py`` re-implements the whole protocol with
plain Python loops and an explicit dwell timer per (criterion, cell) as an
independent cross-check; at one step per T_RESEL it must agree with the
kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

# criterion rows in the (N, 3, C) mask of criteria that hold; the per-UE
# event codes of `step_ues` extend them with SELECT and OUTAGE (-1 = no event)
HIGH, EQUAL, LOW = 0, 1, 2
SELECT, OUTAGE = 3, 4

PARAM_ORDER = ("t_xhigh", "t_xlow", "t_slow", "q_hyst", "q_offset", "q_rxlevmin")
PARAM_RANGES = {
    "t_xhigh": (-100.0, 0.0),
    "t_xlow": (-100.0, 0.0),
    "t_slow": (-100.0, 0.0),
    "q_hyst": (0.0, 30.0),
    "q_offset": (0.0, 30.0),
    "q_rxlevmin": (-100.0, 0.0),
}

# fixed by the protocol, not tuned
T_RESEL = 1.0    # s; one simulation step
S_INTRA = 4.0    # dB, search threshold on s_rxlev, serving frequency
S_INTER = 6.0    # dB, other frequencies


@dataclass(frozen=True)
class ReselectionParams:
    """The six broadcast tunables, in PARAM_ORDER."""

    t_xhigh: float      # dBm, admit threshold toward higher-priority layers
    t_xlow: float       # dBm, target floor for lower-priority reselection
    t_slow: float       # dBm, serving level that opens the low path
    q_hyst: float       # dB, serving-rank hysteresis
    q_offset: float     # dB, neighbor-rank penalty
    q_rxlevmin: float   # dBm, suitability floor

    def to_vector(self) -> np.ndarray:
        return np.array([getattr(self, f) for f in PARAM_ORDER], dtype=float)

    @classmethod
    def from_vector(cls, vec) -> "ReselectionParams":
        return cls(**{f: float(v) for f, v in zip(PARAM_ORDER, vec)})


def param_columns(params: list[ReselectionParams], rows: int) -> ReselectionParams:
    """Per-row parameters for `rows` consecutive rows per entry of `params`:
    a ReselectionParams whose fields are (len(params) * rows, 1) columns."""
    table = np.repeat([list(vars(p).values()) for p in params], rows, axis=0)
    return ReselectionParams(*np.hsplit(table, table.shape[1]))


def _rows(params: ReselectionParams, rows: np.ndarray) -> ReselectionParams:
    """The parameters of the given rows (scalar parameters serve them all)."""
    if not isinstance(params.q_rxlevmin, np.ndarray):
        return params
    return ReselectionParams(*(col[rows] for col in vars(params).values()))


def clamp_params(p: ReselectionParams) -> tuple[ReselectionParams, list[str]]:
    """Clamp each tunable into its range; returns the fields that moved."""
    moved = []
    updates = {}
    for f in PARAM_ORDER:
        lo, hi = PARAM_RANGES[f]
        v = getattr(p, f)
        c = min(max(v, lo), hi)
        if c != v:
            moved.append(f)
            updates[f] = c
    return (replace(p, **updates) if updates else p), moved


CONFIG_B = ReselectionParams(
    t_xhigh=-56.0, t_xlow=-58.0, t_slow=-54.0,
    q_hyst=3.0, q_offset=14.0, q_rxlevmin=-60.0,
)
CONFIG_A = ReselectionParams(
    t_xhigh=-58.0, t_xlow=-60.0, t_slow=-58.0,
    q_hyst=3.0, q_offset=20.0, q_rxlevmin=-60.0,
)
PRESETS = {"config_a": CONFIG_A, "config_b": CONFIG_B}


# ---------------------------------------------------------------------------
# State machine: one kernel over a leading UE axis
# ---------------------------------------------------------------------------

def is_suitable(rx, params: ReselectionParams):
    """Minimum-level condition: rx - q_rxlevmin > 0, strict."""
    return np.asarray(rx, dtype=float) - params.q_rxlevmin > 0.0


def cell_id_rank(ids) -> np.ndarray:
    """rank[i] = position of cell i when the ids are sorted (tie-break key)."""
    order = sorted(range(len(ids)), key=ids.__getitem__)
    rank = np.empty(len(ids), dtype=int)
    rank[order] = np.arange(len(ids))
    return rank


def _top_priority(cand: np.ndarray, priorities: np.ndarray) -> np.ndarray:
    """The candidates of each row that sit on the row's highest priority."""
    pr = np.where(cand, priorities, -np.inf)
    return cand & (pr == pr.max(axis=1, keepdims=True))


def _pick(cand: np.ndarray, metric: np.ndarray, id_rank: np.ndarray) -> np.ndarray:
    """Per row, the candidate column with the largest `metric`, then the
    smallest id rank; -1 for a row without candidates. Masked maxima order
    the candidates as a lexsort over (rank, -metric) does, ties included."""
    m = np.where(cand, metric, -np.inf)
    cand = cand & (m == m.max(axis=1, keepdims=True))
    best = np.where(cand, id_rank, cand.shape[1]).argmin(axis=1)
    return np.where(cand.any(axis=1), best, -1)


def initial_select(rx: np.ndarray, priorities: np.ndarray,
                   params: ReselectionParams, id_rank: np.ndarray) -> np.ndarray:
    """Best suitable cell per row of rx (N, C): highest priority layer, then
    max rx, then smallest id rank; -1 where no cell is suitable."""
    rx = np.asarray(rx, dtype=float)
    cand = _top_priority(is_suitable(rx, params), priorities)
    return _pick(cand, rx, id_rank)


def step_reselection(serving: np.ndarray, rx: np.ndarray,
                     priorities: np.ndarray, frequencies: np.ndarray,
                     params: ReselectionParams, id_rank: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One reselection step for N camped UEs whose serving cells are suitable.

    serving (N,), rx (N, C). Returns (new serving cells, the (N, 3, C) mask
    of criteria that hold, fired criterion per row or -1). A criterion fires
    in the step its condition holds (T_RESEL is one step); the mask is
    returned for callers that look at every criterion, not only the winner.
    """
    rows = np.arange(len(serving))
    suitable = is_suitable(rx, params)
    pr_s = priorities[serving][:, None]
    rx_s = rx[rows, serving][:, None]
    s_lev = rx_s - params.q_rxlevmin
    fired = np.empty((len(serving), 3, rx.shape[1]), dtype=bool)
    fired[:, HIGH] = (priorities > pr_s) & (rx > params.t_xhigh) & suitable
    rx_off = rx - params.q_offset
    fired[:, EQUAL] = ((priorities == pr_s) & suitable
                       & (rx_off > rx_s + params.q_hyst))
    fired[rows, EQUAL, serving] = False
    same_freq = frequencies == frequencies[serving][:, None]
    measured = np.where(same_freq, s_lev < S_INTRA, s_lev < S_INTER)
    fired[:, LOW] = ((priorities < pr_s) & measured & (rx_s < params.t_slow)
                     & (rx > params.t_xlow) & suitable)
    # criterion order high > equal > low: the first criterion row that fired
    any_fired = fired.any(axis=2)
    crit = np.where(any_fired.any(axis=1), any_fired.argmax(axis=1), -1)
    new = serving.copy()
    moving = np.flatnonzero(crit >= 0)
    if moving.size:
        c = crit[moving][:, None]
        cand = fired[moving, crit[moving]]
        cand = np.where(c == HIGH, _top_priority(cand, priorities), cand)
        metric = np.where(c == EQUAL, rx_off[moving], rx[moving])
        new[moving] = _pick(cand, metric, id_rank)
    return new, fired, crit


def step_ues(serving: np.ndarray, rx: np.ndarray, may_reselect: np.ndarray,
             priorities: np.ndarray, frequencies: np.ndarray,
             params: ReselectionParams, id_rank: np.ndarray) -> np.ndarray:
    """One protocol step for N UEs against the step's rx snapshot (N, C),
    under scalar parameters or (N, 1) columns.

    serving (N,), with -1 for out of service, is updated in place.
    Out-of-service rows run initial selection; a camped row whose serving
    cell lost suitability drops out of service (initial selection re-runs on
    the next step); the other camped rows where `may_reselect` holds run one
    reselection step. Returns the event code per row: SELECT, OUTAGE, the
    fired criterion, or -1.
    """
    event = np.full(len(serving), -1)
    camped = np.flatnonzero(serving >= 0)
    out = np.flatnonzero(serving < 0)
    ok = is_suitable(rx, params)[camped, serving[camped]]
    lost = camped[~ok]
    staying = camped[ok & may_reselect[camped]]
    if out.size:
        sel = initial_select(rx[out], priorities, _rows(params, out), id_rank)
        got = sel >= 0
        serving[out[got]] = sel[got]
        event[out[got]] = SELECT
    serving[lost] = -1
    event[lost] = OUTAGE
    if staying.size:
        new, _, crit = step_reselection(
            serving[staying], rx[staying], priorities, frequencies,
            _rows(params, staying), id_rank)
        serving[staying] = new
        event[staying] = crit
    return event
