import numpy as np

from cellpilot import simcore
from cellpilot.reselect import (
    CONFIG_A,
    CONFIG_B,
    EQUAL,
    HIGH,
    LOW,
    PARAM_ORDER,
    PARAM_RANGES,
    S_INTER,
    S_INTRA,
    T_RESEL,
    ReselectionParams,
    cell_id_rank,
    clamp_params,
    initial_select,
    is_suitable,
    param_columns,
    step_reselection,
    step_ues,
)

from oracles import EVENT_NAMES, brute_force_oracle, run_traces, run_ue_trace


def make_params(**over):
    base = dict(t_xhigh=-56.0, t_xlow=-58.0, t_slow=-54.0,
                q_hyst=3.0, q_offset=14.0, q_rxlevmin=-60.0)
    base.update(over)
    return ReselectionParams(**base)


def test_param_vector_round_trip():
    p = make_params()
    v = p.to_vector()
    assert v.shape == (6,)
    assert list(v) == [getattr(p, f) for f in PARAM_ORDER]
    q = ReselectionParams.from_vector(v)
    assert q == p


def test_validate_and_clamp():
    bad = make_params(q_hyst=31.0)
    fixed, moved = clamp_params(bad)
    assert moved == ["q_hyst"]
    assert fixed.q_hyst == 30.0
    assert clamp_params(fixed)[1] == []
    # already-in-range params come back untouched
    same, moved = clamp_params(make_params())
    assert moved == [] and same == make_params()
    lo = ReselectionParams.from_vector([-200, -200, -200, -5, -5, -200])
    fixed, moved = clamp_params(lo)
    assert set(moved) == set(PARAM_ORDER)
    assert all(fixed.to_vector() == [PARAM_RANGES[f][0] for f in PARAM_ORDER])


def test_preset_values():
    assert CONFIG_B.to_vector().tolist() == [-56.0, -58.0, -54.0, 3.0, 14.0, -60.0]
    assert CONFIG_A.to_vector().tolist() == [-58.0, -60.0, -58.0, 3.0, 20.0, -60.0]
    assert T_RESEL == 1.0
    # the kernel fires a criterion in the step its condition holds, which
    # is the protocol only while one step lasts at least T_RESEL
    assert simcore.DT >= T_RESEL
    assert S_INTRA == 4.0 and S_INTER == 6.0


def test_suitability_is_strict():
    p = make_params(q_rxlevmin=-60.0)
    suit = is_suitable([-60.0, -59.999, -60.001], p)
    assert suit.tolist() == [False, True, False]


def select1(rx, prio, params):
    """initial_select for one UE: a cell index, or None."""
    sel = int(initial_select(np.asarray(rx, float)[None], np.asarray(prio), params,
                             np.arange(len(prio)))[0])
    return sel if sel >= 0 else None


def one_step(serving, rx, prio, freq, params):
    """step_reselection for one UE: (serving, its (3, C) mask of criteria
    that hold, criterion name or None)."""
    new, holds, crit = step_reselection(
        np.array([serving]), np.asarray(rx, float)[None], np.asarray(prio),
        np.asarray(freq, float), params, np.arange(len(prio)))
    return int(new[0]), holds[0], EVENT_NAMES[crit[0]] if crit[0] >= 0 else None


def test_initial_select_priority_then_rx_then_id():
    p = make_params(q_rxlevmin=-60.0)
    prio = np.array([1, 2, 2, 2])
    # cell 0 strongest but lower priority; among priority 2 cells pick max rx
    rx = np.array([-40.0, -50.0, -45.0, -45.0])
    assert select1(rx, prio, p) == 2
    # exact rx tie inside the top layer -> lowest id
    rx = np.array([-40.0, -45.0, -45.0, -45.0])
    assert select1(rx, prio, p) == 1
    # nothing suitable
    assert select1(np.full(4, -61.0), prio, p) is None
    # unsuitable cells are ignored even when strongest
    rx = np.array([-40.0, -61.0, -59.0, -61.0])
    assert select1(rx, prio, p) == 2


def test_high_priority_criterion():
    p = make_params(t_xhigh=-56.0, q_rxlevmin=-60.0)
    prio = [1, 2]
    freq = [1e9, 2e9]
    # target above t_xhigh and suitable -> fires in the step it holds
    new, _, crit = one_step(0, [-50.0, -55.0], prio, freq, p)
    assert (new, crit) == (1, "high")
    # at the threshold exactly: strict comparison, no move
    new, _, crit = one_step(0, [-50.0, -56.0], prio, freq, p)
    assert (new, crit) == (0, None)
    # above threshold but unsuitable -> no move
    new, _, crit = one_step(0, [-50.0, -60.5], prio, freq, p)
    assert crit is None


def test_equal_priority_needs_strict_margin():
    p = make_params(q_hyst=3.0, q_offset=14.0, q_rxlevmin=-90.0)
    prio = [2, 2]
    freq = [1e9, 1e9]
    # rx_t - q_offset must strictly beat rx_s + q_hyst: boundary stays put
    rx_s = -60.0
    boundary = rx_s + 3.0 + 14.0
    new, _, crit = one_step(0, [rx_s, boundary], prio, freq, p)
    assert crit is None
    new, _, crit = one_step(0, [rx_s, boundary + 1e-9], prio, freq, p)
    assert (new, crit) == (1, "equal")


def test_low_priority_gates():
    # s_lev = rx_s - q_rxlevmin; measurement gate S_INTRA=4 on the serving
    # frequency, S_INTER=6 off it
    p = make_params(t_slow=-54.0, t_xlow=-58.0, q_rxlevmin=-60.0)
    prio = [2, 1]
    rx = [-55.0, -50.0]      # s_lev = 5, rx_s < t_slow holds
    new, _, crit = one_step(0, rx, prio, [1e9, 1e9], p)
    assert crit is None      # 5 < 4 fails on same frequency
    new, _, crit = one_step(0, rx, prio, [1e9, 2e9], p)
    assert (new, crit) == (1, "low")   # 5 < 6 passes across frequencies
    # serving above t_slow blocks the path even when measured
    new, _, crit = one_step(0, [-53.9, -50.0], prio, [1e9, 2e9], p)
    assert crit is None
    # target at/below t_xlow is not admitted
    new, _, crit = one_step(0, [-55.0, -58.0], prio, [1e9, 2e9], p)
    assert crit is None


def test_criterion_order_high_beats_equal_beats_low():
    # s_lev = -60 - (-64) = 4 < S_INTER keeps the low path measured
    p = make_params(t_xhigh=-56.0, t_slow=-40.0, t_xlow=-58.0,
                    q_hyst=1.0, q_offset=1.0, q_rxlevmin=-64.0)
    prio = [2, 3, 2, 1]
    freq = [1e9, 2e9, 2e9, 3e9]
    rx = [-60.0, -50.0, -40.0, -45.0]  # all three criteria fire together
    new, holds, crit = one_step(0, rx, prio, freq, p)
    assert (new, crit) == (1, "high")
    assert holds[HIGH, 1] and holds[EQUAL, 2] and holds[LOW, 3]
    rx[1] = -91.0                      # drop the high candidate
    new, _, crit = one_step(0, rx, prio, freq, p)
    assert (new, crit) == (2, "equal")
    rx[2] = -91.0
    new, _, crit = one_step(0, rx, prio, freq, p)
    assert (new, crit) == (3, "low")


def test_tie_breaks_within_a_criterion():
    p = make_params(t_xhigh=-70.0, q_rxlevmin=-90.0)
    freq = [1e9, 2e9, 3e9, 4e9]
    # two high-priority layers: higher priority wins even at lower rx
    prio = [1, 2, 3, 3]
    new, _, crit = one_step(0, [-50.0, -55.0, -60.0, -60.0], prio, freq, p)
    assert (new, crit) == (2, "high")
    # same priority, same rx -> lowest cell index
    prio = [1, 3, 3, 3]
    new, _, crit = one_step(0, [-50.0, -60.0, -60.0, -60.0], prio, freq, p)
    assert (new, crit) == (1, "high")


def test_trace_select_outage_reacquire():
    p = make_params(q_rxlevmin=-60.0)
    prio = np.array([1, 1])
    freq = np.array([1e9, 1e9])
    trace = np.array([
        [-50.0, -70.0],   # step 0: select cell 0
        [-50.0, -70.0],
        [-65.0, -70.0],   # step 2: serving unsuitable -> outage
        [-65.0, -55.0],   # step 3: reacquire on cell 1
        [-65.0, -55.0],
    ])
    events = run_ue_trace(trace, prio, freq, p, np.arange(2))
    assert events == [(0, "select", None, 0),
                      (2, "outage", 0, None),
                      (3, "select", None, 1)]


def test_trace_event_kinds_and_shapes():
    p = make_params(t_xhigh=-56.0, q_rxlevmin=-60.0)
    prio = np.array([1, 2])
    freq = np.array([1e9, 2e9])
    trace = np.tile([-50.0, -55.0], (3, 1))
    events = run_ue_trace(trace, prio, freq, p, np.arange(2))
    # initial selection is priority-first (cell 1 despite the weaker rx);
    # serving -55 < t_slow with s_lev 5 < S_INTER opens the low path down,
    # then the high criterion climbs straight back: a ping-pong
    assert events == [(0, "select", None, 1), (1, "low", 1, 0), (2, "high", 0, 1)]
    for ev in events:
        assert len(ev) == 4 and ev[1] in {"select", "outage", "high", "equal", "low"}


def random_instance(rng):
    n_cells = int(rng.integers(2, 7))
    t_steps = int(rng.integers(5, 41))
    prio = rng.integers(0, 4, size=n_cells)
    freq = rng.choice([7e8, 1.8e9, 2.6e9], size=n_cells)
    base = rng.uniform(-75.0, -45.0, size=n_cells)
    walk = rng.normal(0.0, 2.5, size=(t_steps, n_cells)).cumsum(axis=0)
    trace = base + walk
    params = ReselectionParams(
        t_xhigh=float(rng.uniform(-65, -45)),
        t_xlow=float(rng.uniform(-70, -50)),
        t_slow=float(rng.uniform(-65, -45)),
        q_hyst=float(rng.uniform(0, 6)),
        q_offset=float(rng.uniform(0, 18)),
        q_rxlevmin=float(rng.uniform(-75, -50)),
    )
    return trace, prio, freq, params


def test_fuzz_against_brute_force_oracle():
    rng = np.random.default_rng(1234)
    total_events = 0
    for trial in range(300):
        trace, prio, freq, params = random_instance(rng)
        got = run_ue_trace(trace, prio, freq, params, np.arange(len(prio)))
        want = brute_force_oracle(trace, prio, freq, params)
        assert got == want, f"trial {trial}: {got} != {want}"
        total_events += len(want)
    # the corpus must actually exercise every event kind
    assert total_events > 500


def test_fuzz_covers_all_kinds():
    rng = np.random.default_rng(77)
    kinds = set()
    for _ in range(200):
        trace, prio, freq, params = random_instance(rng)
        for ev in run_ue_trace(trace, prio, freq, params, np.arange(len(prio))):
            kinds.add(ev[1])
    assert kinds == {"select", "outage", "high", "equal", "low"}


def tied_instance(rng, n_ues):
    """Cells whose ids sort out of index order, one column duplicating
    another (same priority and rx: exact ties in every criterion), and
    n_ues traces on a 1 dB grid, stacked on the UE axis: (T, N, C)."""
    n_cells = int(rng.integers(3, 8))
    ids = [f"C{v}" for v in rng.choice(np.arange(1, 40), n_cells, replace=False)]
    if ids == sorted(ids):
        ids.reverse()
    t_steps = int(rng.integers(10, 31))
    prio = rng.integers(0, 3, size=n_cells)
    freq = rng.choice([7e8, 1.8e9, 2.6e9], size=n_cells)
    base = rng.uniform(-75.0, -45.0, size=(n_ues, n_cells))
    walk = rng.normal(0.0, 2.5, size=(t_steps, n_ues, n_cells)).cumsum(axis=0)
    trace = np.round(base + walk)
    a, b = rng.choice(n_cells, 2, replace=False)
    trace[:, :, b] = trace[:, :, a]
    prio[b] = prio[a]
    _, _, _, params = random_instance(rng)
    return trace, prio, freq, params, ids


def test_stacked_traces_match_oracle_with_cell_ids():
    """Many UEs in one kernel call per step: every row's events equal the
    oracle's, whose cell-id tie-break sorts the id strings itself."""
    rng = np.random.default_rng(2468)
    traces = 0
    kinds = set()
    decided_by_id = set()   # event kinds where the id order changed the outcome
    for trial in range(8):
        trace, prio, freq, params, ids = tied_instance(rng, n_ues=40)
        got = run_traces(trace, prio, freq, params, cell_id_rank(ids))
        assert len(got) == trace.shape[1]
        for i, events in enumerate(got):
            want = brute_force_oracle(trace[:, i], prio, freq, params, cell_ids=ids)
            assert events == want, f"trial {trial}, UE {i}: {events} != {want}"
            by_index = brute_force_oracle(trace[:, i], prio, freq, params)
            diff = [w for w, x in zip(want, by_index) if w != x]
            if diff:
                decided_by_id.add(diff[0][1])
            kinds.update(ev[1] for ev in events)
            traces += 1
    assert traces >= 256
    assert kinds == {"select", "outage", "high", "equal", "low"}
    assert {"select", "high", "equal", "low"} <= decided_by_id


def test_integer_grid_boundaries_match_oracle():
    """Traces and parameters on a 1 dB grid, so every strict comparison of
    the protocol meets its boundary exactly; continuous draws never do."""
    rng = np.random.default_rng(13579)
    for trial in range(8):
        trace, prio, freq, params, ids = tied_instance(rng, n_ues=40)
        params = ReselectionParams.from_vector(np.round(params.to_vector()))
        got = run_traces(trace, prio, freq, params, cell_id_rank(ids))
        for i, events in enumerate(got):
            want = brute_force_oracle(trace[:, i], prio, freq, params, cell_ids=ids)
            assert events == want, f"trial {trial}, UE {i}: {events} != {want}"


def test_param_columns_layout():
    cols = param_columns([CONFIG_A, CONFIG_B], 3)
    assert cols.q_offset.shape == (6, 1)
    assert cols.q_offset[:, 0].tolist() == [20.0] * 3 + [14.0] * 3
    assert cols.q_rxlevmin[:, 0].tolist() == [-60.0] * 6


def test_per_row_parameters_match_scalar_calls_and_oracle():
    """Each trace under its own random parameters, all in one kernel call
    per step through (N, 1) columns: serving cells and events equal
    one scalar-parameter call per row, and the events equal the oracle's."""
    rng = np.random.default_rng(97531)
    traces = 0
    kinds = set()
    for trial in range(8):
        trace, prio, freq, _, ids = tied_instance(rng, n_ues=40)
        t_steps, n, _ = trace.shape
        params = [random_instance(rng)[3] for _ in range(n)]
        cols = param_columns(params, 1)
        rank = cell_id_rank(ids)
        serving = np.full(n, -1)
        row_serving = serving.copy()
        for t in range(t_steps):
            may = rng.random(n) < 0.8
            event = step_ues(serving, trace[t], may, prio, freq, cols, rank)
            for i in range(n):
                ev = step_ues(row_serving[i:i + 1], trace[t, i:i + 1],
                              may[i:i + 1], prio, freq, params[i], rank)
                assert ev[0] == event[i], (trial, t, i)
            assert serving.tolist() == row_serving.tolist()
        got = run_traces(trace, prio, freq, cols, rank)
        for i, events in enumerate(got):
            assert events == brute_force_oracle(trace[:, i], prio, freq, params[i],
                                                cell_ids=ids), (trial, i)
            kinds.update(ev[1] for ev in events)
            traces += 1
    assert traces >= 256
    assert kinds == {"select", "outage", "high", "equal", "low"}
