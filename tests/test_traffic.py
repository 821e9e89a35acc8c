import copy
from pathlib import Path

import numpy as np
import pytest

import cellpilot
from cellpilot.topology import Cell, Topology, Tower, load_topology, sample_placement
from cellpilot.traffic import (
    ACTIVE,
    DWELL_BUFFER,
    IDLE,
    Population,
    TrafficConfig,
    _seed_words,
    _SeedWords,
    init_population,
    step_mobility,
    step_modes,
)

from oracles import placement_point, polyline_point_at


def street_topo():
    tower = Tower("T1", 50.0, 10.0)
    cell = Cell(id="C1", tower_id="T1", position=(50.0, 10.0), azimuth=0.0,
                beamwidth=120.0, frequency=1.0e9, bandwidth=10e6, priority=1,
                tx_power=30.0)
    street = np.array([[0.0, 0.0], [100.0, 0.0]])
    building = np.array([[20.0, 20.0], [40.0, 20.0], [40.0, 40.0], [20.0, 40.0]])
    return Topology((0.0, -10.0, 100.0, 50.0), [tower], [cell],
                    [building], [street])


def test_config_validation():
    TrafficConfig().validate()
    with pytest.raises(ValueError):
        TrafficConfig(lambda_idle=0.0).validate()
    with pytest.raises(ValueError):
        TrafficConfig(lambda_active=-1.0).validate()
    with pytest.raises(ValueError):
        TrafficConfig(building_weight=1.5).validate()


@pytest.mark.parametrize("field, value, message", [
    ("lambda_idle", float("nan"), "rates must be finite and > 0"),
    ("lambda_active", float("inf"), "rates must be finite and > 0"),
    ("speed_kmh", float("nan"), "speed_kmh must be finite and >= 0"),
    ("speed_kmh", float("inf"), "speed_kmh must be finite and >= 0"),
    ("speed_kmh", -1.0, "speed_kmh must be finite and >= 0"),
    ("speed_spread", -3.0, r"speed_spread must be in \[0, 1\]"),
    ("speed_spread", 1.5, r"speed_spread must be in \[0, 1\]"),
    ("speed_spread", float("nan"), r"speed_spread must be in \[0, 1\]"),
])
def test_config_validation_refuses_nan_and_unbounded_speeds(field, value, message):
    # an infinite speed used to keep step_mobility's reflection loop going
    # forever; init_population validates before it draws
    with pytest.raises(ValueError, match=message):
        TrafficConfig(mobility_enabled=True, **{field: value}).validate()
    with pytest.raises(ValueError, match=message):
        init_population(3, street_topo(), [0],
                        TrafficConfig(mobility_enabled=True, **{field: value}))
    TrafficConfig(speed_kmh=0.0, speed_spread=1.0).validate()


def test_init_population_fields():
    topo = street_topo()
    cfg = TrafficConfig(speed_kmh=30.0, speed_spread=0.2)
    pop = init_population(12, topo, [7], cfg)
    assert len(pop) == 12
    lo, hi = 30.0 * 0.8 / 3.6, 30.0 * 1.2 / 3.6
    assert np.isin(pop.mode, (IDLE, ACTIVE)).all()
    assert (pop.next_switch_time > 0.0).all()
    assert ((lo <= pop.speed_mps) & (pop.speed_mps <= hi)).all()
    assert np.isin(pop.direction, (-1, 1)).all()
    assert (pop.serving == -1).all()
    with pytest.raises(ValueError):
        init_population(0, topo, [7], cfg)


def test_init_population_deterministic_and_order_invariant():
    topo = street_topo()
    cfg = TrafficConfig()

    def snap(pop, n=None):
        return [(tuple(pop.pos[i]), pop.mode[i],
                 pop.next_switch_time[i], pop.speed_mps[i], pop.street_index[i],
                 pop.arc_pos[i], pop.direction[i]) for i in range(n or len(pop))]

    a = init_population(8, topo, [3], cfg)
    b = init_population(8, topo, [3], cfg)
    assert snap(a) == snap(b)
    # per-UE seed streams: a smaller population is a prefix of a larger one
    big = init_population(16, topo, [3], cfg)
    assert snap(big, 8) == snap(a)
    other = init_population(8, topo, [4], cfg)
    assert snap(other) != snap(a)
    # a batch holds each seed's UEs in turn, each UE on its own stream
    assert snap(init_population(8, topo, [4, 3], cfg)) == snap(other) + snap(a)


def element_init_population(n, topo, episode_seed, cfg):
    """init_population as it was, writing each UE's fields into preallocated
    arrays one element at a time."""
    pos = np.empty((n, 2))
    street_index, arc_pos = np.empty(n, dtype=int), np.empty(n)
    direction, speed_mps = np.empty(n, dtype=int), np.empty(n)
    mode, next_switch_time = np.empty(n, dtype=int), np.empty(n)
    rngs = []
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence([episode_seed, i]))
        placement = sample_placement(topo, rng, cfg.building_weight)
        speed = cfg.speed_kmh * (1.0 + cfg.speed_spread * (2.0 * rng.random() - 1.0))
        direction[i] = 1 if rng.random() < 0.5 else -1
        mode[i] = m = ACTIVE if rng.random() < 0.5 else IDLE
        rate = cfg.lambda_idle if m == IDLE else cfg.lambda_active
        next_switch_time[i] = rng.exponential(1.0 / rate)
        pos[i] = placement_point(topo, placement)
        street_index[i] = placement.street_index
        arc_pos[i] = placement.arc_pos
        speed_mps[i] = speed / 3.6
        rngs.append(rng)
    return Population(pos, street_index, arc_pos, direction, speed_mps,
                      mode, next_switch_time, np.full(n, -1), rngs,
                      np.empty((n, DWELL_BUFFER)), np.full(n, DWELL_BUFFER))


@pytest.mark.parametrize("topo_name", ["street", "large", "multi-segment"])
def test_init_population_matches_the_element_loop(topo_name):
    topo = {"street": street_topo, "multi-segment": multi_segment_topo,
            "large": lambda: load_topology(Path(cellpilot.__file__).parent
                                           / "data" / "large.topo")}[topo_name]()
    for seed, cfg in [(5, TrafficConfig()),
                      (6, TrafficConfig(lambda_idle=3.0, lambda_active=0.5,
                                        speed_kmh=12.0, building_weight=0.8))]:
        pop = init_population(60, topo, [seed], cfg)
        ref = element_init_population(60, topo, seed, cfg)
        for name in ("pos", "street_index", "arc_pos", "direction",
                     "speed_mps", "mode", "next_switch_time", "serving"):
            got, want = getattr(pop, name), getattr(ref, name)
            assert (got.dtype, got.shape, got.tobytes()) == \
                (want.dtype, want.shape, want.tobytes()), name
        # the reference fills a UE's dwell buffer on its first flip; the
        # population starts with it full: the next DWELL_BUFFER draws of
        # the same stream, after which the streams stand at the same state
        for name in ("dwell_draws", "dwell_next"):
            got, want = getattr(pop, name), getattr(ref, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert not pop.dwell_next.any()
        for i, rng in enumerate(ref.rngs):
            rng = copy.deepcopy(rng)
            assert pop.dwell_draws[i].tobytes() == \
                rng.standard_exponential(DWELL_BUFFER).tobytes()
            assert pop.rngs[i].bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**128, *map(
    int, np.random.default_rng(33).integers(0, 2**63, 4))])
def test_seed_words_are_seed_sequence_state(seed):
    # 2**128 has five 32-bit words, more than SeedSequence's pool of four,
    # so it also runs the hash's extra mixing loop. The seed runs alone and
    # in a batch that mixes seeds of one, two and five words, which hashes
    # each word count in its own pass and puts the rows back in seed order
    n = 4000
    words = _seed_words([seed], n)
    assert (words.dtype, words.shape) == (np.uint64, (n, 4))
    batch = [0, 2**32, seed, 2**128, 2**32 - 1]
    mixed = _seed_words(batch, n)
    assert mixed.shape == (len(batch) * n, 4) and mixed.flags.c_contiguous
    for j, s in enumerate(batch):
        for i in [0, 1, 2345, n - 1]:
            want = np.random.SeedSequence([s, i]).generate_state(4, np.uint64)
            assert mixed[j * n + i].tobytes() == want.tobytes(), (s, i)
    assert mixed[2 * n:3 * n].tobytes() == words.tobytes()
    for i in [*range(0, n, 37), n - 1]:
        ss = np.random.SeedSequence([seed, i])
        assert words[i].tobytes() == ss.generate_state(4, np.uint64).tobytes(), i
        if i % 10 == 0:
            got = np.random.Generator(np.random.PCG64(_SeedWords(words[i])))
            want = np.random.default_rng(ss)
            assert got.random() == want.random()
            assert got.standard_exponential(5).tobytes() == \
                want.standard_exponential(5).tobytes()
            assert got.bit_generator.state == want.bit_generator.state


def test_negative_episode_seed_fails():
    with pytest.raises(ValueError):
        np.random.SeedSequence([-1, 0])
    with pytest.raises(ValueError):
        init_population(3, street_topo(), [-1], TrafficConfig())


def test_building_weight_extremes():
    topo = street_topo()
    indoor = init_population(30, topo, [11], TrafficConfig(building_weight=1.0))
    assert (indoor.street_index == -1).all()
    street = init_population(30, topo, [11], TrafficConfig(building_weight=0.0))
    assert (street.street_index == 0).all()


def test_step_modes_flip_rate():
    # both rates 0.2/s -> expect ~n*T*0.2 flips; seeded, loose 3-sigma band
    topo = street_topo()
    cfg = TrafficConfig(lambda_idle=0.2, lambda_active=0.2)
    pop = init_population(200, topo, [5], cfg)
    flips = sum(step_modes(pop, float(t), 1.0, cfg) for t in range(200))
    expect = 200 * 200 * 0.2
    assert abs(flips - expect) < 4.0 * np.sqrt(expect)


def test_step_modes_dwell_times_match_rates():
    # asymmetric rates: average observed dwell in each mode approaches 1/lambda
    topo = street_topo()
    cfg = TrafficConfig(lambda_idle=0.5, lambda_active=0.125)
    pop = init_population(300, topo, [9], cfg)
    time_in = [0.0, 0.0]
    dt = 0.25
    for t in range(4000):
        for mode in pop.mode:
            time_in[mode] += dt
        step_modes(pop, t * dt, dt, cfg)
    # stationary occupancy of a two-state chain: proportional to dwell means
    frac_active = time_in[ACTIVE] / sum(time_in)
    expect = (1 / 0.125) / (1 / 0.125 + 1 / 0.5)
    assert abs(frac_active - expect) < 0.02


def test_step_modes_multiple_flips_one_window():
    topo = street_topo()
    cfg = TrafficConfig(lambda_idle=50.0, lambda_active=50.0)
    pop = init_population(20, topo, [1], cfg)
    flips = step_modes(pop, 0.0, 1.0, cfg)
    assert flips > 20 * 10  # mean dwell 20 ms -> ~50 flips per UE-second
    assert (pop.next_switch_time > 1.0).all()


def test_step_modes_flips_only_due_ues():
    topo = street_topo()
    cfg = TrafficConfig(lambda_idle=0.2, lambda_active=0.2)
    pop = init_population(2, topo, [2], cfg)
    pop.next_switch_time[0] = 0.5   # flips inside the window
    pop.next_switch_time[1] = 99.0  # does not
    before = pop.mode.tolist()
    flips = step_modes(pop, 0.0, 1.0, cfg)
    assert flips >= 1
    assert pop.mode[0] != before[0] or pop.next_switch_time[0] != 0.5
    assert pop.mode[1] == before[1]
    with pytest.raises(ValueError):
        step_modes(pop, 0.0, 0.0, cfg)


def scalar_step_modes(pop, t, dt, cfg):
    """The per-UE loop step_modes replaced, one exponential draw per flip;
    run on element_init_population's streams, which stand right after the
    first dwell."""
    flips = 0
    horizon = t + dt
    due = np.flatnonzero(pop.next_switch_time <= horizon)
    for i in due.tolist():
        mode, nxt, rng = int(pop.mode[i]), float(pop.next_switch_time[i]), pop.rngs[i]
        while nxt <= horizon:
            mode = ACTIVE if mode == IDLE else IDLE
            rate = cfg.lambda_idle if mode == IDLE else cfg.lambda_active
            nxt += rng.exponential(1.0 / rate)
            flips += 1
        pop.mode[i] = mode
        pop.next_switch_time[i] = nxt
    return flips


@pytest.mark.parametrize("rates", [(0.2, 0.2), (3.0, 0.7), (40.0, 25.0)])
def test_step_modes_matches_the_scalar_loop(rates):
    # buffered dwell draws give the per-draw loop's modes and switch times
    # bit for bit, through buffer refills and windows with several flips
    topo = street_topo()
    cfg = TrafficConfig(lambda_idle=rates[0], lambda_active=rates[1])
    pop = init_population(40, topo, [21], cfg)
    ref = element_init_population(40, topo, 21, cfg)
    most_flips, total = 0, 0
    for step in range(30):
        flips = step_modes(pop, float(step), 1.0, cfg)
        assert flips == scalar_step_modes(ref, float(step), 1.0, cfg)
        assert pop.mode.tolist() == ref.mode.tolist()
        assert pop.next_switch_time.tobytes() == ref.next_switch_time.tobytes()
        most_flips = max(most_flips, flips)
        total += flips
    if rates[0] > 1.0:
        assert total > 2 * DWELL_BUFFER * len(pop)   # every UE refilled
        assert most_flips > len(pop)   # some UE flipped twice in one window


def test_mobility_disabled_and_indoor_stay_put():
    topo = street_topo()
    cfg = TrafficConfig(mobility_enabled=False)
    pop = init_population(10, topo, [6], cfg)
    pos = pop.pos.copy()
    step_mobility(pop, topo, 1.0, cfg)
    assert (pop.pos == pos).all()
    cfg = TrafficConfig(mobility_enabled=True, building_weight=1.0)
    pop = init_population(10, topo, [6], cfg)
    pos = pop.pos.copy()
    step_mobility(pop, topo, 1.0, cfg)
    assert (pop.pos == pos).all()


def test_mobility_advances_along_street():
    topo = street_topo()
    cfg = TrafficConfig(mobility_enabled=True, building_weight=0.0)
    pop = init_population(1, topo, [8], cfg)
    pop.arc_pos[0], pop.direction[0], pop.speed_mps[0] = 10.0, 1, 4.0
    pop.pos[0] = polyline_point_at(topo.streets[0], 10.0)
    step_mobility(pop, topo, 2.0, cfg)
    assert pop.arc_pos[0] == pytest.approx(18.0)
    assert pop.pos[0] == pytest.approx((18.0, 0.0))


def test_mobility_reflects_at_both_ends():
    topo = street_topo()
    cfg = TrafficConfig(mobility_enabled=True, building_weight=0.0)
    pop = init_population(2, topo, [8], cfg)
    far, near = 0, 1
    pop.arc_pos[far], pop.direction[far], pop.speed_mps[far] = 95.0, 1, 10.0
    step_mobility(pop, topo, 1.0, cfg)       # 105 -> reflect to 95
    assert pop.arc_pos[far] == pytest.approx(95.0) and pop.direction[far] == -1
    assert pop.pos[far] == pytest.approx((95.0, 0.0))
    pop.arc_pos[near], pop.direction[near], pop.speed_mps[near] = 3.0, -1, 10.0
    step_mobility(pop, topo, 1.0, cfg)       # -7 -> reflect to 7
    assert pop.arc_pos[near] == pytest.approx(7.0) and pop.direction[near] == 1
    assert pop.pos[near] == pytest.approx((7.0, 0.0))


def reflected(arc, direction, total):
    """The reflection walk one bounce at a time, in Python floats."""
    while not 0.0 <= arc <= total:
        arc, direction = (-arc if arc < 0.0 else 2.0 * total - arc), -direction
    return arc, direction


def test_mobility_folds_many_reflections_into_one_period():
    # integer arcs and speeds on a 100 m street: every path is exact, so the
    # fold by the period 200 m must land where bounce-by-bounce reflection
    # does; a finite speed of 1e300 km/h now ends the step at once
    topo = street_topo()
    cfg = TrafficConfig(mobility_enabled=True, building_weight=0.0)
    rng = np.random.default_rng(23)
    n = 200
    pop = init_population(n, topo, [9], cfg)
    pop.arc_pos[:] = rng.integers(0, 101, n)
    pop.speed_mps[:] = rng.integers(0, 1000, n)
    pop.direction[:] = rng.choice([-1, 1], n)
    want = [reflected(a + d * v, d, 100.0) for a, d, v in
            zip(pop.arc_pos.tolist(), pop.direction.tolist(), pop.speed_mps.tolist())]
    step_mobility(pop, topo, 1.0, cfg)
    assert list(zip(pop.arc_pos.tolist(), pop.direction.tolist())) == want
    assert (pop.speed_mps > 200.0).sum() > n // 2        # most bounced several times
    fast = TrafficConfig(mobility_enabled=True, building_weight=0.0, speed_kmh=1e300)
    pop = init_population(20, topo, [9], fast)
    step_mobility(pop, topo, 1.0, fast)
    assert ((0.0 <= pop.arc_pos) & (pop.arc_pos <= 100.0)).all()


def test_step_mobility_returns_exactly_the_street_ues():
    topo = street_topo()
    cfg = TrafficConfig(mobility_enabled=True)
    pop = init_population(30, topo, [4], cfg)
    street = np.flatnonzero(pop.street_index >= 0).tolist()
    assert 0 < len(street) < 30
    before = pop.pos.copy()
    moved = step_mobility(pop, topo, 1.0, cfg)
    assert moved.dtype.kind == "i" and moved.tolist() == street
    assert np.flatnonzero((pop.pos != before).any(axis=1)).tolist() == street
    off = TrafficConfig(mobility_enabled=False)
    none = step_mobility(pop, topo, 1.0, off)
    assert none.dtype.kind == "i" and none.size == 0


def multi_segment_topo():
    """Multi-segment streets, two with a zero-length segment; on the last,
    the street length (a pairwise sum) exceeds the running sum of its
    segments by 7e-15, so an arc at its end falls back to the last segment."""
    streets = [np.array([[0.0, 0.0], [3.0, 4.0], [3.0, 4.0], [10.3, 4.1], [10.7, 9.9]]),
               np.array([[50.0, 0.1], [50.0, 0.1 + 1e-3], [51.7, 2.9]]),
               np.array([[0.0, 30.0], [100.0, 30.0]]),
               np.array([[60.0, 60.0], [60.0, 60.0], [70.0, 65.0]]),
               np.cumsum(np.random.default_rng(20).uniform(0.1, 7.0, (14, 2)), axis=0)]
    tower = Tower("T1", 50.0, 10.0)
    cell = Cell(id="C1", tower_id="T1", position=(50.0, 10.0), azimuth=0.0,
                beamwidth=120.0, frequency=1.0e9, bandwidth=10e6, priority=1)
    return Topology((0.0, 0.0, 120.0, 120.0), [tower], [cell], [], streets)


def test_step_mobility_places_ues_where_polyline_point_at_does():
    topo = multi_segment_topo()
    rng = np.random.default_rng(17)
    k, arc, speed = [], [], []
    for s, (lens, total) in enumerate(zip(topo.street_segment_lengths,
                                          topo.street_lengths)):
        joints = [0.0, *np.cumsum(lens), total]
        k += [s] * (len(joints) + 40)
        arc += joints + list(rng.uniform(0.0, total, 40))
        # standing on joints and ends; moving, with one or more reflections
        speed += [0.0] * len(joints) + list(rng.uniform(0.0, 3.0 * total, 40))
    n = len(k)
    cfg = TrafficConfig(mobility_enabled=True, building_weight=0.0)
    pop = init_population(n, topo, [3], cfg)
    pop.street_index[:] = k
    pop.arc_pos[:] = arc
    pop.speed_mps[:] = speed
    pop.direction[:] = rng.choice([-1, 1], n)
    for dt in (1.0, 0.7):
        direction = pop.direction.copy()
        assert step_mobility(pop, topo, dt, cfg).tolist() == list(range(n))
        assert (pop.direction != direction).any()          # reflections
        expect = [polyline_point_at(topo.streets[s], a)
                  for s, a in zip(pop.street_index.tolist(), pop.arc_pos.tolist())]
        assert pop.pos.tobytes() == np.array(expect).tobytes()
