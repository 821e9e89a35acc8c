import numpy as np
import pytest

from cellpilot.topology import Cell, Topology, Tower, polyline_point_at
from cellpilot.traffic import (
    ACTIVE,
    IDLE,
    TrafficConfig,
    init_population,
    step_mobility,
    step_modes,
)


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
    assert TrafficConfig(lambda_idle=0.2, lambda_active=0.5).mean_dwell_s == pytest.approx(3.5)


def test_init_population_fields():
    topo = street_topo()
    cfg = TrafficConfig(speed_kmh=30.0, speed_spread=0.2)
    ues = init_population(12, topo, 7, cfg)
    assert [u.id for u in ues] == list(range(12))
    lo, hi = 30.0 * 0.8 / 3.6, 30.0 * 1.2 / 3.6
    for u in ues:
        assert u.mode in (IDLE, ACTIVE)
        assert u.next_switch_time > 0.0
        assert lo <= u.speed_mps <= hi
        assert u.direction in (-1, 1)
        assert u.timers.shape == (3, topo.n_cells) and not u.timers.any()
        assert u.serving is None
        assert u.indoor == (u.street_index < 0)
    with pytest.raises(ValueError):
        init_population(0, topo, 7, cfg)


def test_init_population_deterministic_and_order_invariant():
    topo = street_topo()
    cfg = TrafficConfig()

    def snap(u):
        return (u.position, u.indoor, u.mode, u.next_switch_time,
                u.speed_mps, u.street_index, u.arc_pos, u.direction)

    a = init_population(8, topo, 3, cfg)
    b = init_population(8, topo, 3, cfg)
    assert [snap(u) for u in a] == [snap(u) for u in b]
    # per-UE seed streams: a smaller population is a prefix of a larger one
    big = init_population(16, topo, 3, cfg)
    assert [snap(u) for u in big[:8]] == [snap(u) for u in a]
    other = init_population(8, topo, 4, cfg)
    assert [snap(u) for u in other] != [snap(u) for u in a]


def test_building_weight_extremes():
    topo = street_topo()
    indoor = init_population(30, topo, 11, TrafficConfig(building_weight=1.0))
    assert all(u.indoor and u.street_index == -1 for u in indoor)
    street = init_population(30, topo, 11, TrafficConfig(building_weight=0.0))
    assert all(not u.indoor and u.street_index == 0 for u in street)


def test_step_modes_flip_rate():
    # both rates 0.2/s -> expect ~n*T*0.2 flips; seeded, loose 3-sigma band
    topo = street_topo()
    cfg = TrafficConfig(lambda_idle=0.2, lambda_active=0.2)
    ues = init_population(200, topo, 5, cfg)
    flips = sum(step_modes(ues, float(t), 1.0, cfg) for t in range(200))
    expect = 200 * 200 * 0.2
    assert abs(flips - expect) < 4.0 * np.sqrt(expect)


def test_step_modes_dwell_times_match_rates():
    # asymmetric rates: average observed dwell in each mode approaches 1/lambda
    topo = street_topo()
    cfg = TrafficConfig(lambda_idle=0.5, lambda_active=0.125)
    ues = init_population(300, topo, 9, cfg)
    time_in = [0.0, 0.0]
    dt = 0.25
    for t in range(4000):
        for u in ues:
            time_in[u.mode] += dt
        step_modes(ues, t * dt, dt, cfg)
    # stationary occupancy of a two-state chain: proportional to dwell means
    frac_active = time_in[ACTIVE] / sum(time_in)
    expect = (1 / 0.125) / (1 / 0.125 + 1 / 0.5)
    assert abs(frac_active - expect) < 0.02


def test_step_modes_multiple_flips_one_window():
    topo = street_topo()
    cfg = TrafficConfig(lambda_idle=50.0, lambda_active=50.0)
    ues = init_population(20, topo, 1, cfg)
    flips = step_modes(ues, 0.0, 1.0, cfg)
    assert flips > 20 * 10  # mean dwell 20 ms -> ~50 flips per UE-second
    assert all(u.next_switch_time > 1.0 for u in ues)


def test_step_modes_resets_timers_only_on_flip():
    topo = street_topo()
    cfg = TrafficConfig(lambda_idle=0.2, lambda_active=0.2)
    ues = init_population(2, topo, 2, cfg)
    ues[0].next_switch_time = 0.5   # flips inside the window
    ues[1].next_switch_time = 99.0  # does not
    for u in ues:
        u.timers[:] = 0.7
    before = [u.mode for u in ues]
    flips = step_modes(ues, 0.0, 1.0, cfg)
    assert flips >= 1
    assert ues[0].mode != before[0] or ues[0].next_switch_time != 0.5
    assert not ues[0].timers.any()
    assert ues[1].mode == before[1]
    assert (ues[1].timers == 0.7).all()
    with pytest.raises(ValueError):
        step_modes(ues, 0.0, 0.0, cfg)


def test_mobility_disabled_and_indoor_stay_put():
    topo = street_topo()
    cfg = TrafficConfig(mobility_enabled=False)
    ues = init_population(10, topo, 6, cfg)
    pos = [u.position for u in ues]
    step_mobility(ues, topo, 1.0, cfg)
    assert [u.position for u in ues] == pos
    cfg = TrafficConfig(mobility_enabled=True, building_weight=1.0)
    ues = init_population(10, topo, 6, cfg)
    pos = [u.position for u in ues]
    step_mobility(ues, topo, 1.0, cfg)
    assert [u.position for u in ues] == pos


def test_mobility_advances_along_street():
    topo = street_topo()
    cfg = TrafficConfig(mobility_enabled=True, building_weight=0.0)
    ues = init_population(1, topo, 8, cfg)
    u = ues[0]
    u.arc_pos, u.direction, u.speed_mps = 10.0, 1, 4.0
    u.position = polyline_point_at(topo.streets[0], 10.0)
    step_mobility(ues, topo, 2.0, cfg)
    assert u.arc_pos == pytest.approx(18.0)
    assert u.position == pytest.approx((18.0, 0.0))


def test_mobility_reflects_at_both_ends():
    topo = street_topo()
    cfg = TrafficConfig(mobility_enabled=True, building_weight=0.0)
    ues = init_population(2, topo, 8, cfg)
    far, near = ues
    far.arc_pos, far.direction, far.speed_mps = 95.0, 1, 10.0
    step_mobility([far], topo, 1.0, cfg)     # 105 -> reflect to 95
    assert far.arc_pos == pytest.approx(95.0) and far.direction == -1
    assert far.position == pytest.approx((95.0, 0.0))
    near.arc_pos, near.direction, near.speed_mps = 3.0, -1, 10.0
    step_mobility([near], topo, 1.0, cfg)    # -7 -> reflect to 7
    assert near.arc_pos == pytest.approx(7.0) and near.direction == 1
    assert near.position == pytest.approx((7.0, 0.0))


def test_step_mobility_returns_exactly_the_street_ues():
    topo = street_topo()
    cfg = TrafficConfig(mobility_enabled=True)
    ues = init_population(30, topo, 4, cfg)
    street = [u.id for u in ues if not u.indoor]
    assert 0 < len(street) < 30
    before = [u.position for u in ues]
    moved = step_mobility(ues, topo, 1.0, cfg)
    assert moved == street
    assert [u.id for u in ues if u.position != before[u.id]] == street
    off = TrafficConfig(mobility_enabled=False)
    assert step_mobility(ues, topo, 1.0, off) == []
