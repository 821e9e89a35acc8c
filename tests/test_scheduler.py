import numpy as np
import pytest

from cellpilot.scheduler import allocate, network_throughput, segment_sums

from oracles import oracle_water_fill


def test_equal_share_without_caps():
    a = allocate([10e6], np.array([1.0, 2.0, 4.0]), np.array([3]))
    assert np.allclose(a.bandwidth, 10e6 / 3, rtol=1e-12)
    assert a.available_bw[0] == pytest.approx(0.0, abs=1e-3)
    assert np.allclose(a.throughput, a.bandwidth * [1.0, 2.0, 4.0], rtol=1e-12)
    assert a.cell_throughput[0] == pytest.approx(a.throughput.sum(), rel=1e-12)


def test_empty_cell():
    a = allocate([20e6], np.zeros(0), np.array([0]))
    assert a.cell_throughput[0] == 0.0
    assert a.available_bw[0] == 20e6
    many = allocate(np.array([5e6, 7e6]), np.zeros(0), np.array([0, 0]))
    assert many.available_bw.tolist() == [5e6, 7e6]
    assert many.cell_throughput.tolist() == [0.0, 0.0]


def test_cap_pins_ue_and_redistributes():
    # UE0 capped at 1 Mb/s with se=1 -> pinned to 1 MHz; the other two split 9
    a = allocate([10e6], np.ones(3), np.array([3]),
                 rate_caps=np.array([1e6, np.inf, np.inf]))
    assert a.bandwidth[0] == pytest.approx(1e6)
    assert a.bandwidth[1] == pytest.approx(4.5e6)
    assert a.bandwidth[2] == pytest.approx(4.5e6)
    assert a.throughput[0] == pytest.approx(1e6)


def test_all_capped_leaves_spectrum_unused():
    a = allocate([10e6], np.array([2.0, 2.0]), np.array([2]),
                 rate_caps=np.array([1e6, 2e6]))
    # needs are 0.5 and 1 MHz; everyone pinned, the rest stays idle
    assert a.bandwidth == pytest.approx([0.5e6, 1e6])
    assert a.available_bw[0] == pytest.approx(8.5e6)
    assert a.cell_throughput[0] == pytest.approx(3e6)


def test_zero_se_ue_gets_share_but_no_throughput():
    a = allocate([9e6], np.array([0.0, 1.0, 2.0]), np.array([3]),
                 rate_caps=np.array([1e12, 1e12, 1e12]))
    assert a.bandwidth[0] == pytest.approx(3e6)   # se=0 can never reach a cap
    assert a.throughput[0] == 0.0


def test_conservation_no_caps():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        bw = float(rng.uniform(5e6, 80e6))
        a = allocate([bw], rng.uniform(0.1, 7.8, n), np.array([n]))
        assert abs(a.bandwidth.sum() - bw) <= 1e-9 * bw
        assert np.all(np.abs(a.bandwidth * n / bw - 1.0) <= 1e-9)


def test_water_filling_matches_subset_enumeration():
    rng = np.random.default_rng(2024)
    pinned_seen = False
    for trial in range(400):
        n = int(rng.integers(1, 9))
        bw = float(rng.uniform(1e6, 40e6))
        se = rng.uniform(0.0, 7.8, n)
        caps = rng.uniform(0.2e6, 30e6, n)
        caps[rng.random(n) < 0.3] = np.inf
        got = allocate([bw], se, np.array([n]), rate_caps=caps)
        want = oracle_water_fill(bw, se, caps)
        assert np.allclose(got.bandwidth, want, rtol=1e-9, atol=1e-6), trial
        assert abs(got.bandwidth.sum() + got.available_bw[0] - bw) <= 1e-9 * bw
        if got.available_bw[0] > 1e-3:
            pinned_seen = True
    assert pinned_seen  # the corpus must hit the everyone-capped branch


def test_network_throughput_aggregation():
    a = allocate([10e6], np.array([1.0, 2.0]), np.array([2]))
    b = allocate([20e6], np.array([4.0]), np.array([1]))
    idle = allocate([10e6], np.zeros(0), np.array([0]))
    cells = np.concatenate([a.cell_throughput, b.cell_throughput,
                            idle.cell_throughput])
    total, per_ue = network_throughput(cells, 3)
    assert total == pytest.approx(a.cell_throughput[0] + b.cell_throughput[0],
                                  rel=1e-12)
    assert per_ue == pytest.approx(total / 3)
    total, per_ue = network_throughput(idle.cell_throughput, 0)
    assert total == 0.0 and per_ue == 0.0
    # a leading seed axis gives one figure per row, each as the row alone would
    rows = np.array([[1.0, 2.0, 3.0], [4.0, 0.0, 0.0]])
    total, per_ue = network_throughput(rows, np.array([3, 0]))
    assert total.tolist() == [rows[0].sum(), rows[1].sum()]
    assert per_ue.tolist() == [rows[0].sum() / 3, 0.0]


# segments past 8 and 128 elements reach numpy's unrolled and blocked sums
@pytest.mark.parametrize("n_segments, max_len", [
    (5, 12), (30, 300), (400, 4), (300, 12)])
def test_segment_sums_match_per_slice_sums(n_segments, max_len):
    # every segment sum, taken from one row or from stacked rows, equals the
    # slice's own .sum() in a fresh array
    rng = np.random.default_rng(n_segments)
    for _ in range(20):
        counts = rng.integers(0, max_len + 1, size=n_segments)
        values = rng.standard_normal((2, counts.sum())) * 10.0 ** rng.uniform(-3, 9)
        stacked = segment_sums(values, counts)
        alone = segment_sums(values[1].copy(), counts)
        ends = np.cumsum(counts)
        for k, (n, e) in enumerate(zip(counts, ends)):
            assert alone[k] == values[1, e - n:e].copy().sum()
            for row in range(2):
                assert stacked[row, k] == values[row, e - n:e].copy().sum()


def _allocate_cells_one_by_one(cell_bw, se, counts, caps=None):
    """Reference: one single-cell allocate call per segment."""
    ends = np.cumsum(counts)
    out = [allocate(cell_bw[k:k + 1], se[e - n:e], counts[k:k + 1],
                    None if caps is None else caps[e - n:e])
           for k, (n, e) in enumerate(zip(counts, ends))]
    return out


@pytest.mark.parametrize("capped", [False, True])
def test_multi_cell_allocate_matches_one_cell_calls(capped):
    rng = np.random.default_rng(31 + capped)
    for _ in range(100):
        counts = rng.integers(0, 15, size=int(rng.integers(1, 30)))
        n = int(counts.sum())
        cell_bw = rng.uniform(1e6, 60e6, len(counts))
        se = rng.uniform(0.0, 7.8, n)
        caps = rng.uniform(0.2e6, 30e6, n) if capped else None
        many = allocate(cell_bw, se, counts, caps)
        ones = _allocate_cells_one_by_one(cell_bw, se, counts, caps)
        assert many.cell_throughput.tolist() == [a.cell_throughput[0] for a in ones]
        assert many.available_bw.tolist() == [a.available_bw[0] for a in ones]
        assert many.bandwidth.tolist() == [x for a in ones for x in a.bandwidth.tolist()]
        assert many.throughput.tolist() == [x for a in ones for x in a.throughput.tolist()]
