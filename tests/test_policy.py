import json
import math
import struct
import tracemalloc

import numpy as np
import pytest

from cellpilot.container import (CHUNK, PREFIX_LEN, ContainerError,
                                  save_container)
from cellpilot.policy import (
    ADAM_BLOCK,
    BLOCK_ROWS,
    PARAM_NAMES,
    SIGMA_CAP,
    SIGMA_MIN,
    PolicyError,
    PolicyNet,
    _rows_matmul,
    _sum_squares,
    apply_update,
    effective_sigma,
    forward,
    global_norm,
    init_optimizer,
    init_policy,
    load_checkpoint,
    load_net,
    logit,
    reinforce_backward,
    sample_action,
    save_checkpoint,
    warm_start,
)
from cellpilot.reselect import CONFIG_B
from cellpilot.rlenv import (BASELINE_ARRAYS, BaselineTable, IntervalAggregate,
                             normalize_params)

from oracles import log_prob, reinforce_loss


def test_init_shapes_and_determinism():
    net = init_policy(obs_dim=20, hidden=16, seed=3)
    assert net.w1.shape == (20, 16) and net.w2.shape == (16, 16)
    assert net.w3.shape == (16, 12)
    assert not net.b1.any() and not net.b2.any() and not net.b3.any()
    assert np.abs(net.w1).max() <= 1.0 / math.sqrt(20)
    assert np.abs(net.w2).max() <= 1.0 / math.sqrt(16)
    again = init_policy(obs_dim=20, hidden=16, seed=3)
    assert all(np.array_equal(net.params()[n], again.params()[n])
               for n in PARAM_NAMES)
    other = init_policy(obs_dim=20, hidden=16, seed=4)
    assert not np.array_equal(net.w1, other.w1)


def test_init_draws_what_uniform_draws():
    # x = random(); x *= 2 lim; x -= lim is uniform(-lim, lim)'s
    # low + (high - low) * d on the same doubles d
    for seed in (0, 7):
        for obs_dim, hidden in ((1, 1), (3, 17), (20, 16), (130, 64), (301, 300)):
            rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
            lims = [1.0 / math.sqrt(n) for n in (obs_dim, hidden, hidden)]
            shapes = [(obs_dim, hidden), (hidden, hidden), (hidden, 12)]
            want = [rng.uniform(-lim, lim, size=shape) for lim, shape in zip(lims, shapes)]
            net = init_policy(obs_dim, hidden, seed=seed)
            assert [net.w1.tobytes(), net.w2.tobytes(), net.w3.tobytes()] == \
                [w.tobytes() for w in want]


def test_forward_ranges_and_dim_check():
    net = init_policy(10, 8, seed=0)
    mu, sr = forward(net, np.linspace(0, 1, 20).reshape(2, 10))
    assert mu.shape == (2, 6) and sr.shape == (2, 6)
    assert np.all((mu > 0) & (mu < 1)) and np.all((sr > 0) & (sr < 1))
    # rows only: a wrong width, and a flat or other-shaped input of the
    # right size, are refused rather than reshaped
    for bad in (np.zeros((1, 11)), np.zeros(10), np.zeros((2, 5)),
                np.zeros((1, 1, 10))):
        with pytest.raises(PolicyError, match=r"expected \(rows, 10\)"):
            forward(net, bad)


@pytest.mark.parametrize("hidden", [8, 128, 129, 130, 257, 300, 1024])
@pytest.mark.parametrize("obs_dim", [18, 350])
def test_forward_rows_match_one_row_calls(obs_dim, hidden):
    # a row of a batched forward has the bytes of a one-row call, below and
    # from BLOCK_ROWS rows on, at widths of one block, of a block and a
    # merged tail, and of several blocks; the net is not warm-started, so the
    # means read the GEMV results too. The layer product on its own is
    # checked against the whole-matrix GEMV of each row as well
    net = init_policy(obs_dim, hidden, seed=hidden)
    x = np.random.default_rng(obs_dim).random((20, obs_dim))
    for n in (1, BLOCK_ROWS - 1, BLOCK_ROWS, 20):
        rows = forward(net, x[:n])
        h = _rows_matmul(x[:n], net.w1)
        for i in range(n):
            one = forward(net, x[i:i + 1])
            for k in range(2):
                assert rows[k][i].tobytes() == one[k][0].tobytes(), (n, i, k)
            assert h[i].tobytes() == (x[i] @ net.w1).tobytes(), (n, i)


def test_effective_sigma_cap_and_floor():
    assert effective_sigma(np.array([0.5]))[0] == pytest.approx(0.05)
    assert effective_sigma(np.array([1.0]))[0] == pytest.approx(SIGMA_CAP)
    assert effective_sigma(np.array([0.0]))[0] == SIGMA_MIN
    assert effective_sigma(np.array([1e-9]))[0] == SIGMA_MIN


def test_logit_values_and_clamp():
    assert logit(0.5) == 0.0
    assert logit(0.0) == -8.0 and logit(1.0) == 8.0
    assert logit(-0.1) == -8.0 and logit(1.1) == 8.0
    assert logit(0.1) == pytest.approx(-2.1972245773362193828, rel=1e-14)


def test_warm_start_mean_is_exact_and_input_independent():
    net = init_policy(30, 16, seed=1)
    warm_start(net, CONFIG_B)
    want = normalize_params(CONFIG_B)
    assert net.b3[:6] == pytest.approx(
        [-0.24116205681688807046, -0.32277339226305103068,
         -0.16034265007517938338, -2.1972245773362193828,
         -0.13353139262452262315, -0.40546510810816438198], rel=1e-12)
    rng = np.random.default_rng(0)
    mus = []
    for _ in range(5):
        (mu,), (sr,) = forward(net, rng.random((1, 30)))
        assert mu == pytest.approx(want, abs=1e-9)
        # sigma heads keep their random weights; raw value stays near 0.5
        assert np.all((sr > 0.2) & (sr < 0.8))
        mus.append(mu)
    assert all(np.array_equal(m, mus[0]) for m in mus)


def test_sample_action_logp_consistency():
    net = init_policy(12, 8, seed=2)
    (mu,), (sr,) = forward(net, np.zeros((1, 12)))
    rng = np.random.default_rng(9)
    action = sample_action(mu, sr, rng)
    assert action.shape == (6,)
    # the draw is mu + sigma * a standard normal from the given generator
    eps = np.random.default_rng(9).standard_normal(6)
    assert np.array_equal(action, mu + effective_sigma(sr) * eps)
    # a displaced action is less likely than the mean
    assert log_prob(mu, sr, mu) >= log_prob(mu, sr, action)


def make_records(net, n, seed):
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(n):
        obs = rng.random(net.obs_dim)
        (mu,), (sr,) = forward(net, obs[None])
        records.append((obs, sample_action(mu, sr, rng), float(rng.normal())))
    return records


def test_reinforce_gradient_matches_finite_differences():
    net = init_policy(obs_dim=10, hidden=8, seed=5)
    records = make_records(net, 4, seed=11)
    grads = reinforce_backward(net, records)
    rng = np.random.default_rng(17)
    h = 1e-6
    checked = 0
    worst = 0.0
    for name in PARAM_NAMES:
        p = net.params()[name]
        for flat in rng.choice(p.size, size=min(60, p.size), replace=False):
            idx = np.unravel_index(flat, p.shape)
            keep = p[idx]
            p[idx] = keep + h
            up = reinforce_loss(net, records)
            p[idx] = keep - h
            dn = reinforce_loss(net, records)
            p[idx] = keep
            fd = (up - dn) / (2 * h)
            an = grads[name][idx]
            rel = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
            worst = max(worst, rel)
            checked += 1
    assert checked >= 200
    assert worst < 1e-4


def test_reinforce_guards():
    net = init_policy(10, 8, seed=5)
    with pytest.raises(PolicyError, match="at least one record"):
        reinforce_backward(net, [])
    records = make_records(net, 2, seed=1)
    records[1] = (records[1][0], records[1][1], float("inf"))
    with pytest.raises(PolicyError, match="non-finite"):
        reinforce_backward(net, records)


def clone(net):
    return PolicyNet(**{n: p.copy() for n, p in net.params().items()})


def test_zero_lr_is_a_null_update():
    net = init_policy(10, 8, seed=5)
    before = clone(net)
    opt = init_optimizer(net, lr=0.0)
    records = make_records(net, 3, seed=2)
    norm = apply_update(net, opt, reinforce_backward(net, records))
    assert norm > 0.0 and opt.step == 1
    for n in PARAM_NAMES:
        assert np.array_equal(net.params()[n], before.params()[n]), n


def test_clipping_equals_prescaled_gradients():
    a = init_policy(10, 8, seed=5)
    b = clone(a)
    opt_a = init_optimizer(a, lr=1e-3, clip=10.0)
    opt_b = init_optimizer(b, lr=1e-3, clip=10.0)
    grads = {n: np.full_like(p, 1.0) for n, p in a.params().items()}
    norm = global_norm(grads)
    assert norm > 10.0
    pre = apply_update(a, opt_a, grads)
    assert pre == pytest.approx(norm)        # reported norm is pre-clip
    scaled = {n: g * (10.0 / norm) for n, g in grads.items()}
    apply_update(b, opt_b, scaled)
    for n in PARAM_NAMES:
        assert np.allclose(a.params()[n], b.params()[n], rtol=0, atol=1e-15), n


# numpy's pairwise sum runs 8 accumulators up to 128 elements and splits
# longer runs at n // 2 rounded down to a multiple of 8; these sizes sit on
# and beside those edges, and beside one and two Adam blocks
NORM_SIZES = [1, 7, 8, 9, 127, 128, 129, ADAM_BLOCK - 1, ADAM_BLOCK, ADAM_BLOCK + 1,
              2 * ADAM_BLOCK - 8, 2 * ADAM_BLOCK + 8, 3 * 5 * 7 * 11 * 13 * 17,
              1021 * 1031, 2 * ADAM_BLOCK + 7 * 131]
RANDOM_NORM_SIZES = np.random.default_rng(21).integers(1, 2_000_001, 12).tolist()


@pytest.mark.parametrize("n", NORM_SIZES + RANDOM_NORM_SIZES)
def test_blocked_sum_of_squares_is_numpy_sum(n):
    g = np.random.default_rng(n).normal(0.0, 1.0, n)
    assert _sum_squares(g, np.empty(ADAM_BLOCK)) == float(np.sum(g * g))


# the gradient shapes of the desk, baseline and large observation widths
# (6, 15 and 48 cells at history 10) at hidden 8, 300 and 1024
@pytest.mark.parametrize("hidden", [8, 300, 1024])
@pytest.mark.parametrize("obs_dim", [170, 350, 1010])
def test_global_norm_is_the_sum_of_numpy_sums(obs_dim, hidden):
    rng = np.random.default_rng(obs_dim + hidden)
    shapes = {"w1": (obs_dim, hidden), "b1": (hidden,), "w2": (hidden, hidden),
              "b2": (hidden,), "w3": (hidden, 12), "b3": (12,)}
    grads = {n: rng.normal(0.0, 1.0, s) for n, s in shapes.items()}
    buf = np.empty(ADAM_BLOCK)
    for g in grads.values():
        assert _sum_squares(g.reshape(-1), buf) == float(np.sum(g * g))
    assert global_norm(grads) == math.sqrt(sum(float(np.sum(g * g))
                                               for g in grads.values()))


def test_global_norm_holds_no_gradient_sized_temporary():
    grads = {"w2": np.random.default_rng(4).normal(0.0, 1.0, (1024, 1024))}
    tracemalloc.start()
    try:
        global_norm(grads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * ADAM_BLOCK * 8, peak


def test_optimizer_descends():
    net = init_policy(10, 8, seed=5)
    opt = init_optimizer(net, lr=0.05, weight_decay=0.0)
    start = sum(float(np.sum(p * p)) for p in net.params().values())
    for _ in range(100):
        grads = {n: p.copy() for n, p in net.params().items()}  # d/dp of ||p||^2/2
        apply_update(net, opt, grads)
    end = sum(float(np.sum(p * p)) for p in net.params().values())
    assert end < 0.05 * start


def test_checkpoint_round_trip(tmp_path):
    net = init_policy(14, 8, seed=6)
    warm_start(net, CONFIG_B)
    opt = init_optimizer(net, lr=3e-4, weight_decay=1e-4, clip=10.0)
    apply_update(net, opt, reinforce_backward(net, make_records(net, 2, 3)))
    table = BaselineTable(window=2)
    table.seed_reference(5, [IntervalAggregate(0, 1e6, 1e5, 1e4, 25.0)])
    rng = np.random.default_rng(1234)
    rng.random(7)
    state = rng.bit_generator.state
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, net, opt, table, state, {"episode": 42})
    ck = load_checkpoint(path)
    for n in PARAM_NAMES:
        assert np.array_equal(ck.net.params()[n], net.params()[n]), n
        assert np.array_equal(ck.opt.m[n], opt.m[n])
        assert np.array_equal(ck.opt.v[n], opt.v[n])
    assert (ck.opt.lr, ck.opt.step, ck.opt.clip) == (3e-4, 1, 10.0)
    for name in BASELINE_ARRAYS:
        assert np.array_equal(getattr(ck.baselines, name), getattr(table, name))
    assert ck.meta == {"episode": 42}
    # the restored stream continues exactly where the saved one left off
    r2 = np.random.default_rng(0)
    r2.bit_generator.state = ck.rng_state
    assert np.array_equal(r2.random(5), rng.random(5))
    save_checkpoint(tmp_path / "again.ckpt", net, opt, table, state, {"episode": 42})
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


def test_checkpoint_rejects_foreign_files(tmp_path):
    p = tmp_path / "junk.bin"
    save_container(p, {"kind": "something-else", "extra": {}}, {"x": np.zeros(3)})
    for load in (load_checkpoint, load_net):
        with pytest.raises(PolicyError, match="not a checkpoint"):
            load(p)
    net = init_policy(10, 8, seed=0)
    opt = init_optimizer(net)
    good = tmp_path / "good.ckpt"
    save_checkpoint(good, net, opt, BaselineTable(), None, {})
    meta_ok = load_checkpoint(good)
    assert meta_ok.rng_state is None


def trained_checkpoint(path, obs_dim, hidden):
    net = init_policy(obs_dim, hidden, seed=2)
    opt = init_optimizer(net)
    apply_update(net, opt, reinforce_backward(net, make_records(net, 2, 3)))
    save_checkpoint(path, net, opt, BaselineTable(), None, {"loop": {"train_seeds": [4]}})
    return net


def test_load_net_holds_the_net_and_no_optimizer_array(tmp_path):
    # the Adam moments, two thirds of the payload, are hashed through one
    # CHUNK buffer and never allocated
    path = tmp_path / "h256.ckpt"
    net = trained_checkpoint(path, 400, 256)
    net_bytes = sum(p.nbytes for p in net.params().values())
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        got, extra = load_net(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 2.5 * net_bytes
    assert peak < net_bytes + 1.1 * CHUNK, (peak, net_bytes)
    assert extra == {"loop": {"train_seeds": [4]}}
    for n in PARAM_NAMES:
        assert got.params()[n].tobytes() == net.params()[n].tobytes(), n


def test_load_net_refuses_a_flipped_optimizer_byte(tmp_path):
    path = tmp_path / "net.ckpt"
    trained_checkpoint(path, 14, 8)
    blob = bytearray(path.read_bytes())
    (header_len,) = struct.unpack_from("<Q", blob, PREFIX_LEN - 8)
    entries = json.loads(blob[PREFIX_LEN:PREFIX_LEN + header_len])["arrays"]
    [ent] = [e for e in entries if e["name"] == "opt_v_w2"]
    blob[PREFIX_LEN + header_len + ent["offset"] + ent["nbytes"] // 2] ^= 0xFF
    path.write_bytes(blob)
    with pytest.raises(ContainerError, match="checksum mismatch"):
        load_net(path)


# the 12x16 net fits in one 16 K-element Adam block; in the 100x200 net w1
# (20 000 elements) and w2 (40 000) span several blocks and end in a ragged tail
@pytest.mark.parametrize("obs_dim, hidden", [(12, 16), (100, 200)],
                         ids=["one-block", "multi-block"])
def test_in_place_adam_matches_the_formula_bit_for_bit(obs_dim, hidden):
    def reference_step(params, m, v, grads, opt, t):
        norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        scale = opt.clip / norm if norm > opt.clip else 1.0
        bc1 = 1.0 - opt.beta1 ** t
        bc2 = 1.0 - opt.beta2 ** t
        for name, p in params.items():
            g = grads[name] * scale
            m[name] = opt.beta1 * m[name] + (1.0 - opt.beta1) * g
            v[name] = opt.beta2 * v[name] + (1.0 - opt.beta2) * g * g
            p -= opt.lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + opt.eps)
            if name.startswith("w") and opt.weight_decay:
                p -= opt.lr * opt.weight_decay * p

    net = init_policy(obs_dim, hidden, seed=8)
    opt = init_optimizer(net, lr=3e-3, weight_decay=1e-2, clip=1.0)
    params = {n: p.copy() for n, p in net.params().items()}
    m = {n: np.zeros_like(p) for n, p in params.items()}
    v = {n: np.zeros_like(p) for n, p in params.items()}
    rng = np.random.default_rng(12)
    for t in range(1, 21):
        # every third step stays under the clip threshold
        size = 0.01 if t % 3 == 0 else 1.0
        grads = {n: rng.normal(0.0, size, p.shape) for n, p in params.items()}
        apply_update(net, opt, grads)
        reference_step(params, m, v, grads, opt, t)
    assert opt.step == 20
    for n, p in net.params().items():
        assert p.tobytes() == params[n].tobytes(), n
        assert opt.m[n].tobytes() == m[n].tobytes(), n
        assert opt.v[n].tobytes() == v[n].tobytes(), n
