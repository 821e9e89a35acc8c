"""The Gaussian policy network and its training mechanics, written against
numpy directly: forward pass, analytic REINFORCE gradients (verified by
finite differences in the test suite), an adaptive optimizer with
decoupled weight decay, global-norm gradient clipping, heuristic warm
start, and bit-exact checkpoint serialization.

Architecture: obs -> hidden (tanh) -> hidden (tanh) -> 12 sigmoid outputs;
the first 6 outputs are the action means in normalized [0,1] units, the
last 6 are raw standard deviations scaled by SIGMA_CAP downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .container import load_container, save_container
from .rlenv import BASELINE_ARRAYS, BaselineTable, normalize_params
from .reselect import ReselectionParams

N_OUT = 12          # 6 means + 6 raw sigmas
N_PARAMS = 6
SIGMA_CAP = 0.1     # normalized-action std cap
SIGMA_MIN = 1e-3    # floor keeping log-densities finite
LOGIT_CLAMP = 8.0   # warm-start bias clamp for range-endpoint presets

CHECKPOINT_VERSION = 1
CHECKPOINT_KIND = "cellpilot-checkpoint"

WEIGHT_NAMES = ("w1", "w2", "w3")
PARAM_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3")
ADAM_BLOCK = 16384  # elements per Adam block: its operands stay in cache
FORWARD_BLOCK = 128  # weight columns per forward block: 1 MB at hidden 1024
BLOCK_ROWS = 8       # rows from which the forward reads weights block by block


class PolicyError(Exception):
    pass


@dataclass
class PolicyNet:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray

    @property
    def obs_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def hidden(self) -> int:
        return self.w1.shape[1]

    def params(self) -> dict[str, np.ndarray]:
        return {n: getattr(self, n) for n in PARAM_NAMES}


def init_policy(obs_dim: int, hidden: int = 1024, seed: int = 0) -> PolicyNet:
    """Scaled uniform fan-in init U(+/- 1/sqrt(fan_in)); biases zero.

    Each draw is ``uniform(-lim, lim)``'s ``low + (high - low) * d`` on the
    same doubles d of the stream, scaled in place rather than by uniform's
    broadcast loop."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))

    def u(fan_in, shape):
        lim = 1.0 / math.sqrt(fan_in)
        x = rng.random(shape)
        x *= lim - -lim
        x += -lim
        return x
    return PolicyNet(
        w1=u(obs_dim, (obs_dim, hidden)), b1=np.zeros(hidden),
        w2=u(hidden, (hidden, hidden)), b2=np.zeros(hidden),
        w3=u(hidden, (hidden, N_OUT)), b3=np.zeros(N_OUT),
    )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _rows_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w for rows x (S, K), each row by its own GEMV, so row i's bits
    are those of the one-row product ``x[i] @ w`` whatever S is.

    From BLOCK_ROWS rows on, the columns of w go block by block into one
    reused contiguous buffer, and every row's GEMV reads a block while it is
    in cache. OpenBLAS's dgemv gives each output column the bits of the
    whole-matrix call as long as the last block keeps the whole matrix's
    column tail, so the remainder joins the last block: no block is narrower
    than FORWARD_BLOCK unless the layer is. That holds at one BLAS thread;
    with more, OpenBLAS may split the whole matrix's outputs between threads
    at other columns than a block's (README, Evaluation).
    """
    n_rows, k = x.shape
    width = w.shape[1]
    out = np.empty((n_rows, width))
    if n_rows < BLOCK_ROWS:
        for r, o in zip(x, out):
            np.matmul(r, w, out=o)
        return out
    edges = [*range(0, FORWARD_BLOCK * max(width // FORWARD_BLOCK, 1),
                    FORWARD_BLOCK), width]
    buf = np.empty(k * (width - edges[-2]))   # the last block is the widest
    for lo, hi in zip(edges, edges[1:]):
        blk = buf[:k * (hi - lo)].reshape(k, hi - lo)
        np.copyto(blk, w[:, lo:hi])
        for r, o in zip(x, out[:, lo:hi]):
            np.matmul(r, blk, out=o)
    return out


def forward(net: PolicyNet, obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mu, sigma_raw), each (S, 6), for observation rows (S, obs_dim).

    Row i's values are bit for bit those of a one-row call on obs[i:i+1]:
    every layer is a GEMV per row (:func:`_rows_matmul`), unlike the GEMM
    of :func:`_forward_batch`.
    """
    x = np.ascontiguousarray(obs, dtype=float)
    if x.ndim != 2 or x.shape[1] != net.obs_dim:
        raise PolicyError(f"observations of shape {x.shape} != expected "
                          f"(rows, {net.obs_dim})")
    a1 = np.tanh(_rows_matmul(x, net.w1) + net.b1)
    a2 = np.tanh(_rows_matmul(a1, net.w2) + net.b2)
    out = _sigmoid(_rows_matmul(a2, net.w3) + net.b3)
    return out[:, :N_PARAMS], out[:, N_PARAMS:]


def _forward_batch(net: PolicyNet, x: np.ndarray):
    """Activations (a1, a2, out) for rows (N, D), as one GEMM per layer."""
    a1 = np.tanh(x @ net.w1 + net.b1)
    a2 = np.tanh(a1 @ net.w2 + net.b2)
    out = _sigmoid(a2 @ net.w3 + net.b3)
    return a1, a2, out


def effective_sigma(sigma_raw: np.ndarray) -> np.ndarray:
    return np.maximum(SIGMA_CAP * np.asarray(sigma_raw, dtype=float), SIGMA_MIN)


def sample_action(mu: np.ndarray, sigma_raw: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Draw the 6 parameter values, mu + sigma * a standard normal each. The
    sample is left unclipped here; mapping clips to [0,1]."""
    return mu + effective_sigma(sigma_raw) * rng.standard_normal(N_PARAMS)


def reinforce_backward(net: PolicyNet, records) -> dict[str, np.ndarray]:
    """Gradient of L = -sum_j r_j * log pi(a_j | s_j).

    `records` is a sequence of (obs, action, reward), the action the
    unclipped 6-value sample of :func:`sample_action`.
    """
    if len(records) == 0:
        raise PolicyError("reinforce_backward needs at least one record")
    x = np.stack([np.asarray(r[0], dtype=float) for r in records])
    act = np.stack([np.asarray(r[1], dtype=float) for r in records])
    rew = np.array([float(r[2]) for r in records])
    a1, a2, out = _forward_batch(net, x)
    mu = out[:, :N_PARAMS]
    sr = out[:, N_PARAMS:]
    sigma = effective_sigma(sr)
    diff = act - mu
    dlogp_dmu = diff / sigma ** 2
    dlogp_dsigma = diff ** 2 / sigma ** 3 - 1.0 / sigma
    dsigma_dsr = np.where(SIGMA_CAP * sr > SIGMA_MIN, SIGMA_CAP, 0.0)
    dl_dout = np.empty_like(out)
    dl_dout[:, :N_PARAMS] = -rew[:, None] * dlogp_dmu
    dl_dout[:, N_PARAMS:] = -rew[:, None] * dlogp_dsigma * dsigma_dsr
    bad = ~np.isfinite(dl_dout).all(axis=1)
    if bad.any():
        raise PolicyError(f"non-finite gradient at record {int(np.flatnonzero(bad)[0])}")
    dz3 = dl_dout * out * (1.0 - out)
    gw3 = a2.T @ dz3
    gb3 = dz3.sum(axis=0)
    da2 = dz3 @ net.w3.T
    dz2 = da2 * (1.0 - a2 ** 2)
    gw2 = a1.T @ dz2
    gb2 = dz2.sum(axis=0)
    da1 = dz2 @ net.w2.T
    dz1 = da1 * (1.0 - a1 ** 2)
    gw1 = x.T @ dz1
    gb1 = dz1.sum(axis=0)
    return {"w1": gw1, "b1": gb1, "w2": gw2, "b2": gb2, "w3": gw3, "b3": gb3}


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

@dataclass
class OptimizerState:
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 1e-4   # decoupled, applied to weights only
    clip: float = 10.0           # global l2-norm threshold
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def init_optimizer(net: PolicyNet, lr: float = 1e-4, weight_decay: float = 1e-4,
                   clip: float = 10.0) -> OptimizerState:
    opt = OptimizerState(lr=lr, weight_decay=weight_decay, clip=clip)
    for name, p in net.params().items():
        opt.m[name] = np.zeros_like(p)
        opt.v[name] = np.zeros_like(p)
    return opt


def _sum_squares(g: np.ndarray, buf: np.ndarray) -> float:
    """``np.sum(g * g)`` of a flat float64 array, bit for bit, squaring at
    most ADAM_BLOCK elements at a time into `buf`. numpy's pairwise sum
    splits a run of n > 128 elements at n // 2 rounded down to a multiple of
    8 and adds the two halves' sums; a run longer than a block is split
    where numpy splits it, so each block is one of numpy's own runs."""
    n = g.size
    if n <= ADAM_BLOCK:
        return float(np.sum(np.multiply(g, g, out=buf[:n])))
    half = n // 2 - n // 2 % 8
    return _sum_squares(g[:half], buf) + _sum_squares(g[half:], buf)


def global_norm(grads: dict[str, np.ndarray]) -> float:
    """The l2 norm over all (C-contiguous, float64) gradients: the square
    root of the sum, in dict order, of each one's ``np.sum(g * g)``, without
    a gradient-sized temporary."""
    buf = np.empty(ADAM_BLOCK)
    return float(math.sqrt(sum(_sum_squares(g.reshape(-1), buf)
                               for g in grads.values())))


def apply_update(net: PolicyNet, opt: OptimizerState,
                 grads: dict[str, np.ndarray]) -> float:
    """One clipped, bias-corrected adaptive step with decoupled weight
    decay on the weight matrices; returns the pre-clip global norm.

    The moments and the parameters (C-contiguous, as :func:`init_policy`,
    :func:`init_optimizer` and :func:`load_checkpoint` make them) are
    updated in place, ADAM_BLOCK elements at a time through two scratch
    blocks, with the float operations, operand order included, of
    g = grad*scale, m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
    p -= lr*(m/bc1) / (sqrt(v/bc2) + eps) and p -= lr*wd*p.
    """
    norm = global_norm(grads)
    scale = opt.clip / norm if norm > opt.clip else 1.0
    opt.step += 1
    bc1 = 1.0 - opt.beta1 ** opt.step
    bc2 = 1.0 - opt.beta2 ** opt.step
    g_buf, t_buf = np.empty(ADAM_BLOCK), np.empty(ADAM_BLOCK)
    for name, p in net.params().items():
        decay = name in WEIGHT_NAMES and opt.weight_decay
        p, m, v, grad = (a.reshape(-1) for a in (p, opt.m[name], opt.v[name], grads[name]))
        for lo in range(0, p.size, ADAM_BLOCK):
            hi = min(lo + ADAM_BLOCK, p.size)
            pb, mb, vb = p[lo:hi], m[lo:hi], v[lo:hi]
            g = np.multiply(grad[lo:hi], scale, out=g_buf[:hi - lo])
            tmp = np.multiply(g, 1.0 - opt.beta1, out=t_buf[:hi - lo])
            mb *= opt.beta1
            mb += tmp
            np.multiply(g, 1.0 - opt.beta2, out=tmp)
            tmp *= g
            vb *= opt.beta2
            vb += tmp
            step = np.divide(mb, bc1, out=g)
            step *= opt.lr
            np.divide(vb, bc2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += opt.eps
            step /= tmp
            pb -= step
            if decay:
                pb -= np.multiply(pb, opt.lr * opt.weight_decay, out=tmp)
    return norm


# ---------------------------------------------------------------------------
# Warm start
# ---------------------------------------------------------------------------

def logit(u: float) -> float:
    if u <= 0.0:
        return -LOGIT_CLAMP
    if u >= 1.0:
        return LOGIT_CLAMP
    return min(max(math.log(u / (1.0 - u)), -LOGIT_CLAMP), LOGIT_CLAMP)


def warm_start(net: PolicyNet, params: ReselectionParams) -> PolicyNet:
    """Write the preset into the mean-head output biases (zeroing those
    heads' input weights so the initial mean action is exact and input-
    independent); sigma-head biases start at 0 so the initial exploration
    std sits near SIGMA_CAP/2."""
    u = normalize_params(params)
    net.b3[:N_PARAMS] = [logit(float(v)) for v in u]
    net.w3[:, :N_PARAMS] = 0.0
    net.b3[N_PARAMS:] = 0.0
    return net


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    net: PolicyNet
    opt: OptimizerState
    baselines: BaselineTable
    rng_state: dict | None
    meta: dict


def save_checkpoint(path, net: PolicyNet, opt: OptimizerState,
                    baselines: BaselineTable, rng_state: dict | None,
                    extra: dict) -> None:
    arrays = {f"net_{n}": p for n, p in net.params().items()}
    for n in PARAM_NAMES:
        arrays[f"opt_m_{n}"] = opt.m[n]
        arrays[f"opt_v_{n}"] = opt.v[n]
    arrays.update((n, getattr(baselines, n)) for n in BASELINE_ARRAYS)
    meta = {
        "kind": CHECKPOINT_KIND,
        "version": CHECKPOINT_VERSION,
        "obs_dim": net.obs_dim,
        "hidden": net.hidden,
        "opt": {"lr": opt.lr, "beta1": opt.beta1, "beta2": opt.beta2,
                "eps": opt.eps, "weight_decay": opt.weight_decay,
                "clip": opt.clip, "step": opt.step},
        "baseline_window": baselines.window,
        "rng_state": rng_state,
        "extra": extra,
    }
    save_container(path, meta, arrays)


def _read_checkpoint(path, names=None) -> tuple[dict, dict]:
    """A checkpoint's meta and arrays (those in `names` when given), after
    the container's checks and the kind and version checks."""
    meta, arrays = load_container(path, names)
    if meta.get("kind") != CHECKPOINT_KIND:
        raise PolicyError(f"{path}: not a checkpoint file")
    if meta.get("version") != CHECKPOINT_VERSION:
        raise PolicyError(
            f"{path}: checkpoint version {meta.get('version')} unsupported "
            f"(expected {CHECKPOINT_VERSION})")
    return meta, arrays


def _net_of(arrays: dict) -> PolicyNet:
    return PolicyNet(**{n: arrays[f"net_{n}"] for n in PARAM_NAMES})


def load_net(path) -> tuple[PolicyNet, dict]:
    """A checkpoint's net and its `extra` document, for evaluation: the
    optimizer and baseline arrays are verified by the file's digest but
    never held."""
    meta, arrays = _read_checkpoint(path, [f"net_{n}" for n in PARAM_NAMES])
    return _net_of(arrays), meta["extra"]


def load_checkpoint(path) -> Checkpoint:
    meta, arrays = _read_checkpoint(path)
    net = _net_of(arrays)
    o = meta["opt"]
    opt = OptimizerState(lr=o["lr"], beta1=o["beta1"], beta2=o["beta2"],
                         eps=o["eps"], weight_decay=o["weight_decay"],
                         clip=o["clip"], step=o["step"])
    for n in PARAM_NAMES:
        opt.m[n] = arrays[f"opt_m_{n}"]
        opt.v[n] = arrays[f"opt_v_{n}"]
    baselines = BaselineTable(meta["baseline_window"],
                              *(arrays[n] for n in BASELINE_ARRAYS))
    return Checkpoint(net, opt, baselines, meta.get("rng_state"), meta["extra"])
