"""Training orchestration: seed derivation and shuffling, the episode-length
curriculum with learning-rate halving, REINFORCE updates against per-seed
baselines, convergence monitoring, periodic + best checkpointing, and
deterministic evaluation against the heuristic reference.

All randomness flows from run_seed through fixed SeedSequence streams
(train/eval/validation seed sets and the trainer's own sampling RNG), so
a checkpoint restores enough state to reproduce the remaining training
trajectory bit-exactly.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import policy as pol
from . import rlenv, simcore
from .container import CHUNK, write_atomic
from .reselect import PRESETS, ReselectionParams
from .rlenv import BaselineTable, compute_reward, interval_aggregates, map_action
from .simcore import EpisodeConfig
from .topology import Topology
from .traffic import TrafficConfig

SEED_STREAM_TRAIN = 0
SEED_STREAM_EVAL = 1
SEED_STREAM_VALIDATION = 2
SEED_STREAM_TRAINER = 3

ABLATION_VARIANTS = ("no_curriculum", "seeds_500", "mobility_eval",
                     "stress_test", "slow_updates", "synchronous_updates")

EVAL_EPS = 1.0  # bit/s guard in gain ratios
EVAL_LENGTH = 50.0  # s, the length of an evaluation episode unless one is given
# UEs one lockstep batch of eval episodes may stack: per-UE state grows with
# the batch, so larger populations run in batches of fewer seeds
LOCKSTEP_UES = 1000


class TrainerError(Exception):
    pass


def derive_seeds(run_seed: int, stream: int, count: int,
                 exclude=()) -> list[int]:
    """Deterministic seed set i -> SeedSequence([run_seed, stream, i]),
    skipping any seed already used elsewhere (keeps sets disjoint)."""
    seeds: list[int] = []
    seen = set(exclude)
    i = 0
    while len(seeds) < count:
        s = int(np.random.SeedSequence([run_seed, stream, i]).generate_state(1)[0])
        i += 1
        if s in seen:
            continue
        seen.add(s)
        seeds.append(s)
    return seeds


@dataclass(frozen=True)
class CurriculumSchedule:
    initial_length: float = 30.0   # s
    increment: float = 10.0        # s added per round
    passes_per_round: int = 3      # shuffled passes over the seed set
    rounds: int = 3
    lr_halving: bool = True

    def lengths(self) -> list[float]:
        return [self.initial_length + self.increment * r for r in range(self.rounds)]

    @property
    def final_length(self) -> float:
        return self.lengths()[-1]

    def validate(self) -> None:
        if self.rounds < 1 or self.passes_per_round < 1:
            raise ValueError("rounds and passes_per_round must be >= 1")
        if (not math.isfinite(self.initial_length)
                or simcore.step_count(self.initial_length) < 1):
            raise ValueError(f"initial_length must be finite and give at least "
                             f"one {simcore.DT:g} s step, got {self.initial_length}")
        # a NaN or infinite increment makes the final length NaN or infinite
        # (with one round too: inf * 0 is NaN)
        if not (self.increment >= 0 and math.isfinite(self.final_length)):
            raise ValueError(f"increment must be >= 0 and keep every length "
                             f"finite, got {self.increment}")


@dataclass
class TrainRunConfig:
    topology: Topology
    run_seed: int = 0
    seed_count: int = 100
    eval_seed_count: int = 20
    validation_seed_count: int = 3
    n_ues: int = 500
    pri: int = 1
    weights: tuple[float, float, float] = (0.4, 0.4, 0.2)
    baseline_window: int = 2
    hidden: int = 1024
    history_k: int = 10
    lr: float = 1e-4
    checkpoint_every: int = 50
    mobility_eval: bool = False
    preset: str = "config_b"
    episode_cap: int | None = None

    def validate(self) -> None:
        if not all(math.isfinite(w) for w in self.weights):
            raise ValueError(f"weights must be finite, got {self.weights}")
        if not abs(sum(self.weights) - 1.0) <= 1e-9:
            raise ValueError(f"reward weights must sum to 1, got {self.weights}")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if self.preset not in PRESETS:
            raise ValueError(f"preset must be one of {', '.join(sorted(PRESETS))}, "
                             f"got '{self.preset}'")
        for name in ("pri", "n_ues", "hidden", "seed_count", "eval_seed_count",
                     "validation_seed_count", "checkpoint_every",
                     "baseline_window"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.episode_cap is not None and self.episode_cap < 1:
            raise ValueError(f"episode_cap must be >= 1 when set, got {self.episode_cap}")

    def document(self) -> dict:
        """The run's recorded settings: the `config` document its checkpoints
        store, a resume compares key by key, and the manifests copy."""
        return {"run_seed": self.run_seed, "seed_count": self.seed_count,
                "n_ues": self.n_ues, "pri": self.pri, "weights": list(self.weights),
                "baseline_window": self.baseline_window, "hidden": self.hidden,
                "history_k": self.history_k, "lr": self.lr, "preset": self.preset,
                # the one credit rule; kept so checkpoints keep their bytes
                "return_mode": "immediate"}

    def episode_cfg(self, seed: int, length: float, *,
                    train: bool) -> EpisodeConfig:
        """Training episodes run static and unobstructed; eval episodes run
        with obstruction, and move when `mobility_eval` is set."""
        return EpisodeConfig(
            topology=self.topology,
            episode_seed=seed,
            n_ues=self.n_ues,
            length=length,
            pri=self.pri,
            traffic=TrafficConfig(mobility_enabled=not train and self.mobility_eval),
            obstruction_enabled=not train,
            history_k=self.history_k,
        )


@dataclass
class ConvergenceMonitor:
    """EWMA of the normalized episode reward plus a rolling std window."""
    alpha: float = 0.2
    window: int = 100
    eps: float = 5e-3
    std_threshold: float = 7e-3
    ewma: float | None = None
    recent: list = field(default_factory=list)

    def update(self, value: float) -> tuple[float, float]:
        self.ewma = value if self.ewma is None else \
            self.alpha * value + (1.0 - self.alpha) * self.ewma
        self.recent.append(value)
        while len(self.recent) > self.window:
            del self.recent[0]
        return self.ewma, self.rolling_std()

    def rolling_std(self) -> float:
        if len(self.recent) < 2:
            return float("inf")
        return float(np.std(np.array(self.recent)))

    def converged(self) -> bool:
        return self.ewma is not None and self.rule_met(
            self.ewma, self.rolling_std(), len(self.recent))

    def rule_met(self, ewma: float, rolling_std: float, count: int) -> bool:
        """The convergence rule for an EWMA and rolling std taken over
        `count` values (the window's worth at most)."""
        return (abs(ewma) < self.eps and count >= self.window
                and rolling_std < self.std_threshold)

    def state(self) -> dict:
        return {"ewma": self.ewma, "recent": [float(v) for v in self.recent]}

    def restore(self, st: dict) -> None:
        self.ewma = st["ewma"]
        self.recent = list(st["recent"])


@dataclass
class TrainLogRow:
    episode: int
    seed: int
    round: int
    pass_index: int
    lr: float
    length: float
    r_total: float
    r_tput: float
    r_bal: float
    r_ue_eff: float
    grad_norm: float
    clamped: int
    ewma: float
    rolling_std: float


LOG_COLUMNS = tuple(f.name for f in fields(TrainLogRow))


def write_training_log(rows: list[TrainLogRow], path, append: bool = False) -> None:
    """Write the log, or with `append` add `rows` to an existing one; either
    way the file is replaced whole (:func:`write_atomic`)."""
    path = Path(path)
    old = path.read_bytes() if append and path.exists() else None
    lines = [",".join(LOG_COLUMNS)] if old is None else []
    for r in rows:
        vals = [getattr(r, c) for c in LOG_COLUMNS]
        lines.append(",".join(
            str(v) if isinstance(v, int) else f"{v:.17g}" for v in vals))
    write_atomic(path, [old or b"", "".join(line + "\n" for line in lines).encode()])


@dataclass
class TrainResult:
    final_checkpoint: Path
    best_checkpoint: Path | None
    log_rows: list[TrainLogRow]
    converged_episode: int | None
    train_seeds: list[int]
    settings: dict     # the config document and the schedule, as checkpoints record them


def _mean_action_controller(net: pol.PolicyNet):
    """Every row's mean action, from one forward call over all rows."""
    def controller(obs, interval):
        mu, _ = pol.forward(net, obs)
        return [map_action(m) for m in mu]
    return controller


def _reference(ep: EpisodeConfig, params: ReselectionParams,
               max_length: float, cache) -> simcore.Trajectory:
    """The heuristic reference of `ep`: one cached run at `max_length` cut
    to `ep.length`, so every curriculum round of a training seed shares one
    cache entry."""
    full = simcore.run_heuristic_reference(
        replace(ep, length=max(ep.length, max_length)), params, cache)
    n = simcore.step_count(ep.length)
    return simcore.Trajectory(**{k: v[:n] for k, v in vars(full).items()})


def _train_episode(net, opt, baselines, cfg: TrainRunConfig, seed: int,
                   length: float, max_length: float, rng, cache):
    ep = cfg.episode_cfg(seed=seed, length=length, train=True)
    ref = _reference(ep, PRESETS[cfg.preset], max_length, cache)
    baselines.seed_reference(seed, interval_aggregates(ref, ep.pri))

    records: list[tuple[np.ndarray, np.ndarray, int]] = []

    def controller(obs, interval):
        mu, sigma_raw = pol.forward(net, obs)
        action = pol.sample_action(mu[0], sigma_raw[0], rng)
        records.append((obs[0], action, interval))
        return [map_action(action)]

    result = simcore.run_episode(ep, controller)
    aggs = interval_aggregates(result.steps, ep.pri)
    rewards = [compute_reward(a, baselines, seed, cfg.weights, ep.n_ues)
               for a in aggs]
    totals = [r.r_total for r in rewards]
    grad_records = [(obs, action, totals[interval])
                    for obs, action, interval in records]
    grads = pol.reinforce_backward(net, grad_records)
    grad_norm = pol.apply_update(net, opt, grads)
    baselines.push(seed, aggs)
    clamped = sum(len(u.clamped) for u in result.updates)
    return {
        "r_total": float(np.mean(totals)),
        "r_tput": float(np.mean([r.r_tput for r in rewards])),
        "r_bal": float(np.mean([r.r_bal for r in rewards])),
        "r_ue_eff": float(np.mean([r.r_ue_eff for r in rewards])),
        "grad_norm": grad_norm,
        "clamped": clamped,
    }


def train(cfg: TrainRunConfig, schedule: CurriculumSchedule,
          out_dir, cache=None, resume_from=None) -> TrainResult:
    """Run the curriculum from its start or from `resume_from`.

    `episode`, the count of episodes done, is the only loop counter: after
    e episodes the next one trains on seed ``e % n`` of pass ``e // n`` (n
    training seeds), that pass is ``divmod(e // n, passes_per_round)`` as
    (round, pass), and each pass draws its seed order from the trainer's
    generator when it starts. A checkpoint stores that position with the
    pass's order, and the run's settings as one `config` document beside
    its schedule; a resume refuses a checkpoint whose `config` keys,
    schedule or network input width differ from this run's, naming the
    first key that does.
    """
    cfg.validate()
    schedule.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    topo = cfg.topology
    obs_dim = rlenv.observation_dim(topo.n_cells, cfg.history_k)
    config = cfg.document()
    train_seeds = derive_seeds(cfg.run_seed, SEED_STREAM_TRAIN, cfg.seed_count)
    val_seeds = derive_seeds(cfg.run_seed, SEED_STREAM_VALIDATION,
                             cfg.validation_seed_count, exclude=train_seeds)
    lengths = schedule.lengths()
    monitor = ConvergenceMonitor()
    n, passes = len(train_seeds), schedule.passes_per_round
    seed_order = None

    if resume_from is not None:
        ck = pol.load_checkpoint(resume_from)
        net, opt, baselines = ck.net, ck.opt, ck.baselines
        # a resume continues the run the checkpoint recorded, and reads its
        # position from `episode`, so every recorded setting must be the same
        stored = {**ck.meta["config"], "schedule": ck.meta["schedule"],
                  "obs_dim": net.obs_dim}
        for name, want in {**config, "schedule": asdict(schedule),
                           "obs_dim": obs_dim}.items():
            if stored.get(name) != want:
                raise TrainerError(f"checkpoint {name} {stored.get(name)} "
                                   f"differs from this run's {want}")
        rng = np.random.default_rng()
        rng.bit_generator.state = ck.rng_state
        loop = ck.meta["loop"]
        monitor.restore(loop["monitor"])
        episode = loop["episode"]
        best_score = loop["best_score"]
        converged_at = loop["converged_at"]
        if episode % n:
            seed_order = loop["seed_order"]
    else:
        net = pol.init_policy(obs_dim, cfg.hidden, seed=cfg.run_seed)
        pol.warm_start(net, PRESETS[cfg.preset])
        opt = pol.init_optimizer(net, cfg.lr)
        baselines = BaselineTable(cfg.baseline_window)
        rng = np.random.default_rng(
            np.random.SeedSequence([cfg.run_seed, SEED_STREAM_TRAINER]))
        episode = 0
        best_score = None
        converged_at = None

    rows: list[TrainLogRow] = []
    best_path = out_dir / "ckpt_best.bin"
    if resume_from is not None and not best_path.exists():
        # the resumed best_score comes with the checkpoint that scored it
        old_best = Path(resume_from).parent / "ckpt_best.bin"
        if old_best.exists():
            with open(old_best, "rb") as src:
                write_atomic(best_path, iter(partial(src.read, CHUNK), b""))
    last_good = str(resume_from) if resume_from else None

    def checkpoint(path, final: bool = False) -> None:
        """Save the state after `episode` episodes. Its loop position is the
        pass of the last episode and the episodes done in it; a final
        checkpoint at a pass end points at the next pass instead."""
        k, pos = divmod(episode - 1, n)
        order = seed_order
        if final and episode % n == 0:
            k, order = k + 1, None
        round_idx, pass_idx = divmod(k, passes)
        loop = {"round": round_idx, "pass": pass_idx, "pos": pos + 1,
                "seed_order": order, "episode": episode,
                "monitor": monitor.state(), "best_score": best_score,
                "converged_at": converged_at,
                "train_seeds": train_seeds, "val_seeds": val_seeds}
        pol.save_checkpoint(path, net, opt, baselines, rng.bit_generator.state,
                            {"loop": loop, "schedule": asdict(schedule),
                             "config": config})

    def keep_best(final: bool = False) -> None:
        """Validate the net; a new best score saves the best checkpoint."""
        nonlocal best_score
        score = validation_score(net, cfg, val_seeds, schedule.final_length,
                                 cache)
        if best_score is None or score > best_score:
            best_score = score
            checkpoint(best_path, final)

    while episode < n * passes * schedule.rounds:
        round_idx, pass_idx = divmod(episode // n, passes)
        if episode % n == 0:
            seed_order = [int(s) for s in rng.permutation(train_seeds)]
        seed = seed_order[episode % n]
        length = lengths[round_idx]
        opt.lr = cfg.lr / (2 ** round_idx) if schedule.lr_halving else cfg.lr
        try:
            stats = _train_episode(net, opt, baselines, cfg, seed, length,
                                   schedule.final_length, rng, cache)
        except pol.PolicyError as exc:
            raise TrainerError(
                f"aborting at episode {episode + 1}: {exc}; "
                f"last good checkpoint: {last_good}") from exc
        episode += 1
        ewma, rstd = monitor.update(stats["r_total"])
        if converged_at is None and monitor.converged():
            converged_at = episode
        rows.append(TrainLogRow(
            episode=episode, seed=seed, round=round_idx, pass_index=pass_idx,
            lr=opt.lr, length=length, ewma=ewma, rolling_std=rstd, **stats))
        if episode % cfg.checkpoint_every == 0:
            ck_path = out_dir / f"ckpt_ep{episode:06d}.bin"
            checkpoint(ck_path)
            last_good = str(ck_path)
            keep_best()
        if cfg.episode_cap is not None and episode >= cfg.episode_cap:
            break

    final_path = out_dir / "ckpt_final.bin"
    checkpoint(final_path, final=True)
    keep_best(final=True)
    write_training_log(rows, out_dir / "training_log.csv",
                       append=resume_from is not None)
    # a fresh run always scores a best; a resume copies or keeps its file
    return TrainResult(final_path, best_path if best_path.exists() else None,
                       rows, converged_at, train_seeds,
                       {**config, "schedule": asdict(schedule)})


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalRow:
    seed: int
    tput_gain: float
    bal_gain: float
    ue_gain: float


@dataclass
class EvalReport:
    rows: list[EvalRow]
    medians: dict[str, float]
    p25: dict[str, float]
    p75: dict[str, float]
    n_ues: int
    pri: int
    length: float

    @classmethod
    def from_rows(cls, rows, n_ues, pri, length) -> "EvalReport":
        def stats(key):
            vals = np.array([getattr(r, key) for r in rows])
            return (float(np.median(vals)), float(np.percentile(vals, 25)),
                    float(np.percentile(vals, 75)))
        med, p25, p75 = {}, {}, {}
        for key in ("tput_gain", "bal_gain", "ue_gain"):
            med[key], p25[key], p75[key] = stats(key)
        return cls(list(rows), med, p25, p75, n_ues, pri, length)


def _gain_ratio(agent: float, ref: float) -> float:
    return max(agent, EVAL_EPS) / max(ref, EVAL_EPS) - 1.0


def _eval_rows(args) -> list[EvalRow]:
    """Gain rows for a run of eval seeds of one episode config, in seed
    order. The seeds go in batches of at most LOCKSTEP_UES UEs: each seed's
    reference is looked up (or filled) on its own, then the agent episodes
    of the batch advance in lockstep. Constant parameters run as one
    control interval (`simcore.one_interval`), as a reference fill does:
    the rows read only the trajectories, which PRI does not change for
    them."""
    (net_or_params, ep, seeds, baseline_params, cache) = args
    agent_ep = ep
    if isinstance(net_or_params, ReselectionParams):
        agent_ep = simcore.one_interval(ep)
        controller = simcore.constant_controller(net_or_params)
    else:
        controller = _mean_action_controller(net_or_params)
    per_batch = max(1, LOCKSTEP_UES // ep.n_ues)
    rows = []
    for b in range(0, len(seeds), per_batch):
        batch = seeds[b:b + per_batch]
        refs = [simcore.run_heuristic_reference(
                    replace(ep, episode_seed=s), baseline_params, cache)
                for s in batch]
        results = simcore.run_episodes(agent_ep, batch, controller)
        for seed, ref, res in zip(batch, refs, results):
            # an episode's figures are those of one interval spanning it
            [r] = interval_aggregates(ref, len(ref))
            [a] = interval_aggregates(res.steps, len(res.steps))
            rows.append(EvalRow(seed, _gain_ratio(a.tput, r.tput),
                                _gain_ratio(r.sigma, a.sigma),  # lower spread is better
                                _gain_ratio(a.ue, r.ue)))
    return rows


def evaluate(net_or_params, cfg: TrainRunConfig, eval_seeds: list[int],
             train_seeds: list[int], *, length: float = EVAL_LENGTH, cache=None,
             jobs: int = 1) -> EvalReport:
    """Deterministic mean-action rollouts on unseen seeds; per-seed relative
    gains against the heuristic reference (`cfg.preset`), which runs (and is
    cached) at the eval `length`. Every other setting comes from `cfg`; pass
    ``dataclasses.replace(cfg, ...)`` for another population or PRI. Refuses
    seeds seen in training.

    The seeds run as `jobs` shards of contiguous seeds, one worker process
    per shard when `jobs` > 1, and each shard advances its seeds in lockstep
    batches of at most LOCKSTEP_UES UEs; the rows do not depend on `jobs`.
    """
    cfg.validate()
    if len(eval_seeds) == 0:
        raise ValueError("eval_seeds is empty: evaluate needs at least one seed")
    overlap = sorted(set(eval_seeds) & set(train_seeds))
    if overlap:
        raise TrainerError(
            f"evaluation seeds overlap training seeds: {overlap[:5]}"
            + ("..." if len(overlap) > 5 else ""))
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    ep = cfg.episode_cfg(seed=eval_seeds[0], length=length, train=False)
    ep.validate()  # before a worker starts or a reference is written
    shards = [(net_or_params, ep, [eval_seeds[i] for i in idx],
               PRESETS[cfg.preset], cache)
              for idx in np.array_split(np.arange(len(eval_seeds)),
                                        min(jobs, len(eval_seeds)))]
    if len(shards) > 1:
        with ProcessPoolExecutor(max_workers=len(shards)) as ex:
            rows = [row for part in ex.map(_eval_rows, shards) for row in part]
    else:
        rows = _eval_rows(shards[0])
    return EvalReport.from_rows(rows, cfg.n_ues, cfg.pri, length)


def validation_score(net, cfg: TrainRunConfig, val_seeds: list[int],
                     length: float, cache) -> float:
    """Mean weighted gain on the held-out validation seeds (no mutation).

    The seeds run one at a time: a lockstep of the three validation seeds
    saves little, and on desk-train it raised the peak RSS by 8 MB in most
    runs (transparent huge pages over the heap the training step frees).
    """
    total = 0.0
    w1, w2, w3 = cfg.weights
    ep = cfg.episode_cfg(seed=val_seeds[0], length=length, train=False)
    for s in val_seeds:
        [row] = _eval_rows((net, ep, [s], PRESETS[cfg.preset], cache))
        total += w1 * row.tput_gain + w2 * row.bal_gain + w3 * row.ue_gain
    return total / len(val_seeds)


def write_eval_csv(report: EvalReport, path) -> None:
    lines = ["seed,tput_gain,bal_gain,ue_gain"]
    for r in report.rows:
        lines.append(f"{r.seed},{r.tput_gain:.17g},{r.bal_gain:.17g},"
                     f"{r.ue_gain:.17g}")
    for name, d in (("median", report.medians), ("p25", report.p25),
                    ("p75", report.p75)):
        lines.append(f"{name},{d['tput_gain']:.17g},{d['bal_gain']:.17g},"
                     f"{d['ue_gain']:.17g}")
    write_atomic(path, [("\n".join(lines) + "\n").encode()])


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------

def ablation_config(cfg: TrainRunConfig, schedule: CurriculumSchedule,
                    variant: str):
    """(variant cfg, variant schedule, eval cfg) with exactly one deviation
    from the base configuration; the eval cfg is the variant cfg except
    under `stress_test`, which evaluates at pri=10."""
    cfg2, schedule2 = cfg, schedule
    if variant == "no_curriculum":
        schedule2 = replace(schedule, initial_length=schedule.final_length,
                            increment=0.0)
    elif variant == "seeds_500":
        cfg2 = replace(cfg, seed_count=500)
    elif variant == "mobility_eval":
        cfg2 = replace(cfg, mobility_eval=True)
    elif variant == "stress_test":
        return cfg, schedule, replace(cfg, pri=10)
    elif variant == "slow_updates":
        cfg2 = replace(cfg, pri=10)
    elif variant == "synchronous_updates":
        cfg2 = replace(cfg, pri=5, weights=(0.025, 0.95, 0.025),
                       baseline_window=10)
    else:
        raise TrainerError(
            f"unknown ablation variant '{variant}' (choose from "
            f"{', '.join(ABLATION_VARIANTS)})")
    return cfg2, schedule2, cfg2


@dataclass
class AblationResult:
    variant: str
    train: TrainResult
    report: EvalReport


def ablate(cfg: TrainRunConfig, schedule: CurriculumSchedule, variant: str,
           out_dir, cache=None, jobs: int = 1) -> AblationResult:
    cfg.validate()    # the settings given, before a variant replaces any
    if jobs < 1:  # before the training run, not after it
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    cfg2, schedule2, eval_cfg = ablation_config(cfg, schedule, variant)
    result = train(cfg2, schedule2, out_dir, cache=cache)
    ck = pol.load_checkpoint(result.final_checkpoint)
    eval_seeds = derive_seeds(cfg2.run_seed, SEED_STREAM_EVAL,
                              cfg2.eval_seed_count, exclude=result.train_seeds)
    report = evaluate(ck.net, eval_cfg, eval_seeds, result.train_seeds,
                      cache=cache, jobs=jobs)
    return AblationResult(variant, result, report)


def write_ablation_csv(result: AblationResult, path) -> None:
    lines = ["seed,variant_tput_gain,variant_bal_gain,variant_ue_gain"]
    for r in result.report.rows:
        lines.append(f"{r.seed},{r.tput_gain:.17g},{r.bal_gain:.17g},"
                     f"{r.ue_gain:.17g}")
    write_atomic(path, [("\n".join(lines) + "\n").encode()])
