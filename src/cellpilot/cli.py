"""Command-line front end.

Subcommands: gen-topology, train, eval, ablate, compare, report.
Exit codes: 0 success, 1 runtime failure, 2 invalid arguments/config,
3 comparison thresholds not met.

Every run that produces files also writes a manifest describing the inputs
(no timestamps, so reruns produce identical manifests): manifest.json in the
output directory of train and ablate, <out>.manifest.json beside the CSV of
eval and compare. Only eval, compare and ablate evaluate, so only they take
--jobs.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import sys
from dataclasses import fields
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from . import policy as pol
from . import simcore, trainer
from .container import ContainerError, write_atomic
from .reselect import PRESETS
from .simcore import SimError
from .topology import (TopologyError, generate_topology, load_topology,
                       save_topology)
from .trainer import (ABLATION_VARIANTS, CurriculumSchedule, TrainRunConfig,
                      TrainerError, derive_seeds, evaluate)

BUNDLED = ("desk", "baseline", "alt", "large")
# The config fields' defaults. A flag of train, eval, compare or ablate
# parses into the name of the field it sets, with that field's default;
# --length and --jobs take those of `evaluate`'s or `ablate`'s arguments.
DEFAULTS = {f.name: f.default for cls in (TrainRunConfig, CurriculumSchedule)
            for f in fields(cls)}


class CliError(Exception):
    """Bad arguments or configuration (exit code 2)."""


def resolve_topology(arg: str):
    """A bundled name (desk/baseline/alt/large) or a .topo file path."""
    if arg in BUNDLED:
        ref = resources.files("cellpilot.data") / f"{arg}.topo"
        with resources.as_file(ref) as path:
            return load_topology(path)
    path = Path(arg)
    if not path.is_file():
        raise CliError(f"topology '{arg}' is neither a bundled preset "
                       f"({', '.join(BUNDLED)}) nor an existing file")
    return load_topology(path)


def parse_weights(text: str) -> tuple[float, float, float]:
    """Three comma-separated numbers; ``TrainRunConfig.validate`` checks them."""
    try:
        w = tuple(float(p) for p in text.split(","))
    except ValueError:
        w = ()
    if len(w) != 3:
        raise CliError(f"--weights expects three comma-separated numbers "
                       f"(e.g. 0.4,0.4,0.2), got '{text}'")
    return w


def parse_pair(text: str, flag: str, form: str, kind=float) -> tuple:
    """Two numbers of type `kind` written AxB or A,B; `form` shows the
    expected one."""
    for sep in ("x", ","):
        if sep in text:
            a, b = text.split(sep, 1)
            try:
                return kind(a), kind(b)
            except ValueError:
                break
    raise CliError(f"{flag} expects {form}, got '{text}'")


def arg_default(fn, name: str):
    return inspect.signature(fn).parameters[name].default


def from_args(cls, args, **given):
    """A `cls` from `given` and the parsed arguments named after its fields."""
    names = {f.name for f in fields(cls)}
    return cls(**{**{k: v for k, v in vars(args).items() if k in names}, **given})


def write_manifest(path: Path, command: str, payload: dict) -> None:
    doc = {"tool": "cellpilot", "version": __version__, "command": command}
    doc.update(payload)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, [(json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()])


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen_topology(args) -> int:
    area = (None if args.area is None else
            parse_pair(args.area, "--area", "WxH (e.g. 320x240)"))
    streets = (None if args.streets is None else
               parse_pair(args.streets, "--streets", "NXxNY (e.g. 8x7)", int))
    topo = generate_topology(args.preset, args.seed, towers=args.towers,
                             cells=args.cells, area=area,
                             buildings=args.buildings, streets=streets)
    save_topology(topo, args.output)
    print(f"wrote {args.output}: {len(topo.towers)} towers, "
          f"{topo.n_cells} cells, fingerprint {topo.fingerprint[:16]}")
    return 0


def build_train_config(args) -> tuple[TrainRunConfig, CurriculumSchedule]:
    cfg = from_args(TrainRunConfig, args, topology=resolve_topology(args.topology),
                    weights=parse_weights(args.weights))
    return cfg, from_args(CurriculumSchedule, args)


def cmd_train(args) -> int:
    cfg, schedule = build_train_config(args)
    out_dir = Path(args.out)
    result = trainer.train(cfg, schedule, out_dir, cache=args.cache,
                           resume_from=args.resume)
    write_manifest(out_dir / "manifest.json", "train", {
        **result.settings,
        "topology_fingerprint": cfg.topology.fingerprint,
        "episodes": len(result.log_rows),
        "final_checkpoint": result.final_checkpoint.name,
        "best_checkpoint": result.best_checkpoint.name
        if result.best_checkpoint else None,
        "converged_episode": result.converged_episode,
    })
    last = result.log_rows[-1] if result.log_rows else None
    conv = (f"converged at episode {result.converged_episode}"
            if result.converged_episode else "did not converge")
    if last is not None:
        print(f"trained {last.episode} episodes, final ewma "
              f"{last.ewma:+.4f}, {conv}")
    print(f"final checkpoint: {result.final_checkpoint}")
    if result.best_checkpoint:
        print(f"best checkpoint:  {result.best_checkpoint}")
    return 0


def load_candidate(args):
    """--checkpoint path or --params preset name -> policy net or params."""
    if getattr(args, "checkpoint", None):
        net, extra = pol.load_net(args.checkpoint)
        train_seeds = extra.get("loop", {}).get("train_seeds", [])
        return net, [int(s) for s in train_seeds]
    name = getattr(args, "params", None)
    if name is None:
        raise CliError("provide --checkpoint or --params")
    if name not in PRESETS:
        raise CliError(f"unknown preset '{name}' (choose from "
                       f"{', '.join(sorted(PRESETS))})")
    return PRESETS[name], []


def run_eval(args, command: str) -> trainer.EvalReport:
    """Evaluate the candidate of `args` on unseen seeds; with --out, write
    the per-seed CSV and its <out>.manifest.json."""
    candidate, train_seeds = load_candidate(args)
    cfg = from_args(TrainRunConfig, args, topology=resolve_topology(args.topology))
    eval_seeds = derive_seeds(cfg.run_seed, trainer.SEED_STREAM_EVAL,
                              cfg.eval_seed_count, exclude=train_seeds)
    report = evaluate(candidate, cfg, eval_seeds, train_seeds,
                      length=args.length, cache=args.cache, jobs=args.jobs)
    if args.out:
        trainer.write_eval_csv(report, args.out)
        write_manifest(Path(args.out).with_suffix(".manifest.json"), command, {
            "topology_fingerprint": cfg.topology.fingerprint,
            "baseline": cfg.preset,
            "seeds": [r.seed for r in report.rows],
            "n_ues": report.n_ues, "pri": report.pri,
            "length": report.length,
            "medians": report.medians,
        })
    return report


def cmd_eval(args) -> int:
    report = run_eval(args, "eval")
    med = report.medians
    print(f"evaluated {len(report.rows)} seeds "
          f"(n_ues={report.n_ues}, pri={report.pri}, length={report.length:g}s)")
    print(f"median gains vs {args.preset}: throughput {med['tput_gain']:+.4f}, "
          f"balance {med['bal_gain']:+.4f}, per-UE {med['ue_gain']:+.4f}")
    if args.out:
        print(f"wrote {args.out}")
    return 0


def cmd_ablate(args) -> int:
    cfg, schedule = build_train_config(args)
    out_dir = Path(args.out)
    result = trainer.ablate(cfg, schedule, args.variant, out_dir,
                            cache=args.cache, jobs=args.jobs)
    csv_path = out_dir / f"ablation_{args.variant}.csv"
    trainer.write_ablation_csv(result, csv_path)
    med = result.report.medians
    write_manifest(out_dir / "manifest.json", "ablate", {
        **result.train.settings,
        "variant": args.variant,
        "topology_fingerprint": cfg.topology.fingerprint,
        "medians": med,
    })
    print(f"variant {args.variant}: median gains throughput "
          f"{med['tput_gain']:+.4f}, balance {med['bal_gain']:+.4f}, "
          f"per-UE {med['ue_gain']:+.4f}")
    print(f"wrote {csv_path}")
    return 0


def cmd_compare(args) -> int:
    report = run_eval(args, "compare")
    med = report.medians
    name = args.checkpoint or args.params
    print(f"{name} vs {args.preset} on {len(report.rows)} seeds:")
    for r in report.rows:
        print(f"  seed {r.seed}: throughput {r.tput_gain:+.4f}, "
              f"balance {r.bal_gain:+.4f}, per-UE {r.ue_gain:+.4f}")
    print(f"medians: throughput {med['tput_gain']:+.4f}, "
          f"balance {med['bal_gain']:+.4f}, per-UE {med['ue_gain']:+.4f}")
    if args.out:
        print(f"wrote {args.out}")
    ok = (med["tput_gain"] >= args.min_tput_gain
          and med["bal_gain"] >= args.min_bal_gain)
    if not ok:
        print(f"FAIL: thresholds not met (need throughput >= "
              f"{args.min_tput_gain:+g}, balance >= {args.min_bal_gain:+g})")
        return 3
    print("PASS: thresholds met")
    return 0


def cmd_report(args) -> int:
    with open(args.input, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        rows = list(reader)
    if header is None:
        raise CliError(f"{args.input}: empty file")
    if header[:2] == ["episode", "seed"]:
        return _report_training(header, rows)
    if header[0] == "seed":
        return _report_eval(header, rows)
    raise CliError(f"unrecognized report input (header: {','.join(header)})")


def _report_training(header, rows) -> int:
    col = {name: i for i, name in enumerate(header)}
    if not rows:
        print("empty training log")
        return 0
    ewma = [float(r[col["ewma"]]) for r in rows]
    rstd = [float(r[col["rolling_std"]]) for r in rows]
    grad = [float(r[col["grad_norm"]]) for r in rows]
    clamped = sum(int(r[col["clamped"]]) for r in rows)
    rule = trainer.ConvergenceMonitor().rule_met
    conv = next((i + 1 for i, (e, s) in enumerate(zip(ewma, rstd))
                 if rule(e, s, i + 1)), None)
    print(f"episodes: {len(rows)}")
    print(f"rounds: {sorted(set(int(r[col['round']]) for r in rows))}")
    print(f"final ewma: {ewma[-1]:+.5f} (rolling std {rstd[-1]:.5f})")
    print(f"converged: {'episode %d' % conv if conv else 'no'}")
    print(f"mean grad norm: {float(np.mean(grad)):.4f} "
          f"(max {float(np.max(grad)):.4f})")
    print(f"clamped parameter updates: {clamped}")
    return 0


def _report_eval(header, rows) -> int:
    seeds = [r for r in rows if r[0] not in ("median", "p25", "p75")]
    stats = {r[0]: r[1:] for r in rows if r[0] in ("median", "p25", "p75")}
    print(f"seeds evaluated: {len(seeds)}")
    for name in ("median", "p25", "p75"):
        if name in stats:
            t, b, u = (float(v) for v in stats[name])
            print(f"{name}: throughput {t:+.4f}, balance {b:+.4f}, per-UE {u:+.4f}")
    positive = sum(1 for r in seeds if float(r[1]) > 0)
    print(f"seeds with positive throughput gain: {positive}/{len(seeds)}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def add_setting(p, flag: str, name: str, kind, **kw) -> None:
    """`flag`, parsed into the setting `name` with its config field's
    default unless `kw` gives one; usage shows the flag's own metavar."""
    kw.setdefault("default", DEFAULTS.get(name))
    p.add_argument(flag, dest=name, type=kind,
                   metavar=flag[2:].upper().replace("-", "_"), **kw)


def add_train_args(p, include_variant=False):
    p.add_argument("--topology", required=True,
                   help="bundled preset name or .topo file")
    p.add_argument("--out", required=True, help="output directory")
    add_setting(p, "--run-seed", "run_seed", int)
    add_setting(p, "--seeds", "seed_count", int, help="training seed count")
    add_setting(p, "--ues", "n_ues", int)
    add_setting(p, "--pri", "pri", int)
    add_setting(p, "--weights", "weights", str,
                default=",".join(map(str, DEFAULTS["weights"])))
    add_setting(p, "--hidden", "hidden", int)
    add_setting(p, "--lr", "lr", float)
    add_setting(p, "--episodes", "episode_cap", int, help="hard episode cap")
    add_setting(p, "--passes", "passes_per_round", int)
    add_setting(p, "--rounds", "rounds", int)
    add_setting(p, "--initial-length", "initial_length", float)
    add_setting(p, "--increment", "increment", float)
    p.add_argument("--no-lr-halving", dest="lr_halving", action="store_false",
                   default=DEFAULTS["lr_halving"])
    add_setting(p, "--checkpoint-every", "checkpoint_every", int)
    p.add_argument("--cache",
                   help=f"reference cache dir (or ${simcore.CACHE_ENV_VAR})")
    if include_variant:
        p.add_argument("--variant", required=True, choices=ABLATION_VARIANTS)
        p.add_argument("--jobs", type=int, default=arg_default(trainer.ablate, "jobs"),
                       help="evaluation runs as this many lockstep shards of "
                            "contiguous seeds, one worker process each")
    else:
        p.add_argument("--resume", help="checkpoint to resume from")


def add_eval_args(p):
    p.add_argument("--topology", required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--params",
                   help="preset name to evaluate instead of a checkpoint")
    add_setting(p, "--baseline", "preset", str)
    add_setting(p, "--run-seed", "run_seed", int)
    add_setting(p, "--seeds", "eval_seed_count", int)
    add_setting(p, "--ues", "n_ues", int)
    add_setting(p, "--pri", "pri", int)
    p.add_argument("--length", type=float, default=trainer.EVAL_LENGTH)
    p.add_argument("--mobility", dest="mobility_eval", action="store_true",
                   default=DEFAULTS["mobility_eval"])
    p.add_argument("--jobs", type=int, default=arg_default(evaluate, "jobs"),
                   help="run the seeds as this many lockstep shards of "
                        "contiguous seeds, one worker process each")
    p.add_argument("--cache")
    p.add_argument("--out", help="per-seed CSV path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellpilot",
        description="Idle-mode reselection simulator and parameter tuner")
    parser.add_argument("--version", action="version",
                        version=f"cellpilot {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-topology", help="generate a .topo file")
    p.add_argument("--preset", default="baseline",
                   choices=sorted(BUNDLED))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--towers", type=int, default=None)
    p.add_argument("--cells", type=int, default=None)
    p.add_argument("--area", default=None, help="WxH in metres")
    p.add_argument("--buildings", type=int, default=None)
    p.add_argument("--streets", default=None, help="NXxNY street counts")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen_topology)

    p = sub.add_parser("train", help="train a policy")
    add_train_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint or preset")
    add_eval_args(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train + evaluate an ablation variant")
    add_train_args(p, include_variant=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("compare", help="evaluate and check gain thresholds")
    add_eval_args(p)
    p.add_argument("--min-tput-gain", type=float, default=0.0)
    p.add_argument("--min-bal-gain", type=float, default=0.0)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("report", help="summarize a training or eval CSV")
    p.add_argument("input")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, TopologyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SimError, TrainerError, pol.PolicyError, ContainerError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
