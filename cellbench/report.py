"""Run every workload untraced and traced, and print where the time goes.

    python3 cellbench/report.py --seconds 30 --out cellbench/results/<commit>.json

Each run is its own ``run.py`` process, one after another, so every
workload's peak memory is its own. The report holds the environment stamp,
each workload's end-to-end metrics and failure count, and its per-layer
metrics from the traced run. The printed table splits the traced time per
episode into each layer's self time, largest first; what no span covers
(the trainer's and the benchmark's own glue) is listed as unattributed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
from run import OUT_DIR, ROOT, rate  # noqa: E402

sys.path.insert(0, str(ROOT / "src"))
from workloads import WORKLOADS  # noqa: E402


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode not in (0, 1):  # 1: outputs wrong, result still printed
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {**result, "detail": detail}


def breakdown(traced: dict) -> list[tuple[str, float, float]]:
    """(layer, self seconds per episode, share of traced time) rows."""
    per_ep = 1.0 / rate([r for r in traced["detail"]["reps"] if r["traced"]])
    rows = [(name[:-len(".self_s")], m["value"])
            for name, m in traced["metrics"].items() if name.endswith(".self_s")]
    rows.append(("unattributed", per_ep - sum(v for _, v in rows)))
    rows.sort(key=lambda r: -r[1])
    return [(name, v, v / per_ep) for name, v in rows if v > 0.0]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--out", type=Path, help="write the report here as JSON")
    args = p.parse_args(argv)

    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name in WORKLOADS:
        plain = run_one(name, args.seed, args.seconds, 0)
        traced = run_one(name, args.seed, args.seconds, 1)
        report["env"] = plain["detail"]["env"]
        report["workloads"][name] = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"], "failed": plain["failed"],
            "failed_frac": plain["failed"] / plain["attempted"],
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
            "where_the_time_goes": [
                {"layer": layer, "self_s_per_ep": v, "share": share}
                for layer, v, share in breakdown(traced)],
        }

    print("env: " + json.dumps(report["env"]))
    for name, wl in report["workloads"].items():
        e2e = wl["end_to_end"]
        print(f"\n{name}: " + ", ".join(
            f"{k} {m['value']:.4g} {m['unit']}" for k, m in e2e.items())
            + f", failed_frac {wl['failed_frac']:g}, correct {wl['correct']}")
        for row in wl["where_the_time_goes"]:
            print(f"  {row['layer']:36s} {row['self_s_per_ep'] * 1e3:10.3f} ms/ep "
                  f"{row['share']:7.1%}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
        print(f"\nwrote {args.out}")
    return 0 if all(wl["correct"] for wl in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
