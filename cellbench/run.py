"""cellpilot benchmark: one workload, one seed, one result line.

    python3 cellbench/run.py --workload desk-train --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Workloads (see ``workloads.py``): desk-train, large-mobility,
baseline-eval. The run

1. sets up the workload several times, each with a fresh reference cache,
   and reports the median as ``setup_s``;
2. repeats the workload's timed work for about ``--seconds`` and reports
   ``episodes_per_s``: training updates, eval seeds or simulated episodes
   completed per second of the repetitions' time;
3. hashes each repetition's outputs and requires them to equal the digests
   stored in ``expected.json`` for this seed, or, for a seed without stored
   digests, those of the run's first repetition. An exception or a mismatch
   fails the repetition.

With ``--trace 1`` every second repetition runs with each cellpilot layer
wrapped (``tracing.py``), and the run reports per-layer self times and work
counts from those, and the tracing overhead against the untraced ones. The
traced run fails if a span the workload must record is missing, or if the
reference cache behaved other than planned.

All times are host time. The simulated model has no reference measurements
in the repository, so it is unvalidated and no error figure is given;
simulated outputs serve only as a bit-exact correctness check.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record
(environment, setup and repetition times, digests, raw span totals) goes to
``.bench_build/cellbench/<workload>-seed<seed>-trace<t>.json``, and a traced
run writes its spans beside it as ``.npz``; its ``reps[*].digests`` are where
new expected digests are taken from when ``expected.json`` is edited by hand.

Exit codes: 0 when every repetition was correct, 1 when one was not (the
result line is still printed, with ``correct`` false), 2 when the benchmark
cannot run or its trace is incomplete (no result line).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
OUT_DIR = ROOT / ".bench_build" / "cellbench"

SETUP_MIN_RUNS = 5       # setups per run; more while they sum to under
SETUP_MIN_SECONDS = 2.0  # this many seconds, up to SETUP_MAX_RUNS
SETUP_MAX_RUNS = 200


class BenchError(Exception):
    """The benchmark cannot run or its trace is incomplete (exit code 2)."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Environment stamp
# ---------------------------------------------------------------------------

def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads(np) -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    getters = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
               "scipy_openblas_get_num_threads", "openblas_get_num_threads")
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in getters:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_head() -> str | None:
    """HEAD of the checkout, or None when it is no git checkout of its own."""
    if not (ROOT / ".git").exists():  # else git would report an enclosing repo
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads(nproc: int) -> None:
    """Run BLAS on one thread unless the environment asks for more, never on
    more than `nproc`, on any numpy build; call before numpy loads.

    cellpilot's matrices are small: an extra OpenBLAS thread mostly spins,
    doubling the CPU a run takes for little or no speed (eval is faster on
    one thread), and on a shared 2-vCPU host the second busy core roughly
    doubles the run-to-run spread of the timings.
    """
    for var in BLAS_THREAD_VARS:
        try:
            n = int(os.environ[var])
        except (KeyError, ValueError):
            n = 1
        os.environ[var] = str(min(max(n, 1), nproc))


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "blas_thread_cap": {var: int(os.environ[var]) for var in BLAS_THREAD_VARS},
        "git_head": _git_head(),
    }


# ---------------------------------------------------------------------------
# Timing
# ---------------------------------------------------------------------------

def _digests(outputs: dict) -> dict[str, str]:
    return {name: hashlib.sha256(Path(path).read_bytes()).hexdigest()
            for name, path in sorted(outputs.items())}


def timed_section(run, seconds: float, scratch: Path, want: dict | None,
                  tracer=None) -> list[dict]:
    """Repeat `run` for about `seconds`; one record per repetition.

    Another repetition starts while the last one, run again, would end no
    more than half its length past the deadline. Given a `tracer`, every
    second repetition runs traced, so traced and untraced repetitions share
    the machine's conditions. A repetition is correct when its digests equal
    `want`, or, when `want` is None, those of the first repetition that
    completed.
    """
    import tracing

    reps = []
    deadline = perf_counter() + seconds
    last = 0.0
    while len(reps) < (2 if tracer else 1) or perf_counter() + last / 2 < deadline:
        traced = tracer is not None and len(reps) % 2 == 1
        t0 = perf_counter()
        out = Path(tempfile.mkdtemp(prefix="rep-", dir=scratch))
        rep = {"traced": traced, "episodes": 0, "seconds": None, "digests": None,
               "ok": False}
        try:
            with tracing.installed(tracer) if traced else contextlib.nullcontext():
                episodes, outputs = run(out)
            rep["seconds"] = perf_counter() - t0
            rep["episodes"] = episodes
            rep["digests"] = _digests(outputs)
            if want is None:
                want = rep["digests"]
            rep["ok"] = rep["digests"] == want
            if not rep["ok"]:
                print(f"output digest mismatch: {rep['digests']} != {want}",
                      file=sys.stderr)
        except Exception:
            traceback.print_exc()
        finally:
            shutil.rmtree(out, ignore_errors=True)
        last = perf_counter() - t0
        reps.append(rep)
    return reps


def rate(reps: list[dict]) -> float:
    """Episodes per second over the repetitions that completed.

    A pooled rate rather than a median of per-repetition rates: on a shared
    machine repetitions fall into fast and slow phases, and the pooled rate
    averages over them where a median jumps between them.
    """
    done = [r for r in reps if r["seconds"] is not None]
    seconds = sum(r["seconds"] for r in done)
    return sum(r["episodes"] for r in done) / seconds if seconds else 0.0


def run_benchmark(args, scratch: Path) -> tuple[dict, list[dict], dict]:
    """(metrics as {name: (value, unit)}, every repetition, detail record)"""
    from workloads import WORKLOADS
    import tracing

    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload '{args.workload}' "
                         f"(choose from {', '.join(WORKLOADS)})")
    workload = WORKLOADS[args.workload]
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    want = expected.get(args.workload, {}).get(str(args.seed))

    setup_times = []
    while len(setup_times) < SETUP_MIN_RUNS or (
            sum(setup_times) < SETUP_MIN_SECONDS and len(setup_times) < SETUP_MAX_RUNS):
        cache = Path(tempfile.mkdtemp(prefix="cache-", dir=scratch))
        t0 = perf_counter()
        run = workload.setup(args.seed, cache)
        setup_times.append(perf_counter() - t0)

    tracer = tracing.Tracer() if args.trace else None
    reps = timed_section(run, args.seconds, scratch, want, tracer)
    detail = {"setup_seconds": setup_times, "reps": reps}
    if tracer:
        spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.npz"
        tracer.dump(spans_path)
        missing = [s for s in workload.expected_spans if not tracer.calls[s]]
        if missing:
            raise BenchError(f"expected spans never recorded on {args.workload}: "
                             f"{', '.join(missing)}")
        misses = tracer.counts["simcore.reference.misses"]
        if workload.cold_cache != (misses > 0):
            raise BenchError(f"{misses} reference-cache misses in the timed "
                             f"section of {args.workload}, expected "
                             f"{'some' if workload.cold_cache else 'none'}")
        traced = [r for r in reps if r["traced"]]
        untraced_rate = rate([r for r in reps if not r["traced"]])
        overhead = 1.0 - rate(traced) / untraced_rate if untraced_rate else 0.0
        metrics = tracer.per_layer(sum(r["episodes"] for r in traced) or 1, overhead)
        detail.update(spans=str(spans_path.relative_to(ROOT)),
                      span_calls=dict(tracer.calls), span_self_s=dict(tracer.self_s),
                      counts=dict(tracer.counts))
    else:
        metrics = {
            "episodes_per_s": (rate(reps), "1/s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB"),
        }
    return metrics, reps, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "cellpilot" / "__init__.py").is_file():
        print(f"cellbench: no cellpilot sources under {src}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    cap_blas_threads(len(os.sched_getaffinity(0)))
    env = environment()
    if env["blas_threads"] is None:
        print("cellbench: cannot read the BLAS thread count; relying on "
              f"{', '.join(BLAS_THREAD_VARS)} = {env['blas_thread_cap']}",
              file=sys.stderr)
    elif env["blas_threads"] > env["nproc"]:
        print(f"cellbench: BLAS uses {env['blas_threads']} threads on "
              f"{env['nproc']} cores", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    # the reference cache must never fall back to a user's default location
    os.environ["HOME"] = str(scratch / "home")
    os.environ["CELLPILOT_CACHE"] = str(scratch / "default-cache")
    try:
        metrics, reps, detail = run_benchmark(args, scratch)
        fallback = [p for p in (scratch / "home", scratch / "default-cache") if p.exists()]
    except BenchError as exc:
        print(f"cellbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = sum(not r["ok"] for r in reps)
    if fallback:
        print(f"cellbench: the default reference cache was written: {fallback}",
              file=sys.stderr)
    correct = failed == 0 and not fallback
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "correct": correct,
              "attempted": len(reps), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              **detail}
    detail_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"cellbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env: " + json.dumps(env))
    print("model: unvalidated (no reference measurements in the repository); "
          "simulated outputs are checked bit-exact only")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    print(f"  {'failed_frac':42s} {failed / len(reps):14.6g} ({failed}/{len(reps)})")
    print(f"detail: {detail_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": len(reps), "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
