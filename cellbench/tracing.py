"""Span recording for the traced benchmark run.

The tracer wraps the public functions each cellpilot layer exposes, in the
namespace where their callers look them up, and never edits the package
itself. Several layers are imported by name into the modules that call them
(``simcore.build_observation``, ``radio.wall_crossings_to_cells``,
``traffic.sample_placement``, ``trainer.interval_aggregates`` and
``trainer.compute_reward``, and ``save_container``/``load_container`` in
``simcore`` and ``policy``), so those names are patched in the calling module.

Every call becomes one span (name, parent, start, end). Spans are kept in
flat in-memory arrays and written out by :meth:`Tracer.dump` at the end of a
run. A span's self time is its duration minus the durations of its direct
children; the benchmark is single-threaded, so spans nest strictly and the
children never overlap.
"""

from __future__ import annotations

import functools
import os
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (metric, unit) in the order the traced run reports them. Times and counts
# are per episode of the workload (a training update, an eval seed or a
# simulated episode), so they compare across runs that fit a different
# number of repetitions into the timed section.
SELF_S = "s/ep"
PER_EP = "count/ep"
PER_LAYER = (
    ("simcore.run_episode.self_s", SELF_S),
    ("simcore.ue_steps", PER_EP),
    ("reselect.self_s", SELF_S),
    ("reselect.ue_evals", PER_EP),
    ("reselect.fired", PER_EP),
    ("reselect.fire_ratio", "ratio"),
    ("scheduler.allocate.self_s", SELF_S),
    ("scheduler.allocate.calls", PER_EP),
    ("scheduler.network_throughput.self_s", SELF_S),
    ("topology.wall_crossings_to_cells.self_s", SELF_S),
    ("topology.wall_pairs", PER_EP),
    ("topology.sample_placement.self_s", SELF_S),
    ("topology.sample_placement.calls", PER_EP),
    ("radio.received_power_matrix.self_s", SELF_S),
    ("radio.rx_rows", PER_EP),
    ("radio.spectral_efficiency.self_s", SELF_S),
    ("traffic.init_population.self_s", SELF_S),
    ("traffic.step_mobility.self_s", SELF_S),
    ("traffic.step_modes.self_s", SELF_S),
    ("traffic.mode_flips", PER_EP),
    ("policy.forward.self_s", SELF_S),
    ("policy.forward.calls", PER_EP),
    ("rlenv.build_observation.self_s", SELF_S),
    ("rlenv.build_observation.calls", PER_EP),
    ("rlenv.interval_aggregates.self_s", SELF_S),
    ("rlenv.compute_reward.self_s", SELF_S),
    ("policy.reinforce_backward.self_s", SELF_S),
    ("policy.apply_update.self_s", SELF_S),
    ("policy.save_checkpoint.self_s", SELF_S),
    ("trainer.validation_score.self_s", SELF_S),
    ("container.save.self_s", SELF_S),
    ("container.save.bytes", "B/ep"),
    ("container.load.self_s", SELF_S),
    ("container.load.bytes", "B/ep"),
    ("simcore.reference.self_s", SELF_S),
    ("simcore.reference.hits", PER_EP),
    ("simcore.reference.misses", PER_EP),
    ("simcore.reference.hit_ratio", "ratio"),
    ("trainer.train.self_s", SELF_S),
    ("trainer.evaluate.self_s", SELF_S),
    ("trace.overhead_frac", "frac"),
)


class Tracer:
    """Records one span per call of every function wrapped by :meth:`wrap`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []      # [span index, child seconds]
        self._patches: list[tuple] = []

    def wrap(self, module, attr: str, span: str, post=None) -> None:
        """Replace ``module.attr`` by a wrapper that records a span named
        `span`; ``post(counts, args, kwargs, result)`` adds work counts after
        a call that returned."""
        orig = getattr(module, attr)
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        sid = self._ids[span]
        stack = self._stack

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(sid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self.span_start[idx] = t0
                self.span_end[idx] = t1
                self.self_s[span] += dur - frame[1]
                self.calls[span] += 1
                if stack:
                    stack[-1][1] += dur
            if post is not None:
                post(self.counts, args, kwargs, out)
            return out

        self._patches.append((module, attr, orig))
        setattr(module, attr, traced)

    def restore(self) -> None:
        """Put every wrapped function back."""
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)

    def dump(self, path) -> None:
        """Write the recorded spans to `path` (numpy .npz)."""
        np.savez(path, names=np.array(self.names, dtype=str),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))

    def per_layer(self, episodes: int,
                  overhead_frac: float) -> dict[str, tuple[float, str]]:
        """Every metric in PER_LAYER, normalised per episode."""
        calls, counts = self.calls, self.counts
        evals = counts["reselect.ue_evals"]
        lookups = counts["simcore.reference.hits"] + counts["simcore.reference.misses"]
        values = {
            "reselect.fire_ratio": counts["reselect.fired"] / evals if evals else 0.0,
            "simcore.reference.hit_ratio":
                counts["simcore.reference.hits"] / lookups if lookups else 0.0,
            "trace.overhead_frac": overhead_frac,
        }
        out = {}
        for name, unit in PER_LAYER:
            if name in values:
                value = values[name]
            elif name.endswith(".self_s"):
                value = self.self_s.get(name[:-len(".self_s")], 0.0) / episodes
            elif name.endswith(".calls"):
                value = calls[name[:-len(".calls")]] / episodes
            else:
                value = counts[name] / episodes
            out[name] = (value, unit)
        return out


# ---------------------------------------------------------------------------
# Work counts taken at the layer boundaries
# ---------------------------------------------------------------------------

def _ue_steps(counts, args, kwargs, result):
    cfg = args[0]
    counts["simcore.ue_steps"] += cfg.n_ues * len(result.steps)


def _initial_select(counts, args, kwargs, result):
    counts["reselect.ue_evals"] += 1
    counts["reselect.fired"] += result is not None


def _step_reselection(counts, args, kwargs, result):
    counts["reselect.ue_evals"] += 1
    counts["reselect.fired"] += result[2] is not None


def _wall_pairs(counts, args, kwargs, result):
    counts["topology.wall_pairs"] += result.size


def _rx_rows(counts, args, kwargs, result):
    counts["radio.rx_rows"] += result.shape[0]


def _mode_flips(counts, args, kwargs, result):
    counts["traffic.mode_flips"] += result


def _bytes(metric):
    def post(counts, args, kwargs, result):
        counts[metric] += os.path.getsize(args[0])
    return post


def _reference_io(metric, outcome):
    """simcore only reads a reference container on a cache hit and only
    writes one after a miss."""
    size = _bytes(metric)

    def post(counts, args, kwargs, result):
        size(counts, args, kwargs, result)
        counts[outcome] += 1
    return post


@contextmanager
def installed(tracer: Tracer):
    """Every traced cellpilot layer wrapped for the duration of the block."""
    from cellpilot import (policy, radio, reselect, scheduler, simcore,
                           trainer, traffic)

    w = tracer.wrap
    try:
        w(simcore, "run_episode", "simcore.run_episode", _ue_steps)
        w(reselect, "initial_select", "reselect", _initial_select)
        w(reselect, "step_reselection", "reselect", _step_reselection)
        w(scheduler, "allocate", "scheduler.allocate")
        w(scheduler, "network_throughput", "scheduler.network_throughput")
        w(radio, "wall_crossings_to_cells", "topology.wall_crossings_to_cells",
          _wall_pairs)
        w(radio, "received_power_matrix", "radio.received_power_matrix", _rx_rows)
        w(radio, "spectral_efficiency", "radio.spectral_efficiency")
        w(traffic, "sample_placement", "topology.sample_placement")
        w(traffic, "init_population", "traffic.init_population")
        w(traffic, "step_mobility", "traffic.step_mobility")
        w(traffic, "step_modes", "traffic.step_modes", _mode_flips)
        w(simcore, "build_observation", "rlenv.build_observation")
        w(trainer, "interval_aggregates", "rlenv.interval_aggregates")
        w(trainer, "compute_reward", "rlenv.compute_reward")
        w(policy, "forward", "policy.forward")
        w(policy, "reinforce_backward", "policy.reinforce_backward")
        w(policy, "apply_update", "policy.apply_update")
        w(policy, "save_checkpoint", "policy.save_checkpoint")
        w(policy, "save_container", "container.save", _bytes("container.save.bytes"))
        w(policy, "load_container", "container.load", _bytes("container.load.bytes"))
        w(simcore, "save_container", "container.save",
          _reference_io("container.save.bytes", "simcore.reference.misses"))
        w(simcore, "load_container", "container.load",
          _reference_io("container.load.bytes", "simcore.reference.hits"))
        w(simcore, "run_heuristic_reference", "simcore.reference")
        w(trainer, "validation_score", "trainer.validation_score")
        w(trainer, "train", "trainer.train")
        w(trainer, "evaluate", "trainer.evaluate")
        yield tracer
    finally:
        tracer.restore()
