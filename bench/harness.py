"""Closed-loop measurement, output checks and metrics for one workload.

A run sets the workload up several times (timing each, and requiring the
workload's fingerprint to repeat bit for bit), warms up, then runs whole
cycles of operations for the requested seconds. The untraced run reports
the end-to-end metrics. The traced run alternates untraced cycles with
cycles under the tracer and reports the per-layer metrics, plus the tracing
overhead as the difference in mean operation time between the two kinds.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from vlmkit.errors import VlmkitError

from tracing import BACKWARD_SUFFIX, OP_PREFIX, REPORTED_OPS, Tracer
from workloads import CheckFailed, Workload

# Set-up repeats: at least the minimum, then more until SETUP_SECONDS of
# set-up were timed, so that short set-ups get a steady median too.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 30
SETUP_SECONDS = 1.0
WARMUP_OPS = 2
MIN_OPS = 100           # p90 needs at least ten samples beyond it

Metrics = Dict[str, Tuple[float, str]]

def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile that refuses a tail of fewer than ten samples.

    The q-th percentile is the value at rank ceil(q/100 * n) in sorted order;
    at least ten samples must rank above it.
    """
    n = len(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < 10:
        raise ValueError(f"p{q:g} of {n} samples leaves {n - rank} beyond it; need 10")
    return sorted(values)[rank - 1]


@dataclass
class Phase:
    durations: List[float] = field(default_factory=list)   # seconds per operation
    tokens: List[int] = field(default_factory=list)        # tokens per operation
    attempted: int = 0
    failed: int = 0


def run_cycle(workload: Workload, state, phase: Phase, tracer: Tracer = None):
    """Run one cycle of operations, adding their times and counts to `phase`.

    A VlmkitError fails the operation's samples, steps or requests and is
    counted; any other exception propagates.
    """
    for _ in range(workload.cycle(state)):
        t0 = time.perf_counter()
        tokens = 0
        try:
            tokens = workload.op(state, tracer)
        except VlmkitError as exc:
            phase.failed += workload.units_per_op
            print(f"{workload.name}: operation {len(phase.durations)} failed: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
        dt = time.perf_counter() - t0
        if tracer is not None:
            dt -= tracer.take_untimed()
            tracer.fold()
        phase.durations.append(dt)
        phase.tokens.append(tokens)
        phase.attempted += workload.units_per_op


def latencies(workload: Workload, phase: Phase) -> List[float]:
    """Seconds per operation, or per token where the workload says so."""
    if not workload.latency_per_token:
        return phase.durations
    return [d / max(t, 1) for d, t in zip(phase.durations, phase.tokens)]


def end_to_end_metrics(workload: Workload, phase: Phase, setup_times: List[float]) -> Metrics:
    lat = latencies(workload, phase)
    return {
        "latency_ms_p50": (percentile(lat, 50) * 1e3, "ms"),
        "latency_ms_p90": (percentile(lat, 90) * 1e3, "ms"),
        "tokens_per_s": (sum(phase.tokens) / sum(phase.durations), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def extra_figures(workload: Workload, phase: Phase) -> Metrics:
    """Figures the command prints beside the end-to-end metrics, ungated."""
    d = phase.durations
    out = {"samples_per_s": ((phase.attempted - phase.failed) / sum(d), "1/s"),
           "ms_per_token": (sum(d) * 1e3 / max(sum(phase.tokens), 1), "ms")}
    if workload.latency_per_token:
        out["request_ms_p50"] = (percentile(d, 50) * 1e3, "ms")
        out["request_ms_p90"] = (percentile(d, 90) * 1e3, "ms")
    return out


def layer_metrics(tracer: Tracer, traced: Phase, plain: Phase) -> Metrics:
    """Per-layer metrics: per call for data.*, per operation for the rest."""
    totals, counts = tracer.totals, tracer.counts
    n_ops = len(traced.durations)
    zero = (0.0, 0.0, 0)

    def per_call(name, scale):
        incl, _, calls = totals.get(name, zero)
        return incl / calls * scale if calls else 0.0

    def per_op(value):
        return value / n_ops

    out: Metrics = {"data.conversations.load_dataset.ms":
                    (per_call("data.conversations.load_dataset", 1e3), "ms")}
    for name in ("data.images.load_ppm", "data.images.preprocess_image",
                 "data.labeling.tokenize_and_label", "data.labeling.collate"):
        out[name + ".us"] = (per_call(name, 1e6), "us")
    for name in ("model.vision.forward", "model.connectors.forward",
                 "model.llm.forward_embeds", "model.multimodal.sequence_loss",
                 "numerics.tensor.backward", "numerics.optim.step"):
        out[name + ".ms"] = (per_op(totals.get(name, zero)[0]) * 1e3, "ms")
    for name in ("model.llm.forward_embeds", "model.multimodal.compose_multimodal"):
        out[name + ".calls"] = (per_op(totals.get(name, zero)[2]), "count")
    out["model.llm.positions"] = (per_op(counts.get("model.llm.positions", 0)), "count")

    for op in REPORTED_OPS:
        fwd = totals.get(OP_PREFIX + op, zero)
        out[f"{OP_PREFIX}{op}.ms"] = (per_op(fwd[1]) * 1e3, "ms")
        out[f"{OP_PREFIX}{op}.calls"] = (per_op(fwd[2]), "count")
        bwd = totals.get(OP_PREFIX + op + BACKWARD_SUFFIX, zero)
        out[f"{OP_PREFIX}{op}.bw_ms"] = (per_op(bwd[1]) * 1e3, "ms")

    tape = (("nodes", "count"), ("bytes", "bytes"))
    for op in REPORTED_OPS:
        for kind, unit in tape:
            key = f"numerics.tape.{op}.{kind}"
            out[key] = (per_op(counts.get(key, 0)), unit)
    for kind, unit in tape:     # every op on the tape, reported or not
        total = sum(v for k, v in counts.items()
                    if k.startswith("numerics.tape.") and k.endswith("." + kind))
        out[f"numerics.tape.{kind}"] = (per_op(total), unit)

    op_self = sum(own for name, (_, own, _) in totals.items() if name.startswith(OP_PREFIX))
    out["numerics.ops.outside.share"] = (1.0 - op_self / sum(traced.durations), "fraction")
    out["trace.overhead.share"] = (
        statistics.mean(traced.durations) / statistics.mean(plain.durations) - 1.0, "fraction")
    return out


@dataclass
class Result:
    attempted: int
    failed: int
    metrics: Metrics          # what the JSON result carries
    report: List[Tuple[str, float, str]]   # every row the command prints


def _setup(workload: Workload, seed: int, workdir: str):
    setup_times, prints, state = [], [], None
    rep = 0
    while rep < SETUP_MIN_REPEATS or (rep < SETUP_MAX_REPEATS
                                      and sum(setup_times) < SETUP_SECONDS):
        # Free the previous repeat's model and data (taped graphs are
        # reference cycles), so repeats do not raise the peak RSS.
        state = None
        gc.collect()
        rep_dir = os.path.join(workdir, f"setup{rep}")
        t0 = time.perf_counter()
        state = workload.setup(seed, rep_dir)
        setup_times.append(time.perf_counter() - t0)
        prints.append(workload.fingerprint(state))
        if rep:
            shutil.rmtree(os.path.join(workdir, f"setup{rep - 1}"))
        rep += 1
    if any(p != prints[0] for p in prints[1:]):
        raise CheckFailed(f"{workload.name}: set-up repeats are not bit-identical")
    workload.verify(state)
    for _ in range(WARMUP_OPS):
        workload.op(state)
    gc.collect()
    return state, setup_times


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 workdir: str) -> Result:
    """Measure whole cycles for `seconds`; traced runs alternate plain and traced cycles."""
    state, setup_times = _setup(workload, seed, workdir)
    need = max(MIN_OPS, workload.min_ops)
    phase, traced = Phase(), Phase()
    tracer = Tracer()
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds or len(phase.durations) < need
           or (trace and len(traced.durations) < need)):
        run_cycle(workload, state, phase)
        if trace:
            tracer.install()
            model = workload.model(state)
            if model is not None:
                tracer.instrument(model)
            try:
                run_cycle(workload, state, traced, tracer)
            finally:
                tracer.uninstall()

    if trace:
        metrics = layer_metrics(tracer, traced, phase)
        shown = dict(metrics)
        ops = attempted = failed = 0
        for other in (phase, traced):
            ops += len(other.durations)
            attempted += other.attempted
            failed += other.failed
    else:
        metrics = end_to_end_metrics(workload, phase, setup_times)
        shown = {**metrics, **extra_figures(workload, phase)}
        ops, attempted, failed = len(phase.durations), phase.attempted, phase.failed
    shown.update(workload.check(state))
    shown["failed_ratio"] = (failed / attempted, "fraction")
    shown["operations"] = (float(ops), "count")

    names = workload.display_names
    report = [(names.get(k, k), v, unit) for k, (v, unit) in shown.items()]
    return Result(attempted, failed, metrics, report)
