#!/usr/bin/env python3
"""Replay benchmark for the request-level ``FaaSPlatform``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-restore --seed 1 --seconds 10 --trace 0

Each workload's trace (made from ``--seed`` only) is a few independent
segments; each segment is replayed on a freshly built platform. Whole
passes over the segments are replayed until ``--seconds`` have passed
(at least one pass). With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it replays every segment once
untraced and once with every layer's entry points wrapped, and reports
per-layer calls, self time and counters. Outputs are checked in both
modes; the last line of stdout is one JSON object and the exit code is
non-zero when a check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {
    "setup_s": "s",
    "replay_req_per_s": "req/s",
    "host_invoke_p50_us": "us",
    "host_invoke_p99_us": "us",
    "peak_rss_mib": "MiB",
    "cold_start_fraction": "ratio",
    "sim_cold_wait_p50_ms": "ms",
    "sim_cold_wait_p99_ms": "ms",
    "sim_latency_p50_ms": "ms",
    "sim_latency_p99_ms": "ms",
    "sim_idle_replica_gib_s": "GiB.s",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default method); 0 if empty."""
    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def simulated_metrics(outcomes) -> dict:
    """Simulated metrics pooled over one replay of every segment."""
    from replay import MIB_MS_PER_GIB_S
    attempted = sum(o.attempted for o in outcomes)
    cold = [r.queued_ms for o in outcomes for r in o.records if r.cold_start]
    latency = [v for o in outcomes for v in o.latency_ms]
    lag = [v for o in outcomes for v in o.lag_ms]
    failed = sum(o.failed + o.not_ok for o in outcomes)
    return {
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "cold_starts": len(cold),
        "cold_start_fraction": len(cold) / attempted,
        "sim_cold_wait_p50_ms": percentile(cold, 50),
        "sim_cold_wait_p99_ms": percentile(cold, 99),
        "sim_latency_p50_ms": percentile(latency, 50),
        "sim_latency_p99_ms": percentile(latency, 99),
        "sim_idle_replica_gib_s": sum(o.idle_mib_ms for o in outcomes) / MIB_MS_PER_GIB_S,
        "sim_replay_lag_p99_ms": percentile(lag, 99),
        "sim_replay_lag_max_ms": max(lag, default=0.0),
    }


def check(trace, replays) -> list:
    """Correctness failures of ``replays`` [(segment index, Outcome)]."""
    problems = []
    fingerprints = {}
    for seg, out in replays:
        if len(out.records) + out.failed != len(trace[seg]):
            problems.append(f"segment {seg}: {len(out.records)} records + "
                            f"{out.failed} failures != {len(trace[seg])} requests")
        if out.not_ok:
            problems.append(f"segment {seg}: {out.not_ok} responses not ok")
        if out.body_mismatches or not out.body_checks:
            problems.append(f"segment {seg}: {out.body_mismatches} of "
                            f"{out.body_checks} bodies differ from a direct execute")
        first = fingerprints.setdefault(seg, out.fingerprint())
        if out.fingerprint() != first:
            problems.append(f"segment {seg}: replay is not deterministic")
    return problems


def fingerprint(replays, segments: int) -> str:
    """One hash over the per-segment invocation-record fingerprints."""
    by_segment = {}
    for seg, out in replays:
        by_segment.setdefault(seg, out.fingerprint())
    digest = hashlib.sha256()
    for seg in range(segments):
        digest.update(by_segment[seg].encode())
    return digest.hexdigest()


def run_untraced(workload, trace, expected, seconds: float):
    from replay import replay
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append([replay(workload, segment, expected[seg])
                       for seg, segment in enumerate(trace)])
    replays = [(seg, out) for outs in passes for seg, out in enumerate(outs)]
    sim = simulated_metrics(passes[0])
    # Host figures are taken per pass and the median over passes is
    # reported, so one pass slowed by the machine does not set them.
    samples = [[s for out in outs for s in out.host_invoke_s] for outs in passes]
    rates = [len(pass_samples) / sum(out.host_s for out in outs)
             for pass_samples, outs in zip(samples, passes)]
    metrics = {
        "setup_s": statistics.median(out.setup_s for _, out in replays),
        "replay_req_per_s": statistics.median(rates),
        "host_invoke_p50_us": statistics.median(
            percentile(pass_samples, 50) for pass_samples in samples) * 1e6,
        "host_invoke_p99_us": statistics.median(
            percentile(pass_samples, 99) for pass_samples in samples) * 1e6,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics.update((k, sim[k]) for k in END_TO_END_UNITS if k in sim)
    lines = [
        f"passes={len(passes)} segments={len(trace)} "
        f"requests/segment={len(trace[0])}",
        f"set-ups measured: {len(replays)}; host invoke samples per pass: "
        f"{len(samples[0])}",
        "req/s per pass: " + " ".join(f"{rate:.0f}" for rate in rates),
        f"error_rate={sim['error_rate']:.6g} ratio "
        f"({sim['failed']} failed of {sim['attempted']} attempted)",
        f"cold starts: {sim['cold_starts']}",
        f"sim_replay_lag_p99_ms={sim['sim_replay_lag_p99_ms']:.6g} ms "
        f"sim_replay_lag_max_ms={sim['sim_replay_lag_max_ms']:.6g} ms",
    ]
    return replays, passes[0], metrics, lines


def run_traced(workload, trace, expected, seconds: float, spans_path: Path):
    from layers import LAYERS, LayerTracer
    from replay import replay
    tracer = LayerTracer()
    replays, untraced_wall, traced_wall = [], 0.0, 0.0
    traced = []
    passes = 0
    deadline = time.perf_counter() + seconds
    while passes == 0 or time.perf_counter() < deadline:
        for seg, segment in enumerate(trace):
            t0 = time.perf_counter()
            replays.append((seg, replay(workload, segment, expected[seg])))
            t1 = time.perf_counter()
            with tracer.installed():
                out = replay(workload, segment, expected[seg])
            t2 = time.perf_counter()
            replays.append((seg, out))
            traced.append(out)
            untraced_wall += t1 - t0
            traced_wall += t2 - t1
        passes += 1
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = tracer.acc[layer][0] / passes
        metrics[f"{layer}.self_s"] = tracer.self_seconds(layer) / passes
    records = [r for out in traced[: len(trace)] for r in out.records]
    metrics.update({
        "criu.chunkcache.hit_ratio": (tracer.chunk_hits / tracer.chunk_lookups
                                      if tracer.chunk_lookups else 0.0),
        "faas.deployer.useful_ratio": (tracer.useful / tracer.provisioned
                                       if tracer.provisioned else 0.0),
        "faas.router.requeues": sum(r.requeues for r in records),
        "faas.router.crash_retries": sum(r.crash_retries for r in records),
        "faas.autoscaler.reaped": tracer.reaped_by_autoscaler / passes,
        "predict.prewarm_replicas": tracer.prewarm_replicas / passes,
        "osproc.memory.pages": tracer.pages / passes,
        "tracing.overhead_ratio": traced_wall / untraced_wall,
    })
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.dump_spans(str(spans_path))
    lines = [f"traced passes={passes} segments={len(trace)} "
             f"spans kept={len(tracer.spans)} -> {os.path.relpath(spans_path, ROOT)}"]
    return replays, traced[: len(trace)], metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from replay import expected_bodies
    from workloads import WORKLOADS, make_trace
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    trace = make_trace(workload, args.seed)
    expected = [expected_bodies(segment, workload) for segment in trace]
    if args.trace:
        spans_path = ROOT / ".perfbench" / f"spans-{workload.name}-seed{args.seed}.jsonl"
        replays, first_pass, metrics, lines = run_traced(workload, trace, expected,
                                             args.seconds, spans_path)
        units = {name: layer_unit(name) for name in metrics}
    else:
        replays, first_pass, metrics, lines = run_untraced(workload, trace, expected, args.seconds)
        units = END_TO_END_UNITS
    problems = check(trace, replays)
    print(f"workload={workload.name} seed={args.seed} trace={args.trace}")
    for line in lines:
        print(line)
    print(f"fingerprint={fingerprint(replays, len(trace))}")
    for name, value in metrics.items():
        print(f"{name}={value:.6g} {units[name]}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    sim = simulated_metrics(first_pass)
    print(json.dumps({
        "correct": not problems,
        "attempted": sim["attempted"],
        "failed": sim["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
