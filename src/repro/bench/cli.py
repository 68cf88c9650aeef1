"""``prebake-bench``: run the paper's experiments from the shell.

Rendered tables go to stdout (pipe them into files/reports); run
diagnostics — timings, trace-file writes, errors — go to stderr as
structured ``key=value`` lines via :mod:`repro.obs.log`.

Examples::

    prebake-bench --list
    prebake-bench fig3 --repetitions 200
    prebake-bench fig4 -r 20 --trace-out fig4-trace.jsonl
    prebake-bench trace --trace-out episode.jsonl
    prebake-bench all --repetitions 100 --seed 7
"""

from __future__ import annotations

import argparse
import time
from typing import Callable, Dict, List

from repro.bench import figures
from repro.obs.log import get_logger

log = get_logger("bench")


def _run_fig3(args) -> str:
    return figures.figure3(repetitions=args.repetitions, seed=args.seed,
                           workers=args.workers).render()


def _run_fig4(args) -> str:
    return figures.figure4(repetitions=args.repetitions, seed=args.seed,
                           trace_path=args.trace_out).render()


def _run_fig5(args) -> str:
    return figures.figure5(repetitions=args.repetitions, seed=args.seed).render()


def _run_factorial(args) -> str:
    result = figures.factorial(repetitions=args.repetitions, seed=args.seed)
    return result.render_figure6() + "\n\n" + result.render_table1()


def _run_fig7(args) -> str:
    return figures.figure7(requests=args.repetitions, seed=args.seed).render()


def _run_sec5(args) -> str:
    return figures.section5(seed=args.seed).render()


def _run_ablation_restore(args) -> str:
    return figures.ablation_restore(
        repetitions=max(10, args.repetitions // 2), seed=args.seed
    ).render()


def _run_ablation_snapshot(args) -> str:
    return figures.ablation_snapshot_point(
        repetitions=max(10, args.repetitions // 2), seed=args.seed
    ).render()


def _run_ablation_bake_timing(args) -> str:
    return figures.ablation_bake_timing(
        repetitions=max(10, args.repetitions // 4), seed=args.seed
    ).render()


def _run_ext_runtimes(args) -> str:
    return figures.ext_runtimes(
        repetitions=max(10, args.repetitions // 2), seed=args.seed
    ).render()


def _run_ext_pool(args) -> str:
    from repro.bench.arrivals import bursty_arrivals
    from repro.bench.platform_study import compare_strategies, render_study
    trace = bursty_arrivals(burst_rate_per_s=20, duration_ms=600_000,
                            mean_on_ms=2_000, mean_off_ms=60_000,
                            seed=args.seed)
    results = compare_strategies("markdown", trace,
                                 idle_timeout_ms=30_000, pool_size=1)
    return render_study(results, "Bursty trace (10 min), markdown, "
                                 "30 s idle timeout")


def _run_chaos(args) -> str:
    """Fault-injection sweep: resilience of both start techniques."""
    from repro.bench.chaos import chaos_experiment
    result = chaos_experiment(
        repetitions=max(5, args.repetitions // 5), seed=args.seed,
        postmortem_dir=args.postmortem_dir,
    )
    if args.postmortem_dir:
        sealed = sum(t.postmortems for t in result.treatments)
        log.info("chaos.postmortems_written", directory=args.postmortem_dir,
                 bundles=sealed)
    return result.render()


def _run_incident(args) -> str:
    """X9: chaos with anomaly detection and postmortem bundles."""
    from repro.bench.incident import incident_experiment
    from repro.obs.flight import write_flight_jsonl

    result = incident_experiment(seed=args.seed,
                                 postmortem_dir=args.postmortem_dir)
    if args.postmortem_dir:
        log.info("incident.postmortems_written",
                 directory=args.postmortem_dir,
                 bundles=len(result.bundle_paths))
    if args.flight_out:
        write_flight_jsonl(args.flight_out, result.flight_events)
        log.info("incident.flight_written", file=args.flight_out,
                 events=len(result.flight_events))
    return result.render()


def _run_shard_chaos(args) -> str:
    """X10: replication factor x storage-node failure sweep."""
    from repro.bench.shard_chaos import shard_chaos_experiment
    return shard_chaos_experiment(
        repetitions=max(5, min(args.repetitions, 12)), seed=args.seed,
    ).render()


def _run_restore_sweep(args) -> str:
    """Fig4 extension: EAGER/LAZY/WORKING_SET sweep + registry dedup."""
    from repro.bench.restore_sweep import restore_sweep
    return restore_sweep(
        repetitions=max(10, args.repetitions // 4), seed=args.seed
    ).render()


def _run_restore_pipeline(args) -> str:
    """X8: pipelined restore sweep (workers × cache policy × function)."""
    from repro.bench.restore_sweep import restore_pipeline_sweep
    return restore_pipeline_sweep(
        repetitions=max(6, args.repetitions // 8), seed=args.seed
    ).render()


def _run_trace(args) -> str:
    """Record full lifecycle traces for a few episodes and summarize.

    With ``--trace-out`` the raw JSONL trace is also written (inspect
    it with ``python -m repro.obs.cli <file>``).
    """
    from repro.bench.harness import run_startup_experiment
    from repro.obs.cli import summarize
    from repro.obs.export import write_trace_jsonl
    from repro.obs.flight import write_flight_jsonl

    repetitions = max(1, min(args.repetitions, 5))
    sink: List[Dict[str, object]] = []
    flight_sink: List[Dict[str, object]] | None = (
        [] if args.flight_out else None)
    for technique in ("vanilla", "prebake"):
        run_startup_experiment("markdown", technique,
                               repetitions=repetitions, seed=args.seed,
                               trace_phases=True, trace_sink=sink,
                               flight_sink=flight_sink)
    if args.trace_out:
        write_trace_jsonl(args.trace_out, sink)
        log.info("trace.written", file=args.trace_out, spans=len(sink))
    if args.flight_out and flight_sink is not None:
        write_flight_jsonl(args.flight_out, flight_sink)
        log.info("flight.written", file=args.flight_out,
                 events=len(flight_sink))
    return (f"Lifecycle trace — markdown, vanilla+prebake, "
            f"{repetitions} rep(s) each\n" + summarize(sink))


def _run_profile(args) -> str:
    """Phase-level profile: flamegraph + critical-path table (§10)."""
    from repro.bench.profile import (
        run_profile_experiment,
        write_folded,
        write_profile_json,
    )
    from repro.obs.export import metrics_to_jsonl
    from repro.obs.metrics import MetricsRegistry

    # Registry names use hyphens ("image-resizer"); accept underscore
    # spellings from the shell.
    function = (args.function or "image-resizer").replace("_", "-")
    repetitions = max(1, min(args.repetitions, 5))
    metrics = MetricsRegistry() if args.metrics_out else None
    result = run_profile_experiment(function, repetitions=repetitions,
                                    seed=args.seed, metrics_sink=metrics)
    if args.flame_out:
        write_folded(args.flame_out, result)
        log.info("profile.flame_written", file=args.flame_out)
    if args.profile_out:
        write_profile_json(args.profile_out, result)
        log.info("profile.written", file=args.profile_out)
    if args.metrics_out and metrics is not None:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(metrics_to_jsonl(metrics))
        log.info("profile.metrics_written", file=args.metrics_out)
    return result.render()


def _run_fleet_study(args) -> str:
    """X12: trace-driven fleet study on the fleet observability plane."""
    import json

    from repro.bench.fleet_study import fleet_study

    result = fleet_study(
        repetitions=max(1, min(args.repetitions, 3)), seed=args.seed,
        requests=args.requests or 1_000_000)
    if args.fleet_out:
        with open(args.fleet_out, "w", encoding="utf-8") as handle:
            json.dump(result.as_dict(), handle, sort_keys=True)
        log.info("fleet.artifact_written", file=args.fleet_out,
                 reps=len(result.reps))
    if args.flame_out and result.reps:
        attribution = result.headline.attribution
        folded = attribution.folded_lines() if attribution else []
        with open(args.flame_out, "w", encoding="utf-8") as handle:
            handle.write("\n".join(folded) + ("\n" if folded else ""))
        log.info("fleet.flame_written", file=args.flame_out,
                 stacks=len(folded))
    return result.render()


def _run_fleet_report(args) -> str:
    """Re-render a recorded fleet artifact (blame table + flamegraph)."""
    import json

    from repro.bench.fleet_study import render_fleet_report

    with open(args.fleet_in, "r", encoding="utf-8") as handle:
        artifact = json.load(handle)
    if args.flame_out:
        folded: List[str] = []
        for rep in artifact.get("reps", []):
            folded.extend(rep.get("folded", []))
        with open(args.flame_out, "w", encoding="utf-8") as handle:
            handle.write("\n".join(folded) + ("\n" if folded else ""))
        log.info("fleet.flame_written", file=args.flame_out,
                 stacks=len(folded))
    return render_fleet_report(artifact)


def _run_prewarm(args) -> str:
    """X13: forecast-driven prewarming vs fixed keep-alive sweep."""
    import json

    from repro.bench.prewarm_study import prewarm_study

    result = prewarm_study(
        repetitions=max(1, min(args.repetitions, 3)), seed=args.seed,
        requests=args.requests or 200_000, horizon=args.horizon)
    if args.prewarm_out:
        with open(args.prewarm_out, "w", encoding="utf-8") as handle:
            json.dump(result.as_dict(), handle, sort_keys=True)
        log.info("prewarm.artifact_written", file=args.prewarm_out,
                 reps=len(result.reps))
    return result.render()


def _run_kernel_bench(args) -> str:
    """X11: wall-clock events/sec, vectorized vs per-page reference."""
    from repro.bench.kernelbench import (
        DEFAULT_TARGET_EVENTS,
        kernel_bench,
        write_kernel_bench_json,
    )
    target = args.events or DEFAULT_TARGET_EVENTS
    result = kernel_bench(target_events=target, seed=args.seed)
    if args.profile_out:
        write_kernel_bench_json(args.profile_out, result)
        log.info("kernel_bench.profile_written", file=args.profile_out,
                 speedup=round(result.speedup_vs_reference, 2))
    return result.render()


EXPERIMENTS: Dict[str, Callable] = {
    "fig3": _run_fig3,
    "fig4": _run_fig4,
    "fig5": _run_fig5,
    "fig6": _run_factorial,
    "table1": _run_factorial,
    "fig7": _run_fig7,
    "sec5": _run_sec5,
    "ablation-restore": _run_ablation_restore,
    "ablation-snapshot": _run_ablation_snapshot,
    "ablation-bake-timing": _run_ablation_bake_timing,
    "ext-runtimes": _run_ext_runtimes,
    "ext-pool": _run_ext_pool,
    "restore-sweep": _run_restore_sweep,
    "restore-pipeline": _run_restore_pipeline,
    "chaos": _run_chaos,
    "incident": _run_incident,
    "shard-chaos": _run_shard_chaos,
    "trace": _run_trace,
    "profile": _run_profile,
    "kernel-bench": _run_kernel_bench,
    "fleet-study": _run_fleet_study,
    "fleet-report": _run_fleet_report,
    "prewarm": _run_prewarm,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prebake-bench",
        description="Reproduce the tables and figures of the Prebaking paper.",
    )
    parser.add_argument("experiment", nargs="?", default="all",
                        help="experiment id (see --list) or 'all'")
    parser.add_argument("--repetitions", "-r", type=int, default=200,
                        help="repetitions per treatment (paper: 200)")
    parser.add_argument("--seed", "-s", type=int, default=42,
                        help="master RNG seed")
    parser.add_argument("--workers", "-w", type=int, default=1,
                        help="fan repetitions over N processes where the "
                             "experiment supports it (fig3); results are "
                             "identical for any worker count")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write a JSONL lifecycle trace (fig4 and "
                             "trace experiments)")
    parser.add_argument("--flight-out", default=None, metavar="PATH",
                        help="write the flight-recorder tape as JSONL "
                             "(trace and incident experiments)")
    parser.add_argument("--postmortem-dir", default=None, metavar="DIR",
                        help="seal postmortem bundles into DIR (chaos "
                             "and incident experiments)")
    parser.add_argument("--function", default=None, metavar="NAME",
                        help="function to profile (profile experiment; "
                             "default image-resizer)")
    parser.add_argument("--flame-out", default=None, metavar="PATH",
                        help="write folded-stack flamegraph lines "
                             "(profile experiment)")
    parser.add_argument("--profile-out", default=None, metavar="PATH",
                        help="write the raw phase-profile JSON dump "
                             "(profile and kernel-bench experiments)")
    parser.add_argument("--events", type=int, default=None, metavar="N",
                        help="wall-clock event budget per backend pass "
                             "(kernel-bench experiment)")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write merged metrics JSONL "
                             "(profile experiment)")
    parser.add_argument("--requests", type=int, default=None,
                        metavar="N",
                        help="simulated requests per repetition "
                             "(fleet-study default 1000000, prewarm "
                             "default 200000)")
    parser.add_argument("--horizon", type=int, default=64, metavar="N",
                        help="forecast lag-window length for the learned "
                             "policy (prewarm experiment)")
    parser.add_argument("--fleet-out", default=None, metavar="PATH",
                        help="write the fleet-study artifact JSON "
                             "(fleet-study experiment)")
    parser.add_argument("--fleet-in", default=None, metavar="PATH",
                        help="recorded fleet artifact to render "
                             "(fleet-report experiment)")
    parser.add_argument("--prewarm-out", default=None, metavar="PATH",
                        help="write the prewarm-study artifact JSON "
                             "(prewarm experiment)")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments and exit")
    return parser


def validate_args(args) -> str | None:
    """Sanity-check numeric knobs; the error message, or None if fine.

    A typo'd ``-r 0`` or negative seed would otherwise surface as a
    confusing downstream traceback (or an experiment that silently
    measures nothing), so the CLI rejects them up front with exit 2.
    """
    if args.repetitions < 1:
        return (f"--repetitions must be a positive integer, "
                f"got {args.repetitions}")
    if args.seed < 1:
        return f"--seed must be a positive integer, got {args.seed}"
    if args.workers < 1:
        return f"--workers must be a positive integer, got {args.workers}"
    if args.events is not None and args.events < 1:
        return f"--events must be a positive integer, got {args.events}"
    if args.requests is not None and args.requests < 1:
        return f"--requests must be a positive integer, got {args.requests}"
    if args.horizon < 2:
        return (f"--horizon must be a positive integer >= 2 "
                f"(the forecaster needs at least two lag windows), "
                f"got {args.horizon}")
    if args.experiment == "fleet-report" and not args.fleet_in:
        return "fleet-report requires --fleet-in PATH (a recorded artifact)"
    return None


def main(argv: List[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    problem = validate_args(args)
    if problem is not None:
        log.error("cli.bad_argument", message=problem)
        return 2
    if args.list:
        for name in EXPERIMENTS:
            print(name)
        return 0
    if args.experiment == "all":
        # fig6 covers table1; fleet-report only re-renders an existing
        # artifact (requires --fleet-in), so neither runs under "all".
        names = [n for n in EXPERIMENTS
                 if n not in ("table1", "fleet-report")]
    elif args.experiment in EXPERIMENTS:
        names = [args.experiment]
    else:
        log.error("cli.bad_experiment",
                  message=f"unknown experiment {args.experiment!r}; use --list")
        return 2
    for name in names:
        log.info("experiment.start", name=name,
                 repetitions=args.repetitions, seed=args.seed)
        started = time.time()
        output = EXPERIMENTS[name](args)
        elapsed = time.time() - started
        log.info("experiment.done", name=name, wall_s=round(elapsed, 2))
        print(f"== {name} " + "=" * 38)
        print(output)
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
