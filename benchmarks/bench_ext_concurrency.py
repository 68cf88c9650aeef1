"""Extension benchmark — concurrent scale-out bursts.

A burst of simultaneous requests against a scaled-to-zero function:
every request (up to the replica cap) pays a cold start *in parallel*.
Prebaking shrinks the whole burst's makespan by the same factor it
shrinks a single cold start — exactly the autoscaling scenario the
paper's introduction motivates.
"""

import pytest

from repro.core.policy import AfterWarmup
from repro.bench.platform_study import run_burst_experiment
from repro.bench.report import format_table


@pytest.mark.benchmark(group="extension")
def test_ext_concurrent_burst(benchmark, record_result):
    def run():
        out = {}
        for technique, policy in (("vanilla", None),
                                  ("prebake", AfterWarmup(1))):
            out[technique] = {
                "burst8": run_burst_experiment(
                    "markdown", technique, burst_size=8,
                    policy=policy, max_replicas=8, seed=42),
                "burst32cap8": run_burst_experiment(
                    "markdown", technique, burst_size=32,
                    policy=policy, max_replicas=8, seed=42),
            }
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for technique, cases in results.items():
        for case, metrics in cases.items():
            rows.append([
                technique, case,
                str(metrics.cold_starts),
                f"{metrics.latency_p(0.99):.1f}",
                f"{metrics.makespan_ms:.1f}",
            ])
            benchmark.extra_info[f"{technique}_{case}_makespan_ms"] = round(
                metrics.makespan_ms, 1)
    record_result(
        "ext_concurrency",
        "Concurrent bursts, markdown, scaled-to-zero start\n"
        + format_table(
            ["technique", "scenario", "cold starts", "p99 wait(ms)",
             "makespan(ms)"],
            rows,
        ),
    )
    vanilla = results["vanilla"]
    prebake = results["prebake"]
    for case in ("burst8", "burst32cap8"):
        assert prebake[case].makespan_ms < 0.75 * vanilla[case].makespan_ms
    # Capped burst: exactly max_replicas cold starts, the rest queue.
    assert vanilla["burst32cap8"].cold_starts == 8
    assert vanilla["burst32cap8"].peak_replicas == 8
