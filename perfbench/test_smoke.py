"""Smoke test for the replay benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench -q``.
A tiny trace of each workload must replay to the same fingerprint twice,
and tracing must leave every simulated metric unchanged.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import run  # noqa: E402
from layers import LAYERS, LayerTracer  # noqa: E402
from replay import expected_bodies, replay  # noqa: E402
from workloads import WORKLOADS, make_trace  # noqa: E402


def tiny(name: str):
    workload = WORKLOADS[name].scaled(segments=1, requests=90)
    if workload.redeploy_every:
        workload = dataclasses.replace(workload, redeploy_every=40)
    return workload


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_trace_is_seed_stable_and_tracing_keeps_simulated_metrics(name):
    workload = tiny(name)
    segment = make_trace(workload, seed=7)[0]
    assert make_trace(workload, seed=7)[0] == segment
    assert make_trace(workload, seed=8)[0] != segment
    expected = expected_bodies(segment, workload)
    first = replay(workload, segment, expected)
    second = replay(workload, segment, expected)
    tracer = LayerTracer()
    with tracer.installed():
        traced = replay(workload, segment, expected)
    assert run.check([segment], [(0, first), (0, second), (0, traced)]) == []
    assert first.fingerprint() == second.fingerprint() == traced.fingerprint()
    assert run.simulated_metrics([first]) == run.simulated_metrics([traced])
    assert tracer.acc["faas.router"][0] == len(segment)
    assert tracer.acc["functions"][0] >= len(segment)  # bakes may warm up too
    assert all(tracer.self_seconds(layer) >= 0.0 for layer in LAYERS)


def test_tracer_restores_the_original_entry_points():
    from repro.faas.router import FunctionRouter
    import repro.obs
    route, span = FunctionRouter.route, repro.obs.span
    with LayerTracer().installed():
        assert FunctionRouter.route is not route
    assert FunctionRouter.route is route and repro.obs.span is span


def test_check_reports_lost_requests_and_wrong_bodies():
    workload = tiny("warm-serve")
    segment = make_trace(workload, seed=3)[0]
    expected = expected_bodies(segment, workload)
    good = replay(workload, segment, expected)
    assert run.check([segment], [(0, good)]) == []
    lost = replay(workload, segment, expected)
    lost.records.pop()
    wrong = replay(workload, segment, ["not the body"] * len(expected))
    problems = run.check([segment], [(0, good), (0, lost), (0, wrong)])
    assert any("records" in p for p in problems)
    assert any("not deterministic" in p for p in problems)
    assert any("bodies differ" in p for p in problems)


def test_reported_metrics_match_benchmark_json(tmp_path):
    import json
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workload = tiny("fleet-observed")
    trace = make_trace(workload, seed=5)
    expected = [expected_bodies(segment, workload) for segment in trace]
    _, _, untraced, _ = run.run_untraced(workload, trace, expected, 0.001)
    _, _, traced, _ = run.run_traced(workload, trace, expected, 0.001,
                                     tmp_path / "spans.jsonl")
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert list(untraced) == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in spec["per_layer"]] == list(traced)
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
    assert all(value > 0 for value in untraced.values())
