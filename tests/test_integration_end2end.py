"""End-to-end integration tests across the whole stack."""

import pytest

from repro import PrebakeManager, make_world
from repro.core.policy import AfterReady, AfterWarmup
from repro.faas import FaaSPlatform
from repro.faas.openfaas.stack import make_openfaas_stack
from repro.functions import (
    MarkdownFunction,
    NoopFunction,
    make_app,
    small_function,
)
from repro.runtime.base import Request
from tests.phase_tracer import PhaseTracer


class TestPaperHeadlineScenario:
    """The paper's abstract, end to end in one simulated world."""

    def test_full_lifecycle_one_world(self):
        world = make_world(seed=2020)
        manager = PrebakeManager(world.kernel)
        app = make_app("image-resizer")

        # Deploy = build + bake (off the request path, §3.1).
        report = manager.deploy(app, policy=AfterReady())
        assert report.snapshot_mib == pytest.approx(99.2, abs=1.0)

        # Vanilla cold start.
        vanilla = manager.start_replica(make_app("image-resizer"),
                                        technique="vanilla")
        vanilla_ms = vanilla.startup_ms("ready")

        # Prebaked cold start from the same world's snapshot.
        prebaked = manager.start_replica(app, technique="prebake")
        prebaked_ms = prebaked.startup_ms("ready")

        # Paper: 310ms → 87ms, a 71% improvement.
        assert 1 - prebaked_ms / vanilla_ms == pytest.approx(0.71, abs=0.05)

        # Both replicas serve equivalent responses afterwards.
        rv = vanilla.invoke(Request())
        rp = prebaked.invoke(Request())
        assert rv.ok and rp.ok
        assert rv.body == rp.body

    def test_warmup_effect_on_synthetic(self):
        world = make_world(seed=2021)
        manager = PrebakeManager(world.kernel)
        app = small_function()
        manager.deploy(app, policy=AfterReady())
        manager.deploy(app, policy=AfterWarmup(1))

        cold = manager.start_replica(app, technique="vanilla")
        cold.invoke()
        nowarm = manager.start_replica(app, technique="prebake",
                                       policy=AfterReady())
        nowarm.invoke()
        warm = manager.start_replica(app, technique="prebake",
                                     policy=AfterWarmup(1))
        warm.invoke()

        vanilla_ms = cold.startup_ms("first_response")
        nowarm_ms = nowarm.startup_ms("first_response")
        warm_ms = warm.startup_ms("first_response")
        assert 1.1 < vanilla_ms / nowarm_ms < 1.45   # paper ≈ 127%
        assert 3.3 < vanilla_ms / warm_ms < 4.8      # paper ≈ 404%


class TestPlatformAutoscaleStory:
    def test_burst_then_gc_then_fast_cold_start(self):
        world = make_world(seed=77)
        platform = FaaSPlatform(world.kernel)
        platform.register_function(MarkdownFunction, start_technique="prebake",
                                   snapshot_policy=AfterWarmup(1),
                                   idle_timeout_ms=500.0)
        # Burst: three concurrent-ish invocations scale the pool.
        platform.scale("markdown", 3)
        assert platform.replica_count("markdown") == 3
        # Quiet period → GC everything.
        world.kernel.clock.advance(10_000.0)
        platform.gc_tick()
        assert platform.replica_count("markdown") == 0
        # The next request cold starts from the snapshot — fast.
        response = platform.invoke("markdown", Request(body="## hi"))
        assert response.ok
        cold = platform.cold_start_latencies("markdown")[-1]
        assert cold < 60.0

    def test_mixed_techniques_coexist(self):
        world = make_world(seed=78)
        platform = FaaSPlatform(world.kernel)
        platform.register_function(NoopFunction, start_technique="vanilla")
        platform.register_function(MarkdownFunction, start_technique="prebake")
        platform.invoke("noop")
        platform.invoke("markdown")
        records = {r.function: r.technique
                   for r in platform.router.stats.records}
        assert records == {"noop": "vanilla", "markdown": "prebake"}


class TestOpenFaasEndToEnd:
    def test_version_bump_rebakes_and_redeploys(self):
        world = make_world(seed=90)
        stack = make_openfaas_stack(world.kernel)
        stack.cli.new("md", "java8-criu", MarkdownFunction)
        stack.cli.up("md")
        first = stack.gateway.invoke("md")
        assert first.ok

        stack.cli.bump_version("md")
        stack.cli.up("md")
        second = stack.gateway.invoke("md", Request(body="# v2"))
        assert "<h1>v2</h1>" in second.body
        assert len(stack.snapshot_store) == 2  # one snapshot per version

    def test_snapshot_reused_across_replicas(self):
        world = make_world(seed=91)
        stack = make_openfaas_stack(world.kernel)
        stack.cli.new("noop", "java8-criu", NoopFunction)
        stack.cli.up("noop")
        stack.gateway.scale("noop", 4)
        key = stack.snapshot_store.keys()[0]
        assert stack.snapshot_store.restore_count(key) == 4


class TestTracerOnFullStack:
    def test_phase_story_matches_paper_narrative(self):
        """One world, both techniques, phases measured by probes."""
        world = make_world(seed=55)
        manager = PrebakeManager(world.kernel)
        app = make_app("markdown")
        manager.deploy(app)

        tracer = PhaseTracer(world.kernel)
        tracer.start_episode()
        manager.start_replica(make_app("markdown"), technique="vanilla")
        tracer.stop_episode()
        vanilla_phases = tracer.breakdown()

        tracer.start_episode()
        manager.start_replica(app, technique="prebake")
        tracer.stop_episode()
        prebake_phases = tracer.breakdown()

        assert vanilla_phases.rts_ms > 60.0
        assert prebake_phases.rts_ms == 0.0
        assert prebake_phases.total_ms < vanilla_phases.total_ms
