"""Tests for the tracer, load generator, harness and report helpers."""

import pytest

from repro.bench.harness import run_service_experiment, run_startup_experiment
from repro.bench.report import format_interval, format_table, stacked_bar
from repro.bench.workload import LoadGenerator
from repro.core.manager import PrebakeManager
from repro.core.policy import AfterReady, AfterWarmup
from repro.core.starters import VanillaStarter
from repro.functions import make_app
from repro.osproc.probes import SyscallRecord
from repro.sim.costmodel import DEFAULT_COST_MODEL
from tests.phase_tracer import PhaseTracer, TraceError


def _emit(kernel, syscall, phase):
    kernel.probes.emit(SyscallRecord(
        syscall=syscall, pid=99, phase=phase, timestamp=kernel.clock.now))


class TestPhaseTracer:
    def test_vanilla_phase_breakdown(self, quiet_kernel):
        tracer = PhaseTracer(quiet_kernel)
        tracer.start_episode()
        VanillaStarter(quiet_kernel).start(make_app("noop"))
        tracer.stop_episode()
        phases = tracer.breakdown()
        m = DEFAULT_COST_MODEL
        assert phases.clone_ms == pytest.approx(m.clone_ms)
        assert phases.exec_ms == pytest.approx(m.exec_ms)
        assert phases.rts_ms == pytest.approx(m.jvm_rts_ms)
        assert phases.appinit_ms == pytest.approx(31.3, abs=0.5)

    def test_prebake_rts_is_zero(self, quiet_kernel):
        manager = PrebakeManager(quiet_kernel)
        app = make_app("noop")
        manager.deploy(app)
        tracer = PhaseTracer(quiet_kernel)
        tracer.start_episode()
        manager.start_replica(app, technique="prebake")
        tracer.stop_episode()
        phases = tracer.breakdown()
        assert phases.rts_ms == 0.0
        assert phases.appinit_ms == pytest.approx(60.0, abs=0.5)

    def test_empty_episode_rejected(self, kernel):
        tracer = PhaseTracer(kernel)
        tracer.start_episode()
        tracer.stop_episode()
        with pytest.raises(TraceError):
            tracer.breakdown()

    def test_events_outside_episode_ignored(self, kernel):
        tracer = PhaseTracer(kernel)
        VanillaStarter(kernel).start(make_app("noop"))  # not recording
        assert tracer.events == []

    def test_episode_without_ready_rejected(self, kernel):
        """clone+exec happened but the runtime never signalled ready
        (e.g. the restore path died before runtime.ready)."""
        tracer = PhaseTracer(kernel)
        tracer.start_episode()
        for syscall in ("clone", "execve"):
            _emit(kernel, syscall, "enter")
            kernel.clock.advance(1.0)
            _emit(kernel, syscall, "exit")
        tracer.stop_episode()
        with pytest.raises(TraceError, match="never reached runtime.ready"):
            tracer.breakdown()

    def test_episode_without_clone_exec_rejected(self, kernel):
        tracer = PhaseTracer(kernel)
        tracer.start_episode()
        _emit(kernel, "runtime.ready", "enter")
        tracer.stop_episode()
        with pytest.raises(TraceError, match="missing clone/exec"):
            tracer.breakdown()

    def test_partial_episode_does_not_poison_the_next(self, kernel):
        tracer = PhaseTracer(kernel)
        tracer.start_episode()
        _emit(kernel, "clone", "enter")  # truncated episode
        tracer.stop_episode()
        with pytest.raises(TraceError):
            tracer.breakdown()
        # a fresh episode on the same tracer records cleanly
        tracer.start_episode()
        VanillaStarter(kernel).start(make_app("noop"))
        tracer.stop_episode()
        phases = tracer.breakdown()
        assert phases.total_ms > 0.0
        assert not any(e.pid == 99 for e in tracer.events)

    def test_breakdown_total(self, quiet_kernel):
        tracer = PhaseTracer(quiet_kernel)
        tracer.start_episode()
        handle = VanillaStarter(quiet_kernel).start(make_app("noop"))
        tracer.stop_episode()
        phases = tracer.breakdown()
        assert phases.total_ms == pytest.approx(handle.startup_ms("ready"), rel=0.01)


class TestLoadGenerator:
    def test_holds_first_request_until_ready(self, kernel):
        generator = LoadGenerator(kernel)
        result = generator.run(VanillaStarter(kernel), make_app("noop"),
                               requests=5, interval_ms=10.0)
        first = result.responses[0]
        assert first.started_ms >= result.handle.ready_at_ms

    def test_constant_rate_spacing(self, kernel):
        generator = LoadGenerator(kernel)
        result = generator.run(VanillaStarter(kernel), make_app("noop"),
                               requests=3, interval_ms=50.0)
        gaps = [
            result.responses[i + 1].started_ms - result.responses[i].finished_ms
            for i in range(2)
        ]
        assert all(g == pytest.approx(50.0) for g in gaps)

    def test_collects_all_service_times(self, kernel):
        result = LoadGenerator(kernel).run(
            VanillaStarter(kernel), make_app("markdown"), requests=20)
        assert len(result.service_times) == 20
        assert result.errors == 0

    def test_zero_requests_allowed(self, kernel):
        result = LoadGenerator(kernel).run(
            VanillaStarter(kernel), make_app("noop"), requests=0)
        assert result.responses == []

    def test_negative_requests_rejected(self, kernel):
        with pytest.raises(ValueError):
            LoadGenerator(kernel).run(VanillaStarter(kernel),
                                      make_app("noop"), requests=-1)


class TestStartupExperiment:
    def test_sample_count(self):
        summary = run_startup_experiment("noop", "vanilla", repetitions=10, seed=1)
        assert len(summary.samples) == 10
        assert summary.metric == "ready"

    def test_deterministic_per_seed(self):
        a = run_startup_experiment("noop", "vanilla", repetitions=5, seed=9)
        b = run_startup_experiment("noop", "vanilla", repetitions=5, seed=9)
        assert a.values == b.values

    def test_different_seeds_differ(self):
        a = run_startup_experiment("noop", "vanilla", repetitions=5, seed=1)
        b = run_startup_experiment("noop", "vanilla", repetitions=5, seed=2)
        assert a.values != b.values

    def test_repetitions_vary_within_run(self):
        summary = run_startup_experiment("noop", "vanilla", repetitions=10, seed=1)
        assert len(set(summary.values)) > 1

    def test_synthetic_uses_first_response(self):
        summary = run_startup_experiment("synthetic-small", "vanilla",
                                         repetitions=3, seed=1)
        assert summary.metric == "first_response"

    def test_prebake_records_snapshot_size(self):
        summary = run_startup_experiment("noop", "prebake", repetitions=3, seed=1)
        assert all(s.snapshot_mib > 10 for s in summary.samples)

    def test_phase_tracing(self):
        summary = run_startup_experiment("noop", "vanilla", repetitions=3,
                                         seed=1, trace_phases=True)
        phases = summary.phase_medians()
        assert phases.rts_ms == pytest.approx(70.0, rel=0.05)

    def test_phase_medians_without_tracing_rejected(self):
        summary = run_startup_experiment("noop", "vanilla", repetitions=3, seed=1)
        with pytest.raises(ValueError):
            summary.phase_medians()

    def test_warm_policy_faster_than_nowarm(self):
        nowarm = run_startup_experiment("synthetic-small", "prebake",
                                        policy=AfterReady(),
                                        repetitions=5, seed=1)
        warm = run_startup_experiment("synthetic-small", "prebake",
                                      policy=AfterWarmup(1),
                                      repetitions=5, seed=1)
        assert warm.median_ms < 0.5 * nowarm.median_ms


class TestServiceExperiment:
    def test_service_samples_collected(self):
        summary = run_service_experiment("noop", "vanilla", requests=30, seed=1)
        assert len(summary.service_times_ms) == 30
        assert summary.errors == 0

    def test_techniques_have_similar_service_time(self):
        vanilla = run_service_experiment("markdown", "vanilla", requests=50, seed=2)
        prebake = run_service_experiment("markdown", "prebake", requests=50, seed=2)
        ratio = prebake.median_ms / vanilla.median_ms
        assert 0.9 < ratio < 1.1


class TestReportHelpers:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_interval(self):
        assert format_interval(219.25, 220.32) == "(219.25;220.32)"

    def test_stacked_bar_proportions(self):
        bar = stacked_bar({"CLONE": 0, "EXEC": 0, "RTS": 50, "APPINIT": 50},
                          total_width=10)
        assert bar.count("R") == 5
        assert bar.count("A") == 5

    def test_stacked_bar_empty(self):
        assert stacked_bar({"RTS": 0.0}) == "(empty)"
