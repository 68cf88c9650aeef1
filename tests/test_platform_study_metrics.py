"""Metric-accounting tests for the platform study layer."""

import pytest

from repro.bench.platform_study import StudyResult, run_platform_study
from repro.bench.traces import poisson_arrivals


class TestStudyResultMath:
    def _result(self, queued, idle=0.0, cold=1):
        return StudyResult(strategy="x", requests=len(queued),
                           cold_starts=cold, queued_ms=list(queued),
                           idle_mib_ms=idle)

    def test_cold_fraction(self):
        result = self._result([0.0] * 10, cold=3)
        assert result.cold_fraction == pytest.approx(0.3)

    def test_cold_fraction_empty(self):
        assert StudyResult("x", 0, 0).cold_fraction == 0.0

    def test_latency_percentiles(self):
        result = self._result([0.0] * 99 + [100.0])
        assert result.latency_p(0.50) == 0.0
        assert result.latency_p(0.99) > 0.0
        assert result.latency_p(1.0) == 100.0

    def test_latency_empty(self):
        assert StudyResult("x", 0, 0).latency_p(0.99) == 0.0

    def test_wait_quantile_and_empty_burst(self):
        empty = StudyResult("x", 0, 0)
        assert empty.latency_p(0.99) == 0.0
        assert empty.makespan_ms == 0.0 and empty.peak_replicas == 0

    def test_idle_gib_hours_conversion(self):
        # 1024 MiB held for one hour = 1 GiB·hour.
        result = self._result([], idle=1024.0 * 3_600_000.0)
        assert result.idle_gib_hours == pytest.approx(1.0)


class TestIdleAccounting:
    def test_idle_memory_grows_with_quiet_time(self):
        # Two requests separated by a long quiet period, timeout long
        # enough that the replica is held the whole time.
        trace = [0.0, 120_000.0]
        result = run_platform_study("noop", "prebake", trace,
                                    idle_timeout_ms=300_000.0, seed=3)
        # ~13 MiB held for ~120 s → ≈ 1.56e6 MiB·ms.
        assert result.idle_mib_ms == pytest.approx(13.0 * 120_000.0, rel=0.15)

    def test_no_idle_cost_with_instant_gc(self):
        trace = poisson_arrivals(0.05, 100_000, seed=4)
        result = run_platform_study("noop", "prebake", trace,
                                    idle_timeout_ms=1.0, seed=4)
        # Replicas die almost immediately; held memory is negligible
        # relative to the held-for-the-whole-trace alternative.
        assert result.idle_mib_ms < 13.0 * 100_000.0 * 0.05

    def test_every_request_recorded(self):
        trace = poisson_arrivals(1.0, 30_000, seed=5)
        result = run_platform_study("noop", "vanilla", trace,
                                    idle_timeout_ms=10_000.0, seed=5)
        assert result.requests == len(trace)
        assert len(result.queued_ms) == len(trace)
        assert 1 <= result.cold_starts <= len(trace)
