"""Windowed time-series rollups, including the tape-replay invariant.

The hypothesis property here is the load-bearing one: for *any*
deterministic sample stream, replaying the flight tape's METRIC_SAMPLE
events through :func:`repro.obs.timeseries.replay_events` reconstructs
window rollups identical to the live table's — which is what makes a
postmortem bundle's metric windows reproducible from its recipe.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import make_world, obs
from repro.obs.flight import FlightRecorder, METRIC_SAMPLE
from repro.obs.timeseries import (
    COUNTER_SAMPLE,
    TimeseriesTable,
    VALUE_SAMPLE,
    WindowedSeries,
    replay_events,
)


class TestWindowedSeries:
    def test_windows_align_to_t0_and_keep_interior_gaps(self):
        series = WindowedSeries("latency_ms")
        for at_ms, value in [(50.0, 1.0), (150.0, 2.0), (850.0, 3.0)]:
            series.record(at_ms, value)
        windows = series.windows(100.0)
        # [0,100) .. [800,900): leading window populated, interior
        # empties kept so the curve shows the gap.
        assert windows[0].start_ms == 0.0
        assert windows[-1].end_ms == 900.0
        assert len(windows) == 9
        assert [w.count for w in windows] == [1, 1, 0, 0, 0, 0, 0, 0, 1]

    def test_window_stats_are_numpy_exact(self):
        series = WindowedSeries("latency_ms")
        values = [5.0, 1.0, 9.0, 3.0]
        for index, value in enumerate(values):
            series.record(10.0 * index, value)
        (window,) = series.windows(100.0)
        assert window.count == 4
        assert window.total == 18.0
        assert window.mean == pytest.approx(4.5)
        assert window.min_value == 1.0
        assert window.max_value == 9.0
        assert window.p50 == pytest.approx(np.percentile(values, 50))
        assert window.p99 == pytest.approx(np.percentile(values, 99))

    def test_ring_is_bounded(self):
        series = WindowedSeries("latency_ms", capacity=3)
        for index in range(10):
            series.record(float(index), float(index))
        assert len(series) == 3
        assert series.total_samples == 10
        assert [v for _, v in series.samples()] == [7.0, 8.0, 9.0]

    def test_window_truncated_by_eviction_is_not_reported(self):
        # The ring keeps 20, 30, 110, 120: [0, 100) lost two of its
        # four samples, so it must not be reported as a complete window.
        series = WindowedSeries("latency_ms", capacity=4)
        for at_ms in (0.0, 10.0, 20.0, 30.0, 110.0, 120.0):
            series.record(at_ms, 1.0)
        assert series.evicted_ms == 10.0
        (window,) = series.windows(100.0)
        assert (window.start_ms, window.count, window.total) == (100.0, 2, 2.0)

    def test_window_starting_at_the_eviction_is_dropped(self):
        series = WindowedSeries("latency_ms", capacity=2)
        for at_ms in (100.0, 150.0, 250.0):
            series.record(at_ms, 1.0)
        assert series.evicted_ms == 100.0
        assert [w.start_ms for w in series.windows(100.0)] == [200.0]
        assert [w.start_ms for w in series.windows(50.0)] == [150.0, 200.0, 250.0]

    def test_values_between_is_half_open(self):
        series = WindowedSeries("latency_ms")
        series.record(100.0, 1.0)
        series.record(200.0, 2.0)
        assert series.values_between(100.0, 200.0) == [1.0]


class TestTimeseriesTable:
    def test_helpers_feed_the_table(self):
        kernel = make_world(seed=4, observe=True).kernel
        table = obs.enable_timeseries(kernel, window_ms=100.0)
        kernel.clock.advance(30.0)
        obs.observe(kernel, "criu_restore_duration_ms", 52.0)
        obs.count(kernel, "criu_restore_total")
        assert table.series("criu_restore_duration_ms").kind == VALUE_SAMPLE
        assert table.series("criu_restore_total").kind == COUNTER_SAMPLE
        (window,) = table.windows("criu_restore_duration_ms")
        assert window.p50 == 52.0

    def test_windowed_rate_none_without_denominator(self):
        table = TimeseriesTable(window_ms=100.0)
        assert table.windowed_rate("bad", "total", 0.0, 100.0) is None
        table.record("total", 10.0, 1.0, kind=COUNTER_SAMPLE)
        table.record("bad", 20.0, 1.0, kind=COUNTER_SAMPLE)
        assert table.windowed_rate("bad", "total", 0.0, 100.0) == 1.0
        assert table.windowed_rate("bad", "total", 100.0, 200.0) is None

    def test_windowed_rate_none_for_a_truncated_window(self):
        table = TimeseriesTable(window_ms=100.0, capacity=4)
        for at_ms in (0.0, 10.0, 20.0, 30.0, 110.0, 120.0):
            table.record("total", at_ms, 1.0, kind=COUNTER_SAMPLE)
        table.record("bad", 5.0, 1.0, kind=COUNTER_SAMPLE)
        assert table.windowed_rate("bad", "total", 0.0, 100.0) is None
        assert table.windowed_rate("bad", "total", 100.0, 200.0) == 0.0
        for at_ms in (101.0, 102.0, 103.0, 104.0):
            table.record("bad", at_ms, 1.0, kind=COUNTER_SAMPLE)
        # "bad" evicted its sample at 5 ms, not one of [100, 200).
        assert table.windowed_rate("bad", "total", 100.0, 200.0) == 1.0
        table.record("bad", 105.0, 1.0, kind=COUNTER_SAMPLE)
        assert table.windowed_rate("bad", "total", 100.0, 200.0) is None

    def test_rollup_is_json_ready(self):
        table = TimeseriesTable(window_ms=100.0)
        table.record("latency_ms", 10.0, 5.0)
        rollup = table.rollup()
        (window,) = rollup["latency_ms"]
        assert window["count"] == 1
        assert set(window) == {"start_ms", "end_ms", "count", "sum", "mean",
                               "min", "max", "p50", "p99"}


SAMPLE_STREAMS = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=10_000.0,
                  allow_nan=False, allow_infinity=False),
        st.floats(min_value=-1e6, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
        st.sampled_from(["latency_ms", "restores_total", "hits_total"]),
    ),
    min_size=0, max_size=60,
)


class TestTapeReplayProperty:
    @settings(max_examples=60, deadline=None)
    @given(stream=SAMPLE_STREAMS, window_ms=st.sampled_from([50.0, 500.0]))
    def test_replaying_tape_reconstructs_identical_rollups(
            self, stream, window_ms):
        """Live table and tape replay agree window-for-window."""
        clock = make_world(seed=1).kernel.clock
        recorder = FlightRecorder(clock, capacity=len(stream) + 1)
        live = TimeseriesTable(window_ms=window_ms)
        elapsed = 0.0
        for at_ms, value, metric in stream:
            if at_ms > elapsed:       # sim clocks only move forward
                clock.advance(at_ms - elapsed)
                elapsed = at_ms
            kind = (COUNTER_SAMPLE if metric.endswith("_total")
                    else VALUE_SAMPLE)
            live.record(metric, clock.now, value, kind=kind)
            recorder.record(METRIC_SAMPLE, metric=metric, value=value,
                            sample_kind=kind)
        replayed = replay_events(recorder.events(), window_ms=window_ms)
        assert replayed.names() == live.names()
        assert replayed.rollup() == live.rollup()
        for name in live.names():
            assert replayed.series(name).kind == live.series(name).kind

    def test_replay_ignores_non_metric_events(self):
        clock = make_world(seed=1).kernel.clock
        recorder = FlightRecorder(clock)
        recorder.record("request.admitted", request_id=1)
        recorder.record(METRIC_SAMPLE, metric="latency_ms", value=3.0)
        table = replay_events(recorder.events())
        assert table.names() == ["latency_ms"]
