"""Tests for trace-file handling and the workload synthesizer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.traces import (
    TraceEvent,
    TraceFormatError,
    dump_csv,
    dump_jsonl,
    load_csv,
    load_jsonl,
    per_function_counts,
    synthesize_workload,
)


class TestTraceFiles:
    EVENTS = [TraceEvent(10.0, "a"), TraceEvent(5.0, "b"), TraceEvent(20.0, "a")]

    def test_jsonl_roundtrip(self):
        loaded = load_jsonl(dump_jsonl(self.EVENTS))
        assert loaded == sorted(self.EVENTS, key=lambda e: (e.at_ms, e.function))

    def test_csv_roundtrip(self):
        loaded = load_csv(dump_csv(self.EVENTS))
        assert [e.function for e in loaded] == ["b", "a", "a"]

    def test_jsonl_skips_blank_lines(self):
        text = dump_jsonl(self.EVENTS) + "\n\n"
        assert len(load_jsonl(text)) == 3

    def test_jsonl_bad_line_reports_lineno(self):
        with pytest.raises(TraceFormatError, match="line 2"):
            load_jsonl('{"at_ms": 1, "function": "a"}\nnot-json\n')

    def test_csv_bad_header(self):
        with pytest.raises(TraceFormatError, match="header"):
            load_csv("time,fn\n1,a\n")

    def test_csv_empty(self):
        with pytest.raises(TraceFormatError, match="empty"):
            load_csv("")

    def test_event_validation(self):
        with pytest.raises(TraceFormatError):
            TraceEvent(-1.0, "a")
        with pytest.raises(TraceFormatError):
            TraceEvent(1.0, "")

    @given(events=st.lists(
        st.builds(TraceEvent,
                  at_ms=st.floats(min_value=0, max_value=1e6),
                  function=st.sampled_from(["f1", "f2", "f3"])),
        max_size=50))
    @settings(max_examples=50)
    def test_roundtrip_property(self, events):
        via_jsonl = load_jsonl(dump_jsonl(events))
        via_csv = load_csv(dump_csv(events))
        assert len(via_jsonl) == len(events)
        # CSV stores 3 decimal places, which can reorder near-equal
        # timestamps — compare the event multiset, not the order.
        assert sorted(e.function for e in via_csv) == \
            sorted(e.function for e in via_jsonl)
        for a, b in zip(via_csv, sorted(via_csv, key=lambda e: e.at_ms)):
            assert a.at_ms == b.at_ms


class TestSynthesizer:
    def test_zipf_popularity(self):
        functions = [f"fn-{i}" for i in range(10)]
        trace = synthesize_workload(functions, duration_ms=600_000,
                                    total_rate_per_s=20, bursty_fraction=0.0,
                                    seed=5)
        counts = per_function_counts(trace)
        assert counts["fn-0"] > 3 * counts.get("fn-9", 1)

    def test_sorted_output(self):
        trace = synthesize_workload(["a", "b"], duration_ms=60_000, seed=1)
        times = [e.at_ms for e in trace]
        assert times == sorted(times)

    def test_deterministic(self):
        a = synthesize_workload(["a", "b"], 60_000, seed=2)
        b = synthesize_workload(["a", "b"], 60_000, seed=2)
        assert a == b

    def test_validation(self):
        with pytest.raises(TraceFormatError):
            synthesize_workload([], 1000)
        with pytest.raises(TraceFormatError):
            synthesize_workload(["a"], 1000, bursty_fraction=2.0)

    def test_total_volume_reasonable(self):
        trace = synthesize_workload([f"f{i}" for i in range(5)],
                                    duration_ms=300_000,
                                    total_rate_per_s=10,
                                    bursty_fraction=0.0, seed=3)
        assert len(trace) == pytest.approx(3000, rel=0.25)
