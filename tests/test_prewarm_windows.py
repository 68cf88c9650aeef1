"""Differential test: the controller's per-window arrival counts.

:class:`PrewarmController` counts arrivals per window index. The
reference below replays the same stream through a
:class:`repro.obs.timeseries.WindowedSeries` ring and rolls it with
``windows()``, applying the filter the controller is specified by:
feed every completed window (``end <= now``) that starts at or after
the previous fed window's end, at most ``horizon`` trailing ones.
The two must make the same ``observe_window`` calls in the same order.
"""

import math
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.timeseries import WindowedSeries
from repro.predict.policy import PrewarmConfig, PrewarmController

# Multiples of the first six are exact in binary floating point. For
# the last three, t / w can round across a window edge (the case the
# controller corrects), and k*w + w may differ from (k+1)*w.
WINDOWS_MS = (0.25, 1.0, 2.5, 10.0, 1_000.0, 10_000.0, 0.1, 0.3, 3.7)
FUNCTIONS = ("alpha", "beta", "gamma")

Call = Tuple[str, float]


def _reference_calls(arrivals, plans, window_ms: float, horizon: int) -> List[Call]:
    series: Dict[str, WindowedSeries] = {}
    fed_until: Dict[str, float] = {}
    calls: List[Call] = []
    events = sorted([(t, 0, f) for t, f in arrivals] + [(t, 1, "") for t in plans])
    for at_ms, is_plan, function in events:
        if not is_plan:
            series.setdefault(function, WindowedSeries(function)).record(at_ms, 1.0)
            continue
        for name in sorted(series):
            stats = series[name].windows(window_ms)
            windows = [(s.start_ms, s.end_ms, s.count) for s in stats]
            # windows() stops at the newest sample's window; the ones
            # between it and ``now`` are completed windows too.
            newest = max(t for t, _ in series[name].samples())
            k = math.floor(newest / window_ms) + 1
            while k * window_ms + window_ms <= at_ms:
                lo, hi = k * window_ms, k * window_ms + window_ms
                windows.append((lo, hi, len(series[name].values_between(lo, hi))))
                k += 1
            completed = [(lo, hi, n) for lo, hi, n in windows
                         if hi <= at_ms and lo >= fed_until.get(name, 0.0)]
            for lo, hi, n in completed[-horizon:]:
                calls.append((name, float(n)))
                fed_until[name] = hi
    return calls


def _controller_calls(arrivals, plans, window_ms: float, horizon: int) -> List[Call]:
    controller = PrewarmController(PrewarmConfig(
        policy="histogram", window_ms=window_ms, horizon=horizon))
    calls: List[Call] = []
    observe = controller.policy.observe_window

    def spy(key: str, count: float) -> None:
        calls.append((key, count))
        observe(key, count)

    controller.policy.observe_window = spy
    events = sorted([(t, 0, f) for t, f in arrivals] + [(t, 1, "") for t in plans])
    for at_ms, is_plan, function in events:
        if is_plan:
            controller.plan(at_ms, current_warm={})
        else:
            controller.note_arrival(function, at_ms)
    assert controller.stats.windows_fed == len(calls)
    return calls


def _windows_holding(t: float, window_ms: float) -> int:
    k = math.floor(t / window_ms)
    return sum(1 for j in (k - 1, k, k + 1)
               if j * window_ms <= t < j * window_ms + window_ms)


def _instant(window_ms: float):
    """A time near window index k: on an edge, one ulp below it, or inside."""
    def build(k: int, where: str, frac: float) -> float:
        edge = k * window_ms
        if where == "edge":
            return edge
        if where == "below":
            return math.nextafter(edge, -math.inf) if k > 0 else 0.0
        return edge + frac * window_ms
    return st.builds(build, st.integers(0, 200),
                     st.sampled_from(["edge", "below", "inside"]),
                     st.floats(0.0, 1.0, exclude_max=True))


@st.composite
def _streams(draw):
    window_ms = draw(st.sampled_from(WINDOWS_MS))
    horizon = draw(st.sampled_from([1, 2, 3, 8, 64]))
    # Where rounding leaves a gap or an overlap between two windows, a
    # ring rollup counts an arrival there zero or two times; the
    # controller counts it once. Draw arrivals with one window.
    instants = _instant(window_ms).filter(
        lambda t: _windows_holding(t, window_ms) == 1)
    arrivals = draw(st.lists(st.tuples(instants, st.sampled_from(FUNCTIONS)),
                             min_size=1, max_size=150))
    plans = draw(st.lists(_instant(window_ms), min_size=1, max_size=30))
    return arrivals, plans, window_ms, horizon


@given(_streams())
@settings(max_examples=300, deadline=None)
def test_window_counts_match_windowed_series(stream):
    arrivals, plans, window_ms, horizon = stream
    assert (_controller_calls(arrivals, plans, window_ms, horizon)
            == _reference_calls(arrivals, plans, window_ms, horizon))


def test_long_idle_gap_feeds_only_horizon_windows():
    arrivals = [(5.0, "alpha"), (15.0, "alpha"), (15.5, "alpha")]
    plans = [20.0, 10_000.0]
    calls = _controller_calls(arrivals, plans, 10.0, 8)
    assert calls == _reference_calls(arrivals, plans, 10.0, 8)
    # First plan: windows 0 and 1; second: only the 8 trailing windows.
    assert calls[:2] == [("alpha", 1.0), ("alpha", 2.0)]
    assert calls[2:] == [("alpha", 0.0)] * 8


@pytest.mark.parametrize("arrivals, plan, expected", [
    # 1.7 / 0.1 == 17.0, but 1.7 < 17 * 0.1 (1.7000000000000002): the
    # second arrival belongs to window 16, [1.6, 1.7000000000000002).
    ([1.65, 1.7], 1.8, [2.0]),
    # 4.3 / 0.1 == 42.99999999999999, but 43 * 0.1 == 4.3: the arrival
    # belongs to window 43, after the empty window 42 it floors into.
    ([4.3], 4.45, [0.0, 1.0]),
])
def test_arrival_whose_quotient_rounds_across_an_edge(arrivals, plan, expected):
    stream = [(t, "alpha") for t in arrivals]
    calls = _controller_calls(stream, [plan], 0.1, 8)
    assert calls == _reference_calls(stream, [plan], 0.1, 8)
    assert calls == [("alpha", n) for n in expected]
