"""Windowed time-series rollups over the metrics stream.

The :class:`~repro.obs.metrics.MetricsRegistry` answers *end-of-run*
questions (final counts, whole-run quantiles). Incidents need *curves*:
what was the cold-start p99 in the 500 ms before the alert, how did the
chunk-cache hit rate move across the fault window. This module keeps a
bounded ring of ``(sim_time, value)`` samples per metric and rolls them
into fixed-width windows with count/mean/min/max/p50/p99 (numpy-exact
percentiles over the window's samples — windows are small, so exact
beats bucketed).

Enabled by installing a :class:`TimeseriesTable` on the telemetry hub
(``obs.enable_timeseries``); the :func:`repro.obs.observe` /
``count`` / ``gauge`` helpers then feed it automatically. A world
without one pays a single attribute check per metric write.

Everything is deterministic: samples are keyed on simulated time, no
wall clocks, no randomness — two runs with the same seed produce the
same rollups, which is what lets a postmortem bundle's windows be
reproduced from a replay.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Tuple

import numpy as np

# Counter samples carry the *increment*; rollups sum them per window.
COUNTER_SAMPLE = "counter"
# Value samples (histogram observations, gauges) carry the observation.
VALUE_SAMPLE = "value"

DEFAULT_CAPACITY = 8192


class WindowStat:
    """One window's rollup of a series."""

    __slots__ = ("start_ms", "end_ms", "count", "total", "mean",
                 "min_value", "max_value", "p50", "p99")

    def __init__(self, start_ms: float, end_ms: float,
                 values: "np.ndarray") -> None:
        self.start_ms = start_ms
        self.end_ms = end_ms
        self.count = int(values.size)
        self.total = float(values.sum()) if values.size else 0.0
        self.mean = float(values.mean()) if values.size else 0.0
        self.min_value = float(values.min()) if values.size else 0.0
        self.max_value = float(values.max()) if values.size else 0.0
        self.p50 = float(np.percentile(values, 50)) if values.size else 0.0
        self.p99 = float(np.percentile(values, 99)) if values.size else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min_value,
            "max": self.max_value,
            "p50": self.p50,
            "p99": self.p99,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"WindowStat([{self.start_ms}, {self.end_ms}) "
                f"n={self.count} p50={self.p50:.3f} p99={self.p99:.3f})")


class WindowedSeries:
    """Bounded ring of ``(sim_time, value)`` samples for one metric.

    ``evicted_ms`` is the timestamp of the newest sample the ring has
    pushed out (``None`` before the first eviction): a window starting
    at or before it may have lost samples, so it is not reported.
    """

    __slots__ = ("name", "kind", "capacity", "_samples", "total_samples",
                 "evicted_ms")

    def __init__(self, name: str, kind: str = VALUE_SAMPLE,
                 capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.name = name
        self.kind = kind
        self.capacity = capacity
        self._samples: Deque[Tuple[float, float]] = deque(maxlen=capacity)
        self.total_samples = 0
        self.evicted_ms: Optional[float] = None

    def record(self, at_ms: float, value: float) -> None:
        if len(self._samples) == self.capacity:
            self.evicted_ms = self._samples[0][0]
        self._samples.append((at_ms, float(value)))
        self.total_samples += 1

    def __len__(self) -> int:
        return len(self._samples)

    def samples(self) -> List[Tuple[float, float]]:
        return list(self._samples)

    def values_between(self, start_ms: float, end_ms: float) -> List[float]:
        """Sample values with ``start_ms <= t < end_ms`` (time order)."""
        return [v for t, v in self._samples if start_ms <= t < end_ms]

    def truncated(self, start_ms: float) -> bool:
        """Whether a window starting at ``start_ms`` lost samples to
        ring eviction."""
        return self.evicted_ms is not None and start_ms <= self.evicted_ms

    def windows(self, window_ms: float, t0: float = 0.0) -> List[WindowStat]:
        """Roll the buffered samples into fixed windows of ``window_ms``.

        Windows are aligned to ``t0`` (``[t0 + k*w, t0 + (k+1)*w)``).
        Empty leading/trailing windows are skipped; empty windows
        *between* populated ones are kept, so gaps stay visible as
        zero-count entries in the curve. Windows that lost samples to
        ring eviction are dropped rather than reported short.
        """
        if window_ms <= 0:
            raise ValueError(f"window_ms must be positive, got {window_ms}")
        if not self._samples:
            return []
        times = np.array([t for t, _ in self._samples])
        values = np.array([v for _, v in self._samples])
        first = int(np.floor((times.min() - t0) / window_ms))
        last = int(np.floor((times.max() - t0) / window_ms))
        out: List[WindowStat] = []
        for k in range(first, last + 1):
            lo = t0 + k * window_ms
            if self.truncated(lo):
                continue
            hi = lo + window_ms
            mask = (times >= lo) & (times < hi)
            out.append(WindowStat(lo, hi, values[mask]))
        return out


class TimeseriesTable:
    """Per-metric :class:`WindowedSeries`, fed by the obs helpers.

    ``window_ms`` is the table's default rollup width (postmortems and
    anomaly watches share it so their windows line up). Series are
    keyed by metric name only — rollups are platform-level curves, and
    label fan-out belongs to the registry.
    """

    def __init__(self, window_ms: float = 1_000.0,
                 capacity: int = DEFAULT_CAPACITY) -> None:
        if window_ms <= 0:
            raise ValueError(f"window_ms must be positive, got {window_ms}")
        self.window_ms = window_ms
        self.capacity = capacity
        self._series: Dict[str, WindowedSeries] = {}

    # -- write path ------------------------------------------------------------

    def record(self, name: str, at_ms: float, value: float,
               kind: str = VALUE_SAMPLE) -> None:
        series = self._series.get(name)
        if series is None:
            series = WindowedSeries(name, kind=kind, capacity=self.capacity)
            self._series[name] = series
        series.record(at_ms, value)

    # -- read paths ------------------------------------------------------------

    def series(self, name: str) -> Optional[WindowedSeries]:
        return self._series.get(name)

    def names(self) -> List[str]:
        return sorted(self._series)

    def windows(self, name: str,
                window_ms: Optional[float] = None) -> List[WindowStat]:
        series = self._series.get(name)
        if series is None:
            return []
        return series.windows(window_ms or self.window_ms)

    def rollup(self, names: Optional[Iterable[str]] = None,
               window_ms: Optional[float] = None
               ) -> Dict[str, List[Dict[str, object]]]:
        """JSON-ready per-metric window rollups (postmortem payload)."""
        picked = sorted(names) if names is not None else self.names()
        out: Dict[str, List[Dict[str, object]]] = {}
        for name in picked:
            stats = self.windows(name, window_ms)
            if stats:
                out[name] = [s.as_dict() for s in stats]
        return out

    def windowed_rate(self, bad: str, total: str, start_ms: float,
                      end_ms: float) -> Optional[float]:
        """``sum(bad) / sum(total)`` over one window, or None when the
        window saw no ``total`` increments or either series lost
        samples of it to ring eviction."""
        total_series = self._series.get(total)
        if total_series is None or total_series.truncated(start_ms):
            return None
        denominator = sum(total_series.values_between(start_ms, end_ms))
        if denominator <= 0:
            return None
        bad_series = self._series.get(bad)
        if bad_series is not None and bad_series.truncated(start_ms):
            return None
        numerator = (sum(bad_series.values_between(start_ms, end_ms))
                     if bad_series is not None else 0.0)
        return min(1.0, numerator / denominator)


def replay_events(events, window_ms: float = 1_000.0,
                  capacity: int = DEFAULT_CAPACITY) -> TimeseriesTable:
    """Rebuild a :class:`TimeseriesTable` from recorded flight events.

    Consumes :data:`repro.obs.flight.METRIC_SAMPLE` events (attrs:
    ``metric``, ``value``, optional ``sample_kind``) in tape order.
    Because both the live table and the tape are driven by the same
    deterministic sample stream, replaying a tape reconstructs window
    rollups identical to the live run's — the property the flight
    tests pin down.
    """
    from repro.obs.flight import METRIC_SAMPLE

    table = TimeseriesTable(window_ms=window_ms, capacity=capacity)
    for event in events:
        if event.kind != METRIC_SAMPLE:
            continue
        table.record(
            str(event.attrs["metric"]),
            event.at_ms,
            float(event.attrs["value"]),  # type: ignore[arg-type]
            kind=str(event.attrs.get("sample_kind", VALUE_SAMPLE)),
        )
    return table
