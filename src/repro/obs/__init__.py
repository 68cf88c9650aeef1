"""repro.obs — unified telemetry for the prebake stack.

One hub per simulated world, plus the incident-capture layer:

* :mod:`repro.obs.spans` — nested lifecycle spans on simulated time
  (``deploy → bake → checkpoint → store → restore → replica.serve``);
* :mod:`repro.obs.metrics` — counters, gauges, log-linear histograms
  (the registry ``PrometheusLite`` alert rules evaluate against);
* :mod:`repro.obs.export` — Prometheus text format and JSONL dumps,
  summarized by ``python -m repro.obs.cli``;
* :mod:`repro.obs.flight` — bounded ring-buffer flight recorder on
  ``kernel.flight`` (:func:`install_flight`), fed via :func:`record`;
* :mod:`repro.obs.timeseries` — windowed ``(sim_time, value)`` rollups
  on the hub (:func:`enable_timeseries`), fed by the metric helpers;
* :mod:`repro.obs.anomaly` — online EWMA+MAD detectors on the hub
  (:func:`enable_anomaly`), also fed by the metric helpers;
* :mod:`repro.obs.postmortem` — seals flight tail + span tree + metric
  windows + SLO burn + replay recipe into incident bundles.

Instrumentation calls the module-level helpers below with the kernel
in hand; when no :class:`Observability` hub is installed on the kernel
they cost a single attribute load and do nothing, so un-observed
worlds (the default) stay exactly as fast as before.

    from repro import make_world, obs

    world = make_world(seed=42)
    hub = obs.install(world.kernel)
    ...  # run a scenario
    print(obs.export.render_prometheus(hub.metrics))
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.obs import export  # re-exported for `obs.export.*` call sites
from repro.obs import fleet   # re-exported for `obs.fleet.*` call sites
from repro.obs import flight  # re-exported for `obs.flight.*` call sites
from repro.obs import timeseries as _timeseries
from repro.obs.context import TraceContext
from repro.obs.log import StructuredLogger, get_logger
from repro.obs.metrics import (
    CounterHandle,
    GaugeHandle,
    Histogram,
    MetricsError,
    MetricsRegistry,
)
from repro.obs.spans import NULL_SPAN, NullSpan, Span, SpanError, Tracer


class Observability:
    """Per-world telemetry hub: tracer + metrics, with optional
    windowed time-series and anomaly layers (None until enabled)."""

    def __init__(self, clock) -> None:
        self.tracer = Tracer(clock)
        self.metrics = MetricsRegistry()
        self.timeseries = None   # TimeseriesTable via enable_timeseries
        self.anomaly = None      # AnomalyMonitor via enable_anomaly


def install(kernel) -> Observability:
    """Install (or fetch) the telemetry hub on ``kernel``."""
    if kernel.obs is None:
        kernel.obs = Observability(kernel.clock)
    return kernel.obs


def uninstall(kernel) -> None:
    """Detach the hub; instrumentation reverts to zero-cost no-ops."""
    kernel.obs = None


def install_flight(kernel, capacity: int = flight.DEFAULT_CAPACITY,
                   sample_metrics: bool = False) -> "flight.FlightRecorder":
    """Install (or fetch) the flight recorder on ``kernel.flight``.

    Trace/span correlation engages automatically when the telemetry
    hub is installed too (install the hub first to correlate), and so
    does drop accounting: with a hub present, ring evictions increment
    ``flight_dropped_total`` in the hub registry.
    """
    if kernel.flight is None:
        hub = kernel.obs
        tracer = hub.tracer if hub is not None else None
        metrics = hub.metrics if hub is not None else None
        kernel.flight = flight.FlightRecorder(
            kernel.clock, tracer=tracer, capacity=capacity,
            sample_metrics=sample_metrics, metrics=metrics)
    return kernel.flight


def uninstall_flight(kernel) -> None:
    """Detach the flight recorder; :func:`record` reverts to a no-op."""
    kernel.flight = None


def enable_timeseries(kernel, window_ms: float = 1_000.0,
                      capacity: int = _timeseries.DEFAULT_CAPACITY
                      ) -> "_timeseries.TimeseriesTable":
    """Enable windowed rollups on the hub (installing the hub if needed).

    Every subsequent :func:`count`/:func:`gauge`/:func:`observe` also
    lands a ``(sim_time, value)`` sample in the table.
    """
    hub = install(kernel)
    if hub.timeseries is None:
        hub.timeseries = _timeseries.TimeseriesTable(
            window_ms=window_ms, capacity=capacity)
    return hub.timeseries


def enable_anomaly(kernel, monitor=None, **monitor_kwargs):
    """Enable online anomaly detection on the hub.

    ``monitor`` installs a pre-configured
    :class:`~repro.obs.anomaly.AnomalyMonitor`; otherwise
    :func:`~repro.obs.anomaly.default_monitor` is built with
    ``monitor_kwargs`` (window_ms, z_threshold, …).
    """
    from repro.obs import anomaly as _anomaly

    hub = install(kernel)
    if hub.anomaly is None:
        if monitor is None:
            monitor = _anomaly.default_monitor(kernel, **monitor_kwargs)
        hub.anomaly = monitor
    return hub.anomaly


# -- zero-cost instrumentation helpers ---------------------------------------
#
# Hot paths call these with their kernel; a world without an installed
# hub takes the early-out branch.

def span(kernel, name: str, context: Optional[TraceContext] = None,
         **attributes: object) -> Union[Span, NullSpan]:
    """Open a span on the world's tracer (no-op span when unobserved).

    ``context`` joins an existing trace when the span stack cannot
    supply the causal parent (see :meth:`Tracer.span`).
    """
    hub = kernel.obs
    if hub is None:
        return NULL_SPAN
    return hub.tracer.span(name, context=context, **attributes)


def current_context(kernel) -> Optional[TraceContext]:
    """Propagation handle of the innermost active span, if observed."""
    hub = kernel.obs
    if hub is None:
        return None
    return hub.tracer.current_context()


def record(kernel, kind: str, **attrs: object) -> None:
    """Append a lifecycle event to the flight tape (no-op when no
    recorder is installed — one attribute load, like the tracer)."""
    recorder = kernel.flight
    if recorder is not None:
        recorder.record(kind, **attrs)


def _feed_sample(kernel, hub, name: str, value: float, kind: str) -> None:
    """Fan a metric write out to the optional incident layers."""
    if hub.timeseries is not None:
        hub.timeseries.record(name, kernel.clock.now, value, kind=kind)
    recorder = kernel.flight
    if recorder is not None and recorder.sample_metrics:
        recorder.record(flight.METRIC_SAMPLE, metric=name,
                        value=value, sample_kind=kind)


def count(kernel, name: str, value: float = 1.0,
          labels: Optional[Dict[str, str]] = None) -> None:
    hub = kernel.obs
    if hub is not None:
        hub.metrics.inc(name, value, labels)
        _feed_sample(kernel, hub, name, value, _timeseries.COUNTER_SAMPLE)
        if hub.anomaly is not None:
            hub.anomaly.offer_count(name, kernel.clock.now, value)


def gauge(kernel, name: str, value: float,
          labels: Optional[Dict[str, str]] = None) -> None:
    hub = kernel.obs
    if hub is not None:
        hub.metrics.set_gauge(name, value, labels)
        _feed_sample(kernel, hub, name, value, _timeseries.VALUE_SAMPLE)
        if hub.anomaly is not None:
            hub.anomaly.offer(name, kernel.clock.now, value)


def observe(kernel, name: str, value: float,
            labels: Optional[Dict[str, str]] = None,
            exemplar: Optional[str] = None) -> None:
    """Record a histogram observation; the exemplar defaults to the
    trace id of the innermost active span, linking the latency bucket
    back to the causal span tree. The exemplar also rides into the
    anomaly monitor, so a flagged observation can name its request."""
    hub = kernel.obs
    if hub is not None:
        if exemplar is None:
            exemplar = hub.tracer.current_trace_id()
        hub.metrics.observe(name, value, labels, exemplar=exemplar)
        _feed_sample(kernel, hub, name, value, _timeseries.VALUE_SAMPLE)
        if hub.anomaly is not None:
            hub.anomaly.offer(name, kernel.clock.now, value,
                              trace_id=exemplar)


__all__ = [
    "Observability",
    "install",
    "uninstall",
    "install_flight",
    "uninstall_flight",
    "enable_timeseries",
    "enable_anomaly",
    "span",
    "count",
    "gauge",
    "observe",
    "CounterHandle",
    "GaugeHandle",
    "record",
    "current_context",
    "fleet",
    "flight",
    "TraceContext",
    "Span",
    "SpanError",
    "NullSpan",
    "NULL_SPAN",
    "Tracer",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "StructuredLogger",
    "get_logger",
    "export",
]
