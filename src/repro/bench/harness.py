"""Experiment runner: the paper's 200-repetition factorial protocol.

"Each experiment treatment was repeated 200 times. The load generator
and the function runtime was restarted before a run" (§4.1) — so every
repetition here builds a *fresh* simulated world (new kernel, new page
cache, new RNG substream), deploys, measures one start-up, and tears
everything down.

Because each repetition is a hermetic world seeded from
``_derive_seed(seed, "rep-<n>")``, repetitions are embarrassingly
parallel: ``workers=N`` fans them over a ``multiprocessing`` pool and
reassembles the samples in repetition order, producing *identical*
results to a serial run for any worker count.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro import make_world, obs
from repro.obs.log import bound_trace_provider
from repro.bench.stats import ConfidenceInterval, bootstrap_median_ci, median
from repro.bench.workload import LoadGenerator
from repro.core.manager import PrebakeManager
from repro.core.policy import AfterReady, SnapshotPolicy
from repro.criu.restore import RestoreMode
from repro.functions.base import FunctionApp, make_app
from repro.obs import profile as prof
from repro.sim.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.sim.rng import _derive_seed

AppFactory = Callable[[], FunctionApp]


def _resolve_factory(function) -> AppFactory:
    if callable(function):
        return function
    return lambda: make_app(function)


@dataclass(frozen=True)
class PhaseBreakdown:
    """Durations of the four start-up phases (ms, paper §4.2.1)."""

    clone_ms: float
    exec_ms: float
    rts_ms: float
    appinit_ms: float

    @property
    def total_ms(self) -> float:
        return self.clone_ms + self.exec_ms + self.rts_ms + self.appinit_ms

    @classmethod
    def from_totals(cls, totals: Dict[str, float]) -> "PhaseBreakdown":
        """From :meth:`PhaseProfiler.phase_totals` (Figure-4 keys)."""
        return cls(clone_ms=totals[prof.PHASE_CLONE],
                   exec_ms=totals[prof.PHASE_EXEC],
                   rts_ms=totals[prof.PHASE_RTS],
                   appinit_ms=totals[prof.PHASE_APPINIT])

    def as_dict(self) -> dict:
        return {
            "CLONE": self.clone_ms,
            "EXEC": self.exec_ms,
            "RTS": self.rts_ms,
            "APPINIT": self.appinit_ms,
        }


@dataclass
class StartupSample:
    """One repetition's measurement."""

    repetition: int
    startup_ms: float
    snapshot_mib: float = 0.0
    phases: Optional[PhaseBreakdown] = None


@dataclass
class StartupSummary:
    """All repetitions of one treatment."""

    function: str
    technique: str
    policy_key: str
    metric: str
    samples: List[StartupSample] = field(default_factory=list)

    @property
    def values(self) -> List[float]:
        return [s.startup_ms for s in self.samples]

    @property
    def median_ms(self) -> float:
        return median(self.values)

    def ci(self, confidence: float = 0.95, seed: int = 0) -> ConfidenceInterval:
        return bootstrap_median_ci(self.values, confidence=confidence, seed=seed)

    def phase_medians(self) -> PhaseBreakdown:
        phased = [s.phases for s in self.samples if s.phases is not None]
        if not phased:
            raise ValueError("experiment did not trace phases")
        return PhaseBreakdown(
            clone_ms=median([p.clone_ms for p in phased]),
            exec_ms=median([p.exec_ms for p in phased]),
            rts_ms=median([p.rts_ms for p in phased]),
            appinit_ms=median([p.appinit_ms for p in phased]),
        )


def _startup_repetition(
    rep: int,
    function,
    technique: str,
    policy: SnapshotPolicy,
    seed: int,
    resolved_metric: str,
    trace_phases: bool,
    costs: CostModel,
    restore_mode: RestoreMode,
    in_memory: bool,
    trace_sink: Optional[List[Dict[str, object]]] = None,
    flight_sink: Optional[List[Dict[str, object]]] = None,
) -> StartupSample:
    """One hermetic repetition: fresh world, deploy, measure, tear down.

    Module-level (not a closure) so ``multiprocessing`` workers can run
    it; the sample depends only on the arguments, never on which
    process executed it.
    """
    factory = _resolve_factory(function)
    world = make_world(seed=_derive_seed(seed, f"rep-{rep}"), costs=costs,
                       observe=trace_sink is not None)
    kernel = world.kernel
    if flight_sink is not None:
        # The recorder reads the clock and never advances it, so the
        # measured sample is bit-identical with or without the tape.
        obs.install_flight(kernel)
    manager = PrebakeManager(kernel)
    app = factory()
    # While the repetition runs under an observed world, structured log
    # lines emitted with a span open carry its trace id.
    log_provider = (kernel.obs.tracer.current_trace_id
                    if kernel.obs is not None else None)
    with bound_trace_provider(log_provider), \
            obs.span(kernel, "bench.repetition", rep=rep,
                     function=app.name, technique=technique,
                     policy=policy.key):
        snapshot_mib = 0.0
        if technique == "prebake":
            report = manager.deploy(app, policy=policy)
            snapshot_mib = report.snapshot_mib
        starter = manager.starter(
            technique, policy=policy, restore_mode=restore_mode,
            in_memory=in_memory,
            version=(manager.current_version(app.name)
                     if technique == "prebake" else 1),
        )
        profiler = prof.install(kernel) if trace_phases else None
        if profiler is not None:
            profiler.reset()
        handle = starter.start(app)
        # Read before any request: a lazily restored replica pays its
        # deferred page faults on the first invoke, which is serve
        # time, not APPINIT.
        phases = (PhaseBreakdown.from_totals(profiler.phase_totals())
                  if profiler is not None else None)
        if resolved_metric == "first_response":
            handle.invoke()
        if trace_sink is not None and resolved_metric != "first_response":
            # The measured episode is over (startup_ms derives from
            # the recorded spawn/ready stamps); drive one request so
            # the trace also covers first-request serve.
            handle.invoke()
    sample = StartupSample(
        repetition=rep,
        startup_ms=handle.startup_ms(resolved_metric),
        snapshot_mib=snapshot_mib,
        phases=phases,
    )
    if trace_sink is not None:
        # Tracer self-check: a clean episode leaves no span open.
        # A leak here means an error path exited without closing
        # its span (the bug class the context-manager discipline
        # exists to prevent) — fail loudly rather than emit a
        # trace with phantom unfinished spans.
        leaked = kernel.obs.tracer.open_spans()
        if leaked:
            raise obs.SpanError(
                "span leak after repetition "
                f"{rep}: {', '.join(s.name for s in leaked)}"
            )
        for span in kernel.obs.tracer.spans:
            record = span.as_dict()
            # Span/trace ids restart in every fresh world; qualify
            # the trace id so merged multi-repetition files keep
            # each repetition's tree intact.
            record["trace"] = f"{technique}/{app.name}/rep{rep}/{record['trace']}"
            record.update(rep=rep, function=app.name, technique=technique)
            trace_sink.append(record)
    if flight_sink is not None:
        for event in kernel.flight.events():
            record = event.as_dict()
            if record.get("trace") is not None:
                # Qualify like the trace sink: ids restart per world.
                record["trace"] = (
                    f"{technique}/{app.name}/rep{rep}/{record['trace']}")
            record.update(rep=rep, function=app.name, technique=technique)
            flight_sink.append(record)
    return sample


def _startup_repetition_star(packed: Tuple) -> StartupSample:
    """Pool-map adapter (pools map over a single argument)."""
    return _startup_repetition(*packed)


def _parallelizable(function, trace_sink, flight_sink) -> bool:
    """Reps can fan out only when every argument survives pickling and
    no cross-rep mutable state (a sink list) is involved."""
    return (trace_sink is None and flight_sink is None
            and not callable(function))


def run_startup_experiment(
    function,
    technique: str,
    policy: SnapshotPolicy = AfterReady(),
    repetitions: int = 200,
    seed: int = 42,
    metric: Optional[str] = None,
    trace_phases: bool = False,
    costs: CostModel = DEFAULT_COST_MODEL,
    restore_mode: RestoreMode = RestoreMode.EAGER,
    in_memory: bool = False,
    trace_sink: Optional[List[Dict[str, object]]] = None,
    flight_sink: Optional[List[Dict[str, object]]] = None,
    workers: int = 1,
) -> StartupSummary:
    """Measure start-up time over ``repetitions`` fresh worlds.

    ``function`` is a registered name or an app factory. ``metric``
    defaults to the function profile's own start-up metric ("ready"
    for the paper's real functions, "first_response" for synthetic).

    ``workers`` fans the repetitions over that many OS processes.
    Seeds are partitioned per repetition (not per worker), so the
    summary is byte-identical to a serial run for any worker count.
    Treatments that need a trace sink, or whose ``function`` is an
    in-process factory (unpicklable), silently run serially.

    ``trace_sink``, when given, turns on lifecycle telemetry: every
    repetition runs under a ``bench.repetition`` root span (deploy →
    bake → checkpoint → restore → first-request serve all nest under
    it), and the repetition's span dicts — stamped with ``rep``,
    ``function`` and ``technique`` — are appended to the list, ready
    for :func:`repro.obs.export.write_trace_jsonl`.

    ``flight_sink`` likewise installs a flight recorder per repetition
    and appends the repetition's event dicts — qualified the same way —
    ready for :func:`repro.obs.flight.write_flight_jsonl`. The recorder
    never touches the clock or RNG, so samples are unchanged by it.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    factory = _resolve_factory(function)
    probe = factory()
    resolved_metric = metric or probe.profile.startup_metric
    summary = StartupSummary(
        function=probe.name,
        technique=technique,
        policy_key=policy.key,
        metric=resolved_metric,
    )
    packed = [
        (rep, function, technique, policy, seed, resolved_metric,
         trace_phases, costs, restore_mode, in_memory)
        for rep in range(repetitions)
    ]
    if workers > 1 and repetitions > 1 and _parallelizable(function, trace_sink,
                                                           flight_sink):
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else None)
        with ctx.Pool(processes=min(workers, repetitions)) as pool:
            # map() preserves input order, so samples land rep-sorted
            # exactly as the serial loop would append them.
            summary.samples.extend(pool.map(_startup_repetition_star, packed))
    else:
        for args in packed:
            summary.samples.append(
                _startup_repetition(*args, trace_sink=trace_sink,
                                    flight_sink=flight_sink))
    return summary


@dataclass
class ServiceSummary:
    """Post-start-up service times of one treatment (Figure 7)."""

    function: str
    technique: str
    service_times_ms: List[float] = field(default_factory=list)
    errors: int = 0

    @property
    def median_ms(self) -> float:
        return median(self.service_times_ms)


def run_service_experiment(
    function,
    technique: str,
    policy: SnapshotPolicy = AfterReady(),
    requests: int = 200,
    interval_ms: float = 10.0,
    seed: int = 42,
    costs: CostModel = DEFAULT_COST_MODEL,
    workers: int = 1,
) -> ServiceSummary:
    """Measure ``requests`` sequential service times after one start-up.

    Reproduces Figure 7's setup: "the empirical cumulative distribution
    function (ECDF) of the service time for 200 requests applied to
    [the] functions after being initialized by the prebaking and
    vanilla technique."

    ``workers`` is accepted for interface symmetry with
    :func:`run_startup_experiment`: this treatment drives one replica
    inside a single world, whose requests are causally ordered, so any
    worker count yields the identical serial execution.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    factory = _resolve_factory(function)
    world = make_world(seed=_derive_seed(seed, f"service-{technique}"), costs=costs)
    kernel = world.kernel
    manager = PrebakeManager(kernel)
    app = factory()
    if technique == "prebake":
        manager.deploy(app, policy=policy)
        starter = manager.starter(technique, policy=policy,
                                  version=manager.current_version(app.name))
    else:
        starter = manager.starter(technique)
    generator = LoadGenerator(kernel)
    result = generator.run(starter, app, requests=requests, interval_ms=interval_ms)
    return ServiceSummary(
        function=app.name,
        technique=technique,
        service_times_ms=result.service_times,
        errors=result.errors,
    )
