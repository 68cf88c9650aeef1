"""Platform-level cold-start study: prebake vs vanilla vs warm pool.

Replays an arrival trace (see :mod:`repro.bench.traces`) against the
FaaS platform and measures what the paper's introduction frames as the
trade-off space:

* cold-start *frequency* (how often the idle-timeout GC leaves no
  replica alive when a request arrives);
* the *latency* those cold starts impose on requests (prebaking's
  lever);
* the *standing memory cost* of keeping instances warm (the pool
  strategy's price, which prebaking avoids).

Scale-out — "if a replica is busy and a new request arrives, the
platform starts another replica" (§4.1) — is measured by
:func:`run_burst_experiment` on the :class:`~repro.faas.replay.TraceReplay`
pool engine, with start-up times sampled from the paper experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro import make_world
from repro.bench.harness import run_service_experiment, run_startup_experiment
from repro.bench.stats import median, quantile
from repro.core.policy import AfterReady, AfterWarmup, SnapshotPolicy
from repro.faas.platform import FaaSPlatform, PlatformConfig
from repro.faas.autoscaler import AutoscalerConfig
from repro.faas.pool import WarmPool
from repro.faas.replay import TraceReplay
from repro.functions.base import FunctionApp, make_app
from repro.predict.policy import FixedKeepAlivePolicy
from repro.runtime.base import Request
from repro.sim.rng import RandomStreams, _derive_seed


@dataclass
class StudyResult:
    """Outcome of one strategy under one trace.

    ``makespan_ms`` and ``peak_replicas`` are set by
    :func:`run_burst_experiment` only.
    """

    strategy: str
    requests: int
    cold_starts: int
    queued_ms: List[float] = field(default_factory=list)
    idle_mib_ms: float = 0.0
    makespan_ms: float = 0.0
    peak_replicas: int = 0

    @property
    def cold_fraction(self) -> float:
        return self.cold_starts / self.requests if self.requests else 0.0

    def latency_p(self, q: float) -> float:
        """Quantile of request queueing latency (cold-start exposure)."""
        if not self.queued_ms:
            return 0.0
        return quantile(self.queued_ms, q)

    @property
    def idle_gib_hours(self) -> float:
        return self.idle_mib_ms / (1024.0 * 3_600_000.0)


def _resolve(function) -> Callable[[], FunctionApp]:
    if callable(function):
        return function
    return lambda: make_app(function)


def run_platform_study(
    function,
    technique: str,
    arrivals: Sequence[float],
    idle_timeout_ms: float = 60_000.0,
    policy: Optional[SnapshotPolicy] = None,
    seed: int = 42,
) -> StudyResult:
    """Replay ``arrivals`` against a platform using ``technique``."""
    factory = _resolve(function)
    world = make_world(seed=_derive_seed(seed, f"study-{technique}"))
    platform = FaaSPlatform(world.kernel, PlatformConfig(
        autoscaler=AutoscalerConfig(idle_timeout_ms=idle_timeout_ms),
    ))
    platform.register_function(
        factory,
        start_technique=technique,
        snapshot_policy=policy or AfterWarmup(requests=1),
        idle_timeout_ms=idle_timeout_ms,
    )
    name = factory().name
    idle_mib_ms = 0.0
    last_t = world.now
    for arrival in map(float, arrivals):
        target = max(arrival, world.now)
        # Integrate replica memory held while idle-waiting for traffic.
        # GC only reconciles at arrivals, but the *accounting* caps each
        # replica's held window at its idle-timeout deadline — the point
        # a continuously-running reconciler would have reclaimed it.
        for replica in platform.deployer.replicas(name):
            deadline = replica.last_active_ms + idle_timeout_ms
            held_until = min(target, max(deadline, last_t))
            idle_mib_ms += (replica.handle.process.rss_mib
                            * max(0.0, held_until - last_t))
        if target > world.now:
            world.clock.set_time(target)
        platform.gc_tick()
        platform.invoke(name, Request())
        last_t = world.now
    stats = platform.router.stats
    return StudyResult(
        strategy=technique,
        requests=stats.invocations,
        cold_starts=stats.cold_starts,
        queued_ms=[r.queued_ms for r in stats.records],
        idle_mib_ms=idle_mib_ms,
    )


def run_pool_study(
    function,
    arrivals: Sequence[float],
    pool_size: int = 1,
    seed: int = 42,
) -> StudyResult:
    """Replay ``arrivals`` against a warm pool of vanilla instances."""
    factory = _resolve(function)
    world = make_world(seed=_derive_seed(seed, "study-pool"))
    from repro.core.starters import VanillaStarter
    pool = WarmPool(world.kernel, VanillaStarter(world.kernel), factory,
                    size=pool_size)
    pool.refill()
    queued = []
    cold = 0
    for arrival in map(float, arrivals):
        if arrival > world.now:
            world.clock.set_time(arrival)
        before = world.now
        was_hit = pool.idle_count > 0
        response = pool.serve(Request())
        # Pool hit: the request waits only for dispatch (0); miss: it
        # waits for a full vanilla cold start.
        queued.append(response.started_ms - before)
        if not was_hit:
            cold += 1
        pool.refill()
    return StudyResult(
        strategy=f"pool-{pool_size}",
        requests=len(arrivals),
        cold_starts=cold,
        queued_ms=queued,
        idle_mib_ms=pool.snapshot_idle_cost(),
    )


def compare_strategies(
    function,
    arrivals: Sequence[float],
    idle_timeout_ms: float = 60_000.0,
    pool_size: int = 1,
    seed: int = 42,
) -> List[StudyResult]:
    """Run vanilla, prebake and warm-pool over the same trace."""
    return [
        run_platform_study(function, "vanilla", arrivals,
                           idle_timeout_ms=idle_timeout_ms, seed=seed),
        run_platform_study(function, "prebake", arrivals,
                           idle_timeout_ms=idle_timeout_ms, seed=seed),
        run_pool_study(function, arrivals, pool_size=pool_size, seed=seed),
    ]


class LatencySampler:
    """Seeded pool of start-up durations, and the median service time,
    for one treatment.

    Both come from the paper-experiment harness run in scratch worlds,
    so the distributions are exactly those of Figures 3 and 7.
    """

    def __init__(
        self,
        function: str,
        technique: str,
        policy: Optional[SnapshotPolicy] = None,
        seed: int = 42,
        pool_size: int = 48,
    ) -> None:
        policy = policy or AfterReady()
        startup = run_startup_experiment(
            function, technique, policy=policy,
            repetitions=pool_size, seed=seed, metric="ready",
        )
        service = run_service_experiment(
            function, technique, policy=policy,
            requests=pool_size, seed=seed,
        )
        self.function = function
        self.technique = technique
        self._startups = startup.values
        self._services = service.service_times_ms
        self._rng = RandomStreams(_derive_seed(seed, f"sampler-{technique}"))

    def startup_ms(self) -> float:
        return self._rng.choice("startup", self._startups)

    @property
    def median_startup_ms(self) -> float:
        return median(self._startups)

    @property
    def median_service_ms(self) -> float:
        return median(self._services)


class _SampledStarts:
    """TraceReplay provisioner: one node, cold starts drawn from a
    :class:`LatencySampler`."""

    def __init__(self, sampler: LatencySampler) -> None:
        self.sampler = sampler

    def cold_start(self, t: float, fid: int):
        return 0, self.sampler.startup_ms()


def run_burst_experiment(
    function: str,
    technique: str,
    burst_size: int,
    policy: Optional[SnapshotPolicy] = None,
    max_replicas: int = 16,
    seed: int = 42,
) -> StudyResult:
    """N simultaneous arrivals against an empty (scaled-to-zero) pool.

    The scenario where cold-start latency hurts most: every request in
    the burst (up to the replica cap) pays a cold start, in parallel,
    and the rest queue on the replica that frees up first. Each request
    is served in the sampler's median service time. ``queued_ms`` holds
    each request's wait; nothing expires at t=0, so the live replica
    count is the peak.
    """
    sampler = LatencySampler(function, technique, policy=policy, seed=seed)
    service_ms = sampler.median_service_ms
    replay = TraceReplay(FixedKeepAlivePolicy(), _SampledStarts(sampler),
                         functions=1, service_ms=service_ms,
                         max_replicas=max_replicas)
    waits = [replay.arrive(0.0, 0) for _ in range(burst_size)]
    return StudyResult(
        strategy=technique,
        requests=burst_size,
        cold_starts=replay.cold_starts,
        queued_ms=waits,
        makespan_ms=max(waits) + service_ms if waits else 0.0,
        peak_replicas=replay.live[0],
    )


def render_study(results: List[StudyResult], title: str) -> str:
    from repro.bench.report import format_table
    rows = []
    for r in results:
        rows.append([
            r.strategy,
            str(r.requests),
            f"{100 * r.cold_fraction:.1f}%",
            f"{r.latency_p(0.50):.2f}",
            f"{r.latency_p(0.99):.2f}",
            f"{r.idle_mib_ms / 1e6:.2f}",
        ])
    return title + "\n" + format_table(
        ["strategy", "requests", "cold starts", "p50 wait(ms)",
         "p99 wait(ms)", "idle MiB*ks"],
        rows,
    )
