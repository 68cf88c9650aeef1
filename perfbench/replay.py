"""Replay one trace through ``FaaSPlatform`` and measure it.

Load shape: open loop in simulated time, one synchronous caller on the
host. Every request is due at its trace time, shifted to start where
the simulated clock stands after set-up (baking moves it). Before each
request the autoscaler runs every reconcile tick that fell due, then
the request is invoked; if earlier requests pushed the clock past the
due time the request is dispatched late, and that lag is part of its
latency.
"""

from __future__ import annotations

import gc
import hashlib
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro import make_world
from repro.core.policy import AfterWarmup
from repro.core.starters import VanillaStarter
from repro.faas.autoscaler import AutoscalerConfig
from repro.faas.platform import FaaSPlatform, PlatformConfig
from repro.faults.errors import PlatformError
from repro.functions.base import make_app
from repro.predict.policy import PrewarmConfig
from repro.runtime.base import Request

from workloads import RECONCILE_MS, WORLD_SEED, TraceEvent, Workload

#: Every prebaked function shares its node's hot-chunk cache.
CACHE_POLICY = "freq-over-size"

MIB_MS_PER_GIB_S = 1024.0 * 1000.0


@dataclass
class Outcome:
    """What one replay of one trace produced and cost."""

    setup_s: float
    host_s: float = 0.0                 # platform calls only, incl. redeploys
    host_invoke_s: List[float] = field(default_factory=list)
    records: list = field(default_factory=list)
    latency_ms: List[float] = field(default_factory=list)
    lag_ms: List[float] = field(default_factory=list)
    idle_mib_ms: float = 0.0
    failed: int = 0
    not_ok: int = 0
    body_checks: int = 0
    body_mismatches: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latency_ms) + self.failed

    def fingerprint(self) -> str:
        """SHA-256 over the ordered invocation records (exact floats)."""
        digest = hashlib.sha256()
        for r in self.records:
            digest.update(repr((
                r.function, r.cold_start, r.queued_ms.hex(), r.service_ms.hex(),
                r.total_ms.hex(), r.technique, r.replica_id, r.requeues,
                r.crash_retries)).encode())
        return digest.hexdigest()


def _register(platform: FaaSPlatform, workload: Workload, name: str,
              technique: str) -> None:
    platform.register_function(
        partial(make_app, name),
        start_technique=technique,
        idle_timeout_ms=workload.idle_timeout_ms,
        cache_policy=CACHE_POLICY,
        snapshot_policy=AfterWarmup(requests=1) if workload.warm_snapshots else None,
    )


def build_platform(workload: Workload) -> FaaSPlatform:
    """A fresh world and platform with every function registered."""
    world = make_world(seed=WORLD_SEED, observe=workload.observe)
    config = PlatformConfig(
        autoscaler=AutoscalerConfig(idle_timeout_ms=workload.idle_timeout_ms),
        storage_nodes=workload.storage_nodes,
        replication_factor=workload.replication_factor,
        prewarm=PrewarmConfig(policy="histogram") if workload.prewarm else None,
    )
    platform = FaaSPlatform(world.kernel, config)
    for name, technique in workload.functions:
        _register(platform, workload, name, technique)
    return platform


def _control(clock, action) -> float:
    """Run control-plane work; return the simulated time it took.

    The caller moves the trace origin by that much: the control plane
    (reconcile ticks, redeploy builds) runs in a gap inserted into the
    trace. The synchronous platform cannot overlap it with serving, and
    charging it as queueing to the requests behind it would model a
    platform that stops serving while it reconciles or builds.
    """
    before = clock.now
    action()
    return clock.now - before


def replay(workload: Workload, trace: List[TraceEvent],
           expected: List[object]) -> Outcome:
    """Set up a platform, replay ``trace`` through it, and measure.

    ``expected[i]`` is the body a direct execute returns for ``trace[i]``.
    """
    # Collect the previous replay's garbage first, so it is not collected
    # on this replay's clock.
    gc.collect()
    perf = time.perf_counter
    started = perf()
    platform = build_platform(workload)
    out = Outcome(setup_s=perf() - started)
    clock = platform.kernel.clock
    deployer = platform.deployer
    names = [name for name, _ in workload.functions]
    prebaked = [name for name, tech in workload.functions if tech == "prebake"]
    redeploys = 0
    origin = clock.now
    next_tick = origin + RECONCILE_MS
    for index, event in enumerate(trace):
        spent = 0.0
        if workload.redeploy_every and index and index % workload.redeploy_every == 0:
            name = prebaked[redeploys % len(prebaked)]
            redeploys += 1
            t0 = perf()
            gap = _control(clock, partial(_register, platform, workload, name, "prebake"))
            out.host_s += perf() - t0
            origin += gap
            next_tick += gap
        while next_tick <= origin + event.due_ms:
            if clock.now < next_tick:
                clock.set_time(next_tick)
            t0 = perf()
            gap = _control(clock, platform.gc_tick)
            spent += perf() - t0
            origin += gap
            next_tick += gap + RECONCILE_MS
            for name in names:
                for replica in deployer.replicas(name):
                    out.idle_mib_ms += replica.handle.process.rss_mib * RECONCILE_MS
        due = origin + event.due_ms
        if clock.now < due:
            clock.set_time(due)
        lag = clock.now - due
        request = Request(body=event.body, arrival_ms=due)
        t0 = perf()
        try:
            response = platform.invoke(event.function, request)
        except PlatformError:
            response = None
        spent += perf() - t0
        out.host_s += spent
        out.host_invoke_s.append(spent)
        if response is None:
            out.failed += 1
            continue
        out.lag_ms.append(lag)
        out.latency_ms.append(response.finished_ms - due)
        if not response.ok:
            out.not_ok += 1
        out.body_checks += 1
        if response.body != expected[index]:
            out.body_mismatches += 1
    out.records = list(platform.router.stats.records)
    return out


def expected_bodies(trace: List[TraceEvent], workload: Workload) -> List[object]:
    """The body a direct ``execute`` returns, for every request of ``trace``.

    Each app runs on a vanilla replica in a separate world, warmed by one
    request so lazily loaded state is in place, as on any replica that
    has served before.
    """
    kernel = make_world(seed=WORLD_SEED).kernel
    runtimes = {}
    for name, _ in workload.functions:
        handle = VanillaStarter(kernel).start(make_app(name))
        handle.invoke(Request())
        runtimes[name] = handle.runtime
    bodies: Dict[Tuple[str, Optional[str]], object] = {}
    out = []
    for event in trace:
        key = (event.function, event.body)
        if key not in bodies:
            runtime = runtimes[event.function]
            bodies[key] = runtime.app.execute(runtime, Request(body=event.body))[0]
        out.append(bodies[key])
    return out
