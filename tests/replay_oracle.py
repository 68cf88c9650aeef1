"""Reference request loops for differential tests of ``TraceReplay``.

Before :class:`repro.faas.replay.TraceReplay`, each study swept its
trace with a loop of its own:

* :class:`PolicySimReference` — X13's ``_PolicySim``: most-recently
  idle pick, idle clock from the end of service, lazy exact expiry,
  forecast-window ticks and a final waste flush. The replay engine
  must reproduce it exactly.
* :class:`FleetRunReference` — X12's ``_Fleet.run``: first free
  replica in pool order, idle clock from the arrival, expiry once
  ``last_used + keepalive < t``, no waste accounting. The engine
  deliberately differs from it in the pick order and the idle clock.

Both are kept verbatim in behaviour. The only change is that their
provisioning goes through the same provisioner object the engine
takes (``cold_start``/``prewarm``/``refresh``), so a test can feed
both sides one deterministic fake and compare the call sequences.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.bench.prewarm_study import PolicyOutcome, PrewarmStudyConfig
from repro.predict.policy import PrewarmPolicy


class PolicySimReference:
    """X13's ``_PolicySim``, provisioning through ``provisioner``.

    Replicas are ``[ready_ms, busy_until_ms, idle_from_ms,
    expire_override]`` rows in per-function pools.
    """

    def __init__(self, config: PrewarmStudyConfig, policy: PrewarmPolicy,
                 provisioner) -> None:
        self.c = config
        self.policy = policy
        self.provisioner = provisioner
        n = config.total_functions
        self.pools: List[List[List[float]]] = [[] for _ in range(n)]
        self.ka: List[float] = [policy.keepalive_ms(fid) for fid in range(n)]
        self.last_arrival: List[float] = [-1.0] * n
        self.sched_mark: List[float] = [-1.0] * n
        self.wasted_ms = np.zeros(n, dtype=np.float64)
        self.cold_by_fid = np.zeros(n, dtype=np.int64)
        self.outcome = PolicyOutcome(policy=policy.name)

    def _expire(self, fid: int, t: float) -> None:
        pool = self.pools[fid]
        if not pool:
            return
        ka = self.ka[fid]
        keep: List[List[float]] = []
        for r in pool:
            if r[1] > t:
                keep.append(r)
                continue
            expire_at = r[3] if r[3] >= 0.0 else r[2] + ka
            if expire_at <= t:
                self.wasted_ms[fid] += max(0.0, expire_at - r[2])
            else:
                keep.append(r)
        pool[:] = keep

    def _place(self, fid: int, t: float, expire_override: float) -> None:
        _, latency = self.provisioner.prewarm(t, fid)
        ready = t + latency
        self.pools[fid].append([ready, ready, ready, expire_override])
        self.outcome.prewarm_placements += 1

    def _tick(self, boundary: float, counts: List[int]) -> None:
        c = self.c
        policy = self.policy
        for fid in range(c.total_functions):
            policy.observe_window(fid, float(counts[fid]))
        placed = 0
        budget = c.prewarm_budget_per_window
        min_target = 1 if policy.prewarm_singletons else 2
        for fid in range(c.total_functions):
            target = policy.target_warm(fid)
            ka = policy.keepalive_ms(fid)
            if target > 0:
                ka = max(ka, 1.5 * c.window_ms)
            self.ka[fid] = ka
            pool = self.pools[fid]
            if target >= min_target and pool:
                busy = sum(1 for r in pool if r[1] > boundary)
                idle = sorted((r for r in pool if r[1] <= boundary),
                              key=lambda r: r[2], reverse=True)
                for r in idle[:max(0, target - busy)]:
                    if r[3] >= 0.0:
                        continue
                    self.wasted_ms[fid] += max(0.0, boundary - r[2])
                    r[2] = boundary
            self._expire(fid, boundary)
            if target >= min_target and target > len(pool) and placed < budget:
                add = min(target - len(pool), budget - placed,
                          c.max_replicas - len(pool))
                for _ in range(add):
                    self._place(fid, boundary, -1.0)
                placed += max(0, add)
            elif target > 0:
                self.provisioner.refresh(fid)
            if (not pool and placed < budget
                    and self.last_arrival[fid] >= 0.0
                    and self.sched_mark[fid] != self.last_arrival[fid]):
                schedule = policy.prewarm_schedule(fid)
                if schedule is not None:
                    eta, hold = schedule
                    due = self.last_arrival[fid] + eta
                    if boundary >= due + hold:
                        self.sched_mark[fid] = self.last_arrival[fid]
                    elif due <= boundary:
                        self._place(fid, boundary, due + hold)
                        self.sched_mark[fid] = self.last_arrival[fid]
                        placed += 1

    def _arrival(self, t: float, fid: int) -> None:
        c = self.c
        self._expire(fid, t)
        pool = self.pools[fid]
        best: Optional[List[float]] = None
        for r in pool:
            if r[1] <= t and (best is None or r[2] > best[2]):
                best = r
        if best is not None:
            self.wasted_ms[fid] += max(0.0, t - best[2])
            best[1] = t + c.service_ms
            best[2] = best[1]
            best[3] = -1.0
            self.outcome.warm_starts += 1
        elif len(pool) < c.max_replicas:
            _, latency = self.provisioner.cold_start(t, fid)
            busy = t + latency + c.service_ms
            pool.append([t, busy, busy, -1.0])
            self.outcome.cold_starts += 1
            self.cold_by_fid[fid] += 1
        else:
            replica = min(pool, key=lambda r: r[1])
            replica[1] += c.service_ms
            replica[2] = replica[1]
            replica[3] = -1.0
            self.outcome.queued += 1
        if self.last_arrival[fid] >= 0.0:
            self.policy.note_gap(fid, t - self.last_arrival[fid])
        self.last_arrival[fid] = t

    def run(self, times: np.ndarray, fids: np.ndarray,
            tick: bool) -> PolicyOutcome:
        c = self.c
        n = c.total_functions
        boundary = c.window_ms
        counts = [0] * n
        for t, fid in zip(times.tolist(), fids.tolist()):
            if tick:
                while boundary <= t:
                    self._tick(boundary, counts)
                    counts = [0] * n
                    boundary += c.window_ms
            counts[fid] += 1
            self._arrival(t, fid)
        if tick:
            while boundary <= c.duration_ms:
                self._tick(boundary, counts)
                counts = [0] * n
                boundary += c.window_ms
        self._flush(c.duration_ms)
        out = self.outcome
        out.requests = int(times.size)
        out.wasted_warm_s = float(self.wasted_ms.sum()) / 1000.0
        out.timer_wasted_warm_s = \
            float(self.wasted_ms[c.functions:].sum()) / 1000.0
        return out

    def _flush(self, end_ms: float) -> None:
        for fid, pool in enumerate(self.pools):
            ka = self.ka[fid]
            for r in pool:
                idle_from = r[2]
                if idle_from >= end_ms:
                    continue
                expire_at = r[3] if r[3] >= 0.0 else idle_from + ka
                self.wasted_ms[fid] += max(
                    0.0, min(expire_at, end_ms) - idle_from)


class FleetRunReference:
    """X12's ``_Fleet.run`` request loop, provisioning through
    ``provisioner.cold_start``.

    Pools hold ``[node, busy_until_ms, last_used_ms]`` rows;
    ``node_load`` is the live replica count per node, and ``requests``
    and ``warm`` count per node what the fleet's counters did.
    """

    def __init__(self, functions: int, nodes: int, keepalive_ms: float,
                 service_ms: float, max_replicas: int, provisioner) -> None:
        self.keepalive_ms = keepalive_ms
        self.service_ms = service_ms
        self.max_replicas = max_replicas
        self.provisioner = provisioner
        self.pools: List[List[List[float]]] = [[] for _ in range(functions)]
        self.node_load = np.zeros(nodes)
        self.requests = [0] * nodes
        self.warm = [0] * nodes

    def run(self, times: np.ndarray, fids: np.ndarray) -> None:
        keepalive = self.keepalive_ms
        service_ms = self.service_ms
        pools = self.pools
        for t, fid in zip(times.tolist(), fids.tolist()):
            pool = pools[fid]
            if pool:
                live = [r for r in pool if r[2] + keepalive >= t]
                if len(live) != len(pool):
                    for r in pool:
                        if r[2] + keepalive < t:
                            self.node_load[int(r[0])] -= 1.0
                    pool[:] = live
            replica = None
            for r in pool:
                if r[1] <= t:
                    replica = r
                    break
            if replica is not None:
                replica[1] = t + service_ms
                replica[2] = t
                node = int(replica[0])
                self.requests[node] += 1
                self.warm[node] += 1
            elif len(pool) < self.max_replicas:
                node, latency = self.provisioner.cold_start(t, fid)
                self.node_load[node] += 1.0
                pool.append([float(node), t + latency + service_ms, t])
                self.requests[node] += 1
            else:
                replica = min(pool, key=lambda r: r[1])
                replica[1] += service_ms
                replica[2] = t
                node = int(replica[0])
                self.requests[node] += 1
                self.warm[node] += 1
