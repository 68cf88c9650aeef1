"""Trace replay over keep-alive replica pools: the studies' request loop.

One chronological sweep of an arrival trace ``(times, fids)`` through
per-function replica pools under a :mod:`repro.predict` policy. The
fleet study (X12) and the prewarm study (X13) both run on it; what
they differ in — where a replica lands and what its cold start costs
— lives in a *provisioner* object they pass in:

* ``cold_start(t, fid) -> (node, latency_ms)`` provisions a replica
  for an arrival that found none free;
* ``prewarm(t, fid) -> (node, latency_ms)`` pre-places one on a
  forecast tick;
* ``refresh(fid)`` touches the node cache for a function whose warm
  target is already met.

The last two are only called on forecast-window ticks, so a sweep
without a ``window_ms`` needs only ``cold_start``.

Pool rules:

* an arrival is served by the *most recently idle* free replica
  (LIFO, so surplus replicas age out); with none free it cold-starts
  a new one, and at ``max_replicas`` it queues on the replica that
  frees up first;
* a replica's idle clock starts when its service ends, and it expires
  ``keepalive_ms(fid)`` later, or at its own ``expire_at`` when a
  scheduled prewarm placed it with a fixed hold;
* expiry is lazy (checked at the function's arrivals, window ticks
  and the final flush) but exact: the expiry instant depends only on
  when the replica went idle, so wasted warm-time never depends on
  when the sweep notices it.

Replicas are ``[node, busy_until_ms, idle_from_ms, expire_at_ms]``
rows, ``expire_at_ms < 0`` meaning "idle_from + keep-alive".
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.predict.policy import PrewarmPolicy


class TraceReplay:
    """One sweep of a trace under one policy and one provisioner.

    After :meth:`run`, the outcome is in the counters
    (``cold_starts``, ``warm_starts``, ``queued``,
    ``prewarm_placements``), per-function ``wasted_ms`` (idle time of
    warm replicas) and per-node ``requests`` and ``reused`` (requests
    an existing replica served: warm starts plus queued). ``live``
    counts each node's live replicas as the sweep goes.
    """

    def __init__(self, policy: PrewarmPolicy, provisioner, *,
                 functions: int, service_ms: float, max_replicas: int,
                 nodes: int = 1, window_ms: Optional[float] = None,
                 prewarm_budget: int = 0) -> None:
        self.policy = policy
        self.provisioner = provisioner
        self.functions = functions
        self.service_ms = service_ms
        self.max_replicas = max_replicas
        self.window_ms = window_ms
        self.prewarm_budget = prewarm_budget
        self.pools: List[List[list]] = [[] for _ in range(functions)]
        self.ka: List[float] = [policy.keepalive_ms(fid)
                                for fid in range(functions)]
        self.last_arrival: List[float] = [-1.0] * functions
        self.sched_mark: List[float] = [-1.0] * functions
        self.wasted_ms: List[float] = [0.0] * functions
        self.live: List[int] = [0] * nodes
        self.requests: List[int] = [0] * nodes
        self.reused: List[int] = [0] * nodes
        self.cold_starts = 0
        self.warm_starts = 0
        self.queued = 0
        self.prewarm_placements = 0

    # -- replica lifecycle ---------------------------------------------------

    def _expire(self, fid: int, t: float) -> None:
        pool = self.pools[fid]
        ka = self.ka[fid]
        for r in pool:
            if r[1] <= t and (r[3] if r[3] >= 0.0 else r[2] + ka) <= t:
                break
        else:
            return                            # nothing expires: keep the pool
        keep: List[list] = []
        for r in pool:
            if r[1] > t:                      # busy or still provisioning
                keep.append(r)
                continue
            expire_at = r[3] if r[3] >= 0.0 else r[2] + ka
            if expire_at <= t:
                self.wasted_ms[fid] += max(0.0, expire_at - r[2])
                self.live[r[0]] -= 1
            else:
                keep.append(r)
        pool[:] = keep

    def _place(self, fid: int, t: float, expire_at: float) -> None:
        """Pre-provision one replica for ``fid``."""
        node, latency = self.provisioner.prewarm(t, fid)
        ready = t + latency
        self.pools[fid].append([node, ready, ready, expire_at])
        self.live[node] += 1
        self.prewarm_placements += 1

    # -- forecast-window tick ------------------------------------------------

    def _tick(self, boundary: float, counts: List[int]) -> None:
        policy = self.policy
        window_ms = self.window_ms
        for fid in range(self.functions):
            policy.observe_window(fid, float(counts[fid]))
        placed = 0
        budget = self.prewarm_budget
        min_target = 1 if policy.prewarm_singletons else 2
        for fid in range(self.functions):
            target = policy.target_warm(fid)
            ka = policy.keepalive_ms(fid)
            if target > 0:
                # Anti-churn floor (mirrors PrewarmController): a
                # deliberately held replica must outlive the gap to the
                # next planning pass.
                ka = max(ka, 1.5 * window_ms)
            self.ka[fid] = ka
            pool = self.pools[fid]
            if target >= min_target and pool:
                # Target-protected retention: GC never reaps below the
                # planned warm set. The most-recently-idle replicas up
                # to the target are refreshed (their standby time is
                # accrued as waste now, restarting their idle clock) so
                # surplus depth for overlap bursts survives between
                # plans instead of churning cold. Forecast policies
                # exclude singleton targets (see
                # ``PrewarmPolicy.prewarm_singletons``).
                busy = sum(1 for r in pool if r[1] > boundary)
                idle = sorted((r for r in pool if r[1] <= boundary),
                              key=lambda r: r[2], reverse=True)
                for r in idle[:max(0, target - busy)]:
                    if r[3] >= 0.0:
                        continue          # scheduled holds keep their own
                    self.wasted_ms[fid] += max(0.0, boundary - r[2])
                    r[2] = boundary
            self._expire(fid, boundary)
            if target >= min_target and target > len(pool) and placed < budget:
                add = min(target - len(pool), budget - placed,
                          self.max_replicas - len(pool))
                for _ in range(add):
                    self._place(fid, boundary, -1.0)
                placed += max(0, add)
            elif target > 0:
                # Target already met: refresh the node cache so a
                # predicted-then-realized cold start fetches locally.
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

    # -- arrivals ------------------------------------------------------------

    def _arrival(self, t: float, fid: int) -> None:
        service_ms = self.service_ms
        self._expire(fid, t)
        pool = self.pools[fid]
        best: Optional[list] = None
        for r in pool:
            if r[1] <= t and (best is None or r[2] > best[2]):
                best = r                      # LIFO: most recently idle
        if best is not None:
            self.wasted_ms[fid] += max(0.0, t - best[2])
            best[1] = t + service_ms
            best[2] = best[1]
            best[3] = -1.0
            self.warm_starts += 1
            node = best[0]
            self.reused[node] += 1
        elif len(pool) < self.max_replicas:
            node, latency = self.provisioner.cold_start(t, fid)
            busy = t + latency + service_ms
            pool.append([node, busy, busy, -1.0])
            self.live[node] += 1
            self.cold_starts += 1
        else:
            replica = min(pool, key=lambda r: r[1])
            replica[1] += service_ms
            replica[2] = replica[1]
            replica[3] = -1.0
            self.queued += 1
            node = replica[0]
            self.reused[node] += 1
        self.requests[node] += 1
        if self.last_arrival[fid] >= 0.0:
            self.policy.note_gap(fid, t - self.last_arrival[fid])
        self.last_arrival[fid] = t

    # -- the sweep -----------------------------------------------------------

    def run(self, times: np.ndarray, fids: np.ndarray, end_ms: float) -> None:
        """Replay the trace, ticking every ``window_ms`` (if set) up to
        ``end_ms``, then close out the idle time still accruing."""
        n = self.functions
        window_ms = self.window_ms
        boundary = window_ms if window_ms is not None else math.inf
        counts = [0] * n
        for t, fid in zip(times.tolist(), fids.tolist()):
            while boundary <= t:
                self._tick(boundary, counts)
                counts = [0] * n
                boundary += window_ms
            counts[fid] += 1
            self._arrival(t, fid)
        while boundary <= end_ms:
            self._tick(boundary, counts)
            counts = [0] * n
            boundary += window_ms
        self._flush(end_ms)

    def _flush(self, end_ms: float) -> None:
        """Close out idle time still accruing when the trace ends."""
        for fid, pool in enumerate(self.pools):
            ka = self.ka[fid]
            for r in pool:
                idle_from = r[2]
                if idle_from >= end_ms:
                    continue
                expire_at = r[3] if r[3] >= 0.0 else idle_from + ka
                self.wasted_ms[fid] += max(
                    0.0, min(expire_at, end_ms) - idle_from)
