"""X12 — trace-driven fleet study on the fleet observability plane.

The paper's numbers are per-function; ROADMAP item 1's open remainder
is the *fleet* question: with the PR7 sharded store and chunk-locality
routing in place, what do cold-start p99, chunk-cache hit rates, and
cross-node traffic look like under production-shaped traces — Zipf
popularity over hundreds of functions, diurnal + bursty arrivals,
millions of requests?

The study is a discrete-event pass over a synthesized fleet trace
(:func:`repro.bench.traces.synthesize_fleet_workload`): one
:class:`~repro.faas.replay.TraceReplay` sweep under a fixed keep-alive
across C compute nodes and S storage nodes. This module is its cold
start provisioner: chunk placement comes from the real
:class:`~repro.criu.shardstore` consistent-hash ring and the latency
decomposition from the calibrated
:class:`~repro.sim.costmodel.CostModel` constants — the same
clone/spawn/restore/fetch/hop prices the request-level simulator
charges. Every aggregate flows through :mod:`repro.obs.fleet`:
per-node registries federated under ``node=`` labels, merged
histograms for the fleet quantiles, Space-Saving sketches for hot
functions/chunks, windowed rollups, and exact per-request cold-start
attribution — **no per-request sample list is ever retained**, which
is what lets one rep stream ≥1M requests in bounded memory.

A deterministic mid-trace storage-node outage produces the degraded
slice of the attribution table, and one *real* platform cold start
(2 compute nodes, 4 storage nodes, RF=2, fully observed) rides along
as the trace exemplar: its stitched span tree — deployer provision on
a ``node-*`` identity, shard fetches on ``store-*`` identities, one
connected trace — is embedded in the artifact and asserted by CI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import make_world
from repro.bench.report import format_table
from repro.bench.traces import synthesize_fleet_workload
from repro.criu.chunkcache import LRU, HotChunkCache
from repro.criu.shardstore import HashRing
from repro.faas.platform import FaaSPlatform, PlatformConfig
from repro.faas.replay import TraceReplay
from repro.functions.base import make_app
from repro.obs.flight import REPLICA_PROVISIONED, RESTORE_DEGRADED, FlightRecorder
from repro.obs.fleet import (
    OUTCOME_DEGRADED,
    OUTCOME_LOCAL_HIT,
    OUTCOME_REMOTE_FETCH,
    ColdStartAttribution,
    FleetRegistry,
    FleetWindowSeries,
    SpaceSavingSketch,
)
from repro.predict.policy import FixedKeepAlivePolicy
from repro.sim.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.sim.rng import _derive_seed

MIB = 1024 * 1024
CHUNK_BYTES = 256 * 1024          # one pagestore window (64 pages x 4 KiB)
CHUNKS_PER_MIB = MIB // CHUNK_BYTES

# Shared runtime bases: functions of the same runtime share these
# chunks, which is what gives cross-function locality its teeth.
RUNTIME_BASE_MIB = (6, 8, 12)

CONTROLLER_NODE = "controller"    # control-plane registry in the fleet


@dataclass(frozen=True)
class FleetStudyConfig:
    """Shape of one X12 run (defaults = the sealed baseline)."""

    functions: int = 200
    requests: int = 1_000_000
    duration_ms: float = 7_200_000.0      # 2 simulated hours
    compute_nodes: int = 8
    storage_nodes: int = 6
    replication_factor: int = 2
    # Deliberately smaller than the ~425 MiB/node working set so the
    # steady state keeps churning remote fetches instead of converging
    # to an all-local fleet.
    node_cache_mib: int = 256
    keepalive_ms: float = 60_000.0
    max_replicas: int = 8
    window_ms: float = 60_000.0
    flight_capacity: int = 2048
    # Deterministic storage outage: one store is down for the middle
    # [40%, 60%) slice of the trace, producing the degraded bucket.
    outage_start_frac: float = 0.40
    outage_end_frac: float = 0.60


class _StudyClock:
    """Minimal ``.now`` clock shim driving the flight recorder."""

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0.0


@dataclass
class FleetRepResult:
    """Aggregates of one repetition (already fleet-merged)."""

    rep: int
    seed: int
    requests: int = 0
    cold_starts: int = 0
    degraded_cold_starts: int = 0
    cold_p50_ms: float = 0.0
    cold_p99_ms: float = 0.0
    cache_hit_rate: float = 0.0            # fleet chunk-bytes hit rate
    locality_hit_rate: float = 0.0         # placements covering >=50%
    cross_node_bytes: int = 0
    flight_dropped: int = 0
    per_node_rows: List[Dict[str, object]] = field(default_factory=list)
    hot_functions: List[Tuple[str, float, float]] = field(default_factory=list)
    hot_chunks: List[Tuple[str, float, float]] = field(default_factory=list)
    window_points: List[Dict[str, float]] = field(default_factory=list)
    attribution: Optional[ColdStartAttribution] = None

    @property
    def cross_node_kib_per_restore(self) -> float:
        if not self.cold_starts:
            return 0.0
        return self.cross_node_bytes / 1024.0 / self.cold_starts


@dataclass
class FleetStudyResult:
    """The X12 report: per-rep aggregates + the stitched exemplar."""

    config: FleetStudyConfig
    seed: int
    reps: List[FleetRepResult] = field(default_factory=list)
    exemplar_spans: List[Dict[str, object]] = field(default_factory=list)

    @property
    def headline(self) -> FleetRepResult:
        return self.reps[0]

    def stitched_nodes(self) -> List[str]:
        return stitched_trace_nodes(self.exemplar_spans)

    def as_dict(self) -> Dict[str, object]:
        return {
            "experiment": "fleet-study",
            "seed": self.seed,
            "config": {
                "functions": self.config.functions,
                "requests": self.config.requests,
                "duration_ms": self.config.duration_ms,
                "compute_nodes": self.config.compute_nodes,
                "storage_nodes": self.config.storage_nodes,
                "replication_factor": self.config.replication_factor,
                "node_cache_mib": self.config.node_cache_mib,
            },
            "reps": [
                {
                    "rep": r.rep,
                    "seed": r.seed,
                    "requests": r.requests,
                    "cold_starts": r.cold_starts,
                    "degraded_cold_starts": r.degraded_cold_starts,
                    "cold_p50_ms": r.cold_p50_ms,
                    "cold_p99_ms": r.cold_p99_ms,
                    "cache_hit_rate": r.cache_hit_rate,
                    "locality_hit_rate": r.locality_hit_rate,
                    "cross_node_bytes": r.cross_node_bytes,
                    "cross_node_kib_per_restore": r.cross_node_kib_per_restore,
                    "flight_dropped": r.flight_dropped,
                    "per_node": r.per_node_rows,
                    "hot_functions": [
                        {"key": k, "count": c, "error": e}
                        for k, c, e in r.hot_functions],
                    "hot_chunks": [
                        {"key": k, "count": c, "error": e}
                        for k, c, e in r.hot_chunks],
                    "windows": r.window_points,
                    "attribution": (r.attribution.as_dict()
                                    if r.attribution else []),
                    "folded": (r.attribution.folded_lines()
                               if r.attribution else []),
                }
                for r in self.reps
            ],
            "exemplar_spans": self.exemplar_spans,
            "stitched_nodes": self.stitched_nodes(),
        }

    def render(self) -> str:
        return render_fleet_report(self.as_dict())


# ---------------------------------------------------------------------------
# Stitching check (shared by tests, the report, and the CI assertion)
# ---------------------------------------------------------------------------


def stitched_trace_nodes(spans: Sequence[Dict[str, object]]) -> List[str]:
    """Node identities of the best stitched trace in ``spans``.

    Looks for a single connected span tree (every non-root span's
    parent is inside the same trace) that carries ``node_id``
    attributes from at least two distinct identities — a provision on
    a compute node plus shard fetches on storage nodes. Returns the
    sorted node ids of the best such trace, or ``[]`` if none
    qualifies (the CI gate greps for >= 2).
    """
    by_trace: Dict[str, List[Dict[str, object]]] = {}
    for span in spans:
        by_trace.setdefault(str(span.get("trace")), []).append(span)
    best: List[str] = []
    for members in by_trace.values():
        ids = {span.get("span") for span in members}
        connected = all(
            span.get("parent") is None or span.get("parent") in ids
            for span in members)
        if not connected:
            continue
        nodes: Set[str] = set()
        for span in members:
            attrs = span.get("attrs") or {}
            node_id = attrs.get("node_id") if isinstance(attrs, dict) else None
            if node_id and node_id != "unavailable":
                nodes.add(str(node_id))
        if len(nodes) > len(best):
            best = sorted(nodes)
    return best


def _trace_exemplar(seed: int) -> List[Dict[str, object]]:
    """One fully observed platform cold start through the sharded store.

    A 2-compute-node, 4-storage-node RF=2 cluster serving a single
    prebake invoke: the restore's quorum fetches are all remote (the
    node chunk cache starts cold), so the resulting trace is exactly
    the multi-node stitched tree the acceptance criteria describe.
    """
    world = make_world(seed=_derive_seed(seed, "fleet-exemplar"),
                       observe=True)
    kernel = world.kernel
    platform = FaaSPlatform(kernel, PlatformConfig(
        nodes=2, storage_nodes=4, replication_factor=2))
    platform.register_function(lambda: make_app("markdown"),
                               start_technique="prebake")
    platform.invoke("markdown")
    return [span.as_dict() for span in kernel.obs.tracer.spans]


# ---------------------------------------------------------------------------
# The fleet simulator
# ---------------------------------------------------------------------------


class _NodeCache(HotChunkCache):
    """One compute node's LRU chunk cache, kept in step with coverage.

    ``coverage`` is the node's row of ``_Fleet.coverage`` (bytes of each
    function's image resident here). An eviction takes the victim's
    bytes off every function sharing it; the caller adds a fetched
    chunk's bytes on a miss, which LRU always admits.
    """

    def __init__(self, capacity_bytes: int, coverage: np.ndarray,
                 chunk_funcs: List[np.ndarray]) -> None:
        super().__init__(capacity_bytes, policy=LRU)
        self.coverage = coverage
        self.chunk_funcs = chunk_funcs

    def _evict(self, chunk_id) -> None:
        self.coverage[self.chunk_funcs[chunk_id]] -= self._resident[chunk_id]
        super()._evict(chunk_id)


class _Fleet:
    """One repetition's fleet: the replay's provisioner and its plane.

    ``cold_start`` places a replica (chunk locality against load on
    ``replay.live``), fetches its missing chunks and records the cold
    start into the observability plane.
    """

    def __init__(self, config: FleetStudyConfig, seed: int,
                 costs: CostModel) -> None:
        self.config = config
        self.costs = costs
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.clock = _StudyClock()
        c = config

        # -- image catalog ------------------------------------------------
        # Chunk ids are dense ints; placement comes from the real
        # consistent-hash ring over their digest-like string form.
        setup = np.random.Generator(np.random.PCG64(
            _derive_seed(seed, "fleet-images")))
        base_chunks: List[np.ndarray] = []
        next_cid = 0
        for mib in RUNTIME_BASE_MIB:
            count = mib * CHUNKS_PER_MIB
            base_chunks.append(np.arange(next_cid, next_cid + count,
                                         dtype=np.int64))
            next_cid += count
        self.func_chunks: List[np.ndarray] = []
        priv_mib = setup.integers(4, 25, size=c.functions)
        for fid in range(c.functions):
            count = int(priv_mib[fid]) * CHUNKS_PER_MIB
            priv = np.arange(next_cid, next_cid + count, dtype=np.int64)
            next_cid += count
            base = base_chunks[fid % len(RUNTIME_BASE_MIB)]
            self.func_chunks.append(np.concatenate([base, priv]))
        self.total_chunks = next_cid
        self.image_bytes = np.array(
            [chunks.size * CHUNK_BYTES for chunks in self.func_chunks],
            dtype=np.float64)

        # Reverse index chunk -> functions (coverage bookkeeping).
        owners: List[List[int]] = [[] for _ in range(next_cid)]
        for fid, chunks in enumerate(self.func_chunks):
            for cid in chunks.tolist():
                owners[cid].append(fid)
        self.chunk_funcs = [np.asarray(fns, dtype=np.int64)
                            for fns in owners]

        # Storage placement via the real shardstore ring.
        ring = HashRing([f"store-{i}" for i in range(c.storage_nodes)])
        store_index = {f"store-{i}": i for i in range(c.storage_nodes)}
        self.chunk_homes = np.empty(
            (next_cid, c.replication_factor), dtype=np.int8)
        for cid in range(next_cid):
            homes = ring.nodes_for(f"chunk-{cid:08d}", c.replication_factor)
            for slot, name in enumerate(homes):
                self.chunk_homes[cid, slot] = store_index[name]

        # -- per-node state -----------------------------------------------
        # coverage[node, fid]: bytes of fid's image in node's cache.
        self.coverage = np.zeros((c.compute_nodes, c.functions))
        self.node_caches = [
            _NodeCache(c.node_cache_mib * MIB, self.coverage[node],
                       self.chunk_funcs)
            for node in range(c.compute_nodes)]
        # Warm pools: keep-alive replicas under the fixed timeout, served
        # most-recently-idle first; this fleet provisions their cold
        # starts. ``replay.live`` is each node's live replica count.
        self.replay = TraceReplay(
            FixedKeepAlivePolicy(c.keepalive_ms), self,
            functions=c.functions, service_ms=costs.exec_ms,
            max_replicas=c.max_replicas, nodes=c.compute_nodes)

        # -- observability plane ------------------------------------------
        self.fleet = FleetRegistry()
        self.node_regs = [self.fleet.node(f"node-{i}")
                          for i in range(c.compute_nodes)]
        self.store_regs = [self.fleet.node(f"store-{i}")
                           for i in range(c.storage_nodes)]
        self.ctl_reg = self.fleet.node(CONTROLLER_NODE)
        self.flight = FlightRecorder(self.clock,
                                     capacity=c.flight_capacity,
                                     metrics=self.ctl_reg)
        self.windows = FleetWindowSeries(window_ms=c.window_ms)
        self.attribution = ColdStartAttribution()
        self.hot_functions = SpaceSavingSketch(capacity=64)
        self.hot_chunks = SpaceSavingSketch(capacity=256)

        # Pre-resolved counter handles (the PR8 fast path).
        self.h_requests = [r.counter("fleet_requests_total")
                           for r in self.node_regs]
        self.h_warm = [r.counter("fleet_warm_total")
                       for r in self.node_regs]
        self.h_cold = [r.counter("fleet_cold_total")
                       for r in self.node_regs]
        self.h_hit_bytes = [r.counter("chunk_cache_hit_bytes_total")
                            for r in self.node_regs]
        self.h_miss_bytes = [r.counter("chunk_cache_miss_bytes_total")
                             for r in self.node_regs]
        self.h_placement = [r.counter("deployer_cold_placement_total")
                            for r in self.node_regs]
        self.h_loc_miss = [r.counter("deployer_locality_miss_total")
                           for r in self.node_regs]
        self.h_served = [r.counter("shard_served_bytes_total")
                         for r in self.store_regs]
        self.h_hops = [r.counter("shard_retry_hops_total")
                       for r in self.store_regs]
        self.cold_hists = [r.histogram_series("fleet_cold_start_ms")
                           for r in self.node_regs]

        self.outage_node = -1
        self.outage_window = (c.duration_ms * c.outage_start_frac,
                              c.duration_ms * c.outage_end_frac)
        self.cross_node_bytes = 0
        self.degraded_cold_starts = 0

    # -- storage outage ------------------------------------------------------

    def _storage_down(self, store: int, t: float) -> bool:
        lo, hi = self.outage_window
        return store == self.outage_node and lo <= t < hi

    # -- the cold-start path -------------------------------------------------

    def cold_start(self, t: float, fid: int) -> Tuple[int, float]:
        """Provision one replica; returns (node, ready latency ms)."""
        c = self.config
        self.clock.now = t
        # Locality-aware, load-balanced placement: score each node by
        # the fraction of this image its chunk cache already covers,
        # minus a penalty for its share of live replicas (0.5 at a
        # perfectly balanced fleet). Full local coverage beats an empty
        # node unless the covering node already runs well over its fair
        # share; deterministic argmax, first max wins.
        total_bytes = self.image_bytes[fid]
        live = np.asarray(self.replay.live, dtype=np.float64)
        load_total = live.sum()
        score = self.coverage[:, fid] / total_bytes
        if load_total > 0.0:
            score = score - (0.5 * c.compute_nodes / load_total) * live
        node = int(np.argmax(score))
        covered = self.coverage[node, fid]
        self.h_placement[node].inc()
        if covered * 2 < total_bytes:
            self.h_loc_miss[node].inc()

        local_bytes = 0
        remote_bytes = 0
        hops = 0
        lookup = self.node_caches[node].lookup
        coverage = self.coverage[node]
        for cid in self.func_chunks[fid].tolist():
            if lookup(cid, CHUNK_BYTES):
                local_bytes += CHUNK_BYTES
                continue
            # LRU admits every miss: the chunk is resident on this node now.
            coverage[self.chunk_funcs[cid]] += CHUNK_BYTES
            homes = self.chunk_homes[cid]
            serving = int(homes[0])
            if self._storage_down(serving, t):
                # Each retry hop is charged to the down store it skipped.
                hops += 1
                self.h_hops[serving].inc()
                if len(homes) > 1:
                    serving = int(homes[1])
                    if self._storage_down(serving, t):
                        hops += 1
                        self.h_hops[serving].inc()
            remote_bytes += CHUNK_BYTES
            self.h_served[serving].inc(float(CHUNK_BYTES))
            self.hot_chunks.offer(f"chunk-{cid:08d}", float(CHUNK_BYTES))
        self.cross_node_bytes += remote_bytes
        self.h_hit_bytes[node].inc(float(local_bytes))
        self.h_miss_bytes[node].inc(float(remote_bytes))

        # -- latency decomposition (calibrated CostModel constants) ------
        costs = self.costs
        cf = local_bytes / total_bytes if total_bytes else 0.0
        restore_ms = (
            costs.restore_base_ms
            + costs.plan_restore_pipeline(
                costs.restore_per_mib_ms * (total_bytes / MIB),
                cached_fraction=cf).total_ms
            + costs.shard_fetch_overhead_ms(hops))
        # One multiplicative log-normal jitter per cold start, applied
        # to every phase, so the phase sums reproduce the total exactly.
        factor = math.exp(costs.noise_sigma * self.rng.standard_normal())
        phases = {
            "clone": costs.clone_ms * factor,
            "spawn": costs.criu_spawn_ms * factor,
            "restore": restore_ms * factor,
        }
        total_ms = 0.0
        for value in phases.values():
            total_ms += value

        if hops:
            outcome = OUTCOME_DEGRADED
            self.degraded_cold_starts += 1
        elif cf >= 0.5:
            outcome = OUTCOME_LOCAL_HIT
        else:
            outcome = OUTCOME_REMOTE_FETCH
        fname = f"fn-{fid:03d}"
        node_name = f"node-{node}"
        self.attribution.record(fname, node_name, outcome, phases, total_ms)
        self.h_cold[node].inc()
        self.cold_hists[node].observe(total_ms)
        self.windows.observe(node_name, t, total_ms)
        self.flight.record(REPLICA_PROVISIONED, function=fname,
                           node=node_name, outcome=outcome)
        if outcome == OUTCOME_DEGRADED:
            self.flight.record(RESTORE_DEGRADED, function=fname,
                               node=node_name, retry_hops=hops)
        return node, total_ms


def _run_repetition(config: FleetStudyConfig, seed: int,
                    rep: int) -> FleetRepResult:
    rep_seed = _derive_seed(seed, f"fleet-{rep}")
    costs = DEFAULT_COST_MODEL
    fleet = _Fleet(config, rep_seed, costs)
    fleet.outage_node = rep % config.storage_nodes
    times, fids = synthesize_fleet_workload(
        function_count=config.functions,
        duration_ms=config.duration_ms,
        requests=config.requests,
        seed=_derive_seed(rep_seed, "fleet-trace"),
    )
    replay = fleet.replay
    replay.run(times, fids, config.duration_ms)
    fleet.windows.flush()
    for node in range(config.compute_nodes):
        if replay.requests[node]:
            fleet.h_requests[node].inc(float(replay.requests[node]))
        if replay.reused[node]:
            fleet.h_warm[node].inc(float(replay.reused[node]))
    # The sketch sees only the fid sequence, so a pass of its own
    # ranks exactly as feeding it per request would.
    offer = fleet.hot_functions.offer
    for fid in fids.tolist():
        offer(f"fn-{fid:03d}")

    reg = fleet.fleet
    requests = int(reg.fleet_value("fleet_requests_total"))
    cold = int(reg.fleet_value("fleet_cold_total"))
    hit_bytes = reg.fleet_value("chunk_cache_hit_bytes_total")
    miss_bytes = reg.fleet_value("chunk_cache_miss_bytes_total")
    placements = reg.fleet_value("deployer_cold_placement_total")
    loc_misses = reg.fleet_value("deployer_locality_miss_total")

    result = FleetRepResult(rep=rep, seed=rep_seed)
    result.requests = requests
    result.cold_starts = cold
    result.degraded_cold_starts = fleet.degraded_cold_starts
    result.cold_p50_ms = reg.fleet_quantile("fleet_cold_start_ms", 0.5)
    result.cold_p99_ms = reg.fleet_quantile("fleet_cold_start_ms", 0.99)
    denominator = hit_bytes + miss_bytes
    result.cache_hit_rate = hit_bytes / denominator if denominator else 0.0
    result.locality_hit_rate = (
        1.0 - loc_misses / placements if placements else 0.0)
    result.cross_node_bytes = fleet.cross_node_bytes
    result.flight_dropped = int(
        reg.fleet_value("flight_dropped_total"))
    assert result.flight_dropped == fleet.flight.dropped

    for i in range(config.compute_nodes):
        node = f"node-{i}"
        node_hit = reg.per_node_value("chunk_cache_hit_bytes_total")[node]
        node_miss = reg.per_node_value("chunk_cache_miss_bytes_total")[node]
        node_total = node_hit + node_miss
        histogram = fleet.node_regs[i].histogram("fleet_cold_start_ms")
        result.per_node_rows.append({
            "node": node,
            "requests": int(reg.per_node_value("fleet_requests_total")[node]),
            "cold": int(reg.per_node_value("fleet_cold_total")[node]),
            "cache_hit_rate": (node_hit / node_total) if node_total else 0.0,
            "cold_p99_ms": histogram.quantile(0.99) if histogram else 0.0,
        })
    for i in range(config.storage_nodes):
        store = f"store-{i}"
        result.per_node_rows.append({
            "node": store,
            "requests": 0,
            "cold": 0,
            "served_mib": reg.per_node_value(
                "shard_served_bytes_total")[store] / MIB,
        })
    result.hot_functions = fleet.hot_functions.top(10)
    result.hot_chunks = fleet.hot_chunks.top(10)
    result.window_points = [p.as_dict() for p in fleet.windows.points]
    result.attribution = fleet.attribution
    return result


def fleet_study(repetitions: int = 1, seed: int = 42,
                requests: int = 1_000_000, functions: int = 200,
                compute_nodes: int = 8, storage_nodes: int = 6,
                replication_factor: int = 2,
                duration_ms: float = 7_200_000.0) -> FleetStudyResult:
    """Run X12: ``repetitions`` independent fleet passes + the exemplar."""
    config = FleetStudyConfig(
        functions=functions, requests=requests, duration_ms=duration_ms,
        compute_nodes=compute_nodes, storage_nodes=storage_nodes,
        replication_factor=replication_factor)
    result = FleetStudyResult(config=config, seed=seed)
    for rep in range(repetitions):
        result.reps.append(_run_repetition(config, seed, rep))
    result.exemplar_spans = _trace_exemplar(seed)
    return result


# ---------------------------------------------------------------------------
# Rendering (shared with prebake-bench fleet-report / repro.obs.cli fleet)
# ---------------------------------------------------------------------------


def render_fleet_report(artifact: Dict[str, object]) -> str:
    """Human-readable fleet report from a ``--fleet-out`` artifact."""
    lines: List[str] = []
    config = artifact.get("config", {})
    lines.append("X12 — trace-driven fleet study")
    lines.append(
        f"functions: {config.get('functions')}  "
        f"compute nodes: {config.get('compute_nodes')}  "
        f"storage nodes: {config.get('storage_nodes')} "
        f"(RF={config.get('replication_factor')})")
    for rep in artifact.get("reps", []):  # type: ignore[union-attr]
        lines.append("")
        lines.append(
            f"rep {rep['rep']}: requests {rep['requests']}  "
            f"cold starts {rep['cold_starts']} "
            f"({rep['degraded_cold_starts']} degraded)")
        lines.append(
            f"  fleet cold-start p50 {rep['cold_p50_ms']:.2f} ms  "
            f"p99 {rep['cold_p99_ms']:.2f} ms")
        lines.append(
            f"  chunk-cache hit rate {rep['cache_hit_rate']:.3f}  "
            f"locality hit rate {rep['locality_hit_rate']:.3f}  "
            f"cross-node {rep['cross_node_kib_per_restore']:.1f} KiB/restore")
        lines.append(
            f"  flight events dropped: {rep['flight_dropped']}")
        rows = []
        for row in rep.get("per_node", []):
            if str(row["node"]).startswith("node-"):
                rows.append([
                    row["node"], row["requests"], row["cold"],
                    f"{row['cache_hit_rate']:.3f}",
                    f"{row['cold_p99_ms']:.2f}"])
        if rows:
            lines.append("")
            lines.append(format_table(
                ["node", "requests", "cold", "cache-hit", "p99(ms)"], rows))
        store_rows = [
            [row["node"], f"{row['served_mib']:.1f}"]
            for row in rep.get("per_node", [])
            if str(row["node"]).startswith("store-")]
        if store_rows:
            lines.append("")
            lines.append(format_table(["store", "served(MiB)"], store_rows))
        hot = rep.get("hot_functions", [])
        if hot:
            lines.append("")
            lines.append("hot functions (Space-Saving top-k):")
            for entry in hot[:5]:
                lines.append(
                    f"  {entry['key']}: {entry['count']:.0f} "
                    f"(+/- {entry['error']:.0f})")
        attribution = rep.get("attribution", [])
        if attribution:
            lines.append("")
            lines.append("cold-start blame table (top cells by total ms):")
            lines.append(
                ColdStartAttribution.from_dict(attribution).blame_table())
    stitched = artifact.get("stitched_nodes", [])
    lines.append("")
    if len(stitched) >= 2:  # type: ignore[arg-type]
        lines.append("stitched multi-node trace: yes "
                     f"({','.join(stitched)})")  # type: ignore[arg-type]
    else:
        lines.append("stitched multi-node trace: NO")
    return "\n".join(lines)
