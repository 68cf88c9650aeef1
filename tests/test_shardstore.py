"""Tests for the sharded, replicated snapshot store (ISSUE 7).

Covers the hash ring, the circuit breaker, the quorum / hinted-handoff
/ read-repair / anti-entropy protocol, the degraded-mode restore
ladder through the platform, the RF=1 byte-identity guarantee, the X10
shard-chaos experiment, and the satellite items (eviction counter
export, ghost-history promotion, ``FaultPlan.of`` typo rejection).
"""

import pytest

from repro import make_world, obs
from repro.core.bake import Prebaker
from repro.core.policy import AfterReady
from repro.core.starters import PrebakeStarter
from repro.core.store import SnapshotStore
from repro.criu.chunkcache import FREQ_OVER_SIZE, LRU, HotChunkCache
from repro.criu.restore import RestoreEngine
from repro.criu.shardstore import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    HashRing,
    ShardedSnapshotStore,
)
from repro.faas.platform import FaaSPlatform, PlatformConfig
from repro.faults.model import (
    STORE_NODE_DOWN,
    STORE_PARTITION,
    STORE_SLOW_SHARD,
    FaultPlan,
)
from repro.functions import make_app


# ---------------------------------------------------------------------------
# Hash ring
# ---------------------------------------------------------------------------


class TestHashRing:
    def test_walk_yields_each_node_once(self):
        ring = HashRing([f"store-{i}" for i in range(5)])
        walked = list(ring.walk("some-chunk-digest"))
        assert sorted(walked) == [f"store-{i}" for i in range(5)]

    def test_nodes_for_returns_distinct_prefix(self):
        ring = HashRing(["a", "b", "c"], virtual_nodes=16)
        homes = ring.nodes_for("digest", 2)
        assert len(homes) == 2
        assert len(set(homes)) == 2

    def test_placement_is_deterministic_across_instances(self):
        names = [f"store-{i}" for i in range(4)]
        first = HashRing(names)
        second = HashRing(names)
        for digest in ("aa", "bb", "cc", "dd", "ee"):
            assert first.nodes_for(digest, 2) == second.nodes_for(digest, 2)

    def test_rejects_empty_ring_and_bad_virtual_nodes(self):
        with pytest.raises(ValueError, match="at least one node"):
            HashRing([])
        with pytest.raises(ValueError, match="virtual_nodes"):
            HashRing(["a"], virtual_nodes=0)


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3, reset_ms=1_000.0)
        assert not breaker.record_failure(0.0)
        assert not breaker.record_failure(0.0)
        assert breaker.record_failure(0.0)      # third failure opens
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow(500.0)         # still cooling down

    def test_half_open_probe_then_close_on_success(self):
        breaker = CircuitBreaker(threshold=1, reset_ms=1_000.0)
        breaker.record_failure(0.0)
        assert breaker.allow(1_000.0)           # cooldown elapsed: probe
        assert breaker.state == BREAKER_HALF_OPEN
        assert breaker.record_success()         # probe worked: closed
        assert breaker.state == BREAKER_CLOSED

    def test_half_open_probe_failure_reopens(self):
        breaker = CircuitBreaker(threshold=2, reset_ms=1_000.0)
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        assert breaker.allow(1_500.0)
        assert breaker.record_failure(1_500.0)  # one strike in half-open
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow(2_000.0)       # new cooldown from 1500

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(threshold=2, reset_ms=1_000.0)
        breaker.record_failure(0.0)
        breaker.record_success()
        assert not breaker.record_failure(0.0)  # streak restarted
        assert breaker.state == BREAKER_CLOSED


# ---------------------------------------------------------------------------
# Placement, quorum fetch, handoff, read-repair, anti-entropy
# ---------------------------------------------------------------------------


def _baked_layered(kernel, name="markdown"):
    store = SnapshotStore()
    report = Prebaker(kernel, store).bake(make_app(name), policy=AfterReady())
    return store.layered(report.key), store.merkle(report.key)


class TestShardedSnapshotStore:
    def test_replication_factor_bounds(self, kernel):
        with pytest.raises(ValueError, match="replication_factor"):
            ShardedSnapshotStore(kernel, node_count=3, replication_factor=4)
        with pytest.raises(ValueError, match="replication_factor"):
            ShardedSnapshotStore(kernel, node_count=3, replication_factor=0)

    def test_register_places_rf_copies_on_every_window(self, kernel):
        layered, _ = _baked_layered(kernel)
        store = ShardedSnapshotStore(kernel, node_count=5,
                                     replication_factor=2)
        store.register_image(layered)
        assert store.has_image(layered.image_id)
        for ref in layered.chunk_refs:
            assert store.replica_count(ref.chunk_id) == 2

    def test_placement_spreads_over_all_nodes(self, kernel):
        layered, _ = _baked_layered(kernel)
        store = ShardedSnapshotStore(kernel, node_count=5,
                                     replication_factor=1)
        store.register_image(layered)
        balance = store.balance()
        assert len(balance) == 5
        # Snapshot windows dedup to a modest set of distinct digests,
        # so demand a spread, not perfection: most nodes own data and
        # the stored bytes add up to exactly one copy of each digest.
        assert sum(1 for stored in balance.values() if stored > 0) >= 3
        distinct = {ref.chunk_id: ref.size_bytes
                    for ref in layered.chunk_refs}
        assert sum(balance.values()) == sum(distinct.values())

    def test_quorum_fetch_survives_one_down_replica(self, kernel):
        layered, _ = _baked_layered(kernel)
        store = ShardedSnapshotStore(kernel, node_count=5,
                                     replication_factor=2)
        store.register_image(layered)
        ref = layered.chunk_refs[0]
        homes = store.placement(ref.chunk_id)
        store.fail_node(homes[0], down_for_ms=60_000.0)
        result = store.fetch_window(ref.chunk_id, ref.size_bytes)
        assert result.found
        assert result.served_by == homes[1]
        assert result.retry_hops == 1
        assert result.degraded

    def test_rf1_fetch_fails_when_the_only_home_is_down(self, kernel):
        layered, _ = _baked_layered(kernel)
        store = ShardedSnapshotStore(kernel, node_count=3,
                                     replication_factor=1)
        store.register_image(layered)
        ref = layered.chunk_refs[0]
        (home,) = store.placement(ref.chunk_id)
        store.fail_node(home, down_for_ms=60_000.0)
        result = store.fetch_window(ref.chunk_id, ref.size_bytes)
        assert not result.found
        assert result.retry_hops == 1

    def test_breaker_stops_charging_hops_for_a_dead_node(self, kernel):
        layered, _ = _baked_layered(kernel)
        store = ShardedSnapshotStore(kernel, node_count=3,
                                     replication_factor=1,
                                     breaker_threshold=3,
                                     breaker_reset_ms=2_000.0)
        store.register_image(layered)
        ref = layered.chunk_refs[0]
        (home,) = store.placement(ref.chunk_id)
        store.fail_node(home, down_for_ms=600_000.0)
        for _ in range(3):                     # three hops open the breaker
            assert store.fetch_window(ref.chunk_id, ref.size_bytes).retry_hops == 1
        assert store.breakers[home].state == BREAKER_OPEN
        assert home in store.open_breakers()
        # An open breaker is skipped for free: no more retry hops.
        assert store.fetch_window(ref.chunk_id, ref.size_bytes).retry_hops == 0
        # After the cooldown a half-open probe pays one hop and re-opens.
        kernel.clock.advance(2_500.0)
        assert store.fetch_window(ref.chunk_id, ref.size_bytes).retry_hops == 1
        assert store.breakers[home].state == BREAKER_OPEN

    def test_hinted_handoff_delivers_on_recovery(self, kernel):
        layered, _ = _baked_layered(kernel)
        probe = ShardedSnapshotStore(kernel, node_count=4,
                                     replication_factor=1)
        ref = layered.chunk_refs[0]
        (home,) = probe.placement(ref.chunk_id)
        store = ShardedSnapshotStore(kernel, node_count=4,
                                     replication_factor=1)
        store.fail_node(home, down_for_ms=60_000.0)
        store.register_image(layered)          # write lands as hints
        assert store.handoffs > 0
        assert ref.chunk_id not in store.nodes[home].holdings
        carriers = [n for n in store.nodes.values()
                    if ref.chunk_id in n.hints]
        assert len(carriers) == 1
        assert carriers[0].hints[ref.chunk_id][0] == home
        store.recover_node(home)
        assert store.handoffs_delivered > 0
        assert ref.chunk_id in store.nodes[home].holdings
        assert not any(ref.chunk_id in n.hints for n in store.nodes.values())
        assert store.fetch_window(ref.chunk_id, ref.size_bytes).found

    def test_read_repair_refills_an_up_but_missing_replica(self, kernel):
        layered, _ = _baked_layered(kernel)
        store = ShardedSnapshotStore(kernel, node_count=5,
                                     replication_factor=2)
        store.register_image(layered)
        ref = layered.chunk_refs[0]
        homes = store.placement(ref.chunk_id)
        del store.nodes[homes[0]].holdings[ref.chunk_id]
        result = store.fetch_window(ref.chunk_id, ref.size_bytes)
        assert result.found
        assert result.read_repaired == 1
        assert ref.chunk_id in store.nodes[homes[0]].holdings
        assert store.replica_count(ref.chunk_id) == 2

    def test_anti_entropy_repairs_with_subtree_local_hash_work(self, kernel):
        layered, merkle = _baked_layered(kernel)
        store = ShardedSnapshotStore(kernel, node_count=5,
                                     replication_factor=2)
        store.register_image(layered, merkle=merkle)
        clean = store.anti_entropy()
        assert clean.windows_repaired == 0
        assert clean.hash_ops == 0             # fully replicated: no work
        assert clean.layers_skipped == clean.layers_checked
        ref = layered.chunk_refs[0]
        homes = store.placement(ref.chunk_id)
        del store.nodes[homes[0]].holdings[ref.chunk_id]
        repair = store.anti_entropy()
        assert repair.windows_repaired == 1
        assert repair.hash_ops > 0
        assert repair.layers_skipped < repair.layers_checked
        assert store.replica_count(ref.chunk_id) == 2
        assert merkle.root_matches_seal()      # digest unchanged by repair

    def test_anti_entropy_counts_deficits_it_cannot_repair(self, kernel):
        layered, merkle = _baked_layered(kernel)
        store = ShardedSnapshotStore(kernel, node_count=5,
                                     replication_factor=2)
        store.register_image(layered, merkle=merkle)
        ref = layered.chunk_refs[0]
        homes = store.placement(ref.chunk_id)
        del store.nodes[homes[0]].holdings[ref.chunk_id]
        store.fail_node(homes[0], down_for_ms=600_000.0)
        report = store.anti_entropy()
        assert report.under_replicated >= 1
        assert ref.chunk_id not in store.nodes[homes[0]].holdings


# ---------------------------------------------------------------------------
# Degraded-mode restores through the platform
# ---------------------------------------------------------------------------


def _sharded_platform(seed=42, rf=2, storage_nodes=5):
    world = make_world(seed=seed, observe=True)
    platform = FaaSPlatform(world.kernel, PlatformConfig(
        nodes=2, storage_nodes=storage_nodes, replication_factor=rf))
    platform.register_function(lambda: make_app("markdown"),
                               start_technique="prebake")
    return world, platform


class TestDegradedRestores:
    def test_rf2_cold_start_survives_a_node_kill_without_fallback(self):
        world, platform = _sharded_platform(rf=2)
        kernel = world.kernel
        assert platform.invoke("markdown").status == 200
        platform.deployer.terminate_all("markdown")
        platform.shard_store.fail_node("store-0", down_for_ms=600_000.0)
        response = platform.invoke("markdown")
        assert response.status == 200
        metrics = kernel.obs.metrics
        assert metrics.value("restore_degraded_total") >= 1
        assert metrics.value("prebake_fallback_total") == 0
        assert metrics.value("shard_fetch_retry_hops_total") >= 1

    def test_rf1_node_kill_rides_the_fallback_ladder(self):
        world, platform = _sharded_platform(rf=1)
        kernel = world.kernel
        assert platform.invoke("markdown").status == 200
        platform.deployer.terminate_all("markdown")
        # Kill the node holding the most of this image; with RF=1 its
        # windows are unobtainable, so prebake must fall back.
        balance = platform.shard_store.balance()
        victim = max(balance, key=balance.get)
        platform.shard_store.fail_node(victim, down_for_ms=600_000.0)
        response = platform.invoke("markdown")
        assert response.status == 200          # vanilla start saved it
        metrics = kernel.obs.metrics
        assert metrics.value("prebake_fallback_total") >= 1
        assert metrics.value(
            "criu_restore_failures_total", {"reason": "shard"}) >= 1

    def test_rf1_single_node_store_is_byte_identical_to_unsharded(self):
        """The acceptance pin: a clean single-shard RF=1 store charges
        the exact unsharded restore costs — same seeds, same clock."""
        sequences = []
        for sharded in (False, True):
            world = make_world(seed=42)
            kernel = world.kernel
            store = SnapshotStore()
            prebaker = Prebaker(kernel, store)
            report = prebaker.bake(make_app("markdown"), policy=AfterReady())
            shard_store = None
            if sharded:
                shard_store = ShardedSnapshotStore(kernel, node_count=1,
                                                   replication_factor=1)
                shard_store.register_image(store.layered(report.key),
                                           merkle=store.merkle(report.key))
            starter = PrebakeStarter(kernel, store, policy=AfterReady(),
                                     shard_store=shard_store)
            sequences.append([
                starter.start(make_app("markdown")).startup_ms("ready")
                for _ in range(5)
            ])
        assert sequences[0] == sequences[1]


    def test_rf1_single_node_store_emits_the_unsharded_cache_accounting(
            self):
        """Both restore passes report cache effectiveness through one
        helper: same counters, gauges and flight-event attributes."""
        series = ("chunk_cache_lookups_total", "chunk_cache_hits_total",
                  "chunk_cache_misses_total", "chunk_cache_hit_ratio",
                  "chunk_cache_used_bytes")
        outcomes = []
        for sharded in (False, True):
            world = make_world(seed=42, observe=True)
            kernel = world.kernel
            flight = obs.install_flight(kernel)
            store = SnapshotStore()
            report = Prebaker(kernel, store).bake(make_app("markdown"),
                                                  policy=AfterReady())
            image = store.get(report.key)
            shard_store = None
            if sharded:
                shard_store = ShardedSnapshotStore(kernel, node_count=1,
                                                   replication_factor=1)
                shard_store.register_image(store.layered(report.key),
                                           merkle=store.merkle(report.key))
            engine = RestoreEngine(kernel, cache_policy=FREQ_OVER_SIZE,
                                   shard_store=shard_store)
            for _ in range(2):                 # cold, then fully cached
                engine.restore(image)
            events = flight.events(obs.flight.CACHE_LOOKUP)
            assert [e.attrs["image"] for e in events] == [image.image_id] * 2
            outcomes.append((
                {name: kernel.obs.metrics.value(name) for name in series},
                [{k: v for k, v in e.attrs.items() if k != "image"}
                 for e in events]))
        assert outcomes[0] == outcomes[1]
        counters, attrs = outcomes[0]
        assert counters["chunk_cache_hits_total"] > 0
        assert counters["chunk_cache_misses_total"] > 0
        assert attrs[0]["hit_fraction"] < 1.0 == attrs[1]["hit_fraction"]


# ---------------------------------------------------------------------------
# X10 shard-chaos experiment
# ---------------------------------------------------------------------------


class TestShardChaosExperiment:
    def test_rf2_node_kills_cause_zero_failed_requests(self):
        from repro.bench.shard_chaos import shard_chaos_experiment
        result = shard_chaos_experiment(
            replication_factors=(2,), failure_rates=(0.0, 0.5),
            repetitions=2, requests_per_rep=4)
        assert result.failed_at_rf2_plus() == 0
        faulty = result.treatment(2, 0.5)
        assert faulty.requests == 8
        assert faulty.successes == 8
        assert faulty.degraded_restores + faulty.fallbacks >= 1
        rendered = result.render()
        assert "RF>=2 failed requests: 0" in rendered
        assert "fault schedule digest:" in rendered

    def test_sweep_is_deterministic_for_a_seed(self):
        from repro.bench.shard_chaos import shard_chaos_experiment
        runs = [
            shard_chaos_experiment(replication_factors=(2,),
                                   failure_rates=(0.5,),
                                   repetitions=1, requests_per_rep=3)
            for _ in range(2)
        ]
        assert runs[0].render() == runs[1].render()
        assert runs[0].sweep_digest() == runs[1].sweep_digest()


# ---------------------------------------------------------------------------
# Satellites: eviction counter, ghost promotion, FaultPlan.of typos
# ---------------------------------------------------------------------------


class TestNodeCacheEvictionCounter:
    def test_layer_pull_evictions_are_exported_per_node(self):
        world, platform = _sharded_platform(rf=1, storage_nodes=1)
        kernel = world.kernel
        # Pin both node caches far below the snapshot size so the pull
        # accounting must evict (LRU admits unconditionally).
        for node in ("node-0", "node-1"):
            platform.deployer._node_chunk_cache[node] = HotChunkCache(
                capacity_bytes=256 * 1024, policy=LRU)
        platform.invoke("markdown")
        metrics = kernel.obs.metrics
        total = metrics.value("deployer_node_cache_eviction_total")
        assert total > 0
        per_node = sum(
            metrics.value("deployer_node_cache_eviction_total",
                          {"node": node})
            for node in ("node-0", "node-1"))
        assert per_node == total               # always labeled by node

    def test_counter_exports_deltas_not_running_totals(self):
        world, platform = _sharded_platform(rf=1, storage_nodes=1)
        kernel = world.kernel
        for node in ("node-0", "node-1"):
            platform.deployer._node_chunk_cache[node] = HotChunkCache(
                capacity_bytes=256 * 1024, policy=LRU)
        platform.invoke("markdown")
        first = kernel.obs.metrics.value("deployer_node_cache_eviction_total")
        platform.deployer.terminate_all("markdown")
        platform.invoke("markdown")
        second = kernel.obs.metrics.value("deployer_node_cache_eviction_total")
        caches = platform.deployer._node_chunk_cache.values()
        true_evictions = sum(c.stats.evictions for c in caches)
        assert second >= first
        assert second == true_evictions        # delta export, no double count


class TestGhostHistoryPromotion:
    def test_repeated_layer_pulls_promote_a_rejected_chunk(self):
        """freq-over-size keeps frequency for non-resident chunks, so
        a layer pulled often enough displaces a colder resident one."""
        cache = HotChunkCache(capacity_bytes=100)
        hot_layer = [("chunk-hot", 60)]
        cold_layer = [("chunk-cold", 60)]
        for _ in range(3):                     # hot layer pulled 3 times
            for cid, size in hot_layer:
                cache.lookup(cid, size)
        assert cache.contains("chunk-hot")
        # First two pulls of the other layer: score 1/60 then 2/60
        # never beats the resident 3/60, so admission rejects — but the
        # ghost history remembers each attempt.
        for expected_reject in (1, 2):
            for cid, size in cold_layer:
                assert not cache.lookup(cid, size)
            assert not cache.contains("chunk-cold")
            assert cache.stats.admission_rejects == expected_reject
        # Third pull: the ghost frequency ties the resident score and
        # the newcomer wins the slot.
        for cid, size in cold_layer:
            cache.lookup(cid, size)
        assert cache.contains("chunk-cold")
        assert not cache.contains("chunk-hot")
        assert cache.stats.evictions == 1

    def test_ghost_history_survives_while_not_resident(self):
        cache = HotChunkCache(capacity_bytes=100)
        cache.lookup("resident", 80)
        for _ in range(5):
            cache.lookup("ghost", 90)          # never fits alongside
        # The ghost's remembered frequency lets it take over the cache
        # in one admission once it finally beats the resident score.
        assert cache.contains("ghost")
        assert not cache.contains("resident")


class TestFaultPlanOf:
    def test_unknown_site_keyword_is_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan.of(bogus_site=0.5)

    def test_typo_of_a_real_site_is_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan.of(store_node_downn=0.5)

    def test_store_sites_map_through_underscore_keywords(self):
        plan = FaultPlan.of(store_node_down=0.2, store_partition=0.1,
                            store_slow_shard=0.3)
        assert plan.specs[STORE_NODE_DOWN].probability == 0.2
        assert plan.specs[STORE_PARTITION].probability == 0.1
        assert plan.specs[STORE_SLOW_SHARD].probability == 0.3
