"""``TraceReplay`` against the request loops it replaced.

The engine must reproduce X13's ``_PolicySim`` exactly (counters,
per-function waste, every provisioner call) and differ from X12's
``_Fleet.run`` only in the pick order and the idle clock. Invariants
are checked after every arrival for both studies' setups.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.fleet_study import FleetStudyConfig, _Fleet
from repro.bench.prewarm_study import (
    POLICY_LADDER,
    PrewarmStudyConfig,
    _build_policy,
    _ImageProvisioner,
    _image_sizes,
    _synthesize_prewarm_trace,
    _window_counts,
)
from repro.bench.traces import synthesize_fleet_workload
from repro.faas.replay import TraceReplay
from repro.predict.policy import FixedKeepAlivePolicy, PrewarmPolicy
from repro.sim.costmodel import DEFAULT_COST_MODEL
from tests.replay_oracle import FleetRunReference, PolicySimReference


class FakeProvisioner:
    """Deterministic provisioner that logs every call."""

    def __init__(self, nodes: int = 1) -> None:
        self.nodes = nodes
        self.calls = []

    def _provision(self, kind, t, fid):
        k = len(self.calls)
        self.calls.append((kind, t, fid))
        return k % self.nodes, 1.0 + (7 * k + 3 * fid) % 40

    def cold_start(self, t, fid):
        return self._provision("cold", t, fid)

    def prewarm(self, t, fid):
        return self._provision("prewarm", t, fid)

    def refresh(self, fid):
        self.calls.append(("refresh", fid))


class ScriptedPolicy(PrewarmPolicy):
    """Keep-alives and warm targets cycled per window from fixed
    vectors, plus an optional fixed prewarm schedule per function."""

    name = "scripted"

    def __init__(self, keepalives, targets, schedules, singletons):
        self.keepalives = keepalives
        self.targets = targets
        self.schedules = schedules
        self.prewarm_singletons = singletons
        self.windows = [0] * len(keepalives)
        self.gaps = []

    def note_gap(self, key, gap_ms):
        self.gaps.append((key, gap_ms))

    def observe_window(self, key, count):
        self.windows[key] += 1

    def keepalive_ms(self, key):
        seq = self.keepalives[key]
        return seq[self.windows[key] % len(seq)]

    def target_warm(self, key):
        seq = self.targets[key]
        return seq[self.windows[key] % len(seq)]

    def prewarm_schedule(self, key):
        return self.schedules[key]


@st.composite
def replay_cases(draw):
    """A random trace, policy script and engine setup (one node)."""
    functions = draw(st.integers(min_value=1, max_value=4))
    timers = draw(st.integers(min_value=0, max_value=1))
    n = functions + timers
    duration = float(draw(st.sampled_from((500, 1000, 2000))))
    # Integer instants make exact ties (expiry == arrival, equal idle
    # clocks) common; fractional ones cover the general case.
    instant = st.one_of(
        st.integers(min_value=0, max_value=int(duration) - 1).map(float),
        st.floats(min_value=0.0, max_value=duration,
                  exclude_max=True, allow_nan=False))
    arrivals = draw(st.lists(
        st.tuples(instant, st.integers(min_value=0, max_value=n - 1)),
        max_size=60))
    arrivals.sort(key=lambda a: a[0])
    keepalive = st.sampled_from((0.0, 30.0, 100.0, 250.0, 1000.0))
    keepalives = draw(st.lists(st.lists(keepalive, min_size=1, max_size=3),
                               min_size=n, max_size=n))
    target = st.integers(min_value=0, max_value=5)
    targets = draw(st.lists(st.lists(target, min_size=1, max_size=3),
                            min_size=n, max_size=n))
    schedule = st.one_of(st.none(), st.tuples(
        st.sampled_from((0.0, 50.0, 150.0, 400.0)),
        st.sampled_from((0.0, 20.0, 100.0, 300.0))))
    schedules = draw(st.lists(schedule, min_size=n, max_size=n))
    config = PrewarmStudyConfig(
        functions=functions, timer_functions=timers,
        requests=len(arrivals), duration_ms=duration,
        window_ms=float(draw(st.sampled_from((50, 100, 300)))),
        service_ms=float(draw(st.sampled_from((10, 40, 150)))),
        max_replicas=draw(st.integers(min_value=1, max_value=4)),
        prewarm_budget_per_window=draw(st.integers(min_value=0, max_value=3)))
    return dict(
        config=config,
        times=np.array([a[0] for a in arrivals], dtype=np.float64),
        fids=np.array([a[1] for a in arrivals], dtype=np.int64),
        script=(keepalives, targets, schedules, draw(st.booleans())),
        tick=draw(st.booleans()))


def _replay(config, policy, provisioner, tick, nodes=1):
    return TraceReplay(
        policy, provisioner, functions=config.total_functions,
        service_ms=config.service_ms, max_replicas=config.max_replicas,
        nodes=nodes, window_ms=config.window_ms if tick else None,
        prewarm_budget=config.prewarm_budget_per_window)


def _assert_matches_reference(replay, reference):
    out = reference.outcome
    assert replay.cold_starts == out.cold_starts
    assert replay.warm_starts == out.warm_starts
    assert replay.queued == out.queued
    assert replay.prewarm_placements == out.prewarm_placements
    assert replay.wasted_ms == reference.wasted_ms.tolist()
    assert replay.ka == reference.ka
    assert replay.last_arrival == reference.last_arrival
    assert replay.sched_mark == reference.sched_mark
    # Rows agree past their first field (node here, an unread ready
    # time in the reference).
    assert ([[r[1:] for r in pool] for pool in replay.pools]
            == [[r[1:] for r in pool] for pool in reference.pools])


class Invariants:
    """Checks the pool invariants after every arrival of a replay."""

    def __init__(self, replay: TraceReplay) -> None:
        self.replay = replay
        self.arrivals = 0
        inner = replay._arrival

        def arrival(t, fid):
            inner(t, fid)
            self.arrivals += 1
            self.check()

        replay._arrival = arrival

    def check(self) -> None:
        r = self.replay
        assert r.warm_starts + r.cold_starts + r.queued == self.arrivals
        assert sum(r.requests) == self.arrivals
        assert sum(r.reused) == r.warm_starts + r.queued
        assert all(len(pool) <= r.max_replicas for pool in r.pools)
        rows = [0] * len(r.live)
        for pool in r.pools:
            for row in pool:
                rows[row[0]] += 1
        assert rows == r.live
        assert all(w >= 0.0 for w in r.wasted_ms)


class TestAgainstPolicySim:
    @settings(max_examples=300, deadline=None)
    @given(replay_cases())
    def test_scripted_policies_match_exactly(self, case):
        config, tick = case["config"], case["tick"]
        ours = FakeProvisioner()
        theirs = FakeProvisioner()
        policy = ScriptedPolicy(*case["script"])
        ref_policy = ScriptedPolicy(*case["script"])
        replay = _replay(config, policy, ours, tick)
        replay.run(case["times"], case["fids"], config.duration_ms)
        reference = PolicySimReference(config, ref_policy, theirs)
        reference.run(case["times"], case["fids"], tick)
        assert ours.calls == theirs.calls
        assert policy.gaps == ref_policy.gaps
        _assert_matches_reference(replay, reference)

    def test_study_ladder_matches_exactly(self):
        # The real policies and image provisioner on a reduced X13
        # trace: every outcome field and the provisioner state agree.
        config = PrewarmStudyConfig(functions=8, timer_functions=3,
                                    requests=4_000, duration_ms=900_000.0,
                                    horizon=8)
        times, fids = _synthesize_prewarm_trace(config, seed=3)
        image_mib = _image_sizes(config, seed=3)
        counts = _window_counts(config, times, fids)
        for name in POLICY_LADDER:
            tick = name in ("histogram", "learned", "oracle")
            ours = _ImageProvisioner(config, image_mib, DEFAULT_COST_MODEL,
                                     seed=11)
            theirs = _ImageProvisioner(config, image_mib, DEFAULT_COST_MODEL,
                                       seed=11)
            replay = _replay(config, _build_policy(name, config, 3, counts),
                             ours, tick)
            replay.run(times, fids, config.duration_ms)
            reference = PolicySimReference(
                config, _build_policy(name, config, 3, counts), theirs)
            reference.run(times, fids, tick)
            _assert_matches_reference(replay, reference)
            assert ours.cold_lats == theirs.cold_lats
            assert ours.cold_cache_hits == theirs.cold_cache_hits
            assert ours.timer_cold_starts == theirs.timer_cold_starts
            assert ours.prefetch_mib == theirs.prefetch_mib
            assert list(ours.cache._resident) == list(theirs.cache._resident)


class TestInvariants:
    @settings(max_examples=200, deadline=None)
    @given(replay_cases(), st.integers(min_value=1, max_value=3))
    def test_every_arrival_keeps_the_pools_consistent(self, case, nodes):
        config = case["config"]
        replay = _replay(config, ScriptedPolicy(*case["script"]),
                         FakeProvisioner(nodes), case["tick"], nodes=nodes)
        check = Invariants(replay)
        replay.run(case["times"], case["fids"], config.duration_ms)
        assert check.arrivals == case["times"].size
        check.check()

    def test_prewarm_study_setup(self):
        config = PrewarmStudyConfig(functions=8, timer_functions=3,
                                    requests=3_000, duration_ms=600_000.0,
                                    horizon=8)
        times, fids = _synthesize_prewarm_trace(config, seed=5)
        image_mib = _image_sizes(config, seed=5)
        counts = _window_counts(config, times, fids)
        for name in ("fixed", "learned", "oracle"):
            replay = _replay(
                config, _build_policy(name, config, 5, counts),
                _ImageProvisioner(config, image_mib, DEFAULT_COST_MODEL, 1),
                tick=name != "fixed")
            check = Invariants(replay)
            replay.run(times, fids, config.duration_ms)
            assert check.arrivals == times.size
            check.check()

    def test_fleet_study_setup(self):
        # A dense trace and two replicas per function, so the hot
        # functions queue as well as cold-start and reuse replicas.
        config = FleetStudyConfig(requests=3_000, functions=20,
                                  duration_ms=20_000.0, compute_nodes=4,
                                  storage_nodes=4, max_replicas=2)
        fleet = _Fleet(config, 7, DEFAULT_COST_MODEL)
        times, fids = synthesize_fleet_workload(
            function_count=config.functions, duration_ms=config.duration_ms,
            requests=config.requests, seed=7)
        check = Invariants(fleet.replay)
        fleet.replay.run(times, fids, config.duration_ms)
        assert check.arrivals == times.size
        assert fleet.replay.queued > 0
        assert min(fleet.replay.requests) > 0


class TestFleetPickOrder:
    """X12 moved from ``_Fleet.run``'s pool rules to the engine's."""

    def _both(self, times, keepalive_ms=1_000.0, max_replicas=2):
        times = np.array(times, dtype=np.float64)
        fids = np.zeros(times.size, dtype=np.int64)
        old = FleetRunReference(1, 2, keepalive_ms, 100.0, max_replicas,
                                FakeProvisioner(2))
        old.run(times, fids)
        new = TraceReplay(FixedKeepAlivePolicy(keepalive_ms),
                          FakeProvisioner(2), functions=1, service_ms=100.0,
                          max_replicas=max_replicas, nodes=2)
        new.run(times, fids, 10_000.0)
        return old, new

    def test_warm_pick_is_most_recently_idle(self):
        # Replica A (node 0) is busy until 101, B (node 1) until 109. At
        # t=500 both are free: the old loop took the first in pool
        # order (A); the engine takes the most recently idle one (B).
        old, new = self._both([0.0, 1.0, 500.0])
        assert old.provisioner.calls == new.provisioner.calls == [
            ("cold", 0.0, 0), ("cold", 1.0, 0)]
        assert old.requests == [2, 1] and old.warm == [1, 0]
        assert new.requests == [1, 2] and new.reused == [0, 1]

    def test_idle_clock_starts_when_service_ends(self):
        # One replica, busy until 101. At t=1050 the old loop counted
        # idle time from the arrival at 0 (expired at 1000); the engine
        # counts it from 101 (expires at 1101), so the request is warm.
        old, new = self._both([0.0, 1_050.0])
        assert [c[0] for c in old.provisioner.calls] == ["cold", "cold"]
        assert [c[0] for c in new.provisioner.calls] == ["cold"]
        assert new.warm_starts == 1
        assert old.node_load.tolist() == [0.0, 1.0]
        assert new.live == [1, 0]

    def test_same_outcome_without_a_choice(self):
        # Gaps far beyond service time and keep-alive leave no choice
        # to make: every arrival is a cold start under both rules.
        old, new = self._both([0.0, 2_000.0, 4_000.0, 6_000.0])
        assert old.provisioner.calls == new.provisioner.calls
        assert new.cold_starts == 4
        assert old.requests == new.requests
