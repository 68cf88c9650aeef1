"""The shared node cache against the caches it replaced.

``HotChunkCache`` keeps its entries in recency order instead of
stamping them; X12's per-node caches and X13's image cache are now
``HotChunkCache`` instances too. Each test drives the shared cache and
one reference from :mod:`tests.cache_oracle` with the same random
access sequence and compares them after every step.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.fleet_study import CHUNK_BYTES, _NodeCache
from repro.criu.chunkcache import LRU, POLICIES, HotChunkCache
from tests.cache_oracle import FleetNodeLRU, ImageLRU, StampedChunkCache

MIB = 1024 * 1024


def _assert_capacity_invariant(cache: HotChunkCache) -> None:
    resident_bytes = sum(cache._resident.values())
    assert cache.used_bytes == resident_bytes <= cache.capacity_bytes
    assert cache.resident_chunks == len(cache._resident)


@st.composite
def chunk_workloads(draw):
    """Capacity, policy, one size per chunk id, and an access sequence.

    A chunk id names content, so each id keeps one size. Sizes run
    past the capacity so oversized chunks are covered too, and often
    repeat so that freq-over-size scores tie.
    """
    capacity = draw(st.one_of(st.sampled_from((100, 200, 300)),
                              st.integers(min_value=1, max_value=400)))
    policy = draw(st.sampled_from(POLICIES))
    ids = draw(st.integers(min_value=1, max_value=10))
    size = st.one_of(st.sampled_from((50, 100, 200)),
                     st.integers(min_value=1, max_value=500))
    sizes = {f"c{i}": draw(size) for i in range(ids)}
    ops = draw(st.lists(
        st.tuples(st.sampled_from(("lookup", "prefetch")),
                  st.sampled_from(sorted(sizes))),
        min_size=20, max_size=200))
    return capacity, policy, sizes, ops


class TestAgainstStampedCache:
    @settings(max_examples=300, deadline=None)
    @given(chunk_workloads())
    def test_every_step_matches_the_stamped_reference(self, workload):
        capacity, policy, sizes, ops = workload
        cache = HotChunkCache(capacity_bytes=capacity, policy=policy)
        reference = StampedChunkCache(capacity_bytes=capacity, policy=policy)
        for op, cid in ops:
            got = getattr(cache, op)(cid, sizes[cid])
            want = getattr(reference, op)(cid, sizes[cid])
            assert got == want
            assert list(cache._resident.items()) == reference.resident_order()
            assert cache.used_bytes == reference.used_bytes
            assert cache.stats == reference.stats
            assert cache._freq == reference._freq
            _assert_capacity_invariant(cache)

    def test_hit_keeps_the_admitted_size(self):
        # A hit reporting another size must not desynchronise the byte
        # count from the resident entries.
        cache = HotChunkCache(capacity_bytes=1_000, policy=LRU)
        cache.lookup("a", 100)
        assert cache.lookup("a", 50) is True
        assert cache.stats.hit_bytes == 50
        _assert_capacity_invariant(cache)
        assert cache.used_bytes == 100


class TestAgainstImageLRU:
    """X13's regime: whole-MiB images, each no larger than the cache."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_lru_matches_the_whole_image_reference(self, data):
        capacity_mib = data.draw(st.integers(min_value=1, max_value=64))
        images = data.draw(st.lists(
            st.integers(min_value=1, max_value=capacity_mib),
            min_size=1, max_size=12))
        fids = data.draw(st.lists(
            st.integers(min_value=0, max_value=len(images) - 1),
            max_size=200))
        cache = HotChunkCache(capacity_mib * MIB, policy=LRU)
        reference = ImageLRU(capacity_mib)
        for fid in fids:
            mib = float(images[fid])
            assert cache.lookup(fid, int(mib) * MIB) == reference.admit(fid, mib)
            assert list(cache._resident) == reference.resident_order()
            assert cache.used_bytes == reference._used_mib * MIB
            _assert_capacity_invariant(cache)


class TestAgainstFleetNodeLRU:
    """X12's regime: equal-size chunks shared between functions."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_node_cache_matches_the_dict_lru_and_coverage(self, data):
        functions = data.draw(st.integers(min_value=1, max_value=5))
        chunks = data.draw(st.integers(min_value=1, max_value=12))
        chunk_funcs = [
            np.asarray(sorted(data.draw(st.sets(
                st.integers(min_value=0, max_value=functions - 1),
                min_size=1))), dtype=np.int64)
            for _ in range(chunks)]
        capacity = CHUNK_BYTES * data.draw(st.integers(min_value=1,
                                                       max_value=8))
        accesses = data.draw(st.lists(
            st.integers(min_value=0, max_value=chunks - 1), max_size=200))
        coverage = np.zeros((2, functions))
        cache = _NodeCache(capacity, coverage[1], chunk_funcs)
        reference = FleetNodeLRU(capacity, CHUNK_BYTES, chunk_funcs,
                                 functions)
        for cid in accesses:
            hit = cache.lookup(cid, CHUNK_BYTES)
            if not hit:
                # The fleet adds a fetched chunk's coverage on a miss.
                coverage[1][chunk_funcs[cid]] += CHUNK_BYTES
            assert hit == reference.access(cid)
            assert list(cache._resident) == reference.resident_order()
            assert cache.used_bytes == reference.cache_bytes
            assert np.array_equal(coverage[1], reference.coverage)
            assert not coverage[0].any()      # other nodes untouched
            _assert_capacity_invariant(cache)
