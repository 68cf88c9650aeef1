"""Node-local hot-chunk cache for snapshot restores.

PR 3's content-addressed store makes snapshots *share* chunks; this
cache makes that sharing pay off at restore time. Each node keeps the
hot subset of registry chunks resident, so a replica restoring on a
node that recently restored the same function — or any function on the
same runtime base — fetches only the cold chunks from the registry.

Two policies:

* ``freq-over-size`` (default) — admission-controlled frequency cache:
  every lookup bumps a per-chunk frequency estimate (kept even for
  chunks not resident, like TinyLFU's ghost history); when the cache is
  full, a new chunk is admitted only if its frequency/size score beats
  the coldest resident chunk's, which protects the cache from one huge
  cold snapshot evicting many small hot chunks.
* ``lru`` — classic recency eviction, always admits.

The cache is deliberately deterministic (no RNG, no wall clock):
resident entries are kept in recency order (every access moves the
entry to the end of the dict), so identically seeded experiments
produce identical hit sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

FREQ_OVER_SIZE = "freq-over-size"
LRU = "lru"
POLICIES = (FREQ_OVER_SIZE, LRU)

# Default node cache: 256 MiB holds the paper's whole function set
# (largest snapshot 99.2 MiB) with room for churn; sweeps shrink it to
# force eviction pressure.
DEFAULT_CAPACITY_BYTES = 256 * 1024 * 1024

# Cap on the ghost frequency history so a long-lived node's bookkeeping
# stays bounded; coldest entries are dropped first.
_MAX_GHOST_ENTRIES = 65536


@dataclass
class CacheStats:
    """Cumulative effectiveness counters (what the metrics export)."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    hit_bytes: int = 0
    miss_bytes: int = 0
    evictions: int = 0
    admission_rejects: int = 0
    prefetches: int = 0
    prefetch_bytes: int = 0

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def byte_hit_ratio(self) -> float:
        total = self.hit_bytes + self.miss_bytes
        return self.hit_bytes / total if total else 0.0


class HotChunkCache:
    """Bounded chunk-id cache with a real admission/eviction policy."""

    def __init__(self, capacity_bytes: int = DEFAULT_CAPACITY_BYTES,
                 policy: str = FREQ_OVER_SIZE) -> None:
        if policy not in POLICIES:
            raise ValueError(
                f"unknown cache policy {policy!r}; known: {POLICIES}")
        if capacity_bytes <= 0:
            raise ValueError(
                f"capacity_bytes must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.policy = policy
        self.stats = CacheStats()
        # cid -> size, least recently used first.
        self._resident: Dict[str, int] = {}
        self._freq: Dict[str, int] = {}                  # ghost history too
        self._used_bytes = 0

    # -- inspection ----------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    @property
    def resident_chunks(self) -> int:
        return len(self._resident)

    def contains(self, chunk_id: str) -> bool:
        return chunk_id in self._resident

    # -- the one hot-path operation ------------------------------------------

    def lookup(self, chunk_id: str, size_bytes: int) -> bool:
        """One restore-time chunk access: hit check + admission on miss.

        Returns True when the chunk was already resident (served at
        node-local speed). On a miss the chunk has just been fetched
        from the registry, so the policy decides whether to keep it.
        """
        stats = self.stats
        stats.lookups += 1
        freq = self._freq
        freq[chunk_id] = freq.get(chunk_id, 0) + 1
        if len(freq) > _MAX_GHOST_ENTRIES:
            self._trim_ghosts()
        resident = self._resident
        if chunk_id in resident:
            stats.hits += 1
            stats.hit_bytes += size_bytes
            resident[chunk_id] = resident.pop(chunk_id)
            return True
        stats.misses += 1
        stats.miss_bytes += size_bytes
        self._admit(chunk_id, size_bytes)
        return False

    def prefetch(self, chunk_id: str, size_bytes: int) -> bool:
        """Warm-path admission without miss accounting.

        Predictive prefetch pushes a chunk the policy *expects* to be
        needed; it is not a restore-time access, so it must not skew
        the hit/miss effectiveness counters. The frequency estimate
        still bumps (a prefetched chunk is evidence of heat) and the
        normal admission policy applies. Returns True when the chunk
        is resident afterwards (already present counts as success).
        """
        self._freq[chunk_id] = self._freq.get(chunk_id, 0) + 1
        if len(self._freq) > _MAX_GHOST_ENTRIES:
            self._trim_ghosts()
        if chunk_id in self._resident:
            self._resident[chunk_id] = self._resident.pop(chunk_id)
            return True
        self._admit(chunk_id, size_bytes)
        admitted = chunk_id in self._resident
        if admitted:
            self.stats.prefetches += 1
            self.stats.prefetch_bytes += size_bytes
        return admitted

    # -- policy internals ----------------------------------------------------

    def _score(self, chunk_id: str, size_bytes: int) -> float:
        """Frequency-over-size: hot small chunks are worth the most."""
        return self._freq.get(chunk_id, 0) / max(1, size_bytes)

    def _admit(self, chunk_id: str, size_bytes: int) -> None:
        # used_bytes always equals the resident sizes, so a chunk that
        # fits the capacity always finds a victim while it does not fit.
        if size_bytes > self.capacity_bytes:
            self.stats.admission_rejects += 1
            return
        resident = self._resident
        while self._used_bytes + size_bytes > self.capacity_bytes:
            if self.policy == LRU:
                victim = next(iter(resident))
            else:
                # freq-over-size; among equal scores ``min`` keeps the
                # first, i.e. least recent, entry, so ties age out in
                # access order.
                victim = min(resident,
                             key=lambda cid: self._score(cid, resident[cid]))
                if (self._score(chunk_id, size_bytes)
                        < self._score(victim, resident[victim])):
                    # The incoming chunk is colder than the coldest
                    # resident one: keep the cache as is (TinyLFU-style
                    # admission).
                    self.stats.admission_rejects += 1
                    return
            self._evict(victim)
        resident[chunk_id] = size_bytes
        self._used_bytes += size_bytes

    def _evict(self, chunk_id: str) -> None:
        size = self._resident.pop(chunk_id)
        self._used_bytes -= size
        self.stats.evictions += 1

    def _trim_ghosts(self) -> None:
        """Drop the coldest non-resident history entries."""
        ghosts = sorted(
            (cid for cid in self._freq if cid not in self._resident),
            key=lambda cid: self._freq[cid],
        )
        for cid in ghosts[:len(ghosts) // 2]:
            del self._freq[cid]


def make_cache(policy: Optional[str],
               capacity_bytes: int = DEFAULT_CAPACITY_BYTES
               ) -> Optional[HotChunkCache]:
    """Build a cache from a knob value (None/"none"/"off" -> no cache)."""
    if policy is None or policy in ("none", "off", ""):
        return None
    return HotChunkCache(capacity_bytes=capacity_bytes, policy=policy)
