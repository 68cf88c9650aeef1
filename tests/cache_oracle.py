"""Reference node-cache models for differential tests.

Three caches the platform and the studies used before they shared
:class:`repro.criu.chunkcache.HotChunkCache`:

* :class:`StampedChunkCache` — the stamp-based ``HotChunkCache``:
  every access writes a monotonic lookup counter into the entry, and
  victims are picked by an O(n) ``min`` over those stamps.
* :class:`ImageLRU` — X13's whole-image LRU (sizes in MiB): a touch
  inserts first and then evicts the oldest other entries.
* :class:`FleetNodeLRU` — X12's per-node dict LRU over equal-size
  chunks, with the ``coverage`` row (bytes of each function's image
  resident on the node) kept in step on admission and eviction.

They are kept verbatim in behaviour, only renamed, so the tests can
check the shared cache step by step against each of them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.criu.chunkcache import (
    _MAX_GHOST_ENTRIES,
    FREQ_OVER_SIZE,
    LRU,
    POLICIES,
    CacheStats,
)


class StampedChunkCache:
    """The stamp-based ``HotChunkCache``: ``cid -> (size, stamp)``."""

    def __init__(self, capacity_bytes: int, policy: str = FREQ_OVER_SIZE
                 ) -> None:
        assert policy in POLICIES and capacity_bytes > 0
        self.capacity_bytes = capacity_bytes
        self.policy = policy
        self.stats = CacheStats()
        self._resident: Dict[object, Tuple[int, int]] = {}
        self._freq: Dict[object, int] = {}
        self._used_bytes = 0
        self._tick = 0

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    def resident_order(self) -> List[Tuple[object, int]]:
        """(cid, size) pairs, least recently used first."""
        return [(cid, entry[0]) for cid, entry in
                sorted(self._resident.items(), key=lambda kv: kv[1][1])]

    def lookup(self, chunk_id, size_bytes: int) -> bool:
        self._tick += 1
        self.stats.lookups += 1
        freq = self._freq.get(chunk_id, 0) + 1
        self._freq[chunk_id] = freq
        if len(self._freq) > _MAX_GHOST_ENTRIES:
            self._trim_ghosts()
        if chunk_id in self._resident:
            self.stats.hits += 1
            self.stats.hit_bytes += size_bytes
            self._resident[chunk_id] = (size_bytes, self._tick)
            return True
        self.stats.misses += 1
        self.stats.miss_bytes += size_bytes
        self._admit(chunk_id, size_bytes, freq)
        return False

    def prefetch(self, chunk_id, size_bytes: int) -> bool:
        self._tick += 1
        freq = self._freq.get(chunk_id, 0) + 1
        self._freq[chunk_id] = freq
        if len(self._freq) > _MAX_GHOST_ENTRIES:
            self._trim_ghosts()
        if chunk_id in self._resident:
            self._resident[chunk_id] = (size_bytes, self._tick)
            return True
        self._admit(chunk_id, size_bytes, freq)
        admitted = chunk_id in self._resident
        if admitted:
            self.stats.prefetches += 1
            self.stats.prefetch_bytes += size_bytes
        return admitted

    def _score(self, chunk_id, size_bytes: int) -> float:
        return self._freq.get(chunk_id, 0) / max(1, size_bytes)

    def _admit(self, chunk_id, size_bytes: int, freq: int) -> None:
        if size_bytes > self.capacity_bytes:
            self.stats.admission_rejects += 1
            return
        while self._used_bytes + size_bytes > self.capacity_bytes:
            victim = self._pick_victim()
            if victim is None:
                self.stats.admission_rejects += 1
                return
            if (self.policy == FREQ_OVER_SIZE
                    and self._score(chunk_id, size_bytes)
                    < self._score(victim, self._resident[victim][0])):
                self.stats.admission_rejects += 1
                return
            self._evict(victim)
        self._resident[chunk_id] = (size_bytes, self._tick)
        self._used_bytes += size_bytes

    def _pick_victim(self) -> Optional[object]:
        if not self._resident:
            return None
        if self.policy == LRU:
            return min(self._resident, key=lambda cid: self._resident[cid][1])
        return min(
            self._resident,
            key=lambda cid: (self._score(cid, self._resident[cid][0]),
                             self._resident[cid][1]),
        )

    def _evict(self, chunk_id) -> None:
        size, _ = self._resident.pop(chunk_id)
        self._used_bytes -= size
        self.stats.evictions += 1

    def _trim_ghosts(self) -> None:
        ghosts = sorted(
            (cid for cid in self._freq if cid not in self._resident),
            key=lambda cid: self._freq[cid],
        )
        for cid in ghosts[:len(ghosts) // 2]:
            del self._freq[cid]


class ImageLRU:
    """X13's whole-image LRU standing in for a node's chunk cache."""

    def __init__(self, capacity_mib: float) -> None:
        self.capacity_mib = float(capacity_mib)
        self._resident: Dict[int, float] = {}   # fid -> MiB, LRU-ordered
        self._used_mib = 0.0

    def admit(self, fid: int, mib: float) -> bool:
        """Touch ``fid``; returns True when it was already resident."""
        present = fid in self._resident
        if present:
            del self._resident[fid]            # move-to-end bump
        else:
            self._used_mib += mib
        self._resident[fid] = mib
        while self._used_mib > self.capacity_mib and len(self._resident) > 1:
            victim, size = next(iter(self._resident.items()))
            if victim == fid:
                break
            del self._resident[victim]
            self._used_mib -= size
        return present

    def resident_order(self) -> List[int]:
        return list(self._resident)


class FleetNodeLRU:
    """X12's per-node chunk LRU plus that node's coverage row."""

    def __init__(self, capacity_bytes: int, chunk_bytes: int,
                 chunk_funcs: List[np.ndarray], functions: int) -> None:
        self.capacity_bytes = capacity_bytes
        self.chunk_bytes = chunk_bytes
        self.chunk_funcs = chunk_funcs
        self.cache: Dict[int, None] = {}
        self.cache_bytes = 0
        self.coverage = np.zeros(functions)

    def access(self, cid: int) -> bool:
        """One restore-time chunk access; True on a hit."""
        cache = self.cache
        if cid in cache:
            del cache[cid]
            cache[cid] = None
            return True
        self._admit(cid)
        return False

    def _admit(self, cid: int) -> None:
        cache = self.cache
        cache[cid] = None
        self.cache_bytes += self.chunk_bytes
        self.coverage[self.chunk_funcs[cid]] += self.chunk_bytes
        while self.cache_bytes > self.capacity_bytes:
            victim = next(iter(cache))
            del cache[victim]
            self.cache_bytes -= self.chunk_bytes
            self.coverage[self.chunk_funcs[victim]] -= self.chunk_bytes

    def resident_order(self) -> List[int]:
        return list(self.cache)
