"""Content-addressed page storage and layered checkpoint images.

The monolithic ``pages-1.img`` of a :class:`CheckpointImage` dumps the
full resident set per snapshot, so a registry of N functions sharing a
runtime stores the runtime's pages N times. This module refactors that
into the layout real registries use:

* :class:`PageStore` — a refcounted chunk store keyed by a SHA over
  page content tags (see :func:`repro.osproc.memory.page_content_key`).
  Chunks are fixed windows of :data:`CHUNK_PAGES` pages within one VMA;
  two snapshots whose windows carry identical content share one chunk.
* :class:`LayeredImage` — an OCI-style manifest splitting one snapshot
  into a *runtime base* layer (JVM text/heap/metaspace and friends),
  a *function code* layer, and — for warm snapshots with a stored
  ready-state sibling — a *warm delta* layer computed with
  :mod:`repro.criu.imgdiff`.

Everything here is pure bookkeeping: no simulated time is charged and
no RNG stream is consumed, so layering a store changes no experiment
output.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.criu.images import CheckpointImage, VMADescriptor
from repro.criu.imgdiff import diff_images
from repro.osproc.memory import PAGE_SIZE, TAGS, VMAKind

# Pages per content-addressed chunk (64 pages = 256 KiB), the dedup
# granularity. Coarser chunks mean fewer hashes but less sharing.
CHUNK_PAGES = 64

# Canonical layer names, most-shared first.
RUNTIME_BASE_LAYER = "runtime-base"
FUNCTION_CODE_LAYER = "function-code"
WARM_DELTA_LAYER = "warm-delta"

# VMA kinds whose contents come from the runtime image rather than the
# deployed function: text, class metadata, stacks, vdso. Their chunks
# dedup across every function on the same runtime.
_RUNTIME_BASE_KINDS = {
    VMAKind.CODE.value,
    VMAKind.METASPACE.value,
    VMAKind.STACK.value,
    VMAKind.VDSO.value,
}


def chunk_id(kind: str, prot: str,
             pairs: Sequence[Tuple[int, str]]) -> str:
    """Content identity of one chunk window.

    Hashes the window's page content keys at their *relative* offsets
    plus the mapping's kind/protection — deliberately excluding the
    VMA's address and label so identical content dedups across
    functions whose mappings land at different addresses.

    The digest is computed over one joined byte string (identical bytes
    to the original per-page ``update`` sequence, so ids are stable
    across the vectorization) with content keys resolved through the
    interning table's key cache.
    """
    tags = TAGS
    keys = tags.keys_of(tags.intern_many([tag for _, tag in pairs]))
    body = "".join(
        f"|{rel_index}:{key}"
        for (rel_index, _), key in zip(pairs, keys)
    )
    return hashlib.sha256(f"{kind}|{prot}{body}".encode("utf-8")).hexdigest()


def _chunk_id_from_keys(prefix: str, rel_indices: Sequence[int],
                        keys: Sequence[str]) -> str:
    """``chunk_id`` fast path over pre-resolved content keys."""
    body = "".join(f"|{r}:{k}" for r, k in zip(rel_indices, keys))
    return hashlib.sha256((prefix + body).encode("utf-8")).hexdigest()


@dataclass
class PageChunk:
    """One stored chunk: identity plus the tags needed to rebuild it."""

    chunk_id: str
    kind: str
    prot: str
    pairs: Tuple[Tuple[int, str], ...]  # (relative page index, content tag)

    @property
    def page_count(self) -> int:
        return len(self.pairs)

    @property
    def size_bytes(self) -> int:
        return self.page_count * PAGE_SIZE


@dataclass(frozen=True)
class ChunkRef:
    """A layered image's pointer to one chunk of one VMA."""

    vma_index: int     # position in CheckpointImage.vmas
    window_start: int  # absolute index of the window's first page
    chunk_id: str
    page_count: int

    @property
    def size_bytes(self) -> int:
        return self.page_count * PAGE_SIZE


@dataclass
class SnapshotLayer:
    """One layer of a layered snapshot image."""

    name: str
    chunk_refs: Tuple[ChunkRef, ...] = ()

    @property
    def page_count(self) -> int:
        return sum(ref.page_count for ref in self.chunk_refs)

    @property
    def logical_bytes(self) -> int:
        return self.page_count * PAGE_SIZE


@dataclass
class LayeredImage:
    """A snapshot decomposed into content-addressed layers."""

    image_id: str
    layers: List[SnapshotLayer] = field(default_factory=list)

    def layer(self, name: str) -> Optional[SnapshotLayer]:
        for layer in self.layers:
            if layer.name == name:
                return layer
        return None

    @property
    def chunk_refs(self) -> List[ChunkRef]:
        return [ref for layer in self.layers for ref in layer.chunk_refs]

    def ref_at(self, vma_index: int, window_start: int) -> Optional[ChunkRef]:
        """O(1) lookup of the ref covering one chunk window.

        The index is built lazily on first use and reused after — the
        targeted repair path resolves each dirty page to its chunk
        window without scanning the manifest.
        """
        index = self.__dict__.get("_ref_index")
        if index is None:
            index = {(ref.vma_index, ref.window_start): ref
                     for ref in self.chunk_refs}
            self.__dict__["_ref_index"] = index
        return index.get((vma_index, window_start))

    @property
    def chunk_ids(self) -> List[str]:
        return [ref.chunk_id for ref in self.chunk_refs]

    @property
    def logical_bytes(self) -> int:
        return sum(layer.logical_bytes for layer in self.layers)

    @property
    def manifest_digest(self) -> str:
        hasher = hashlib.sha256()
        for layer in self.layers:
            hasher.update(layer.name.encode("utf-8"))
            for ref in layer.chunk_refs:
                hasher.update(ref.chunk_id.encode("utf-8"))
        return hasher.hexdigest()

    def summary(self) -> str:
        parts = [
            f"{layer.name}={layer.logical_bytes / (1024 * 1024):.1f}MiB"
            for layer in self.layers if layer.chunk_refs
        ]
        return f"{self.image_id}: " + " ".join(parts)


class PageStore:
    """Refcounted content-addressed chunk storage.

    ``physical_bytes`` counts every distinct chunk once;
    ``logical_bytes`` counts each reference, i.e. what monolithic
    storage would hold. ``dedup_ratio`` is logical/physical — above 1.0
    whenever snapshots share content.
    """

    def __init__(self, chunk_pages: int = CHUNK_PAGES) -> None:
        if chunk_pages < 1:
            raise ValueError(f"chunk_pages must be >= 1, got {chunk_pages}")
        self.chunk_pages = chunk_pages
        self._chunks: Dict[str, PageChunk] = {}
        self._refs: Dict[str, int] = {}
        self.dedup_hits = 0  # add() calls resolved by an existing chunk

    # -- chunk lifecycle ---------------------------------------------------------

    def add(self, kind: str, prot: str,
            pairs: Sequence[Tuple[int, str]],
            cid: Optional[str] = None) -> str:
        """Store (or reference) one chunk window; returns its id.

        ``cid`` lets callers that already hold the window's identity
        (the memoized :func:`image_windows` walk) skip re-hashing it.
        """
        pairs = tuple(pairs)
        if cid is None:
            cid = chunk_id(kind, prot, pairs)
        if cid in self._chunks:
            self.dedup_hits += 1
        else:
            self._chunks[cid] = PageChunk(chunk_id=cid, kind=kind,
                                          prot=prot, pairs=pairs)
        self._refs[cid] = self._refs.get(cid, 0) + 1
        return cid

    def release(self, cid: str) -> None:
        """Drop one reference; the chunk is freed at refcount zero."""
        refs = self._refs.get(cid)
        if refs is None:
            raise KeyError(f"release of unreferenced chunk {cid[:12]}...")
        if refs <= 1:
            del self._refs[cid]
            del self._chunks[cid]
        else:
            self._refs[cid] = refs - 1

    def chunk(self, cid: str) -> PageChunk:
        chunk = self._chunks.get(cid)
        if chunk is None:
            raise KeyError(f"no chunk {cid[:12]}... in page store")
        return chunk

    def contains(self, cid: str) -> bool:
        return cid in self._chunks

    def refcount(self, cid: str) -> int:
        return self._refs.get(cid, 0)

    # -- accounting --------------------------------------------------------------

    @property
    def chunk_count(self) -> int:
        return len(self._chunks)

    @property
    def physical_bytes(self) -> int:
        return sum(c.size_bytes for c in self._chunks.values())

    @property
    def logical_bytes(self) -> int:
        return sum(self._chunks[cid].size_bytes * refs
                   for cid, refs in self._refs.items())

    @property
    def dedup_ratio(self) -> float:
        physical = self.physical_bytes
        return self.logical_bytes / physical if physical else 1.0


# ---------------------------------------------------------------------------
# Layering
# ---------------------------------------------------------------------------

def image_windows(
    image: CheckpointImage,
    chunk_pages: int = CHUNK_PAGES,
) -> Tuple[Tuple[int, int, Tuple[Tuple[int, str], ...], str], ...]:
    """Chunk windows of ``image`` with their identities, memoized.

    Returns ``(vma_index, window_start, pairs, chunk_id)`` per window.
    The window split is one vectorized pass over each descriptor's
    resident indices (no per-page Python walk), content keys resolve
    through the interning table once per VMA, and the result is cached
    on the image instance keyed by its mutation ``generation`` (bumped
    by :meth:`CheckpointImage.tamper` and repairs) — so layering,
    restore planning and the hot-chunk cache all share one walk per
    snapshot. Pure bookkeeping — no simulated time, no RNG.
    """
    generation = getattr(image, "generation", 0)
    cached = image.__dict__.get("_window_cache")
    if cached is not None and cached[0] == (generation, chunk_pages):
        return cached[1]
    out: List[Tuple[int, int, Tuple[Tuple[int, str], ...], str]] = []
    for vma_index, vma in enumerate(image.vmas):
        count = len(vma.resident_indices)
        if count == 0:
            continue
        indices = vma.index_array
        keys = TAGS.keys_of(vma.tag_ids)
        starts = (indices // chunk_pages) * chunk_pages
        rel = (indices - starts).tolist()
        # Window boundaries: positions where the chunk-aligned start
        # changes (resident indices are ascending within a descriptor).
        bounds = (np.nonzero(np.diff(starts))[0] + 1).tolist()
        bounds.append(count)
        starts_list = starts.tolist()
        tags = vma.content_tags
        prefix = f"{vma.kind}|{vma.prot}"
        lo = 0
        for hi in bounds:
            cid = _chunk_id_from_keys(prefix, rel[lo:hi], keys[lo:hi])
            pairs = tuple(zip(rel[lo:hi], tags[lo:hi]))
            out.append((vma_index, starts_list[lo], pairs, cid))
            lo = hi
    result = tuple(out)
    image.__dict__["_window_cache"] = ((generation, chunk_pages), result)
    return result


def image_chunk_index(
    image: CheckpointImage,
    chunk_pages: int = CHUNK_PAGES,
) -> Tuple[Tuple[int, int, str, int], ...]:
    """Per-window chunk identities of ``image``, memoized on the image.

    Returns ``(vma_index, window_start, chunk_id, size_bytes)`` per
    chunk window — what the hot-chunk cache keys restore-time lookups
    on (a projection of :func:`image_windows`, memoized the same way).
    """
    generation = getattr(image, "generation", 0)
    cached = image.__dict__.get("_chunk_index_cache")
    if cached is not None and cached[0] == (generation, chunk_pages):
        return cached[1]
    index = tuple(
        (vma_index, window_start, cid, len(pairs) * PAGE_SIZE)
        for vma_index, window_start, pairs, cid
        in image_windows(image, chunk_pages)
    )
    image.__dict__["_chunk_index_cache"] = ((generation, chunk_pages), index)
    return index


def image_chunk_count(image: CheckpointImage,
                      chunk_pages: int = CHUNK_PAGES) -> int:
    """Number of content-addressed chunk windows ``image`` spans.

    The unit the restore profiler reports chunk-fetch work in: an
    eager restore materializes every window, whatever fraction of
    them dedup to already-resident chunks. O(1) after the first call
    (shares :func:`image_chunk_index`'s memo). Pure bookkeeping — no
    simulated time, no RNG.
    """
    return len(image_chunk_index(image, chunk_pages))


def _windows(vma: VMADescriptor,
             chunk_pages: int) -> Iterable[Tuple[int, List[Tuple[int, str]]]]:
    """Yield (window_start, [(relative index, tag), ...]) per chunk.

    Reference per-page walk, kept for tests and ad-hoc callers; the
    hot paths go through the vectorized :func:`image_windows`.
    """
    window_start = -1
    pairs: List[Tuple[int, str]] = []
    for index, tag in zip(vma.resident_indices, vma.content_tags):
        start = (index // chunk_pages) * chunk_pages
        if start != window_start:
            if pairs:
                yield window_start, pairs
            window_start, pairs = start, []
        pairs.append((index - start, tag))
    if pairs:
        yield window_start, pairs


def _vma_layer(vma: VMADescriptor, warm_labels: frozenset) -> str:
    if vma.label in warm_labels:
        return WARM_DELTA_LAYER
    if vma.kind in _RUNTIME_BASE_KINDS:
        return RUNTIME_BASE_LAYER
    return FUNCTION_CODE_LAYER


def warm_delta_labels(base: CheckpointImage,
                      warm: CheckpointImage) -> frozenset:
    """VMA labels whose contents changed between ready and warm dumps.

    Computed with :mod:`repro.criu.imgdiff`: a VMA goes to the
    warm-delta layer when warming added, removed or retagged any of its
    pages (or mapped it fresh).
    """
    diff = diff_images(base, warm)
    return frozenset(v.label for v in diff.vmas
                     if v.changed and v.status != "removed")


def layer_image(image: CheckpointImage, store: PageStore,
                base: Optional[CheckpointImage] = None) -> LayeredImage:
    """Decompose ``image`` into layers, registering chunks in ``store``.

    ``base`` is the ready-state snapshot of the same function, when
    one exists and ``image`` is warm; VMAs it warmed go to the
    warm-delta layer. Pure bookkeeping — consumes no simulated time.
    """
    warm_labels = frozenset()
    if base is not None and image.warm:
        warm_labels = warm_delta_labels(base, image)
    refs: Dict[str, List[ChunkRef]] = {
        RUNTIME_BASE_LAYER: [],
        FUNCTION_CODE_LAYER: [],
        WARM_DELTA_LAYER: [],
    }
    layer_names = [_vma_layer(vma, warm_labels) for vma in image.vmas]
    for vma_index, window_start, pairs, cid in image_windows(
            image, store.chunk_pages):
        vma = image.vmas[vma_index]
        store.add(vma.kind, vma.prot, pairs, cid=cid)
        refs[layer_names[vma_index]].append(ChunkRef(
            vma_index=vma_index,
            window_start=window_start,
            chunk_id=cid,
            page_count=len(pairs),
        ))
    return LayeredImage(
        image_id=image.image_id,
        layers=[SnapshotLayer(name, tuple(chunk_refs))
                for name, chunk_refs in refs.items()],
    )


def rebuild_vma_pages(
    image: CheckpointImage,
    layered: LayeredImage,
    store: PageStore,
) -> Dict[int, Tuple[Tuple[int, ...], Tuple[str, ...]]]:
    """Reconstruct each VMA's (resident_indices, content_tags) from chunks.

    The inverse of :func:`layer_image`; sorted by absolute page index so
    the result matches the descriptor layout a dump produces.
    """
    per_vma: Dict[int, List[Tuple[int, str]]] = {}
    for ref in layered.chunk_refs:
        chunk = store.chunk(ref.chunk_id)
        pages = per_vma.setdefault(ref.vma_index, [])
        for rel_index, tag in chunk.pairs:
            pages.append((ref.window_start + rel_index, tag))
    rebuilt: Dict[int, Tuple[Tuple[int, ...], Tuple[str, ...]]] = {}
    for vma_index in range(len(image.vmas)):
        pages = sorted(per_vma.get(vma_index, []))
        rebuilt[vma_index] = (
            tuple(i for i, _ in pages),
            tuple(t for _, t in pages),
        )
    return rebuilt
