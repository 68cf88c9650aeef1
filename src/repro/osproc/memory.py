"""Virtual-memory model: pages, VMAs, address spaces, pagemap.

This is the data CRIU walks during a dump: the checkpoint engine reads
``/proc/<pid>/pagemap`` to find resident pages and copies them out of
the target address space. The model keeps enough structure for that
protocol to be exercised faithfully (per-VMA kind/protection, resident
page sets, dirty/soft-dirty bits, file-backed vs anonymous mappings)
without storing real page contents — a page stores a small content tag
so snapshot/restore round-trips are verifiable.

Data layout (DESIGN.md §15): the default :class:`VMA` keeps residency
as an array-of-struct pagemap — parallel numpy arrays for the
resident/dirty/soft-dirty bits plus an ``int32`` array of content-tag
ids interned in the process-wide :data:`TAGS` table — so the hot
operations (``touch_range``, dump walks, restore transmute, soft-dirty
clears) are single vectorized passes instead of a Python loop
allocating a ``Page`` object per page. The original dict-of-``Page``
implementation survives as :class:`SlowVMA`, selected with
``REPRO_SLOW_PAGEMAP=1`` (or :func:`set_slow_pagemap` at runtime) as
the reference the equivalence suite and the kernel-bench speedup gate
measure against. ``Page`` objects returned by either backend are
snapshots: mutating one never writes back to the pagemap.
"""

from __future__ import annotations

import functools
import hashlib
import os
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Type, Union

import numpy as np

PAGE_SIZE = 4096
PAGES_PER_MIB = (1024 * 1024) // PAGE_SIZE


@functools.lru_cache(maxsize=262144)
def page_content_key(content_tag: str) -> str:
    """Stable content identity of one page.

    The model stores a small *content tag* instead of real page bytes;
    hashing the tag gives the content-addressed identity a dedupling
    page store keys on — two pages with equal tags are "the same page"
    for storage purposes, exactly as equal 4 KiB blocks would be.

    Memoized: the tag string *is* the page identity, and chunking the
    same snapshot layers re-hashes the same tags on every bake/restore
    — profiling the restore sweep put this at the top of the flat
    profile. The cache is bounded so long multi-world benches cannot
    grow it without limit.
    """
    return hashlib.sha256(content_tag.encode("utf-8")).hexdigest()[:16]


class MemoryError_(Exception):
    """Address-space manipulation error (name avoids builtin clash)."""


class _TagTable:
    """Process-wide interning table for page content tags.

    Tags repeat enormously (every page of a populated mapping carries
    the same tag), so the pagemap stores 4-byte ids instead of string
    references and the content key of each distinct tag is computed
    exactly once. Interning is append-only; id 0 is always the empty
    tag, so freshly zeroed pagemap arrays start out correct.
    """

    __slots__ = ("_ids", "_tags", "_keys")

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {"": 0}
        self._tags: List[str] = [""]
        self._keys: List[str] = [page_content_key("")]

    def intern(self, tag: str) -> int:
        tid = self._ids.get(tag)
        if tid is None:
            tid = len(self._tags)
            self._ids[tag] = tid
            self._tags.append(tag)
            self._keys.append(page_content_key(tag))
        return tid

    def intern_many(self, tags: Sequence[str]) -> np.ndarray:
        """Intern a tag sequence; returns their ids as an int32 array."""
        ids = self._ids
        intern = self.intern
        return np.fromiter(
            (ids.get(t) if t in ids else intern(t) for t in tags),
            dtype=np.int32, count=len(tags),
        )

    def tag(self, tid: int) -> str:
        return self._tags[tid]

    def key(self, tid: int) -> str:
        """Cached :func:`page_content_key` of the interned tag."""
        return self._keys[tid]

    def tags_of(self, ids: np.ndarray) -> List[str]:
        tags = self._tags
        return [tags[i] for i in ids.tolist()]

    def keys_of(self, ids: np.ndarray) -> List[str]:
        keys = self._keys
        return [keys[i] for i in ids.tolist()]

    def __len__(self) -> int:
        return len(self._tags)


TAGS = _TagTable()

# Page tags as strings, or as an int32 array of ids interned in TAGS.
_Tags = Union[Sequence[str], np.ndarray]


class VMAKind(Enum):
    """What a mapping backs — drives dump/restore behaviour."""

    ANON = "anon"              # heap, malloc arenas
    FILE = "file"              # mmap'ed files (class files, shared libs)
    STACK = "stack"
    CODE = "code"              # executable text (incl. JIT code cache)
    METASPACE = "metaspace"    # class metadata (JVM)
    VDSO = "vdso"
    PARASITE = "parasite"      # CRIU-injected blob


@dataclass
class Page:
    """A resident 4 KiB page (a read-only snapshot in the fast backend)."""

    index: int                 # page index within its VMA
    content_tag: str = ""      # opaque identity used to verify round-trips
    dirty: bool = False
    soft_dirty: bool = False

    @property
    def content_key(self) -> str:
        """Content-addressed identity (see :func:`page_content_key`)."""
        return page_content_key(self.content_tag)


class _VMABase:
    """Geometry, validation and derived properties shared by both backends."""

    start: int
    length: int
    kind: VMAKind
    prot: str
    file_path: Optional[str]
    file_offset: int
    label: str

    def _init_common(
        self,
        start: int,
        length: int,
        kind: VMAKind,
        prot: str,
        file_path: Optional[str],
        file_offset: int,
        label: str,
    ) -> None:
        if length <= 0 or length % PAGE_SIZE:
            raise MemoryError_(f"VMA length must be a positive page multiple, got {length}")
        if start % PAGE_SIZE:
            raise MemoryError_(f"VMA start must be page aligned, got {hex(start)}")
        if kind is VMAKind.FILE and not file_path:
            raise MemoryError_("file-backed VMA requires file_path")
        self.start = start
        self.length = length
        self.kind = kind
        self.prot = prot
        self.file_path = file_path
        self.file_offset = file_offset
        self.label = label

    @property
    def end(self) -> int:
        return self.start + self.length

    @property
    def page_count(self) -> int:
        return self.length // PAGE_SIZE

    @property
    def resident_bytes(self) -> int:
        return self.resident_pages * PAGE_SIZE

    resident_pages: int  # both backends provide an O(1) implementation

    def overlaps(self, other: "_VMABase") -> bool:
        return self.start < other.end and other.start < self.end

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}(start={hex(self.start)}, "
                f"length={self.length}, kind={self.kind.value}, "
                f"label={self.label!r}, rss={self.resident_pages}p)")


class VMA(_VMABase):
    """A contiguous virtual memory area (vectorized pagemap backend).

    Residency lives in parallel numpy arrays indexed by page number;
    content tags are interned ids into :data:`TAGS`. All the bulk
    operations (:meth:`touch_range`, :meth:`dump_pages`,
    :meth:`populate_pages`, :meth:`clear_soft_dirty`) are single
    vectorized passes.
    """

    __slots__ = ("start", "length", "kind", "prot", "file_path",
                 "file_offset", "label", "_resident", "_dirty", "_soft",
                 "_tag_ids", "_resident_count")

    def __init__(
        self,
        start: int = 0,
        length: int = PAGE_SIZE,
        kind: VMAKind = VMAKind.ANON,
        prot: str = "rw-",
        file_path: Optional[str] = None,
        file_offset: int = 0,
        label: str = "",
    ) -> None:
        self._init_common(start, length, kind, prot, file_path, file_offset, label)
        n = length // PAGE_SIZE
        self._resident = np.zeros(n, dtype=bool)
        self._dirty = np.zeros(n, dtype=bool)
        self._soft = np.zeros(n, dtype=bool)
        self._tag_ids = np.zeros(n, dtype=np.int32)
        self._resident_count = 0

    # -- residency -----------------------------------------------------------

    @property
    def resident_pages(self) -> int:
        return self._resident_count

    def touch(self, page_index: int, content_tag: str = "", dirty: bool = True) -> Page:
        """Fault a page in (make it resident); returns a snapshot."""
        if not 0 <= page_index < self.page_count:
            raise MemoryError_(
                f"page index {page_index} out of range for VMA of {self.page_count} pages"
            )
        if self._resident[page_index]:
            if dirty:
                self._dirty[page_index] = True
            if content_tag:
                self._tag_ids[page_index] = TAGS.intern(content_tag)
        else:
            self._resident[page_index] = True
            self._dirty[page_index] = dirty
            self._tag_ids[page_index] = TAGS.intern(content_tag)
            self._resident_count += 1
        self._soft[page_index] = True
        return Page(
            index=page_index,
            content_tag=TAGS.tag(int(self._tag_ids[page_index])),
            dirty=bool(self._dirty[page_index]),
            soft_dirty=True,
        )

    def touch_range(self, first: int, count: int, content_tag: str = "") -> None:
        """Fault ``count`` pages starting at ``first`` in one pass."""
        if count <= 0:
            return
        if first < 0 or first + count > self.page_count:
            raise MemoryError_(
                f"page range [{first},{first + count}) out of range "
                f"for VMA of {self.page_count} pages"
            )
        window = slice(first, first + count)
        resident = self._resident[window]
        newly = count - int(resident.sum())
        if content_tag:
            self._tag_ids[window] = TAGS.intern(content_tag)
        # Empty tag: new pages keep tag id 0 (already zeroed), existing
        # pages keep their tag — nothing to write either way.
        self._resident[window] = True
        self._dirty[window] = True
        self._soft[window] = True
        self._resident_count += newly

    def populate_pages(self, indices: Sequence[int], tags: _Tags,
                       dirty: bool = False) -> None:
        """Bulk-equivalent of ``touch(i, tag, dirty)`` per (index, tag) pair.

        ``indices`` must be unique (descriptor order from a dump is).
        ``tags`` are strings or an int32 array of ids already interned
        in :data:`TAGS`. The restore transmute path passes a
        descriptor's cached arrays to rebuild a mapping's resident set
        in one vectorized pass.
        """
        count = len(indices)
        if count == 0:
            return
        idx = np.asarray(indices, dtype=np.int64)
        if int(idx.min()) < 0 or int(idx.max()) >= self.page_count:
            raise MemoryError_(
                f"page index out of range for VMA of {self.page_count} pages"
            )
        ids = tags if isinstance(tags, np.ndarray) else TAGS.intern_many(tags)
        was_resident = self._resident[idx]
        self._resident[idx] = True
        self._resident_count += count - int(was_resident.sum())
        if dirty:
            self._dirty[idx] = True
        # A non-empty tag always lands; an empty tag only initializes
        # newly resident pages (which hold id 0 already) — matching the
        # per-page touch semantics exactly.
        overwrite = ~was_resident | (ids != 0)
        if overwrite.all():
            self._tag_ids[idx] = ids
        else:
            self._tag_ids[idx[overwrite]] = ids[overwrite]
        self._soft[idx] = True

    # -- bulk views ----------------------------------------------------------

    @property
    def resident_indices(self) -> np.ndarray:
        """Resident page indices, ascending (int64 array)."""
        return np.nonzero(self._resident)[0]

    def dump_pages(self, incremental: bool = False) -> Tuple[Tuple[int, ...], Tuple[str, ...]]:
        """(indices, content tags) of pages a dump would copy out.

        ``incremental=True`` restricts to soft-dirty pages — what a
        second pre-dump pass copies after ``clear_refs``.
        """
        mask = self._resident & self._soft if incremental else self._resident
        idx = np.nonzero(mask)[0]
        tags = TAGS.tags_of(self._tag_ids[idx])
        return tuple(idx.tolist()), tuple(tags)

    def touched_indices(self, floor: bool = False) -> np.ndarray:
        """Resident pages touched since the last soft-dirty clear.

        ``floor=True`` returns every resident page (kinds whose bits
        the working-set tracker treats as always-hot).
        """
        mask = self._resident if floor else self._resident & self._soft
        return np.nonzero(mask)[0]

    def clear_soft_dirty(self) -> None:
        self._soft[:] = False

    def iter_pages(self) -> Iterator[Page]:
        """Yield resident pages in index order (snapshots)."""
        idx = np.nonzero(self._resident)[0]
        ids = self._tag_ids[idx].tolist()
        dirt = self._dirty[idx].tolist()
        soft = self._soft[idx].tolist()
        tag = TAGS.tag
        for i, t, d, s in zip(idx.tolist(), ids, dirt, soft):
            yield Page(index=i, content_tag=tag(t), dirty=d, soft_dirty=s)

    @property
    def pages(self) -> Dict[int, Page]:
        """Materialized {index: Page} snapshot (compatibility view).

        Kept for inspection and tests; hot paths should use the bulk
        APIs. Mutating the returned pages does not write back.
        """
        return {page.index: page for page in self.iter_pages()}


class SlowVMA(_VMABase):
    """Reference dict-of-``Page`` pagemap (the pre-vectorization path).

    Selected with ``REPRO_SLOW_PAGEMAP=1`` or :func:`set_slow_pagemap`.
    Kept semantically identical to :class:`VMA` — the equivalence
    property suite pins the two together — and used by the kernel
    throughput bench as the speedup denominator.
    """

    __slots__ = ("start", "length", "kind", "prot", "file_path",
                 "file_offset", "label", "_pages")

    def __init__(
        self,
        start: int = 0,
        length: int = PAGE_SIZE,
        kind: VMAKind = VMAKind.ANON,
        prot: str = "rw-",
        file_path: Optional[str] = None,
        file_offset: int = 0,
        label: str = "",
    ) -> None:
        self._init_common(start, length, kind, prot, file_path, file_offset, label)
        self._pages: Dict[int, Page] = {}

    @property
    def resident_pages(self) -> int:
        return len(self._pages)

    def touch(self, page_index: int, content_tag: str = "", dirty: bool = True) -> Page:
        if not 0 <= page_index < self.page_count:
            raise MemoryError_(
                f"page index {page_index} out of range for VMA of {self.page_count} pages"
            )
        page = self._pages.get(page_index)
        if page is None:
            page = Page(index=page_index, content_tag=content_tag, dirty=dirty)
            self._pages[page_index] = page
        else:
            page.dirty = page.dirty or dirty
            if content_tag:
                page.content_tag = content_tag
        page.soft_dirty = True
        return page

    def touch_range(self, first: int, count: int, content_tag: str = "") -> None:
        if count <= 0:
            return
        if first < 0 or first + count > self.page_count:
            raise MemoryError_(
                f"page range [{first},{first + count}) out of range "
                f"for VMA of {self.page_count} pages"
            )
        for i in range(first, first + count):
            self.touch(i, content_tag=content_tag)

    def populate_pages(self, indices: Sequence[int], tags: _Tags,
                       dirty: bool = False) -> None:
        if isinstance(tags, np.ndarray):
            tags = TAGS.tags_of(tags)
        if isinstance(indices, np.ndarray):
            indices = indices.tolist()  # Page.index stays a plain int
        for index, tag in zip(indices, tags):
            self.touch(index, content_tag=tag, dirty=dirty)

    @property
    def resident_indices(self) -> np.ndarray:
        return np.fromiter(sorted(self._pages), dtype=np.int64,
                           count=len(self._pages))

    def dump_pages(self, incremental: bool = False) -> Tuple[Tuple[int, ...], Tuple[str, ...]]:
        indices = []
        tags = []
        for index in sorted(self._pages):
            page = self._pages[index]
            if incremental and not page.soft_dirty:
                continue
            indices.append(index)
            tags.append(page.content_tag)
        return tuple(indices), tuple(tags)

    def touched_indices(self, floor: bool = False) -> np.ndarray:
        hits = sorted(
            index for index, page in self._pages.items()
            if floor or page.soft_dirty
        )
        return np.fromiter(hits, dtype=np.int64, count=len(hits))

    def clear_soft_dirty(self) -> None:
        for page in self._pages.values():
            page.soft_dirty = False

    def iter_pages(self) -> Iterator[Page]:
        for index in sorted(self._pages):
            yield self._pages[index]

    @property
    def pages(self) -> Dict[int, Page]:
        return self._pages


# -- backend selection -------------------------------------------------------

_SLOW_PAGEMAP = os.environ.get("REPRO_SLOW_PAGEMAP", "") not in ("", "0")


def set_slow_pagemap(enabled: bool) -> None:
    """Switch the pagemap backend new mappings use (see module docs).

    Runtime switchable so the kernel bench can measure both paths in
    one process; existing VMAs keep whichever backend built them.
    """
    global _SLOW_PAGEMAP
    _SLOW_PAGEMAP = bool(enabled)


def slow_pagemap_enabled() -> bool:
    return _SLOW_PAGEMAP


def pagemap_backend() -> Type[_VMABase]:
    """The VMA class new mappings are built from."""
    return SlowVMA if _SLOW_PAGEMAP else VMA


class AddressSpace:
    """An ordered collection of non-overlapping VMAs."""

    def __init__(self) -> None:
        self._vmas: List[_VMABase] = []
        self._next_mmap_base = 0x7F00_0000_0000

    # -- mapping -------------------------------------------------------------

    def mmap(
        self,
        length: int,
        kind: VMAKind,
        prot: str = "rw-",
        start: Optional[int] = None,
        file_path: Optional[str] = None,
        file_offset: int = 0,
        label: str = "",
        populate: bool = False,
        content_tag: str = "",
    ) -> _VMABase:
        """Create a mapping; kernel picks the address unless ``start`` given."""
        length = -(-length // PAGE_SIZE) * PAGE_SIZE  # round up to page multiple
        if start is None:
            start = self._next_mmap_base
            self._next_mmap_base += length + PAGE_SIZE  # guard page gap
        vma = pagemap_backend()(
            start=start,
            length=length,
            kind=kind,
            prot=prot,
            file_path=file_path,
            file_offset=file_offset,
            label=label,
        )
        for existing in self._vmas:
            if existing.overlaps(vma):
                raise MemoryError_(
                    f"mapping [{hex(vma.start)},{hex(vma.end)}) overlaps "
                    f"[{hex(existing.start)},{hex(existing.end)}) ({existing.label})"
                )
        self._vmas.append(vma)
        self._vmas.sort(key=lambda v: v.start)
        # Keep the allocator above every mapping, including ones placed
        # at explicit addresses (e.g. by a checkpoint restore).
        self._next_mmap_base = max(self._next_mmap_base, vma.end + PAGE_SIZE)
        if populate:
            vma.touch_range(0, vma.page_count, content_tag=content_tag)
        return vma

    def munmap(self, vma: _VMABase) -> None:
        try:
            self._vmas.remove(vma)
        except ValueError:
            raise MemoryError_(f"VMA at {hex(vma.start)} not mapped in this address space")

    def clear(self) -> None:
        """Drop every mapping (the effect of ``execve``)."""
        self._vmas.clear()

    # -- inspection ----------------------------------------------------------

    @property
    def vmas(self) -> Tuple[_VMABase, ...]:
        return tuple(self._vmas)

    def find(self, addr: int) -> Optional[_VMABase]:
        for vma in self._vmas:
            if vma.start <= addr < vma.end:
                return vma
        return None

    def find_by_label(self, label: str) -> Optional[_VMABase]:
        for vma in self._vmas:
            if vma.label == label:
                return vma
        return None

    @property
    def rss_bytes(self) -> int:
        return sum(v.resident_bytes for v in self._vmas)

    @property
    def rss_mib(self) -> float:
        return self.rss_bytes / (1024 * 1024)

    @property
    def mapped_bytes(self) -> int:
        return sum(v.length for v in self._vmas)

    def iter_resident(self) -> Iterator[Tuple[_VMABase, Page]]:
        """Yield (vma, page) for every resident page, address order.

        This is exactly the view ``/proc/<pid>/pagemap`` gives CRIU.
        """
        for vma in self._vmas:
            for page in vma.iter_pages():
                yield vma, page

    def clear_soft_dirty(self) -> None:
        """Model writing ``4`` to ``/proc/<pid>/clear_refs`` (pre-dump)."""
        for vma in self._vmas:
            vma.clear_soft_dirty()

    def grow_anon(self, label: str, mib: float, kind: VMAKind = VMAKind.ANON,
                  content_tag: str = "") -> _VMABase:
        """Convenience: map and populate ``mib`` MiB of anonymous memory."""
        pages = max(1, int(round(mib * PAGES_PER_MIB)))
        return self.mmap(
            length=pages * PAGE_SIZE,
            kind=kind,
            label=label,
            populate=True,
            content_tag=content_tag,
        )
