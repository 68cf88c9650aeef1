"""Checkpoint image file set.

CRIU writes a directory of ``*.img`` files per dump; the model mirrors
the important ones (``pstree``, ``core``, ``mm``, ``pagemap``,
``pages-1``, ``files``, ``inventory``) with faithful size accounting —
the ``pages-1.img`` size is exactly the dumped resident set, which is
the quantity that drives restore latency in the paper.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.faults.errors import SnapshotCorrupted
from repro.osproc.memory import PAGE_SIZE, TAGS


# Leaves the digest projection passes through unchanged (JSON-native).
_LEAF_TYPES = (str, int, float, bool)
_IMMUTABLE_LEAVES = frozenset({str, int, float, bool, type(None)})
_MAX_DEPTH = 12
_encode_str = json.encoder.encode_basestring_ascii

# Text of deeply immutable tuples (the shared class tables), keyed by
# (id, depth). Each entry holds the tuple itself, so its id cannot be
# reused while the entry lives; the table is dropped when it fills.
_TUPLE_TEXT: Dict[Tuple[int, int], Tuple[tuple, str]] = {}
_TUPLE_TEXT_MIN_LEN = 16
_TUPLE_TEXT_MAX = 256


def _leaf(obj: Any) -> str:
    """JSON text of one leaf, exactly as ``json.dumps`` writes it."""
    if isinstance(obj, str):
        return _encode_str(obj)
    if type(obj) is int or (type(obj) is float and math.isfinite(obj)):
        return repr(obj)
    return json.dumps(obj)  # None, bools, NaN/inf, int and float subclasses


def _object(fields: Dict[str, str]) -> str:
    return "{%s}" % ", ".join(f"{_encode_str(k)}: {v}"
                              for k, v in sorted(fields.items()))


def _immutable(obj: Any) -> bool:
    """Whether ``obj``'s projection can never change: exact leaves,
    tuples of such, and frozen dataclasses whose attributes are such."""
    kind = type(obj)
    if kind in _IMMUTABLE_LEAVES:
        return True
    if kind is tuple:
        return all(_immutable(v) for v in obj)
    params = getattr(kind, "__dataclass_params__", None)
    attrs = getattr(obj, "__dict__", None)
    return (params is not None and params.frozen and attrs is not None
            and all(_immutable(v) for v in attrs.values()))


def canonical_json(obj: Any, _depth: int = 0) -> str:
    """Stable JSON text of ``obj``, as the digests hash it.

    ``repr`` of plain objects embeds memory addresses, which would make
    content digests differ between identically seeded runs; instead,
    objects are projected as class name + sorted attribute dict, dict
    keys as strings, sets in ``str`` order, and anything nested deeper
    than 12 levels as a depth-capped marker. The text is byte-for-byte
    ``json.dumps(projection, sort_keys=True)``, produced without
    building the projection; deeply immutable tuples are encoded once.
    """
    if _depth > _MAX_DEPTH:
        return _encode_str(f"<depth-capped {type(obj).__name__}>")
    if obj is None or isinstance(obj, _LEAF_TYPES):
        return _leaf(obj)
    if isinstance(obj, dict):
        kept = {str(k): v for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
        return _object({k: canonical_json(v, _depth + 1) for k, v in kept.items()})
    if isinstance(obj, (list, tuple, set, frozenset)):
        cacheable = type(obj) is tuple and len(obj) >= _TUPLE_TEXT_MIN_LEN
        if cacheable:
            hit = _TUPLE_TEXT.get((id(obj), _depth))
            if hit is not None:
                return hit[1]
        items = sorted(obj, key=str) if isinstance(obj, (set, frozenset)) else obj
        text = "[%s]" % ", ".join(canonical_json(v, _depth + 1) for v in items)
        if cacheable and _immutable(obj):
            if len(_TUPLE_TEXT) >= _TUPLE_TEXT_MAX:
                _TUPLE_TEXT.clear()
            _TUPLE_TEXT[(id(obj), _depth)] = (obj, text)
        return text
    attrs = getattr(obj, "__dict__", None)
    if attrs is not None:
        fields = {k: canonical_json(v, _depth + 1) for k, v in attrs.items()}
        fields["__class__"] = _encode_str(type(obj).__name__)
        return _object(fields)
    return _encode_str(f"<{type(obj).__name__}>")


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class VMADescriptor:
    """Serialized form of one VMA.

    Frozen, with tuple page lists, so what a restore derives from its
    pages is computed once per descriptor and cached on it: the index
    and interned tag-id arrays the transmute populates from, and the
    JSON text the image digests hash. ``dataclasses.replace`` (tamper,
    repair) builds a fresh instance with empty caches.
    """

    start: int
    length: int
    kind: str
    prot: str
    label: str
    file_path: Optional[str]
    file_offset: int
    file_size: int
    resident_indices: tuple
    content_tags: tuple  # parallel to resident_indices

    def __post_init__(self) -> None:
        # The caches below are sound only over immutable page lists.
        for name in ("resident_indices", "content_tags"):
            value = getattr(self, name)
            if type(value) is not tuple:
                object.__setattr__(self, name, tuple(value))

    @property
    def resident_pages(self) -> int:
        return len(self.resident_indices)

    @functools.cached_property
    def index_array(self) -> np.ndarray:
        """Resident page indices as a read-only int64 array."""
        return _read_only(np.fromiter(self.resident_indices, dtype=np.int64,
                                      count=len(self.resident_indices)))

    @functools.cached_property
    def tag_ids(self) -> np.ndarray:
        """Content tags interned in :data:`TAGS`, as a read-only int32 array."""
        return _read_only(TAGS.intern_many(self.content_tags))

    @functools.cached_property
    def digest_text(self) -> Tuple[bytes, int]:
        """(JSON of this VMA's content-digest entry, meta prefix length).

        The entry is ``[geometry..., indices, tags]``; the meta digest
        hashes the same bytes up to the prefix length, then ``]``.
        """
        meta = json.dumps([self.start, self.length, self.kind, self.prot,
                           self.label, self.file_path, self.file_offset,
                           self.file_size, list(self.resident_indices)])
        tags = json.dumps(list(self.content_tags))
        return f"{meta[:-1]}, {tags}]".encode("ascii"), len(meta) - 1


@dataclass(frozen=True)
class FdDescriptor:
    """Serialized form of one open file descriptor."""

    fd: int
    path: str
    offset: int
    flags: str
    is_socket: bool
    file_size: int = 0


@dataclass
class ImageFile:
    """One ``*.img`` file inside the image directory."""

    name: str
    size_bytes: int
    payload: Any = None


@dataclass
class CheckpointImage:
    """A complete dump of one process."""

    image_id: str
    pid: int
    comm: str
    argv: List[str]
    created_at_ms: float
    namespace_ids: Dict[str, int]
    vmas: List[VMADescriptor]
    fds: List[FdDescriptor]
    runtime_state: Optional[Dict[str, Any]]
    files: Dict[str, ImageFile] = field(default_factory=dict)
    parent_image_id: Optional[str] = None  # set for incremental pre-dumps
    warm: bool = False  # snapshot taken after >= 1 request (prebake-warmup)
    digest: Optional[str] = None  # content digest sealed at dump time
    meta_digest: Optional[str] = None  # digest of the non-page fields (sealed)
    # Mutation bookkeeping: bumped on any in-place content change so
    # memoized derived data (chunk indexes) invalidates itself.
    generation: int = 0
    # Damage hints recorded by tamper(): (vma_index, absolute page
    # index) per corrupted page, plus whether non-page metadata was
    # hit. A Merkle-verified repair re-checks only these subtrees; an
    # empty set with a drifted digest means "location unknown" and
    # callers fall back to a full scan.
    dirty_pages: set = field(default_factory=set)
    dirty_meta: bool = False

    # -- size accounting ----------------------------------------------------------

    @property
    def pages_bytes(self) -> int:
        return sum(v.resident_pages for v in self.vmas) * PAGE_SIZE

    @property
    def total_bytes(self) -> int:
        return sum(f.size_bytes for f in self.files.values())

    @property
    def total_mib(self) -> float:
        return self.total_bytes / (1024 * 1024)

    @property
    def resident_pages(self) -> int:
        return sum(v.resident_pages for v in self.vmas)

    def file(self, name: str) -> ImageFile:
        try:
            return self.files[name]
        except KeyError:
            raise KeyError(
                f"image {self.image_id!r} has no file {name!r}; has {sorted(self.files)}"
            ) from None

    # -- integrity ---------------------------------------------------------------

    def compute_digest(self) -> str:
        """SHA-256 over everything a restore consumes.

        Covers the dumped memory contents (VMA layout + per-page
        content tags), the fd table, the runtime state and the image
        file sizes — any bit rot in those shows up as a mismatch
        against the sealed :attr:`digest`.
        """
        return self._digest(pages=True)

    def compute_meta_digest(self) -> str:
        """SHA-256 over everything a restore consumes *except* pages.

        The complement of the per-chunk Merkle leaves: identity, VMA
        geometry, fd table, runtime state and file sizes. Together
        with a matching Merkle root this proves integrity without
        re-hashing any page content — the incremental verification the
        targeted repair path relies on.
        """
        return self._digest(pages=False)

    def _digest(self, pages: bool) -> str:
        """SHA-256 of ``json.dumps(payload, sort_keys=True)``, streamed.

        The payload is read from the image's current fields on every
        call; only the immutable parts' text comes from caches (each
        descriptor's :attr:`VMADescriptor.digest_text`, the shared
        class tables in :func:`canonical_json`).
        """
        head = json.dumps({
            "pid": self.pid,
            "comm": self.comm,
            "argv": self.argv,
            "namespaces": self.namespace_ids,
            "fds": [
                [f.fd, f.path, f.offset, f.flags, f.is_socket, f.file_size]
                for f in self.fds
            ],
            "files": {name: f.size_bytes for name, f in self.files.items()},
        }, sort_keys=True)
        # Sorted payload keys: the head's, then runtime_state, vmas, warm.
        sha = hashlib.sha256(head[:-1].encode("ascii"))
        sha.update(b', "runtime_state": ')
        sha.update(canonical_json(self.runtime_state).encode("ascii"))
        sha.update(b', "vmas": [')
        for position, vma in enumerate(self.vmas):
            if position:
                sha.update(b", ")
            text, meta_len = vma.digest_text
            if pages:
                sha.update(text)
            else:
                sha.update(memoryview(text)[:meta_len])
                sha.update(b"]")
        sha.update(f'], "warm": {json.dumps(self.warm)}}}'.encode("ascii"))
        return sha.hexdigest()

    def seal(self) -> str:
        """Record the content digests (done once, at dump time)."""
        self.digest = self.compute_digest()
        self.meta_digest = self.compute_meta_digest()
        return self.digest

    def verify_integrity(self) -> None:
        """Check contents against the sealed digest.

        Unsealed images (hand-built in tests, pre-digest dumps) pass
        trivially; a sealed image whose contents drifted raises
        :class:`SnapshotCorrupted`.
        """
        if self.digest is None:
            return
        actual = self.compute_digest()
        if actual != self.digest:
            raise SnapshotCorrupted(
                f"image {self.image_id!r} failed integrity verification: "
                f"digest {actual[:12]}... != sealed {self.digest[:12]}...",
                image_id=self.image_id,
            )

    def tamper(self, pages: int = 1, first_page: int = 0) -> None:
        """Corrupt the dumped page contents in place (fault injection).

        Flips the content tags of ``pages`` resident pages starting at
        resident offset ``first_page`` in the first VMA that has any —
        the smallest change that keeps :meth:`validate`'s structural
        checks passing while the content digest no longer matches,
        exactly like flipped bits in ``pages-1.img``. ``pages`` sized
        to a page-store chunk models losing one registry chunk.
        """
        self.generation += 1
        for index, vma in enumerate(self.vmas):
            if vma.content_tags:
                tags = list(vma.content_tags)
                start = min(first_page, len(tags) - 1)
                for offset in range(start, min(start + pages, len(tags))):
                    tags[offset] = tags[offset] + "\x00corrupt"
                    # Record *where* the damage landed (absolute page
                    # index) so repair can verify just that subtree.
                    self.dirty_pages.add(
                        (index, vma.resident_indices[offset]))
                self.vmas[index] = replace(vma, content_tags=tuple(tags))
                return
        self.comm = self.comm + "\x00corrupt"
        self.dirty_meta = True

    def validate(self) -> None:
        """Internal consistency checks a restore relies on."""
        if not self.vmas:
            raise ValueError(f"image {self.image_id!r} has no VMAs")
        pages_file = self.files.get("pages-1.img")
        if pages_file is None:
            raise ValueError(f"image {self.image_id!r} is missing pages-1.img")
        if pages_file.size_bytes != self.pages_bytes:
            raise ValueError(
                f"pages-1.img size {pages_file.size_bytes} != dumped pages "
                f"{self.pages_bytes}"
            )
        for vma in self.vmas:
            if len(vma.resident_indices) != len(vma.content_tags):
                raise ValueError(
                    f"VMA {vma.label!r}: resident indices and tags out of sync"
                )
            if vma.resident_pages * PAGE_SIZE > vma.length:
                raise ValueError(
                    f"VMA {vma.label!r}: more resident pages than the mapping holds"
                )
            indices = vma.index_array
            if len(indices) and (
                    indices[0] < 0 or indices[-1] >= vma.length // PAGE_SIZE
                    or bool((indices[1:] <= indices[:-1]).any())):
                raise ValueError(
                    f"VMA {vma.label!r}: resident indices must be strictly "
                    f"increasing within [0, {vma.length // PAGE_SIZE})"
                )


def build_image_files(image: CheckpointImage) -> None:
    """Populate the ``*.img`` file entries from the image's contents."""
    meta_per_vma = 64
    meta_per_fd = 48
    image.files = {
        "inventory.img": ImageFile("inventory.img", 128),
        "pstree.img": ImageFile("pstree.img", 96, payload={"pid": image.pid}),
        f"core-{image.pid}.img": ImageFile(f"core-{image.pid}.img", 512,
                                           payload={"comm": image.comm, "argv": image.argv}),
        f"mm-{image.pid}.img": ImageFile(
            f"mm-{image.pid}.img", meta_per_vma * len(image.vmas), payload=image.vmas
        ),
        f"pagemap-{image.pid}.img": ImageFile(
            f"pagemap-{image.pid}.img",
            16 * sum(v.resident_pages for v in image.vmas),
        ),
        "pages-1.img": ImageFile("pages-1.img", image.pages_bytes),
        "files.img": ImageFile("files.img", meta_per_fd * len(image.fds),
                               payload=image.fds),
        "namespaces.img": ImageFile("namespaces.img", 64,
                                    payload=image.namespace_ids),
    }
