"""Restored mappings mapped from their descriptors' pagemaps.

A restore maps each dumped VMA with ``AddressSpace.mmap(...,
pagemap=desc.pagemap)``: a full-length resident mask and tag-id array
built once per frozen descriptor, which the fast backend maps
copy-on-write. These tests pin that mapping to the per-page path it
replaced, ``populate_pages(index_array, tag_ids, dirty=False)`` on a
fresh mapping, under both pagemap backends, check that no writer ever
changes the shared arrays, and round-trip restore → dump → restore.
"""

from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import make_world
from repro.core.bake import Prebaker
from repro.core.policy import AfterWarmup
from repro.criu.checkpoint import CheckpointEngine
from repro.criu.images import VMADescriptor
from repro.criu.restore import RestoreEngine
from repro.functions import make_app
from repro.osproc.memory import (
    PAGE_SIZE,
    TAGS,
    AddressSpace,
    MemoryError_,
    SlowVMA,
    VMA,
    VMAKind,
    pagemap_arrays,
    pagemap_backend,
    set_slow_pagemap,
    slow_pagemap_enabled,
)
from tests.test_pagemap_equivalence import PAGES, _apply, _observe, _ops

_TAGS = ["", "a", "b", "heap:x", "text:/bin/app"]
_pages = st.dictionaries(
    st.integers(0, PAGES - 1), st.sampled_from(_TAGS), max_size=PAGES)

# Every pagemap writer: touch, touch_range and clear_soft_dirty from the
# equivalence suite, plus populate_pages.
_writes = st.one_of(_ops, st.tuples(
    st.just("populate"),
    st.lists(st.integers(0, PAGES - 1), unique=True, max_size=8),
    st.sampled_from(_TAGS), st.booleans()))


def _write(vma, op):
    if op[0] == "populate":
        _, indices, tag, dirty = op
        vma.populate_pages(indices, [tag] * len(indices), dirty=dirty)
    else:
        _apply(vma, op)


def _arrays(pages):
    indices = np.array(sorted(pages), dtype=np.int64)
    return indices, TAGS.intern_many([pages[i] for i in sorted(pages)])


def _descriptor(pages, length=PAGES * PAGE_SIZE):
    return VMADescriptor(
        start=0, length=length, kind="anon", prot="rw-", label="t",
        file_path=None, file_offset=0, file_size=0,
        resident_indices=tuple(sorted(pages)),
        content_tags=tuple(pages[i] for i in sorted(pages)))


class TestCopiedPagemap:
    @given(pages=_pages, ops=st.lists(_writes, max_size=20),
           others=st.lists(_writes, max_size=20))
    @settings(max_examples=120, deadline=None)
    def test_copy_equals_populate(self, pages, ops, others):
        indices, ids = _arrays(pages)
        pagemap = pagemap_arrays(PAGES, indices, ids)
        before = [array.copy() for array in pagemap]
        for backend in (VMA, SlowVMA):
            mapped = [backend(start=0, length=PAGES * PAGE_SIZE,
                              kind=VMAKind.ANON, pagemap=pagemap)
                      for _ in range(2)]
            populated = [backend(start=0, length=PAGES * PAGE_SIZE,
                                 kind=VMAKind.ANON) for _ in range(2)]
            for vma in populated:
                vma.populate_pages(indices, ids, dirty=False)
            assert _observe(mapped[0]) == _observe(populated[0])
            if backend is VMA:
                for name in ("_resident", "_dirty", "_soft", "_tag_ids"):
                    assert np.array_equal(getattr(mapped[0], name),
                                          getattr(populated[0], name)), name
            # Two mappings of one pagemap evolve independently, each
            # alike its populated twin, whatever the writers do.
            for op, other in zip_longest(ops, others):
                if op is not None:
                    _write(mapped[0], op)
                    _write(populated[0], op)
                if other is not None:
                    _write(mapped[1], other)
                    _write(populated[1], other)
            for vma, twin in zip(mapped, populated):
                assert _observe(vma) == _observe(twin)
        # The shared arrays are bitwise unchanged and still read-only.
        for array, original in zip(pagemap, before):
            assert array.dtype == original.dtype
            assert array.tobytes() == original.tobytes()
            assert not array.flags.writeable

    def test_unwritten_mapping_shares_the_pagemap(self):
        pagemap = _descriptor({1: "a", 5: "b"}).pagemap
        vma = VMA(start=0, length=PAGES * PAGE_SIZE, kind=VMAKind.ANON,
                  pagemap=pagemap)
        assert vma._resident is pagemap[0] and vma._tag_ids is pagemap[1]
        vma.touch_range(1, 1)  # already resident, no tag: both stay shared
        assert vma._resident is pagemap[0] and vma._tag_ids is pagemap[1]
        vma.touch_range(0, 1)  # a new resident page
        assert vma._resident is not pagemap[0]
        assert vma._tag_ids is pagemap[1]
        assert not pagemap[0][0]

    def test_writable_pagemap_is_not_aliased(self):
        resident = np.zeros(PAGES, dtype=bool)
        resident[3] = True
        tags = np.zeros(PAGES, dtype=np.int32)
        vma = VMA(start=0, length=PAGES * PAGE_SIZE, kind=VMAKind.ANON,
                  pagemap=(resident, tags))
        vma.clear_soft_dirty()
        resident[3] = False
        assert vma.resident_indices.tolist() == [3]
        assert vma.touched_indices().tolist() == []

    @given(pages=_pages)
    @settings(max_examples=40, deadline=None)
    def test_mmap_uses_the_active_backend(self, pages):
        desc = _descriptor(pages)
        space = AddressSpace()
        vma = space.mmap(length=desc.length, kind=VMAKind.ANON,
                         pagemap=desc.pagemap)
        assert type(vma) is pagemap_backend()
        assert vma.dump_pages() == (desc.resident_indices, desc.content_tags)
        assert vma.resident_pages == desc.resident_pages
        vma.clear_soft_dirty()
        assert vma.dump_pages(incremental=True) == ((), ())

    def test_descriptor_pagemap_is_cached_and_read_only(self):
        desc = _descriptor({1: "a", 5: "", 9: "b"})
        resident, tags = desc.pagemap
        assert desc.pagemap[0] is resident
        assert not resident.flags.writeable and not tags.flags.writeable
        assert resident.tolist() == [i in (1, 5, 9) for i in range(PAGES)]
        assert tags[9] == TAGS.intern("b") and tags[5] == 0

    def test_range_check_runs_once_per_descriptor(self):
        desc = _descriptor({0: "a", PAGES: "b"})
        # The descriptor's pagemap is built from its checked indices.
        with pytest.raises(ValueError, match="strictly increasing"):
            desc.pagemap
        with pytest.raises(MemoryError_, match="out of range"):
            pagemap_arrays(PAGES, np.array([-1]), np.array([0], np.int32))

    @pytest.mark.parametrize("backend", [VMA, SlowVMA])
    def test_pagemap_must_cover_the_mapping(self, backend):
        pagemap = _descriptor({0: "a"}, length=4 * PAGE_SIZE).pagemap
        with pytest.raises(MemoryError_, match="does not cover"):
            backend(start=0, length=8 * PAGE_SIZE, kind=VMAKind.ANON,
                    pagemap=pagemap)


def _pages_of(vmas):
    return [(v.start, v.label, v.dump_pages()) for v in vmas]


@pytest.mark.parametrize("name", ["noop", "synthetic-small"])
def test_restore_dump_restore_round_trip(name):
    """restore → dump → restore keeps every page, under both backends."""
    world = make_world(seed=4)
    kernel = world.kernel
    image = Prebaker(kernel).bake(make_app(name), policy=AfterWarmup(1)).image
    engine = RestoreEngine(kernel)
    expected = [(d.start, d.label, (d.resident_indices, d.content_tags))
                for d in sorted(image.vmas, key=lambda d: d.start)]
    entry = slow_pagemap_enabled()
    seen = {}
    try:
        for slow in (False, True):
            set_slow_pagemap(slow)
            first = engine.restore(image)
            assert _pages_of(first.address_space.vmas) == expected
            # Every restored page is soft-dirty: an incremental dump
            # against the source image copies all of them.
            incremental = CheckpointEngine(kernel).dump(
                first, parent_image=image)
            redump = CheckpointEngine(kernel).dump(first, leave_running=False)
            second = engine.restore(redump)
            assert _pages_of(second.address_space.vmas) == expected
            assert all(type(v) is (SlowVMA if slow else VMA)
                       for v in second.address_space.vmas)
            seen[slow] = ([(d.resident_indices, d.content_tags)
                           for d in incremental.vmas],
                          _pages_of(second.address_space.vmas))
    finally:
        set_slow_pagemap(entry)
    assert seen[False] == seen[True]
