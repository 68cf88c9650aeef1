"""Tests for the checkpoint image format."""

from dataclasses import replace

import pytest

from repro import make_world
from repro.core.bake import Prebaker
from repro.criu.images import (
    CheckpointImage,
    FdDescriptor,
    ImageFile,
    VMADescriptor,
    build_image_files,
)
from repro.criu.restore import RestoreEngine
from repro.functions import make_app
from repro.osproc.memory import PAGE_SIZE


def make_vma(resident=4, length_pages=8, label="heap", file_path=None):
    return VMADescriptor(
        start=0x1000_0000,
        length=length_pages * PAGE_SIZE,
        kind="anon" if file_path is None else "file",
        prot="rw-",
        label=label,
        file_path=file_path,
        file_offset=0,
        file_size=0 if file_path is None else length_pages * PAGE_SIZE,
        resident_indices=tuple(range(resident)),
        content_tags=tuple("t" for _ in range(resident)),
    )


def make_image(vmas=None, fds=None, warm=False):
    image = CheckpointImage(
        image_id="img-test",
        pid=42,
        comm="java",
        argv=["java", "-jar", "fn.jar"],
        created_at_ms=100.0,
        namespace_ids={"pid": 1},
        vmas=vmas if vmas is not None else [make_vma()],
        fds=fds or [],
        runtime_state=None,
        warm=warm,
    )
    build_image_files(image)
    return image


class TestImageAccounting:
    def test_pages_bytes_counts_resident(self):
        image = make_image(vmas=[make_vma(resident=10, length_pages=20)])
        assert image.pages_bytes == 10 * PAGE_SIZE
        assert image.resident_pages == 10

    def test_total_mib_includes_metadata(self):
        image = make_image()
        assert image.total_bytes > image.pages_bytes
        assert image.total_mib == image.total_bytes / (1024 * 1024)

    def test_pages_file_size_matches(self):
        image = make_image(vmas=[make_vma(resident=7)])
        assert image.file("pages-1.img").size_bytes == 7 * PAGE_SIZE

    def test_expected_image_files_present(self):
        image = make_image()
        names = set(image.files)
        assert {"inventory.img", "pstree.img", "pages-1.img",
                "files.img", "namespaces.img"} <= names
        assert f"core-{image.pid}.img" in names
        assert f"mm-{image.pid}.img" in names

    def test_file_lookup_error(self):
        image = make_image()
        with pytest.raises(KeyError, match="has no file"):
            image.file("bogus.img")


class TestImageValidation:
    def test_valid_image_passes(self):
        make_image().validate()

    def test_no_vmas_rejected(self):
        image = make_image()
        image.vmas = []
        with pytest.raises(ValueError, match="no VMAs"):
            image.validate()

    def test_pages_file_mismatch_rejected(self):
        image = make_image()
        image.files["pages-1.img"] = ImageFile("pages-1.img", 1)
        with pytest.raises(ValueError, match="pages-1.img size"):
            image.validate()

    def test_tag_index_desync_rejected(self):
        bad = VMADescriptor(
            start=0, length=4 * PAGE_SIZE, kind="anon", prot="rw-", label="x",
            file_path=None, file_offset=0, file_size=0,
            resident_indices=(0, 1), content_tags=("a",),
        )
        image = make_image(vmas=[bad])
        with pytest.raises(ValueError, match="out of sync"):
            image.validate()

    def test_overfull_vma_rejected(self):
        bad = VMADescriptor(
            start=0, length=PAGE_SIZE, kind="anon", prot="rw-", label="x",
            file_path=None, file_offset=0, file_size=0,
            resident_indices=(0, 1), content_tags=("a", "b"),
        )
        image = make_image(vmas=[bad])
        with pytest.raises(ValueError, match="more resident pages"):
            image.validate()

    def test_missing_pages_file_rejected(self):
        image = make_image()
        del image.files["pages-1.img"]
        with pytest.raises(ValueError, match="missing pages-1.img"):
            image.validate()


def _resealed_noop(edit_vma):
    """A baked noop image whose first paged VMA went through ``edit_vma``."""
    world = make_world(seed=9)
    image = Prebaker(world.kernel).bake(make_app("noop")).image
    index = next(i for i, v in enumerate(image.vmas) if v.resident_indices)
    vma = image.vmas[index]
    indices, tags = edit_vma(vma)
    image.vmas[index] = replace(vma, resident_indices=indices, content_tags=tags)
    build_image_files(image)
    image.seal()
    return world.kernel, image


class TestResidentIndexValidation:
    """Descriptor page lists must be strictly increasing and in range."""

    def test_duplicate_index_rejected_before_restore(self):
        kernel, image = _resealed_noop(lambda v: (
            v.resident_indices + v.resident_indices[:1],
            v.content_tags + v.content_tags[:1]))
        engine = RestoreEngine(kernel)
        clock, procs = kernel.clock.now, len(kernel.processes)
        with pytest.raises(ValueError, match="strictly increasing"):
            engine.restore(image)
        assert kernel.clock.now == clock
        assert len(kernel.processes) == procs

    def test_out_of_range_index_rejected_before_restore(self):
        kernel, image = _resealed_noop(lambda v: (
            v.resident_indices[:-1] + (v.length // PAGE_SIZE,),
            v.content_tags))
        clock = kernel.clock.now
        with pytest.raises(ValueError, match="strictly increasing"):
            RestoreEngine(kernel).restore(image)
        assert kernel.clock.now == clock

    @pytest.mark.parametrize("indices", [(2, 1), (-1, 0), (0, 8), (3, 3)])
    def test_bad_orders_and_ranges_rejected(self, indices):
        bad = replace(make_vma(resident=2), resident_indices=indices)
        with pytest.raises(ValueError, match="strictly increasing"):
            make_image(vmas=[bad]).validate()

    def test_sparse_increasing_indices_pass(self):
        good = replace(make_vma(resident=3), resident_indices=(0, 5, 7))
        make_image(vmas=[good]).validate()


class TestPerDescriptorValidation:
    """validate()'s per-VMA checks run once per frozen descriptor."""

    @pytest.mark.parametrize("edit, message", [
        (dict(content_tags=("a",)), "out of sync"),
        (dict(length=PAGE_SIZE), "more resident pages"),
        (dict(resident_indices=(1, 0)), "strictly increasing"),
        (dict(resident_indices=(0, 8)), "strictly increasing"),
    ])
    def test_malformed_descriptor_raises_on_every_call(self, edit, message):
        bad = replace(make_vma(resident=2), **edit)
        image = make_image(vmas=[make_vma(label="ok"), bad])
        for _ in range(3):
            with pytest.raises(ValueError, match=message):
                image.validate()
        # A check that raised left nothing cached on the descriptor.
        assert "checked_indices" not in bad.__dict__

    def test_checks_pass_once_per_descriptor(self):
        vma = make_vma()
        first = make_image(vmas=[vma])
        first.validate()
        checked = vma.__dict__["checked_indices"]
        # Another image sharing the descriptor reuses the outcome; the
        # image-level checks still run on every call.
        second = make_image(vmas=[vma])
        second.validate()
        assert vma.checked_indices is checked
        second.files["pages-1.img"] = ImageFile("pages-1.img", 1)
        with pytest.raises(ValueError, match="pages-1.img size"):
            second.validate()


class TestDescriptors:
    def test_fd_descriptor_fields(self):
        fd = FdDescriptor(fd=3, path="/jar", offset=10, flags="r",
                          is_socket=False, file_size=100)
        image = make_image(fds=[fd])
        assert image.files["files.img"].payload == [fd]

    def test_warm_flag_carried(self):
        assert make_image(warm=True).warm is True
        assert make_image(warm=False).warm is False
