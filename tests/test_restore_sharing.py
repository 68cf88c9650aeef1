"""Restores share a snapshot's immutable state and nothing else.

A restore no longer deep-copies the class table, re-interns page tags
or re-encodes the whole digest payload: those come from the shared,
immutable snapshot state. These tests check that the sharing stays
invisible — every edit to an image is still caught by
``verify_integrity`` after the caches are warm, and restored replicas
never see each other's (or the image's) mutable state.
"""

from dataclasses import replace

import pytest

from repro import make_world
from repro.core.bake import Prebaker
from repro.core.policy import AfterReady
from repro.criu.images import FdDescriptor
from repro.criu.restore import RestoreEngine
from repro.faults.errors import SnapshotCorrupted
from repro.functions.base import make_app
from repro.osproc.memory import PAGE_SIZE
from repro.runtime.base import Request
from repro.runtime.classes import generate_classes
from tests.digest_oracle import reference_digest


def _baked(name):
    world = make_world(seed=5)
    image = Prebaker(world.kernel).bake(make_app(name), policy=AfterReady()).image
    return world.kernel, image


def _retag(image):
    index = next(i for i, v in enumerate(image.vmas) if v.content_tags)
    vma = image.vmas[index]
    tags = (vma.content_tags[0] + "!",) + vma.content_tags[1:]
    image.vmas[index] = replace(vma, content_tags=tags)


def _move(image):
    image.vmas[0] = replace(image.vmas[0], start=image.vmas[0].start + PAGE_SIZE)


def _edit_extra(image):
    image.runtime_state["extra"]["jar_path"] += ".bak"


def _drop_working_image(image):
    image.runtime_state["app"]._working_image = None


def _shorten_classes(image):
    app = image.runtime_state["app"]
    app.classes = app.classes[:-1]


def _flip_warm(image):
    image.warm = not image.warm


def _append_fd(image):
    image.fds.append(FdDescriptor(fd=99, path="/tmp/x", offset=0,
                                  flags="r", is_socket=False))


class TestTamperAfterCache:
    @pytest.mark.parametrize("name, edit", [
        ("noop", lambda image: image.tamper()),
        ("noop", _retag),
        ("noop", _move),
        ("noop", _edit_extra),
        ("image-resizer", _drop_working_image),
        ("synthetic-small", _shorten_classes),
        ("noop", _flip_warm),
        ("noop", _append_fd),
    ], ids=["tamper", "retag", "geometry", "extra", "app-attr", "classes",
            "warm", "fd"])
    def test_edit_is_caught_with_warm_caches(self, name, edit):
        kernel, image = _baked(name)
        image.verify_integrity()
        RestoreEngine(kernel).restore(image)
        edit(image)
        with pytest.raises(SnapshotCorrupted):
            image.verify_integrity()
        assert image.compute_digest() == reference_digest(image)

    def test_geometry_edit_moves_the_meta_digest(self):
        _, image = _baked("noop")
        _move(image)
        assert image.compute_meta_digest() != image.meta_digest

    def test_many_restores_leave_the_image_intact(self):
        kernel, image = _baked("synthetic-small")
        sealed = image.digest
        engine = RestoreEngine(kernel)
        for _ in range(500):
            proc = engine.restore(image)
            assert proc.payload["runtime"].handle(Request()).ok
            kernel.kill(proc.pid)
        image.verify_integrity()
        assert image.compute_digest() == sealed == reference_digest(image)


class TestSharingAndIsolation:
    def test_restores_share_the_class_table(self):
        kernel, image = _baked("synthetic-small")
        engine = RestoreEngine(kernel)
        first = engine.restore(image).payload["runtime"]
        second = engine.restore(image).payload["runtime"]
        table = image.runtime_state["app"].classes
        assert len(table) == 374
        assert first.app.classes is table
        assert second.app.classes is table
        assert first.app is not second.app

    def test_mutable_app_state_stays_private(self):
        kernel, image = _baked("image-resizer")
        engine = RestoreEngine(kernel)
        first = engine.restore(image).payload["runtime"].app
        second = engine.restore(image).payload["runtime"].app
        snapshot = image.runtime_state["app"]
        before = second._working_image.pixels.copy()
        first._working_image.pixels ^= 0xFF
        assert (second._working_image.pixels == before).all()
        assert (snapshot._working_image.pixels == before).all()
        image.verify_integrity()

    def test_generate_classes_is_memoized(self):
        table = generate_classes(37, 123.0, seed=11)
        assert isinstance(table, tuple)
        assert generate_classes(37, 123.0, seed=11) is table

    def test_apps_of_one_function_share_a_table(self):
        assert make_app("synthetic-big").classes is make_app("synthetic-big").classes
