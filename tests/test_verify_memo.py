"""The verified-image memo in ``CheckpointImage.verify_integrity``.

A sealed image remembers its last successful verification and skips
the hash only when the sealed digest, the re-encoded head, runtime
state and ``warm`` text, and every descriptor object are the same as
then. These tests run random in-place edits against the reference
digest formula (:mod:`tests.digest_oracle`): after every step,
``verify_integrity()`` must raise exactly when the image's contents no
longer hash to its sealed digest, and a failure must leave no memo.
"""

import copy
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import make_world
from repro.core.bake import Prebaker
from repro.core.policy import AfterWarmup
from repro.criu.images import CheckpointImage, ImageFile
from repro.faults.errors import SnapshotCorrupted
from repro.functions import make_app
from tests.digest_oracle import reference_digest

_BAKED = {}


def _baked(name):
    if name not in _BAKED:
        world = make_world(seed=5)
        _BAKED[name] = Prebaker(world.kernel).bake(
            make_app(name), policy=AfterWarmup(1)).image
    return _BAKED[name]


def _fresh(image):
    """A copy with private mutable parts and the same frozen descriptors."""
    return replace(
        image, argv=list(image.argv), namespace_ids=dict(image.namespace_ids),
        vmas=list(image.vmas), fds=list(image.fds),
        runtime_state=copy.deepcopy(image.runtime_state),
        files={name: replace(f) for name, f in image.files.items()},
        dirty_pages=set())


def _paged(image):
    return [i for i, v in enumerate(image.vmas) if v.content_tags]


def _apply(image, original, op):
    kind = op[0]
    if kind == "tamper":
        image.tamper(pages=op[1], first_page=op[2])
    elif kind == "meta":
        # What tamper() does to an image without page contents.
        image.comm = image.comm + "\x00corrupt"
        image.dirty_meta = True
    elif kind == "runtime":
        image.runtime_state["requests_served"] += op[1]
    elif kind == "class-names":
        image.runtime_state["extra"]["loaded_class_names"].append("X")
    elif kind == "argv":
        if op[1] and len(image.argv) > len(original.argv):
            image.argv.pop()
        else:
            image.argv.append("--x")
    elif kind == "fd":
        image.fds[0] = replace(image.fds[0], offset=image.fds[0].offset + op[1])
    elif kind == "file":
        image.files["pages-1.img"].size_bytes += op[1]
    elif kind == "namespace":
        image.namespace_ids["pid"] += op[1]
    elif kind == "swap":
        index = _paged(original)[op[1] % len(_paged(original))]
        vma = original.vmas[index]
        if op[2] == "equal":      # same content, another object
            image.vmas[index] = replace(vma)
        elif op[2] == "changed":  # one page retagged
            tags = ("swapped",) + vma.content_tags[1:]
            image.vmas[index] = replace(vma, content_tags=tags)
        else:                     # the very same object back
            image.vmas[index] = vma
    elif kind == "warm":
        image.warm = not image.warm
    else:
        image.seal()


_steps = st.one_of(
    st.tuples(st.just("tamper"), st.integers(1, 3), st.integers(0, 5)),
    st.tuples(st.just("meta")),
    st.tuples(st.just("runtime"), st.integers(-1, 1)),
    st.tuples(st.just("class-names")),
    st.tuples(st.just("argv"), st.booleans()),
    st.tuples(st.just("fd"), st.integers(-1, 1)),
    st.tuples(st.just("file"), st.integers(-1, 1)),
    st.tuples(st.just("namespace"), st.integers(-1, 1)),
    st.tuples(st.just("swap"), st.integers(0, 7),
              st.sampled_from(["equal", "changed", "original"])),
    st.tuples(st.just("warm")),
    st.tuples(st.just("seal")),
)


def _check(image):
    """verify_integrity() raises iff the contents drifted from the seal."""
    if reference_digest(image) != image.digest:
        with pytest.raises(SnapshotCorrupted):
            image.verify_integrity()
        assert "_verified" not in image.__dict__
    else:
        image.verify_integrity()
        assert image.__dict__["_verified"][0] == image.digest


@given(name=st.sampled_from(["noop", "markdown"]),
       steps=st.lists(_steps, max_size=12))
@settings(max_examples=120, deadline=None)
def test_verify_matches_the_reference_digest_after_every_edit(name, steps):
    original = _baked(name)
    image = _fresh(original)
    _check(image)
    for step in steps:
        _apply(image, original, step)
        _check(image)
        _check(image)  # again, now with whatever the first call left


def _counting_digests(monkeypatch):
    calls = []
    digest = CheckpointImage._digest

    def counted(self, *args, **kwargs):
        calls.append(1)
        return digest(self, *args, **kwargs)

    monkeypatch.setattr(CheckpointImage, "_digest", counted)
    return calls


def test_memo_skips_only_an_identical_rehash(monkeypatch):
    original = _baked("noop")
    image = _fresh(original)
    calls = _counting_digests(monkeypatch)
    image.verify_integrity()
    image.verify_integrity()
    assert len(calls) == 1
    # An equal-content descriptor is another object: hashed again, passes.
    index = _paged(image)[0]
    image.vmas[index] = replace(image.vmas[index])
    image.verify_integrity()
    assert len(calls) == 2
    # An in-place edit of mutable state is re-encoded and caught.
    image.runtime_state["requests_served"] += 1
    with pytest.raises(SnapshotCorrupted):
        image.verify_integrity()
    assert "_verified" not in image.__dict__
    image.runtime_state["requests_served"] -= 1
    image.verify_integrity()
    assert len(calls) == 4


def test_meta_tamper_without_pages_is_caught():
    image = _fresh(_baked("noop"))
    image.vmas = [replace(v, resident_indices=(), content_tags=())
                  for v in image.vmas]
    image.files["pages-1.img"] = ImageFile("pages-1.img", 0)
    image.seal()
    image.verify_integrity()
    image.tamper()
    assert image.dirty_meta
    with pytest.raises(SnapshotCorrupted):
        image.verify_integrity()
    assert "_verified" not in image.__dict__
