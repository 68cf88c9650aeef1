"""Streamed image digests against the reference formula.

The digests hash cached per-descriptor JSON fragments and
identity-cached class-table text instead of re-encoding one payload.
These tests pin them to :mod:`tests.digest_oracle` — the original
``json.dumps(stable(payload), sort_keys=True)`` formula — byte for byte.
"""

import enum
import math
from dataclasses import dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import make_world
from repro.core.bake import Prebaker
from repro.core.policy import AfterReady, AfterWarmup
from repro.criu.images import _TUPLE_TEXT_MIN_LEN, canonical_json
from repro.criu.serialize import deserialize_image, serialize_image
from repro.functions.base import make_app, registered_names
from tests.digest_oracle import reference_digest, reference_json


def _bake(name, policy, seed=3):
    world = make_world(seed=seed)
    return Prebaker(world.kernel).bake(make_app(name), policy=policy).image


def _assert_matches_reference(image):
    assert image.compute_digest() == reference_digest(image, pages=True)
    assert image.compute_meta_digest() == reference_digest(image, pages=False)


@pytest.mark.parametrize("policy", [AfterReady(), AfterWarmup(1)],
                         ids=lambda p: p.key)
@pytest.mark.parametrize("name", registered_names())
class TestRegisteredFunctions:
    def test_sealed_digests_equal_the_reference(self, name, policy):
        image = _bake(name, policy)
        assert image.digest == reference_digest(image, pages=True)
        assert image.meta_digest == reference_digest(image, pages=False)
        # Again with every cache warm.
        _assert_matches_reference(image)

    def test_serialize_round_trip(self, name, policy):
        image = deserialize_image(serialize_image(_bake(name, policy)))
        _assert_matches_reference(image)


# -- runtime-state trees --------------------------------------------------------


@dataclass(frozen=True)
class FrozenLeaf:
    name: str
    weight: float


@dataclass
class Mutable:
    label: str
    items: list


class Colour(str, enum.Enum):
    RED = "red"


class Level(enum.IntEnum):
    HIGH = 3


_floats = st.floats(allow_nan=True, allow_infinity=True)
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), _floats,
    st.text(max_size=8),  # includes non-ASCII code points
    st.sampled_from(["", "é", "日本", "\x00", "a\"b\\c", "\U0001f600"]),
    st.sampled_from([Colour.RED, Level.HIGH]),
)
_hashables = st.one_of(st.none(), st.booleans(), st.integers(-50, 50),
                       _floats, st.text(max_size=4))
_frozen = st.builds(FrozenLeaf, st.text(max_size=6), _floats)
# Tuples of frozen dataclasses on both sides of the text-cache threshold.
_frozen_tuples = st.lists(_frozen, min_size=0,
                          max_size=2 * _TUPLE_TEXT_MIN_LEN).map(tuple)


def _nest(depth, leaf):
    """Wrap ``leaf`` in ``depth`` alternating containers."""
    obj = leaf
    for level in range(depth):
        obj = ({"k": obj}, [obj], (obj,))[level % 3]
    return obj


def _children(inner):
    return st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.sets(_hashables, max_size=4),
        st.frozensets(_hashables, max_size=4),
        st.dictionaries(_hashables, inner, max_size=4),
        st.builds(Mutable, st.text(max_size=4), st.lists(inner, max_size=3)),
    )


_trees = st.recursive(
    st.one_of(_scalars, _frozen, _frozen_tuples), _children, max_leaves=25)
_deep = st.builds(_nest, st.integers(10, 16),
                  st.one_of(_scalars, _frozen, _frozen_tuples))


class TestCanonicalJson:
    @given(state=st.one_of(_trees, _deep))
    @settings(max_examples=300, deadline=None)
    def test_equals_reference_projection(self, state):
        expected = reference_json(state)
        assert canonical_json(state) == expected
        assert canonical_json(state) == expected  # caches warm

    def test_shared_tuple_at_two_depths(self):
        table = tuple(FrozenLeaf(f"c{i}", i / 3) for i in range(40))
        for depth in range(8, 15):
            state = {"shallow": table, "deep": _nest(depth, table)}
            assert canonical_json(state) == reference_json(state)

    def test_tuple_with_a_mutable_member_is_re_encoded(self):
        inner = [1, 2]
        state = {"t": tuple([inner] + list(range(2 * _TUPLE_TEXT_MIN_LEN)))}
        assert canonical_json(state) == reference_json(state)
        inner.append(3)
        assert canonical_json(state) == reference_json(state)

    def test_non_finite_and_non_ascii(self):
        state = {"nan": math.nan, "inf": [math.inf, -math.inf],
                 "text": "naïve ☃", 1: "int key", (1, 2): "tuple key"}
        assert canonical_json(state) == reference_json(state)


def test_streamed_digest_matches_reference_for_edited_images():
    image = _bake("noop", AfterReady())
    image.runtime_state["extra"]["odd"] = {2.5: {math.nan}, None: "ü" * 3}
    image.vmas[0] = replace(image.vmas[0], label="renamed")
    image.warm = True
    _assert_matches_reference(image)
