"""Unit tests for the payload size estimator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.core import RingMsg
from repro.protocols.replication import _RepMsg
from repro.simmpi import util
from repro.simmpi.util import ENVELOPE_BYTES, _body_nbytes, payload_nbytes


class TestPayloadNbytes:
    def test_none_is_envelope_only(self):
        assert payload_nbytes(None) == ENVELOPE_BYTES

    def test_int_float(self):
        assert payload_nbytes(7) == ENVELOPE_BYTES + 8
        assert payload_nbytes(3.14) == ENVELOPE_BYTES + 8

    def test_bool_smaller_than_int(self):
        assert payload_nbytes(True) < payload_nbytes(1)

    def test_bytes_and_str(self):
        assert payload_nbytes(b"abcd") == ENVELOPE_BYTES + 4
        assert payload_nbytes("abcd") == ENVELOPE_BYTES + 4
        assert payload_nbytes("é") == ENVELOPE_BYTES + 2  # utf-8

    def test_numpy_uses_nbytes(self):
        arr = np.zeros(100, dtype=np.float64)
        assert payload_nbytes(arr) == ENVELOPE_BYTES + 800

    def test_containers_sum_elements(self):
        assert payload_nbytes([1, 2, 3]) == ENVELOPE_BYTES + 8 + 3 * 8
        assert payload_nbytes((1.0, 2.0)) == ENVELOPE_BYTES + 8 + 16

    def test_dict_counts_keys_and_values(self):
        assert payload_nbytes({1: 2}) == ENVELOPE_BYTES + 8 + 16

    def test_dataclass_walks_fields(self):
        msg = RingMsg(value=5, marker=3)
        assert payload_nbytes(msg) == ENVELOPE_BYTES + 8 + 16

    def test_nested_structure(self):
        @dataclass
        class Box:
            items: list

        b = Box(items=[1, "ab"])
        assert payload_nbytes(b) > ENVELOPE_BYTES + 8

    def test_deterministic(self):
        payload = {"a": [1, 2.0, "xyz"], "b": (None, True)}
        assert payload_nbytes(payload) == payload_nbytes(payload)

    def test_opaque_object_flat_guess(self):
        class Weird:
            __slots__ = ()

        assert payload_nbytes(Weird()) == ENVELOPE_BYTES + 8

    def test_wrapped_ring_message_is_one_lookup(self):
        # The replication envelope around a ring message (4,279 of the
        # 9,368 sends of a protocols comparison): nested, yet its shape is
        # a key, so every send after the first is one cache hit.
        util._SHAPE_CACHE.clear()
        msg = _RepMsg(src=1, seq=2, tag=3, payload=RingMsg(value=5, marker=3))
        assert util._shape_token(msg) is not None
        assert payload_nbytes(msg) == 88
        assert len(util._SHAPE_CACHE) == 1
        other = _RepMsg(src=7, seq=9, tag=1, payload=RingMsg(value=0, marker=8))
        assert payload_nbytes(other) == 88
        assert len(util._SHAPE_CACHE) == 1


@dataclass
class _Pair:
    a: Any
    b: Any


@dataclass
class _Sized:
    """An ``int`` ``nbytes`` attribute wins the walk: never a shape."""

    nbytes: int
    extra: Any


@dataclass(init=False)
class _TupleBox(tuple):
    """A tuple subclass takes the walk's tuple branch: its size is its
    items', whatever its fields hold."""

    label: str = "box"


_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.complex_numbers(allow_nan=False) | st.text(max_size=6)
    | st.binary(max_size=6)
)


def _extend(inner):
    return (
        st.lists(inner, max_size=3)
        | st.lists(inner, max_size=3).map(tuple)
        | st.lists(st.integers(), max_size=3).map(frozenset)
        | st.dictionaries(st.text(max_size=3), inner, max_size=2)
        | st.builds(_Pair, inner, inner)
        | st.builds(_RepMsg, st.integers(), st.integers(), st.integers(), inner)
        | st.builds(_Sized, st.integers(0, 99), inner)
        | st.lists(st.integers(), max_size=3).map(_TupleBox)
    )


_PAYLOADS = st.recursive(_LEAVES, _extend, max_leaves=8)


class TestShapeCacheProperty:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_PAYLOADS, min_size=1, max_size=6))
    @example([_Sized(1, None), _Sized(2, None)])
    @example([_Pair(_TupleBox(()), 0), _Pair(_TupleBox((1, 2)), 0)])
    def test_memoised_size_is_the_walk_on_miss_and_hit(self, payloads):
        # Payloads of one shape share a cache entry: the first measures
        # it (a miss), the rest — and every second call — hit it.
        util._SHAPE_CACHE.clear()
        for p in payloads:
            walk = ENVELOPE_BYTES + _body_nbytes(p)
            assert payload_nbytes(p) == walk
            assert payload_nbytes(p) == walk
