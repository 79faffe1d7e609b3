"""Unit tests for the payload size estimator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.core import RingMsg
from repro.ft.agreement import _Msg
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

    def test_flat_dataclass_hits_its_token_without_a_walk(self):
        util._SHAPE_CACHE.clear()
        assert payload_nbytes(_Flat(1, 2.0)) == ENVELOPE_BYTES + 8 + 16
        assert _Flat in util._FIELD_GETTERS
        assert util._SHAPE_CACHE == {(_Flat, int, float): ENVELOPE_BYTES + 24}
        assert payload_nbytes(_Flat(True, None)) == ENVELOPE_BYTES + 8 + 1
        assert len(util._SHAPE_CACHE) == 2

    def test_instance_nbytes_beats_a_memoised_flat_shape(self):
        util._SHAPE_CACHE.clear()
        assert payload_nbytes(_Flat(1, 2.0)) == ENVELOPE_BYTES + 24
        sized = _Flat(3, 4.0)
        sized.nbytes = 1000  # set on the instance, not the class
        assert (_Flat, int, float) in util._SHAPE_CACHE
        assert payload_nbytes(sized) == ENVELOPE_BYTES + 1000
        assert payload_nbytes(_Flat(5, 6.0)) == ENVELOPE_BYTES + 24


class TestTupleElementTokens:
    """Containers of same-shape scalar tuples — the agreement's
    ``frozenset`` of ``(int, int)`` pairs — have a token."""

    def test_pairs_share_a_token(self):
        token = (frozenset, (tuple, int, int), 2)
        assert util._shape_token(frozenset({(1, 2), (3, 4)})) == token
        assert util._shape_token(frozenset({(5, 6), (7, 8)})) == token
        assert util._shape_token([(True, 1.0)]) == (list, (tuple, bool, float), 1)
        assert util._shape_token(((), ())) == (tuple, (tuple,), 2)

    def test_refused(self):
        for v in (
            [(1, 2), (1, 2, 3)],  # mixed arities
            [(1, 2), (True, 2)],  # bool/int mix
            [(1, 2), (1, 2.0)],
            [((1, 2), 3)],  # nested tuple
            [(1, 2), ((1, 2), 3)],
            [(1, "a")],  # a string element
            [(1, 2), 3],  # tuples mixed with scalars
            [3, (1, 2)],
            [_Pt((1, 2))],  # a tuple subclass
        ):
            assert util._shape_token(v) is None, v

    def test_agreement_message_is_one_lookup(self):
        util._SHAPE_CACHE.clear()
        msg = _Msg("decide", 3, 1, 0, frozenset({(1, 2), (4, 7)}), True)
        walk = ENVELOPE_BYTES + _body_nbytes(msg)
        assert util._shape_token(msg) is not None
        assert payload_nbytes(msg) == walk
        other = _Msg("decide", 9, 2, 5, frozenset({(0, 0), (3, 9)}), False)
        assert payload_nbytes(other) == walk
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


@dataclass
class _Flat:
    a: Any
    b: Any


class _Pt(tuple):
    """A tuple subclass element: the walk sizes it, no token names it."""


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


#: Tuple elements of containers: same-shape pairs get a token; mixed
#: arities, bool/int mixes and nested tuples must not.
_ELEMENTS = (
    st.tuples(st.integers(), st.integers())
    | st.tuples(st.booleans(), st.integers())
    | st.tuples(st.integers())
    | st.tuples(st.tuples(st.integers()), st.integers())
    | st.integers()
)


def _extend(inner):
    return (
        st.lists(inner, max_size=3)
        | st.lists(inner, max_size=3).map(tuple)
        | st.lists(st.integers(), max_size=3).map(frozenset)
        | st.lists(st.tuples(st.integers(), st.integers()), max_size=3).map(frozenset)
        | st.lists(_ELEMENTS, max_size=3).map(frozenset)
        | st.lists(_ELEMENTS, max_size=3).map(tuple)
        | st.builds(_Flat, _LEAVES, _LEAVES)
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
    @example([[(1, 2)], [(True, 2)], [(1, 2), (True, 2)], [((1,), 2)]])
    @example([frozenset({(1, 2)}), frozenset({(True, 2)}), frozenset({(1,)})])
    def test_memoised_size_is_the_walk_on_miss_and_hit(self, payloads):
        # Payloads of one shape share a cache entry: the first measures
        # it (a miss), the rest — and every second call — hit it.
        util._SHAPE_CACHE.clear()
        for p in payloads:
            walk = ENVELOPE_BYTES + _body_nbytes(p)
            assert payload_nbytes(p) == walk
            assert payload_nbytes(p) == walk
