"""Unit tests for the payload size estimator."""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, make_dataclass
from typing import Any

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import RingMsg
from repro.ft import comm_validate_all
from repro.ft.agreement import _Msg
from repro.parallel import RingScenario
from repro.protocols.replication import _RepMsg
from repro.simmpi import Simulation, util
from repro.simmpi.runtime import Runtime
from repro.simmpi.trace import SEND_POST
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
        assert payload_nbytes("\ud800") == ENVELOPE_BYTES + 1  # replaced

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

    def test_wrapped_ring_message(self):
        # The replication envelope around a ring message.
        msg = _RepMsg(src=1, seq=2, tag=3, payload=RingMsg(value=5, marker=3))
        assert payload_nbytes(msg) == 88
        other = _RepMsg(src=7, seq=9, tag=1, payload=RingMsg(value=0, marker=8))
        assert payload_nbytes(other) == 88

    def test_agreement_message(self):
        msg = _Msg("decide", 3, 1, 0, frozenset({(1, 2), (4, 7)}), True)
        assert payload_nbytes(msg) == ENVELOPE_BYTES + 8 + 6 + 3 * 8 + 8 + 2 * 24 + 1

    def test_flat_dataclass_sizes_by_its_values(self):
        assert payload_nbytes(_Flat(1, 2.0)) == ENVELOPE_BYTES + 8 + 16
        assert payload_nbytes(_Flat(True, None)) == ENVELOPE_BYTES + 8 + 1

    def test_instance_nbytes_beats_the_fields(self):
        assert payload_nbytes(_Flat(1, 2.0)) == ENVELOPE_BYTES + 24
        sized = _Flat(3, 4.0)
        sized.nbytes = 1000  # set on the instance, not the class
        assert payload_nbytes(sized) == ENVELOPE_BYTES + 1000
        assert payload_nbytes(_Flat(5, 6.0)) == ENVELOPE_BYTES + 24


class TestGeneratedSizers:
    """A dataclass whose fields decide its size gets a function of its
    own, which reads every field by name."""

    def test_one_function_per_type(self):
        util._SIZERS.clear()
        t = _dataclass_type(("value", "marker"), True)
        assert payload_nbytes(t(1, 2)) == ENVELOPE_BYTES + 8 + 16
        assert payload_nbytes(t("ab", None)) == ENVELOPE_BYTES + 8 + 2
        sizer = util._SIZERS[t]
        assert sizer.__code__.co_filename == f"<sizer of {t.__qualname__}>"
        assert payload_nbytes(t([1], 2)) == ENVELOPE_BYTES + 8 + 16 + 8
        assert util._SIZERS[t] is sizer

    def test_a_field_name_that_is_no_identifier_is_sized_by_the_walk(self):
        util._SIZERS.clear()
        odd = make_dataclass("Odd", [("a", Any)])
        odd.__dataclass_fields__ = {**odd.__dataclass_fields__, "a b": None}
        p = odd(1)
        setattr(p, "a b", "xyz")
        assert payload_nbytes(p) == ENVELOPE_BYTES + _body_nbytes(p) == 32 + 19
        assert util._SIZERS[odd] is _body_nbytes


class TestOneSizerPerType:
    """The table is keyed by exact type, never by a payload's values."""

    def test_values_add_no_entry(self):
        util._SIZERS.clear()
        for i in range(50):
            payload_nbytes(_Msg(f"kind{i}", i, i, i, frozenset(range(i)), i % 2 == 0))
        assert set(util._SIZERS) == {_Msg, str, frozenset}

    def test_scalars_have_no_entry(self):
        util._SIZERS.clear()
        for p in (None, True, 1, 2.0, 3j, [1, 2.0, None]):
            payload_nbytes(p)
        assert set(util._SIZERS) == {list}

    def test_more_types_than_the_bound(self):
        util._SIZERS.clear()
        n = util._SIZERS_MAX + 100
        types = [make_dataclass(f"D{i}", [("a", Any), ("b", Any)]) for i in range(n)]
        for i, t in enumerate(types):
            p = t(i, (str(i), t(None, 1.5)))
            assert payload_nbytes(p) == ENVELOPE_BYTES + _body_nbytes(p)
            assert len(util._SIZERS) <= util._SIZERS_MAX
        for t in types[:3]:  # dropped when the table started over
            p = t("x", [1])
            assert payload_nbytes(p) == ENVELOPE_BYTES + _body_nbytes(p)


def _counted_sizing(monkeypatch) -> list[type]:
    """Count every ``payload_nbytes`` call a simulation makes, by type."""
    calls: list[type] = []
    real = util.payload_nbytes

    def counted(payload):
        calls.append(type(payload))
        return real(payload)

    for name, mod in list(sys.modules.items()):
        if name.startswith("repro.") and getattr(mod, "payload_nbytes", None) is real:
            monkeypatch.setattr(mod, "payload_nbytes", counted)
    return calls


class TestFanOutIsSizedOnce:
    """A payload sent to many peers is priced once, not per copy."""

    @pytest.mark.parametrize("n", [8, 64])
    def test_fault_free_validate_sizes_n_messages_per_instance(self, monkeypatch, n):
        calls = _counted_sizing(monkeypatch)

        async def main(mpi):
            for _ in range(2):
                await comm_validate_all(mpi.comm_world)

        result = Simulation(nprocs=n).run(main)
        # n-1 contributions, one each, and one DECIDE fan-out to n-1 peers.
        assert result.perf.messages_sent == 2 * 2 * (n - 1)
        assert calls.count(_Msg) == len(calls) == 2 * n

    def test_fault_free_replicated_ring_sizes_each_logical_send_once(self, monkeypatch):
        calls = _counted_sizing(monkeypatch)
        scenario = RingScenario(nprocs=5, iters=6, protocol="replication")
        sim, main = scenario()
        result = sim.run(main)
        copies = sum(o.value["copies_sent"] for o in result.outcomes)
        # 10 physical senders x 7 logical sends x 2 live replicas.
        assert copies == result.perf.messages_sent == 10 * 7 * 2
        assert calls.count(_RepMsg) == len(calls) == copies // 2


@dataclass
class _Pair:
    a: Any
    b: Any


@dataclass
class _Sized:
    """An ``int`` ``nbytes`` field wins the walk."""

    nbytes: int
    extra: Any


@dataclass
class _Flat:
    a: Any
    b: Any


@dataclass
class _NoFields:
    pass


@dataclass
class _OneField:
    a: Any


class _Pt(tuple):
    """A tuple subclass element: the walk sizes it as a tuple."""


@dataclass(init=False)
class _TupleBox(tuple):
    """A tuple subclass takes the walk's tuple branch: its size is its
    items', whatever its fields hold."""

    label: str = "box"


@dataclass(init=False)
class _IntBox(int):
    """An int subclass is 8 bytes, whatever its fields hold."""

    label: str = "box"


@dataclass
class _ClassNbytes:
    """A class-level ``int`` ``nbytes`` that is not a field."""

    a: Any
    nbytes = 5


@dataclass
class _PropertyNbytes:
    a: Any

    @property
    def nbytes(self):
        return self.a if isinstance(self.a, int) else "not an int"


@dataclass(slots=True)
class _SlotNbytes:
    """``nbytes`` is a slot: an ``int`` value wins, any other does not."""

    nbytes: Any
    a: Any


@dataclass(slots=True)
class _Dynamic:
    """``__getattr__`` answers ``nbytes``, though no instance has a
    ``__dict__`` to carry one."""

    a: Any

    def __getattr__(self, name):
        if name == "nbytes":
            return 13 if isinstance(self.a, str) else None
        raise AttributeError(name)


@dataclass(slots=True)
class _Intercepting:
    """``__getattribute__`` answers ``nbytes``, though no instance has a
    ``__dict__`` to carry one."""

    a: Any

    def __getattribute__(self, name):
        if name == "nbytes":
            return 17
        return object.__getattribute__(self, name)


#: Field names of the generated dataclasses: plain ones, and ones that
#: spell the generated sizer's own names (its argument, locals and
#: globals), which a field must never shadow.
_FIELD_NAMES = (
    "a", "value", "marker", "p", "get", "size", "own", "type", "v0", "s1",
    "isinstance", "getattr",
)


@functools.cache
def _dataclass_type(names: tuple[str, ...], slots: bool) -> type:
    return make_dataclass(
        f"Gen{len(names)}{'S' if slots else 'D'}", [(n, Any) for n in names],
        slots=slots,
    )


def _dataclass_payloads(inner):
    """Instances of dataclasses with 0 to 8 fields, with slots or with a
    ``__dict__`` (which may carry its own ``nbytes``), holding *inner*
    values: each type gets a generated sizer."""

    @st.composite
    def build(draw):
        names = tuple(draw(st.lists(
            st.sampled_from(_FIELD_NAMES), unique=True, max_size=8
        )))
        slots = draw(st.booleans())
        p = _dataclass_type(names, slots)(*(draw(inner) for _ in names))
        if not slots and draw(st.booleans()):
            p.nbytes = draw(st.integers(0, 99) | inner)
        return p

    return build()


def _with_own_nbytes(a: Any, own: Any) -> _Pair:
    """A plain dataclass instance carrying ``nbytes`` in its ``__dict__``."""
    p = _Pair(a, None)
    p.nbytes = own
    return p


_STRINGS = st.text(
    st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF)
    | st.characters(max_codepoint=0x7F)
    | st.characters(),
    max_size=6,
)

_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.complex_numbers(allow_nan=False) | _STRINGS
    | st.binary(max_size=6)
    | st.binary(max_size=6).map(bytearray)
    | st.binary(max_size=8).map(memoryview)
    | st.integers(0, 4).map(np.zeros)
    | st.integers(-9, 9).map(np.int32) | st.floats(allow_nan=False).map(np.float64)
    | st.builds(_NoFields)
)


#: Tuple elements of containers: same-shape pairs, mixed arities,
#: bool/int mixes and nested tuples.
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
        | st.lists(st.integers(), max_size=3).map(set)
        | st.lists(st.tuples(st.integers(), st.integers()), max_size=3).map(frozenset)
        | st.lists(_ELEMENTS, max_size=3).map(frozenset)
        | st.lists(_ELEMENTS, max_size=3).map(tuple)
        | st.lists(inner, max_size=3).map(_Pt)
        | st.builds(_Flat, _LEAVES, _LEAVES)
        | st.builds(_OneField, inner)
        | st.dictionaries(_STRINGS, inner, max_size=2)
        | st.builds(_Pair, inner, inner)
        | st.builds(_RepMsg, st.integers(), st.integers(), st.integers(), inner)
        | st.builds(_Sized, st.integers(0, 99), inner)
        | st.lists(st.integers(), max_size=3).map(_TupleBox)
        | st.integers().map(_IntBox)
        | st.builds(_ClassNbytes, inner)
        | st.builds(_PropertyNbytes, st.integers(0, 99) | inner)
        | st.builds(_SlotNbytes, st.integers(0, 99) | inner, inner)
        | st.builds(_Dynamic, inner)
        | st.builds(_Intercepting, inner)
        | st.builds(_with_own_nbytes, inner, st.integers(0, 99) | inner)
        | _dataclass_payloads(inner)
    )


_PAYLOADS = st.recursive(_LEAVES, _extend, max_leaves=8)


class TestShapeCacheProperty:
    """The per-type sizer table (the cache) never changes a size: a type's
    first payload builds its sizer (a miss), later ones reuse it (hits)."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_PAYLOADS, min_size=1, max_size=6))
    @example([_Sized(1, None), _Sized(2, None)])
    @example([_Pair(_TupleBox(()), 0), _Pair(_TupleBox((1, 2)), 0)])
    @example([[(1, 2)], [(True, 2)], [(1, 2), (True, 2)], [((1,), 2)]])
    @example([frozenset({(1, 2)}), frozenset({(True, 2)}), frozenset({(1,)})])
    @example([_Flat(1, 2), _with_own_nbytes(1, 40), _with_own_nbytes(1, "x")])
    @example([_IntBox(3), _Pair(_IntBox(3), _TupleBox((1.0,)))])
    @example([_ClassNbytes(1), _PropertyNbytes(7), _PropertyNbytes(None)])
    @example([_SlotNbytes(3, "ab"), _SlotNbytes("ab", 3)])
    @example([_Dynamic("a"), _Dynamic(1), _Intercepting(None)])
    @example(["ascii", "é", "\ud800", "日本", _Pair("\udfff", "ok")])
    @example([b"ab", bytearray(b"abc"), memoryview(b"abcd"), {"k": [1]}])
    @example([np.zeros(3), np.int32(1), np.float64(2.0), [np.zeros(2)]])
    @example([_NoFields(), _OneField(_OneField(1)), (_Pt((1, 2)),)])
    @example([
        _dataclass_type((), True)(),
        _dataclass_type(_FIELD_NAMES[:8], True)(*range(7), [1.0, "x"]),
        _dataclass_type(_FIELD_NAMES[4:], False)(*"abcdefg", None),
    ])
    def test_memoised_size_is_the_walk_on_miss_and_hit(self, payloads):
        util._SIZERS.clear()
        for p in payloads:
            walk = ENVELOPE_BYTES + _body_nbytes(p)
            assert payload_nbytes(p) == walk
            assert payload_nbytes(p) == walk
        # ``Runtime.post_send`` sizes in its own frame: the size its
        # SEND_POST row records is the walk too, on a miss and a hit.
        util._SIZERS.clear()
        rt = Runtime(2)
        rows = rt.trace.rows
        for p in payloads:
            walk = ENVELOPE_BYTES + _body_nbytes(p)
            for _ in range(2):
                rt.post_send(rt.procs[0], 1, 0, 0, p)
                assert rows[-1][1] == SEND_POST
                assert rows[-1][6] == walk
