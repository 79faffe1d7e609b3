"""Cache keys are pinned byte for byte (:mod:`repro.cache.keys`).

A key that moves silently turns every existing store into misses; a key
that stops moving serves a wrong result.  Four pins that do not look
at how the encoder works (the first three and the last), and one that
does:

* literal key vectors, one job of every cacheable type, recorded at the
  commit before the encoder was rewritten to emit text directly;
* that commit's tree-then-``json.dumps`` canonicalizer, frozen below as
  the oracle, against which a hypothesis property compares the token of
  random nestings of everything the grammar knows;
* the semantics of the per-batch memo of :func:`job_keys`: sharing a
  sub-object changes no key, nothing is remembered across calls, and a
  shared sub-object is read once per call;
* the generated encoder of each dataclass type against the field-plan
  loop it replaced, kept below as a second oracle, over drawn
  dataclasses whose field names spell the generated code's own names;
* the reuse of a field's text from the previous job of a batch: every
  key of a drawn batch equals the job's key derived alone.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
from dataclasses import dataclass, fields, is_dataclass, make_dataclass
from enum import Enum, IntEnum
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from repro import mutation, perf
from repro.cache import RunCache, canonical_token, job_key, job_keys, keys
from repro.cache.keys import Uncacheable
from repro.faults.campaign import CampaignJob
from repro.faults.explorer import Window, WindowJob
from repro.faults.schedule import KillSpec
from repro.fuzz.config import FuzzConfig, JitterSpec
from repro.fuzz.driver import FuzzJob
from repro.parallel import SerialRunner, with_cache
from repro.protocols import ProtocolCompareJob
from tests.conftest import RING_INVARIANTS, RING_SCENARIO, factory_for

# ---------------------------------------------------------------------------
# (a) Literal key vectors
# ---------------------------------------------------------------------------

_WINDOWS = (
    Window(rank=1, probe="post_recv", hit=1),
    Window(rank=2, probe="pre_send", hit=2),
)

_CAMPAIGN_JOB = CampaignJob(
    factory=RING_SCENARIO,
    seed=5,
    horizon=2e-5,
    kills_per_run=2,
    eligible_ranks=(1, 2, 3),
    invariants=RING_INVARIANTS,
)


def _fuzz_job(index):
    return FuzzJob(
        config=FuzzConfig(
            scenario=RING_SCENARIO,
            policy="random",
            policy_seed=9,
            jitter=JitterSpec(seed=3, overhead=0.05, latency=0.1, byte_cost=1e-05),
            faults=(
                KillSpec("time", 2, time=1.5e-05),
                KillSpec("probe", 1, probe="post_recv", hit=2),
                KillSpec("call", 3, call_no=4, op="send"),
            ),
        ),
        index=index,
        invariants=RING_INVARIANTS,
    )


def _compare_job(protocol):
    return ProtocolCompareJob(
        protocol=protocol, nprocs=5, iters=4, seed=1, horizon=2e-5
    )


#: (job, key under repro 1.1.0 with no mutation active).
KEY_VECTORS = {
    "campaign": (_CAMPAIGN_JOB, "32340b8bf58881ce14af3b78cf160082888708a6"),
    # Re-pinned once when the hand-set ``trace`` field left the job (and
    # with it the key text); every other vector is older than that.
    "window": (
        WindowJob(factory=RING_SCENARIO, windows=_WINDOWS,
                  invariants=RING_INVARIANTS),
        "46be785f0ab04526233b203332298b83684ce365",
    ),
    "fuzz": (_fuzz_job(17), "5118b002feaebc905a6b7e2da2e1cef6966ac3aa"),
    # ``index`` is excluded from the key.
    "fuzz_other_index": (
        _fuzz_job(0), "5118b002feaebc905a6b7e2da2e1cef6966ac3aa"
    ),
    "compare_rts": (
        _compare_job("rts"), "c365f6766d8dedae4c396c8354061aabdf5e1c42"
    ),
    "compare_shrink_repair": (
        _compare_job("shrink_repair"),
        "236d5ee34969e154a9d42c60306eda901bafb1fd",
    ),
    "compare_replication": (
        _compare_job("replication"),
        "7b22253e677eee0e4e02f5f7d9bd5fff1556c89c",
    ),
    "compare_partial_restart": (
        _compare_job("partial_restart"),
        "b940b209ab82e9c0591a3bcf46dc7d8839fc55d4",
    ),
}


@pytest.fixture
def recorded_salts(monkeypatch):
    """The salts the vectors were recorded under: they pin the
    derivation, and must survive a deliberate version bump."""
    monkeypatch.setattr(keys, "__version__", "1.1.0")
    assert mutation.active_set() == ()


class TestKeyVectors:
    @pytest.mark.parametrize("name", KEY_VECTORS)
    def test_one_job(self, name, recorded_salts):
        job, expected = KEY_VECTORS[name]
        assert job_key(job) == expected

    def test_one_batch(self, recorded_salts):
        jobs = [job for job, _ in KEY_VECTORS.values()]
        assert job_keys(jobs) == [key for _, key in KEY_VECTORS.values()]

    def test_token_text(self):
        assert canonical_token(_compare_job("rts")) == (
            '{"__dc__":"repro.protocols.compare.ProtocolCompareJob",'
            '"fields":{"baseline":false,"detection_latency":0.0,'
            '"horizon":2e-05,"iters":4,"kills_per_run":1,"nprocs":5,'
            '"protocol":"rts","seed":1,"sim_seed":0,"spares":2,'
            '"work_per_iter":0.0}}'
        )


# ---------------------------------------------------------------------------
# (b) The oracle: the canonicalizer as it was, tree first, then json.dumps
# ---------------------------------------------------------------------------


def _oracle_sorted(tokens):
    return sorted(tokens, key=lambda t: json.dumps(t, sort_keys=True))


def _oracle_qualname(cls):
    return f"{cls.__module__}.{cls.__qualname__}"


def _oracle_tokenize(obj):
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [_oracle_tokenize(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return {"__set__": _oracle_sorted([_oracle_tokenize(x) for x in obj])}
    if isinstance(obj, dict):
        return {
            "__map__": _oracle_sorted(
                [[_oracle_tokenize(k), _oracle_tokenize(v)]
                 for k, v in obj.items()]
            )
        }
    if isinstance(obj, Enum):
        return {
            "__enum__": _oracle_qualname(type(obj)),
            "value": _oracle_tokenize(obj.value),
        }
    if is_dataclass(obj) and not isinstance(obj, type):
        exclude = set(getattr(type(obj), "_cache_key_exclude", ()))
        return {
            "__dc__": _oracle_qualname(type(obj)),
            "fields": {
                f.name: _oracle_tokenize(getattr(obj, f.name))
                for f in fields(obj)
                if f.name not in exclude and not f.name.startswith("_")
            },
        }
    if isinstance(obj, functools.partial):
        return {
            "__partial__": [
                _oracle_tokenize(obj.func),
                _oracle_tokenize(obj.args),
                _oracle_tokenize(obj.keywords),
            ]
        }
    if callable(obj):
        name = _oracle_qualname(obj if isinstance(obj, type) else type(obj))
        if isinstance(obj, type):
            raise Uncacheable(f"bare class {name} cannot be keyed")
        qual = getattr(obj, "__qualname__", "")
        mod = getattr(obj, "__module__", "")
        if not mod or not qual or "<lambda>" in qual or "<locals>" in qual:
            raise Uncacheable(f"callable {qual or obj!r} is not addressable")
        return {"__fn__": f"{mod}.{qual}"}
    raise Uncacheable(f"cannot canonicalize {type(obj).__name__}")


def oracle_token(obj):
    return json.dumps(
        _oracle_tokenize(obj), sort_keys=True, separators=(",", ":")
    )


def oracle_key(job):
    try:
        token = oracle_token(job)
    except Uncacheable:
        return None
    h = hashlib.blake2b(digest_size=20)
    salts = (keys.KEY_FORMAT, keys.__version__, ",".join(mutation.active_set()))
    for part in (*salts, token):
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()


def _outcome(encode, obj):
    try:
        return encode(obj)
    except Uncacheable:
        return Uncacheable


# -- what the property draws from (module level: addressable by name) -------


class Color(Enum):
    RED = 1
    GREEN = "g"
    PAIR = (1, "x")


class Level(IntEnum):
    LOW = 1
    HIGH = 7


class Mode(str, Enum):
    FAST = "fast"
    QUOTED = 'sl"ow\\'


@dataclass(frozen=True)
class Leaf:
    b: Any = None
    a: Any = 0

    def method(self):
        return self.a


@dataclass
class Node:
    z: Any
    child: Any
    skip: Any = "display only"
    _hidden: Any = "bookkeeping"

    _cache_key_exclude = ("skip",)


@dataclass
class TaggedList(list):
    """A dataclass that is a list: the list branch comes first."""

    tag: int = 0


@dataclass(frozen=True)
class _Point:
    x: int
    y: int


class Corner(_Point, Enum):
    """A dataclass that is an Enum: the Enum branch comes first."""

    ORIGIN = (0, 0)
    FAR = (3, 4)


def module_fn(*args, **kwargs):
    return args, kwargs


class PlainCallable:
    def __call__(self):
        return None


def _closure():
    def inner():
        return None

    return inner


_FLOATS = [
    -0.0, 0.0, 1e-05, 1e22, 1e16, 1e-7, 5e-324, 2.2250738585072014e-308,
    123456789.123, float("inf"), float("-inf"), float("nan"),
]
_STRINGS = [
    "", 'q"uote', "back\\slash", "ctl\x00\x1f\n\t\x7f", "é€\U0001f600",
    "\ud800", "a,b", "a, b", "a:b", '","', "[1,2]",
]
_NAMED = [
    Color.RED, Color.GREEN, Color.PAIR, Level.LOW, Level.HIGH, Mode.FAST,
    Mode.QUOTED, Corner.ORIGIN, Corner.FAR, module_fn, len, Leaf().method,
]
_UNCACHEABLE = [
    lambda: 0, _closure(), object(), Leaf, b"bytes", PlainCallable(),
    "abc".upper,
]

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**30, -(2**64), 2**63, 0, 1, -1]),
    st.floats(),
    st.sampled_from(_FLOATS),
    st.text(max_size=8),
    st.sampled_from(_STRINGS),
)
_leaves = st.one_of(
    _scalars, st.sampled_from(_NAMED), st.sampled_from(_UNCACHEABLE)
)
_field_names = st.sampled_from(["a", "b", "k", "é"])


def _partial(args, kwargs):
    return functools.partial(module_fn, *args, **kwargs)


def _hashable_containers(children):
    return st.one_of(
        st.lists(children, max_size=4).map(tuple),
        st.frozensets(children, max_size=4),
        st.builds(Leaf, children, children),
        st.builds(
            _partial,
            st.lists(children, max_size=2),
            st.dictionaries(_field_names, children, max_size=2),
        ),
    )


_hashables = st.recursive(_leaves, _hashable_containers, max_leaves=8)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.sets(_hashables, max_size=4),
        st.dictionaries(_hashables, children, max_size=4),
        st.builds(Node, children, children, children, children),
        st.builds(Leaf, children, children),
        st.builds(
            _partial,
            st.lists(children, max_size=2),
            st.dictionaries(_field_names, children, max_size=2),
        ),
    )


_anything = st.recursive(_hashables, _containers, max_leaves=12)


def _tagged_list():
    tagged = TaggedList(tag=3)
    tagged.extend([1, "x"])
    return tagged


#: Cases picked by hand: orderings that differ between the compact text
#: and the spaced text the old sort keyed on if they differ anywhere, the
#: two branch-order hybrids, scalar subclasses, empty containers.
EDGE_CASES = [
    {(1, 2), (1,), (12,), (1, 20), "a,b", "a, b", ("a", "b"), ("a",)},
    {("a",): 1, ("a", "b"): 2, "a": {1: 2}, 'a"': [1, 2], "a ": None},
    frozenset({frozenset({1, 2}), frozenset({1}), frozenset({12}), (), ""}),
    {True: 1.0, 2: True, 1.5: 1, "1": None},
    [True, 1, 1.0, False, 0, -0.0],
    _tagged_list(),
    Corner.FAR,
    [Level.HIGH, Mode.QUOTED, Color.PAIR],
    [[], (), set(), frozenset(), {}, "", Leaf()],
    Node(z=float("nan"), child=Leaf(a=[float("inf")], b=-float("inf"))),
    functools.partial(module_fn, 1, key=Leaf()),
    {1: lambda: 0},
    [Leaf(a=object())],
    {Leaf},
]


# (hypothesis builds a repr of the nested strategy when a set draw is
# rejected as a duplicate, and warns about its size)
@pytest.mark.filterwarnings("ignore:Generating overly large repr")
class TestOracle:
    @pytest.mark.parametrize("case", range(len(EDGE_CASES)))
    def test_edge_cases(self, case):
        obj = EDGE_CASES[case]
        assert _outcome(canonical_token, obj) == _outcome(oracle_token, obj)

    @settings(max_examples=400, deadline=None)
    @given(_anything)
    def test_same_text_or_same_refusal(self, obj):
        assert _outcome(canonical_token, obj) == _outcome(oracle_token, obj)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_anything, max_size=4))
    def test_one_memo_over_many_objects(self, objs):
        # One batch, hence one memo, over objects that share leaves
        # (the sampled enum members, callables and refusals are the
        # same objects in every draw).
        jobs = [_Keyed(obj) for obj in objs] * 2
        assert job_keys(jobs) == [oracle_key(job) for job in jobs]


# ---------------------------------------------------------------------------
# (c) The per-batch memo
# ---------------------------------------------------------------------------


@dataclass
class _Keyed:
    """The smallest job inside the cache contract."""

    spec: Any
    n: int = 0

    def __call__(self):
        return self.n

    def cache_payload(self):
        return self.n, {"n": self.n}

    def from_cached(self, payload):
        return payload["n"]


@dataclass
class _MutableSpec:
    level: int = 1


@dataclass
class _CountedSpec:
    value: int = 0

    reads = 0  # of ``value``, over every instance

    def __getattribute__(self, name):
        if name == "value":
            _CountedSpec.reads += 1
        return object.__getattribute__(self, name)


class TestMemo:
    def test_shared_and_equal_sub_objects_key_alike(self):
        shared = Leaf(a=(1, 2), b="x")
        twin = Leaf(a=(1, 2), b="x")
        assert shared is not twin
        a, b, c = job_keys([_Keyed(shared), _Keyed(shared), _Keyed(twin)])
        assert a == b == c == job_key(_Keyed(Leaf(a=(1, 2), b="x")))

    def test_nothing_is_remembered_between_calls(self):
        spec = _MutableSpec()
        jobs = [_Keyed(spec, n) for n in range(3)]
        before = job_keys(jobs)
        spec.level = 2
        after = job_keys(jobs)
        assert not set(before) & set(after)
        spec.level = 1
        assert job_keys(jobs) == before

    def test_spec_mutated_between_two_runs_misses(self, tmp_path):
        runner = with_cache(SerialRunner(), RunCache(tmp_path / "cache"))
        spec = _MutableSpec()
        jobs = [_Keyed(spec, n) for n in range(3)]
        before = perf.CACHE.snapshot()
        assert runner.run(jobs) == [0, 1, 2]
        assert runner.run(jobs) == [0, 1, 2]
        d = perf.CACHE.delta(before)
        assert (d["misses"], d["hits"]) == (3, 3)
        spec.level = 2
        before = perf.CACHE.snapshot()
        assert runner.run(jobs) == [0, 1, 2]
        d = perf.CACHE.delta(before)
        assert (d["misses"], d["hits"], d["stores"]) == (3, 0, 3)
        assert len(list(runner.cache.keys())) == 6

    def test_shared_sub_object_is_read_once_per_call(self):
        spec = _CountedSpec(value=4)
        jobs = [_Keyed(spec, n) for n in range(100)]
        _CountedSpec.reads = 0
        batch = job_keys(jobs)
        assert _CountedSpec.reads == 1
        assert job_keys(jobs) == batch
        assert _CountedSpec.reads == 2
        assert len(set(batch)) == 100

    def test_batch_equals_one_by_one_including_the_refusals(self):
        window = dict(windows=_WINDOWS, invariants=RING_INVARIANTS)
        closure = factory_for()
        jobs = [
            WindowJob(factory=RING_SCENARIO, **window),
            WindowJob(factory=closure, **window),  # not addressable
            WindowJob(factory=RING_SCENARIO, keep_results=True, **window),
            _Plain(a=RING_SCENARIO),  # no cache contract
            WindowJob(factory=closure, windows=_WINDOWS[:1]),
            _CAMPAIGN_JOB,
        ]
        batch = job_keys(jobs)
        assert batch == [job_key(job) for job in jobs]
        assert [key is None for key in batch] == [
            False, True, True, True, True, False
        ]

    def test_refusal_inside_a_shared_sub_object_refuses_every_holder(self):
        shared = Leaf(a=(1, 2), b=lambda: 0)
        jobs = [_Keyed(shared, n) for n in range(4)] + [_Keyed(Leaf(), 9)]
        batch = job_keys(jobs)
        assert batch[:4] == [None] * 4 and batch[4] is not None


# ---------------------------------------------------------------------------
# (d) Generated dataclass encoders against the plan loop they replaced
# ---------------------------------------------------------------------------


def _plan_loop_text(obj):
    """The dataclass branch as it was: walk the field plan, encode each
    value, join.  Nested dataclasses and tuples recurse here, so no
    generated encoder takes part; everything else is a leaf."""
    if is_dataclass(obj) and not isinstance(obj, type):
        head, plan = keys._plan(type(obj))
        parts = [head]
        for name, prefix in plan:
            parts.append(prefix)
            parts.append(_plan_loop_text(getattr(obj, name)))
        parts.append("}}")
        return "".join(parts)
    if type(obj) is tuple:
        return "[" + ",".join([_plan_loop_text(x) for x in obj]) + "]"
    return keys._text(obj, {})


#: Field names that spell the generated code's parameters, locals and
#: globals, a non-ASCII one, and one the plan leaves out of the key.
_ENCODER_NAMES = [
    "o", "memo", "v0", "s0", "t0", "v1", "s1", "t7", "encode", "text",
    "quote", "getattr", "type", "id", "repr", "str", "int", "float",
    "bool", "non_finite", "é", "a", "_hidden", "p0", "q0", "p1", "rest",
    "salt", "h", "unseen", "batch", "key_of",
]


@st.composite
def _drawn_dataclass(draw, values):
    """An instance of a fresh dataclass of 0–8 drawn fields, some of
    them named in ``_cache_key_exclude``, holding drawn values; now and
    then two fields hold the same object, so the second is a memo hit
    when that object is not a scalar."""
    names = draw(
        st.lists(st.sampled_from(_ENCODER_NAMES), max_size=8, unique=True)
    )
    excluded = (
        draw(st.lists(st.sampled_from(names), unique=True)) if names else []
    )
    cls = make_dataclass(
        "Drawn",
        [(name, Any) for name in names],
        namespace={"_cache_key_exclude": tuple(excluded)},
        frozen=draw(st.booleans()),
    )
    held = [draw(values) for _ in names]
    if len(held) >= 2 and draw(st.booleans()):
        first, second = draw(st.permutations(range(len(held))))[:2]
        held[second] = held[first]
    return cls(*held)


_encoder_leaves = st.one_of(
    st.integers(),
    st.sampled_from([10**30, -(2**64), True, False]),
    st.text(max_size=6),
    st.sampled_from(_STRINGS),
    st.booleans(),
    st.floats(),
    # nan, ±inf and -0.0 in every run, not only when drawn by chance
    st.sampled_from(_FLOATS),
    st.none(),
    # IntEnum and str-mixin members, which must not take an exact path
    st.sampled_from([*Color, *Level, *Mode]),
)
_encoder_values = st.recursive(
    _encoder_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=3).map(tuple),
        _drawn_dataclass(children),
    ),
    max_leaves=8,
)


class TestGeneratedEncoders:
    @settings(max_examples=100, deadline=None)
    @given(_drawn_dataclass(_encoder_values))
    def test_same_text_as_the_plan_loop(self, obj):
        token = canonical_token(obj)
        assert token == _plan_loop_text(obj)
        assert token == oracle_token(obj)
        assert type(obj) in keys._ENCODERS

    @settings(max_examples=50, deadline=None)
    @given(st.lists(_drawn_dataclass(_encoder_values), min_size=1, max_size=3))
    def test_one_memo_over_drawn_dataclasses(self, objs):
        # Each object twice in one batch: the second holder's fields are
        # memo hits inside the generated encoders.
        jobs = [_Keyed(obj) for obj in objs] * 2
        assert job_keys(jobs) == [oracle_key(job) for job in jobs]

    def test_scalar_edges_inline(self):
        held = [
            float("nan"), float("inf"), float("-inf"), -0.0, 0.0, None,
            True, False, Level.HIGH, 7, Mode.FAST, "fast",
        ]
        names = [f"f{i:02d}" for i in range(len(held))]
        cls = make_dataclass("Edges", [(name, Any) for name in names])
        obj = cls(*held)
        token = canonical_token(obj)
        assert token == oracle_token(obj) == _plan_loop_text(obj)
        assert '"f00":NaN,"f01":Infinity,"f02":-Infinity,"f03":-0.0,' in token
        assert '"f05":null,"f06":true,"f07":false,' in token
        # An IntEnum member is not an exact int, nor a str-mixin member
        # an exact str: they go round through _text, which prints them
        # as json.dumps does.  repr() would spell the member.
        assert '"f08":7,"f09":7,"f10":"fast","f11":"fast"}}' in token
        assert repr(Level.HIGH) != "7"

    def test_names_that_are_not_identifiers_are_read_by_getattr(self):
        odd = dataclass(init=False, repr=False, eq=False)(
            type("Odd", (), {
                "__annotations__": {"a-b": Any, "for": Any, "c": Any},
            })
        )
        obj = odd()
        for name, value in (("a-b", 1.5), ("for", None), ("c", "x")):
            setattr(obj, name, value)
        token = canonical_token(obj)
        assert token == oracle_token(obj) == _plan_loop_text(obj)
        assert token.endswith('"fields":{"a-b":1.5,"c":"x","for":null}}')

    def test_a_campaign_job_calls_the_encoder_once(self, monkeypatch):
        """Every field of a campaign job is an exact scalar or the
        batch's shared scenario and invariants: past the first job,
        keying one reaches :func:`keys._text` not at all."""
        calls = []
        text = keys._text

        def counted(obj, memo):
            calls.append(type(obj).__name__)
            return text(obj, memo)

        monkeypatch.setattr(keys, "_ENCODERS", {})
        monkeypatch.setattr(keys, "_text", counted)
        jobs = [
            CampaignJob(
                factory=RING_SCENARIO, seed=seed, horizon=2e-5,
                kills_per_run=2, invariants=RING_INVARIANTS,
                keep_results=False,
            )
            for seed in range(4)
        ]
        job_keys(jobs[:1])  # generates the three encoders
        calls.clear()
        assert job_keys(jobs) == [oracle_key(job) for job in jobs]
        assert calls == ["RingScenario", "StandardRingInvariants"]


# ---------------------------------------------------------------------------
# (e) Field texts reused from the previous job of the same type
# ---------------------------------------------------------------------------


@dataclass
class _Triple:
    """A job of three keyed fields, so a field that refuses can come
    after one that changed since the previous job."""

    a: Any
    b: Any
    c: Any

    def __call__(self):
        return None

    def cache_payload(self):
        return None, {}

    def from_cached(self, payload):
        return None


@dataclass
class _Plain:
    """A job outside the cache contract: never keyed."""

    a: Any


#: Values equal as numbers but not as keys, and floats whose text is
#: not their ``repr``; each is one object in every draw.
_TYPE_CHANGES = [
    1, True, 1.0, 0, False, 0.0, -0.0, float("nan"), float("inf"), None,
    "1", Level.HIGH,
]
_batch_scalars = st.one_of(
    st.sampled_from(_TYPE_CHANGES),
    st.integers(-2, 2),
    st.floats(),  # a fresh nan now and then: equal text, other object
)
_batch_objects = st.one_of(
    _batch_scalars,
    st.lists(_batch_scalars, max_size=2),
    st.builds(Leaf, _batch_scalars, _batch_scalars),
    st.sampled_from(_UNCACHEABLE[:3]),
)


@st.composite
def _drawn_batch(draw):
    """A batch of campaign-like jobs: their fields hold objects from one
    small pool (shared with other jobs), copies of them (equal, not
    shared) or fresh draws; job types mix, and a job outside the
    contract gets no key."""
    pool = draw(st.lists(_batch_objects, min_size=1, max_size=4))
    value = st.one_of(
        st.sampled_from(pool),
        st.sampled_from(pool).map(copy.copy),
        _batch_objects,
    )
    job = st.one_of(
        st.builds(_Keyed, value, value),
        st.builds(_Triple, value, value, value),
    )
    return draw(
        st.lists(
            st.one_of(
                job,
                st.builds(_Plain, value),
            ),
            min_size=1,
            max_size=8,
        )
    )


@st.composite
def _drawn_siblings(draw):
    """Instances of one drawn dataclass: each field holds the first
    instance's object or a fresh draw."""
    first = draw(_drawn_dataclass(_encoder_values))
    held = [getattr(first, f.name) for f in fields(first)]
    siblings = [first]
    for _ in range(draw(st.integers(1, 4))):
        values = [draw(st.one_of(st.just(v), _encoder_values)) for v in held]
        siblings.append(type(first)(*values))
    return siblings


class TestFieldReuse:
    @settings(max_examples=200, deadline=None)
    @given(_drawn_batch())
    def test_every_key_of_a_batch_is_the_job_s_own(self, jobs):
        assert job_keys(jobs) == [job_key(job) for job in jobs]

    @settings(max_examples=100, deadline=None)
    @given(_drawn_siblings())
    def test_drawn_dataclasses_key_as_the_oracle_says(self, siblings):
        # The drawn type enters the cache contract, so its batch form
        # keys the siblings, field names that spell its own locals
        # included.
        drawn = type(siblings[0])
        drawn.cache_payload = _Triple.cache_payload
        drawn.from_cached = _Triple.from_cached
        assert job_keys(siblings) == [oracle_key(obj) for obj in siblings]

    def test_type_changes_between_jobs(self):
        jobs = [_Keyed(Leaf(), n) for n in _TYPE_CHANGES * 2]
        batch = job_keys(jobs)
        assert batch == [job_key(job) for job in jobs]
        assert batch == [oracle_key(job) for job in jobs]
        assert len(set(batch)) == len(_TYPE_CHANGES)

    def test_a_refusal_after_a_changed_field_leaves_no_half_state(self):
        """The second job changes ``a`` and then refuses at ``c``: the
        third, whose ``a`` is the first job's again, must not read the
        text the refused job computed for its ``a``."""
        shared = Leaf(a=(1, 2), b="x")
        jobs = [
            _Triple(a=1, b=shared, c=2),
            _Triple(a=3, b=shared, c=lambda: 0),
            _Triple(a=1, b=shared, c=2),
            _Triple(a=3, b=shared, c=2),
        ]
        batch = job_keys(jobs)
        assert batch == [job_key(job) for job in jobs]
        assert batch[1] is None and batch[0] == batch[2] != batch[3]

    def test_a_lazy_batch_is_keyed_as_it_runs(self):
        """A generator that grows a shared list between yields: every
        job runs with the list's last state, so it is keyed with it."""
        grown = [1, 0]

        def batch():
            for n in range(3):
                if n:
                    grown.append(n)
                yield _Keyed(grown, n)

        assert job_keys(batch()) == [
            job_key(_Keyed([1, 0, 1, 2], n)) for n in range(3)
        ]

    def test_only_a_key_target_gets_a_batch_form(self, monkeypatch):
        """A campaign batch generates the batch form of the job type it
        keys; the scenario and invariant specs nested in every job are
        encoded by their plain encoders and get none."""
        monkeypatch.setattr(keys, "_ENCODERS", {})
        jobs = [
            CampaignJob(
                factory=RING_SCENARIO, seed=seed, horizon=2e-5,
                kills_per_run=2, invariants=RING_INVARIANTS,
                keep_results=False,
            )
            for seed in range(4)
        ]
        assert job_keys(jobs) == [oracle_key(job) for job in jobs]
        assert {
            cls.__name__: batch is not None
            for cls, (_encode, batch) in keys._ENCODERS.items()
        } == {
            "CampaignJob": True,
            "RingScenario": False,
            "StandardRingInvariants": False,
        }
