"""Run fingerprints are pinned byte for byte (:mod:`repro.analysis.digest`).

``result_digest`` is what ``repro replay`` and ``repro cache verify``
compare, and what every run-cache payload stores; a digest that moves
silently turns every stored payload into a verification failure.  The
literal vectors below were recorded before the trace encoder was
rewritten to format each record directly, and must never change without
a replay-format version bump: one payload digest per cacheable job type
(all four protocol families), plus single runs that exercise the
unusual endings — a hang, an abort, an application, a capped trace.

The per-shape row writer is checked against an oracle: the encoder it
replaced (``repr`` of :meth:`TraceEvent.key`, NUL-terminated, one record
at a time), frozen below.  Records reach it through ``Trace.record``,
as every caller's do: adversarial detail names, values and times, more
names than the writers compile for, capped and empty traces, and JSONL
round trips — whose shapes must not grow any state outside the trace.
"""

from __future__ import annotations

import hashlib
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import digest, result_digest
from repro.core import RingConfig, Termination, make_ring_main
from repro.faults.campaign import CampaignJob
from repro.faults.explorer import Window, WindowJob
from repro.faults.injector import KillAtProbe
from repro.faults.schedule import KillSpec
from repro.fuzz.config import FuzzConfig, JitterSpec
from repro.fuzz.driver import FuzzJob
from repro.obs.export import JSONL_FORMAT, load_trace_jsonl, trace_to_jsonl
from repro.parallel import AppScenario, RingScenario
from repro.protocols import ProtocolCompareJob
from repro.simmpi import Simulation, SimulationResult
from repro.simmpi import trace as trace_mod
from repro.simmpi.trace import Trace, TraceEvent, TraceKind
from tests.conftest import RING_INVARIANTS, RING_SCENARIO

# ---------------------------------------------------------------------------
# Literal digest vectors
# ---------------------------------------------------------------------------


def _payload_digest(job) -> str:
    return job.cache_payload()[1]["digest"]


def _hung_naive_ring() -> SimulationResult:
    sim, main = RingScenario(
        nprocs=4, iters=3, variant="naive", termination="root_bcast"
    )()
    sim.add_injector(KillAtProbe(rank=2, probe="post_recv", hit=2))
    result = sim.run(main, on_deadlock="return")
    assert result.hung
    return result


def _aborted_ring() -> SimulationResult:
    # The root is left alone after its only peer dies: neighbour
    # selection aborts (paper, Fig. 4).
    cfg = RingConfig(
        max_iter=6, termination=Termination.VALIDATE_ALL, work_per_iter=1e-6
    )
    sim = Simulation(nprocs=2)
    sim.add_injector(KillAtProbe(rank=1, probe="post_recv", hit=2))
    result = sim.run(make_ring_main(cfg), on_deadlock="return")
    assert result.aborted is not None
    return result


def _heat1d() -> SimulationResult:
    sim, main = AppScenario(app="heat1d", nprocs=4, size=4, steps=3)()
    return sim.run(main, on_deadlock="return")


def _capped_ring() -> SimulationResult:
    cfg = RingConfig(max_iter=4, termination=Termination.VALIDATE_ALL)
    sim = Simulation(nprocs=5, trace_cap=64)
    sim.add_injector(KillAtProbe(rank=3, probe="post_recv", hit=2))
    result = sim.run(make_ring_main(cfg), on_deadlock="return")
    assert result.trace.dropped > 0
    return result


def _compare(protocol: str) -> str:
    return _payload_digest(ProtocolCompareJob(
        protocol=protocol, nprocs=5, iters=4, seed=1, horizon=2e-5
    ))


#: name -> (thunk returning the digest, digest recorded at the commit
#: before the per-record writer replaced ``repr(TraceEvent.key())``).
DIGEST_VECTORS = {
    "campaign": (
        lambda: _payload_digest(CampaignJob(
            factory=RING_SCENARIO, seed=5, horizon=2e-5, kills_per_run=2,
            eligible_ranks=(1, 2, 3), invariants=RING_INVARIANTS,
        )),
        "c4e29f3f8c644e46897feb6ae1554f08",
    ),
    "window": (
        lambda: _payload_digest(WindowJob(
            factory=RING_SCENARIO,
            windows=(
                Window(rank=1, probe="post_recv", hit=1),
                Window(rank=2, probe="pre_send", hit=2),
            ),
            invariants=RING_INVARIANTS,
        )),
        "24ccd4c836a7b14584e7b6838f2d49d2",
    ),
    "fuzz": (
        lambda: _payload_digest(FuzzJob(
            config=FuzzConfig(
                scenario=RING_SCENARIO,
                policy="random",
                policy_seed=9,
                jitter=JitterSpec(
                    seed=3, overhead=0.05, latency=0.1, byte_cost=1e-05
                ),
                faults=(
                    KillSpec("time", 2, time=1.5e-05),
                    KillSpec("probe", 1, probe="post_recv", hit=2),
                    KillSpec("call", 3, call_no=4, op="send"),
                ),
            ),
            invariants=RING_INVARIANTS,
        )),
        "ba919c3e5156325147762aaa5ee70615",
    ),
    "compare_rts": (
        lambda: _compare("rts"), "58ca3b317e5a40b6228c77c8d062c3be"
    ),
    "compare_shrink_repair": (
        lambda: _compare("shrink_repair"), "e50e0bd71d33a182740e48e05a29112f"
    ),
    "compare_replication": (
        lambda: _compare("replication"), "9972dedd5eb50c8ca907ecebebb59623"
    ),
    "compare_partial_restart": (
        lambda: _compare("partial_restart"),
        "b26e0106c807615aa3314cfd897875da",
    ),
    "hung_naive_ring": (
        lambda: result_digest(_hung_naive_ring()),
        "cb5c99c0f0365c2d0190a1158568f1bb",
    ),
    "aborted_ring": (
        lambda: result_digest(_aborted_ring()),
        "b97968fcf8ac09378f0ef11293b6091d",
    ),
    "heat1d": (
        lambda: result_digest(_heat1d()), "e9dffd2a8f5592fca7700bcb9cf04517"
    ),
    "capped_trace": (
        lambda: result_digest(_capped_ring()),
        "1db492d3c48f74a84762080b2dacb98c",
    ),
}


@pytest.mark.parametrize("name", DIGEST_VECTORS)
def test_digest_vector(name):
    thunk, expected = DIGEST_VECTORS[name]
    assert thunk() == expected


def test_perf_dict_keeps_the_cancelled_slot_at_zero():
    # The event queue cannot cancel; the slot stays because every digest
    # above was taken over a perf_dict that carries it.
    counters = digest.perf_dict(_aborted_ring())
    assert counters["events_cancelled"] == 0
    assert list(counters)[:3] == ["handoffs", "events_executed", "events_cancelled"]


# ---------------------------------------------------------------------------
# Oracle: the encoder the per-record writer replaced
# ---------------------------------------------------------------------------


def _oracle_key(ev: TraceEvent) -> tuple:
    """``TraceEvent.key`` as it was when the writer replaced it."""
    return (
        ev.time,
        ev.kind.value,
        ev.rank,
        tuple(sorted((k, repr(v)) for k, v in ev.detail.items())),
    )


def _oracle_update_trace(h, events) -> None:
    for ev in events:
        h.update(repr(_oracle_key(ev)).encode())
        h.update(b"\x00")


def _trace_digests(trace: Trace) -> tuple[str, str]:
    """(writer, oracle) digests of *trace* alone."""
    new, old = hashlib.blake2b(digest_size=16), hashlib.blake2b(digest_size=16)
    digest._update_trace(new, trace)
    _oracle_update_trace(old, trace)
    return new.hexdigest(), old.hexdigest()


def _traced(records: list[tuple], cap: int | None = None) -> Trace:
    """A trace fed *records*, each ``(time, kind, rank, detail)``."""
    trace = Trace(cap=cap)
    for time, kind, rank, detail in records:
        trace.record(time, kind, rank, **detail)
    return trace


def _assert_matches_oracle(trace: Trace, records: list[tuple] | None = None):
    """The writer's text of each record is the oracle's.  With *records*
    (what was fed in, oldest first) the oracle reads those, so the views
    are checked too; without, it reads the trace's views."""
    events = list(trace)
    if records is not None:
        kept = records[len(records) - len(trace):]
        assert [(ev.time, ev.kind, ev.rank, ev.detail) for ev in events] == kept
        assert [list(ev.detail) for ev in events] == [list(r[3]) for r in kept]
        events = [TraceEvent(*r) for r in kept]
    expected = [repr(_oracle_key(ev)) for ev in events]
    assert [repr(ev.key()) for ev in trace] == expected
    assert digest._record_texts(trace) == expected
    new, old = _trace_digests(trace)
    assert new == old
    # Nothing outside the trace grew with what it carried.
    assert trace_mod.SHAPES == KERNEL_SHAPES
    assert len(trace_mod._SHAPE_IDS) == len(KERNEL_SHAPES)
    assert len(digest._kernel_writers()) == len(KERNEL_SHAPES)
    factories = digest._writer_factory.cache_info().currsize
    assert factories <= digest._MAX_ARITY + 1


KERNEL_SHAPES = trace_mod.SHAPES

#: Names that would break, or run, if any of them reached generated
#: source — and the names of ``Trace.record``'s own parameters.
_HOSTILE_NAMES = [
    "'", '"', "'\"", '"""', "'''", "{", "}", "{}", "{{", "}}", "%", "%s",
    "%r", "\\", "\x00", "\n", "\r\n", "é", "日本", "\U0001f600", "\ud800",
    "{__import__('os')}", "{t!r}", "{d}", "{c}", "{s0}", "k0", "s0", "i0",
    "c", "t", "w", "r", "d", "", " ", "a b", "peer", "tag", "self", "time",
    "kind", "rank", "detail",
]

_names = st.one_of(st.sampled_from(_HOSTILE_NAMES), st.text(max_size=6))

_scalars = st.one_of(
    st.integers(),
    st.integers(min_value=2**63, max_value=2**200),
    st.integers(max_value=-(2**63)),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300]),
    st.text(max_size=6),
    st.sampled_from(_HOSTILE_NAMES),
    st.binary(max_size=6),
)


def _nestings(children):
    return st.one_of(
        st.lists(children, max_size=3).map(tuple),  # (), 1-tuples, ...
        st.lists(children, max_size=3),
        st.frozensets(st.one_of(st.integers(), st.text(max_size=3)),
                      max_size=3),
        st.dictionaries(st.text(max_size=3), children, max_size=3),
    )


_values = st.recursive(_scalars, _nestings, max_leaves=6)

#: Times that are equal dict keys with different reprs sit beside
#: arbitrary floats and ints.
_times = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(),
    st.sampled_from([0.0, -0.0, 1.0, 1, True, False, math.nan]),
)

_record_tuples = st.tuples(
    _times,
    st.sampled_from(list(TraceKind)),
    st.integers(min_value=-(2**70), max_value=2**70),
    # Up to past the largest arity the writer compiles for.
    st.dictionaries(_names, _values, max_size=digest._MAX_ARITY + 2),
)


def _jsonl(time, name) -> str:
    """A one-record JSONL trace, written by hand as an outside file."""
    header = {"format": JSONL_FORMAT, "nprocs": 1, "cap": None,
              "dropped": 0, "events": 1}
    record = {"t": time, "kind": "user", "rank": 0,
              "detail": {name: time, "x": None}}
    return f"{json.dumps(header)}\n{json.dumps(record)}\n"


class TestWriterOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_record_tuples, max_size=6),
           st.one_of(st.none(), st.integers(min_value=1, max_value=4)))
    def test_adversarial_records(self, records, cap):
        trace = _traced(records, cap)
        assert trace.dropped == (
            0 if cap is None else max(0, len(records) - cap)
        )
        _assert_matches_oracle(trace, records)

    def test_shared_shape_with_different_values(self):
        # One writer serves every record of a shape; insertion order
        # makes a different shape with the same text.
        records = [
            (1e-6, TraceKind.SEND_POST, 0, {"peer": 1, "tag": 2}),
            (2e-6, TraceKind.SEND_POST, 3, {"peer": "x", "tag": ()}),
            (3e-6, TraceKind.SEND_POST, 1, {"tag": (5,), "peer": -0.0}),
            (4e-6, TraceKind.DELIVER, 1, {"tag": 2, "peer": 0}),
            (5e-6, TraceKind.DELIVER, 1, {}),
        ]
        trace = _traced(records)
        assert [row[1] for row in trace.rows] == [
            len(KERNEL_SHAPES), len(KERNEL_SHAPES), len(KERNEL_SHAPES) + 1,
            len(KERNEL_SHAPES) + 2, len(KERNEL_SHAPES) + 3,
        ]
        _assert_matches_oracle(trace, records)

    def test_kernel_shapes_are_not_interned_again(self):
        records = [
            (1e-6, TraceKind.DETECT, 0, {"failed": 1}),
            (2e-6, TraceKind.PROBE, 1, {"name": "post_recv", "hit": 2}),
            (3e-6, TraceKind.USER, 2, {"message": "m"}),
        ]
        trace = _traced(records)
        assert tuple(trace.shapes) == KERNEL_SHAPES
        assert [row[1] for row in trace.rows] == [
            trace_mod.DETECT, trace_mod.PROBE, trace_mod.USER,
        ]
        _assert_matches_oracle(trace, records)

    def test_equal_times_with_different_reprs(self):
        # 0.0 / -0.0 and 1 / 1.0 / True are equal dict keys; the time memo
        # must not hand one the other's text.  NaNs are never equal.
        times = [0.0, -0.0, 1.0, 1, True, 1.0, -0.0, 0.0, False, 0,
                 math.nan, float("nan"), 2.5e-06, 2.5e-06]
        records = [(t, TraceKind.FAILURE, 0, {}) for t in times]
        _assert_matches_oracle(_traced(records), records)

    def test_arity_past_the_compiled_writers(self):
        for n in (digest._MAX_ARITY, digest._MAX_ARITY + 1, 40):
            detail = {name: i for i, name in enumerate(_HOSTILE_NAMES[:n])}
            records = [(0.5, TraceKind.USER, 3, detail)] * 2
            _assert_matches_oracle(_traced(records), records)

    def test_non_str_names(self):
        # ``1``, ``True`` and ``1.0`` are one dict key but three reprs.
        # Names reach a trace as keywords, which must be strings.
        trace = Trace()
        for name in (1, True, 1.0, (1,), None):
            with pytest.raises(TypeError, match="keywords must be strings"):
                trace.record(0.0, TraceKind.USER, 0, **{name: "v"})
        assert len(trace) == 0
        records = [(0.0, TraceKind.USER, 0, {"1": "v"})]
        _assert_matches_oracle(_traced(records), records)

    def test_shape_state_is_bounded(self):
        # Each file brings a shape of its own; it lives in the loaded
        # trace's table, so nothing global grows, however many are read.
        for i in range(10_000):
            time = float(i) if i % 2 else i
            loaded, _ = load_trace_jsonl(_jsonl(time, f"n{i}"))
            assert len(loaded.shapes) == len(KERNEL_SHAPES) + 1
            assert digest._record_texts(loaded) == [
                repr((time, "user", 0,
                      ((f"n{i}", repr(time)), ("x", "None"))))
            ]
        _assert_matches_oracle(loaded)

    def test_jsonl_round_trip(self):
        sim, main = RING_SCENARIO()
        sim.kill(2, 2e-5)
        trace = sim.run(main, on_deadlock="return").trace
        # Names a loaded file may carry that the kernel never writes.
        for i, name in enumerate(_HOSTILE_NAMES):
            trace.record(1.0 + i, TraceKind.USER, 0, **{name: (name, i, -0.0)})
        loaded, _ = load_trace_jsonl(trace_to_jsonl(trace, nprocs=4))
        assert loaded.keys() == trace.keys()
        _assert_matches_oracle(trace)
        _assert_matches_oracle(loaded)
        assert _trace_digests(loaded) == _trace_digests(trace)

    def test_capped_trace(self):
        result = _capped_ring()
        assert len(result.trace) == 64
        _assert_matches_oracle(result.trace)

    def test_empty_trace_feeds_nothing(self):
        h = hashlib.blake2b(digest_size=16)
        digest._update_trace(h, Trace())
        assert h.hexdigest() == hashlib.blake2b(digest_size=16).hexdigest()

    @pytest.mark.parametrize(
        "run", [_hung_naive_ring, _heat1d], ids=["hung_naive_ring", "heat1d"]
    )
    def test_result_digest_matches_oracle(self, run, monkeypatch):
        result = run()
        got = result_digest(result)
        monkeypatch.setattr(digest, "_update_trace", _oracle_update_trace)
        assert got == result_digest(result)
