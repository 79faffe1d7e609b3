"""Unit tests for trace recording and querying."""

from __future__ import annotations

import pytest

from repro.simmpi import Trace, TraceEvent, TraceKind
from repro.simmpi import trace as shapes


def make_trace() -> Trace:
    t = Trace()
    t.record(0.0, TraceKind.SEND_POST, 0, dst=1, tag=7)
    t.record(1.0, TraceKind.DELIVER, 1, src=0, tag=7)
    t.record(1.5, TraceKind.FAILURE, 2)
    t.record(2.0, TraceKind.DETECT, 0, failed=2)
    t.record(2.0, TraceKind.DETECT, 1, failed=2)
    return t


class TestTrace:
    def test_len_and_iter(self):
        t = make_trace()
        assert len(t) == 5
        assert len(list(t)) == 5

    def test_getitem(self):
        t = make_trace()
        assert t[0].kind is TraceKind.SEND_POST
        assert t[-1].rank == 1

    def test_filter_by_kind(self):
        t = make_trace()
        assert len(t.filter(kind=TraceKind.DETECT)) == 2

    def test_filter_by_rank(self):
        t = make_trace()
        assert len(t.filter(rank=1)) == 2

    def test_filter_by_predicate(self):
        t = make_trace()
        hits = t.filter(predicate=lambda ev: ev.detail.get("tag") == 7)
        assert len(hits) == 2

    def test_filter_combined(self):
        t = make_trace()
        hits = t.filter(kind=TraceKind.DETECT, rank=0)
        assert len(hits) == 1
        assert hits[0].detail["failed"] == 2

    def test_filter_by_kind_tuple(self):
        t = make_trace()
        hits = t.filter(kind=(TraceKind.FAILURE, TraceKind.DETECT))
        assert [ev.kind for ev in hits] == [
            TraceKind.FAILURE, TraceKind.DETECT, TraceKind.DETECT
        ]
        # Singleton tuple behaves like the scalar form.
        assert t.filter(kind=(TraceKind.DETECT,)) == t.filter(
            kind=TraceKind.DETECT
        )

    def test_filter_by_kind_frozenset(self):
        t = make_trace()
        kinds = frozenset({TraceKind.SEND_POST, TraceKind.DELIVER})
        assert len(t.filter(kind=kinds)) == 2

    def test_count_with_detail(self):
        t = make_trace()
        assert t.count(TraceKind.DETECT, failed=2) == 2
        assert t.count(TraceKind.DETECT, failed=3) == 0

    def test_disabled_trace_records_nothing(self):
        t = Trace(enabled=False)
        t.record(0.0, TraceKind.FAILURE, 0)
        assert len(t) == 0

    def test_format_contains_fields(self):
        t = make_trace()
        text = t.format()
        assert "send_post" in text
        assert "r2" in text

    def test_format_limit(self):
        t = make_trace()
        text = t.format(limit=2)
        assert "more" in text

    def test_keys_stable(self):
        assert make_trace().keys() == make_trace().keys()

    def test_keys_differ_on_different_traces(self):
        t1 = make_trace()
        t2 = make_trace()
        t2.record(9.0, TraceKind.ABORT, 0, code=-1)
        assert t1.keys() != t2.keys()

    def test_event_format_line(self):
        t = make_trace()
        line = t[0].format()
        assert "dst=1" in line and "tag=7" in line


# ---------------------------------------------------------------------------
# Views: rows appended through ``add`` (the kernel's declared shapes) and
# through ``record`` (any shape) read back literally, capped or not
# ---------------------------------------------------------------------------


def _mixed(cap):
    t = Trace(cap=cap)
    t.record(0.0, TraceKind.FAILURE, 9)
    t.add((1e-06, shapes.SEND_POST, 0, 1, 7, 0, 8, 1))
    t.record(2e-06, TraceKind.DELIVER, 1, src=0, tag=7, ctx=0, msg=1)
    t.add((2.5e-06, shapes.PROBE, 1, "post_recv", 1))
    t.record(3e-06, TraceKind.USER, 1, message="hi", step=2)  # interned
    t.add((4e-06, shapes.DETECT, 0, 2))
    return t


FAILURE = TraceEvent(0.0, TraceKind.FAILURE, 9, {})
SEND = TraceEvent(
    1e-06, TraceKind.SEND_POST, 0, {"dst": 1, "tag": 7, "ctx": 0, "bytes": 8, "msg": 1}
)
DELIVER = TraceEvent(
    2e-06, TraceKind.DELIVER, 1, {"src": 0, "tag": 7, "ctx": 0, "msg": 1}
)
PROBE = TraceEvent(2.5e-06, TraceKind.PROBE, 1, {"name": "post_recv", "hit": 1})
USER = TraceEvent(3e-06, TraceKind.USER, 1, {"message": "hi", "step": 2})
DETECT = TraceEvent(4e-06, TraceKind.DETECT, 0, {"failed": 2})

LINES = [
    "[ 0.000000000] r9   failure        ",
    "[ 0.000001000] r0   send_post      bytes=8 ctx=0 dst=1 msg=1 tag=7",
    "[ 0.000002000] r1   deliver        ctx=0 msg=1 src=0 tag=7",
    "[ 0.000002500] r1   probe          hit=1 name=post_recv",
    "[ 0.000003000] r1   user           message=hi step=2",
    "[ 0.000004000] r0   detect         failed=2",
]

KEYS = [
    (0.0, "failure", 9, ()),
    (1e-06, "send_post", 0, (("bytes", "8"), ("ctx", "0"), ("dst", "1"),
                             ("msg", "1"), ("tag", "7"))),
    (2e-06, "deliver", 1, (("ctx", "0"), ("msg", "1"), ("src", "0"),
                           ("tag", "7"))),
    (2.5e-06, "probe", 1, (("hit", "1"), ("name", "'post_recv'"))),
    (3e-06, "user", 1, (("message", "'hi'"), ("step", "2"))),
    (4e-06, "detect", 0, (("failed", "2"),)),
]


@pytest.mark.parametrize("cap", [None, 5], ids=["uncapped", "capped"])
class TestViews:
    def test_iteration(self, cap):
        t = _mixed(cap)
        events = [FAILURE, SEND, DELIVER, PROBE, USER, DETECT]
        assert list(t) == (events if cap is None else events[1:])
        assert (len(t), t.dropped) == ((6, 0) if cap is None else (5, 1))
        # The detail keeps the names in the shape's order.
        assert list(list(t)[-5].detail) == ["dst", "tag", "ctx", "bytes", "msg"]

    def test_getitem(self, cap):
        t = _mixed(cap)
        assert t[-1] == DETECT
        assert t[-2] == USER
        assert t[1] == (SEND if cap is None else DELIVER)

    def test_filter_by_one_kind(self, cap):
        t = _mixed(cap)
        assert t.filter(kind=TraceKind.DELIVER) == [DELIVER]
        assert t.filter(kind=TraceKind.FAILURE) == ([FAILURE] if cap is None else [])
        assert t.filter(kind=TraceKind.USER, rank=1) == [USER]
        assert t.filter(kind=TraceKind.USER, rank=0) == []

    def test_filter_by_several_kinds(self, cap):
        t = _mixed(cap)
        assert t.filter(kind=(TraceKind.SEND_POST, TraceKind.DETECT)) == [SEND, DETECT]
        assert t.filter(kind=frozenset({TraceKind.PROBE, TraceKind.USER}),
                        predicate=lambda ev: ev.detail.get("step") == 2) == [USER]
        assert t.filter(rank=1) == [DELIVER, PROBE, USER]

    def test_count(self, cap):
        t = _mixed(cap)
        assert t.count(TraceKind.PROBE) == 1
        assert t.count(TraceKind.PROBE, name="post_recv", hit=1) == 1
        assert t.count(TraceKind.PROBE, hit=2) == 0
        assert t.count(TraceKind.USER, step=2) == 1
        assert t.count(TraceKind.DETECT, missing=None) == 1
        assert t.count(TraceKind.FAILURE) == (1 if cap is None else 0)

    def test_format(self, cap):
        t = _mixed(cap)
        if cap is None:
            assert t.format(limit=2) == "\n".join([*LINES[:2], "... (4 more)"])
            assert t.format() == "\n".join(LINES)
        else:
            head = "... (1 older records dropped)"
            assert t.format(limit=2) == "\n".join(
                [head, *LINES[1:3], "... (3 more)"]
            )
            assert t.format() == "\n".join([head, *LINES[1:]])

    def test_keys(self, cap):
        assert _mixed(cap).keys() == (KEYS if cap is None else KEYS[1:])


def test_record_interns_a_shape_once_per_trace():
    t = Trace()
    for step in range(3):
        t.record(0.0, TraceKind.USER, 0, message="m", step=step)
    t.record(0.0, TraceKind.USER, 0, step=3, message="m")  # another order
    assert [row[1] for row in t.rows] == [len(shapes.SHAPES)] * 3 + [
        len(shapes.SHAPES) + 1
    ]
    assert t.shapes[-2:] == [
        (TraceKind.USER, ("message", "step")),
        (TraceKind.USER, ("step", "message")),
    ]
    assert Trace().shapes == list(shapes.SHAPES)  # the table never grows


def test_record_accepts_its_own_parameter_names_as_detail():
    t = Trace()
    t.record(1.0, TraceKind.USER, 2, time=3, kind="k", rank=4, self=None)
    assert t[0] == TraceEvent(
        1.0, TraceKind.USER, 2, {"time": 3, "kind": "k", "rank": 4, "self": None}
    )


def test_every_kernel_shape_is_distinct_and_named():
    assert len(set(shapes.SHAPES)) == len(shapes.SHAPES)
    for kind, names in shapes.SHAPES:
        assert isinstance(kind, TraceKind)
        assert all(isinstance(n, str) for n in names)
