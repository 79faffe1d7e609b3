"""Property-based tests for the matching engine and event queue."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.simmpi.clock import EventQueue
from repro.simmpi.constants import ANY_SOURCE, ANY_TAG
from repro.simmpi.matching import Message, MatchingEngine


class _FakeReq:
    """Minimal stand-in for a Request in pure matching tests."""

    def __init__(self, peer: int, tag: int) -> None:
        self.peer = peer
        self.tag = tag


def msg(src=0, dst=0, tag=0, ctx=0, payload=None):
    return Message(src=src, dst=dst, tag=tag, context=ctx,
                   payload=payload, nbytes=8)


messages = st.builds(
    msg,
    src=st.integers(0, 3),
    tag=st.integers(0, 3),
    ctx=st.integers(0, 1),
    payload=st.integers(),
)


class TestMatchingProperties:
    @given(st.lists(messages, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_unmatched_messages_all_queue(self, msgs):
        eng = MatchingEngine(rank=0)
        for m in msgs:
            assert eng.deliver(m) is None  # no receives posted
        assert eng.stats()["unexpected"] == len(msgs)
        assert eng.stats()["posted"] == 0

    @given(st.lists(messages, min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_fifo_matching_per_selector(self, msgs):
        # Posting a wildcard receive after deliveries must return the
        # earliest-delivered matching message (non-overtaking).
        eng = MatchingEngine(rank=0)
        for m in msgs:
            eng.deliver(m)
        got = eng.post_recv(_FakeReq(ANY_SOURCE, ANY_TAG), context=msgs[0].context)
        expected = next(m for m in msgs if m.context == msgs[0].context)
        assert got is expected

    @given(st.lists(messages, max_size=30), st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_specific_recv_only_matches_selector(self, msgs, src, tag):
        eng = MatchingEngine(rank=0)
        for m in msgs:
            eng.deliver(m)
        got = eng.post_recv(_FakeReq(src, tag), context=0)
        matching = [m for m in msgs if m.context == 0 and m.src == src and m.tag == tag]
        if matching:
            assert got is matching[0]
        else:
            assert got is None

    @given(st.lists(messages, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_conservation(self, msgs):
        # Every delivered message is either matched exactly once or still
        # in the unexpected queue: nothing duplicated, nothing lost.
        eng = MatchingEngine(rank=0)
        for m in msgs:
            eng.deliver(m)
        matched = []
        while True:
            got = eng.post_recv(_FakeReq(ANY_SOURCE, ANY_TAG), context=0)
            if got is None:
                break
            matched.append(got)
        ctx0 = [m for m in msgs if m.context == 0]
        assert matched == ctx0
        assert eng.stats()["unexpected"] == len(msgs) - len(ctx0)

    @given(st.lists(messages, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_posted_recvs_match_in_post_order(self, msgs):
        eng = MatchingEngine(rank=0)
        reqs = [_FakeReq(ANY_SOURCE, ANY_TAG) for _ in range(len(msgs))]
        for r in reqs:
            eng.post_recv(r, context=0)
        hits = []
        for m in msgs:
            got = eng.deliver(m)
            if m.context == 0:
                hits.append(got)
            else:
                assert got is None
        # Messages on context 0 match the earliest-posted pending receive.
        assert hits == reqs[: len(hits)]

    def test_cancel_removes_posted(self):
        eng = MatchingEngine(rank=0)
        r = _FakeReq(1, 1)
        eng.post_recv(r, context=0)
        assert eng.cancel_recv(r)
        assert not eng.cancel_recv(r)
        assert eng.deliver(msg(src=1, tag=1)) is None


class TestEventQueueProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1e6,
                              allow_nan=False), max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_pop_order_is_sorted_stable(self, times):
        q = EventQueue()
        for t in times:
            q.schedule(t, lambda: None)
        popped = []
        while q:
            popped.append(q.pop())
        assert [e[0] for e in popped] == sorted(t for t in times)
        # Stability: equal times pop in scheduling order.
        for a, b in zip(popped, popped[1:]):
            if a[0] == b[0]:
                assert a[1] < b[1]
