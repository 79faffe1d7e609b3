"""Property-based tests for the matching engine and event queue."""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.simmpi import ErrorHandler, RankFailStopError, Simulation, wait
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


def _accepts(req, m) -> bool:
    return req.peer in (ANY_SOURCE, m.src) and req.tag in (ANY_TAG, m.tag)


def _wild(req) -> bool:
    return req.peer == ANY_SOURCE or req.tag == ANY_TAG


_ops = st.one_of(
    st.tuples(
        st.just("post"), st.integers(0, 1),
        st.sampled_from([ANY_SOURCE, 0, 1, 2]), st.sampled_from([ANY_TAG, 0, 1]),
    ),
    st.tuples(
        st.just("deliver"), st.integers(0, 1), st.integers(0, 2), st.integers(0, 1)
    ),
    st.tuples(st.just("cancel"), st.integers(0, 15)),
    st.tuples(st.just("sweep"), st.integers(0, 2)),
)

# A wildcard receive leaves the queue by a cancel, then by a detector
# sweep, each time followed by an exact post and the arrival it must take.
_CANCELLED_WILDCARD = [
    ("post", 0, ANY_SOURCE, 1), ("cancel", 0),
    ("post", 0, 2, 1), ("deliver", 0, 2, 1),
]
_SWEPT_WILDCARD = [
    ("post", 0, 0, ANY_TAG), ("post", 0, ANY_SOURCE, ANY_TAG), ("sweep", 1),
    ("post", 0, 1, 0), ("deliver", 0, 1, 0), ("deliver", 0, 0, 1),
]


class TestMatchingAgainstALinearScan:
    """Random posts (exact and wildcard), arrivals, cancels and detector
    sweeps, each checked against one list scanned front to back: the
    earliest post wins for an arrival, the earliest arrival for a post.
    The engine's count of posted wildcard receives — which lets an
    arrival skip the wildcard buckets — must equal the list's."""

    @given(st.lists(_ops, max_size=40))
    @example(_CANCELLED_WILDCARD)
    @example(_SWEPT_WILDCARD)
    @settings(max_examples=400, deadline=None)
    def test_every_match_is_the_scans_match(self, ops):
        eng = MatchingEngine(rank=0)
        posted: list[tuple[int, _FakeReq]] = []  # (context, req), post order
        arrived: list[Message] = []  # unmatched, arrival order
        every_req: list[_FakeReq] = []
        for op in ops:
            if op[0] == "post":
                _, ctx, peer, tag = op
                req = _FakeReq(peer, tag)
                every_req.append(req)
                want = next(
                    (m for m in arrived if m.context == ctx and _accepts(req, m)),
                    None,
                )
                assert eng.post_recv(req, ctx) is want
                if want is None:
                    posted.append((ctx, req))
                else:
                    arrived.remove(want)
            elif op[0] == "deliver":
                _, ctx, src, tag = op
                m = msg(src=src, tag=tag, ctx=ctx)
                want = next(
                    (e for e in posted if e[0] == ctx and _accepts(e[1], m)),
                    None,
                )
                got = eng.deliver(m)
                if want is None:
                    assert got is None
                    arrived.append(m)
                else:
                    assert got is want[1]
                    posted.remove(want)
            elif op[0] == "cancel":
                if not every_req:
                    continue
                req = every_req[op[1] % len(every_req)]
                pending = [e for e in posted if e[1] is req]
                assert eng.cancel_recv(req) is bool(pending)
                for e in pending:
                    posted.remove(e)
            else:
                # The runtime's detector sweep: every pending receive from
                # the failed rank or from any source leaves the queue.
                failed = op[1]
                swept = [
                    r for r in eng.pending_recvs()
                    if r.peer in (failed, ANY_SOURCE)
                ]
                assert sorted(map(id, swept)) == sorted(
                    id(r) for _c, r in posted if r.peer in (failed, ANY_SOURCE)
                )
                for r in swept:
                    assert eng.cancel_recv(r)
                posted = [e for e in posted if e[1] not in swept]
            assert eng._wild == sum(_wild(r) for _c, r in posted)
            assert eng.stats() == {
                "posted": len(posted), "unexpected": len(arrived)
            }


def test_wildcards_leaving_by_cancel_and_sweep_leave_the_count_at_zero():
    """Through the runtime: a cancelled wildcard receive and one the
    detector sweep errors leave no wildcard counted, and exact receives
    posted after each still match."""
    seen = {}

    async def main(mpi):
        comm = mpi.comm_world
        comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
        if mpi.rank == 0:
            wild = comm.irecv()
            wild.cancel()
            assert wild.done and wild.status.cancelled
            first, _ = await comm.recv(source=1, tag=5)
            doomed = comm.irecv(tag=6)  # any source: rank 2 dies
            try:
                await wait(doomed)
            except RankFailStopError:
                pass
            second, _ = await comm.recv(source=1, tag=7)
            seen["wild"] = mpi.engine._wild
            return first, second
        if mpi.rank == 1:
            comm.send("a", 0, tag=5)
            await mpi.compute(1e-4)
            comm.send("b", 0, tag=7)
        else:
            await mpi.compute(1.0)

    sim = Simulation(nprocs=3)
    sim.kill(2, 5e-5)
    result = sim.run(main)
    assert result.value(0) == ("a", "b")
    assert seen["wild"] == 0


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
