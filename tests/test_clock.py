"""Unit tests for the event queue and virtual clock."""

from __future__ import annotations

import pytest

from repro.simmpi.clock import Event, EventQueue, VirtualClock


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        fired = []
        q.schedule(3.0, lambda: fired.append("c"))
        q.schedule(1.0, lambda: fired.append("a"))
        q.schedule(2.0, lambda: fired.append("b"))
        while q:
            q.pop().fn()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_schedule_order(self):
        q = EventQueue()
        fired = []
        for i in range(10):
            q.schedule(1.0, lambda i=i: fired.append(i))
        while q:
            q.pop().fn()
        assert fired == list(range(10))

    def test_len_and_bool(self):
        q = EventQueue()
        assert not q
        assert len(q) == 0
        q.schedule(1.0, lambda: None)
        assert q
        assert len(q) == 1
        q.pop()
        assert len(q) == 0

    def test_cancelled_events_are_skipped(self):
        q = EventQueue()
        fired = []
        ev = q.schedule(1.0, lambda: fired.append("x"))
        q.schedule(2.0, lambda: fired.append("y"))
        ev.cancel()
        first = q.pop()
        first.fn()
        assert fired == ["y"]
        assert not q

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_peek_time(self):
        q = EventQueue()
        assert q.peek_time() is None
        q.schedule(5.0, lambda: None)
        q.schedule(2.0, lambda: None)
        assert q.peek_time() == 2.0

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        ev = q.schedule(1.0, lambda: None)
        q.schedule(4.0, lambda: None)
        ev.cancel()
        assert q.peek_time() == 4.0

    def test_nan_time_rejected(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.schedule(float("nan"), lambda: None)

    def test_events_compare_by_time_then_seq(self):
        a = Event(time=1.0, seq=0, fn=lambda: None)
        b = Event(time=1.0, seq=1, fn=lambda: None)
        c = Event(time=0.5, seq=2, fn=lambda: None)
        assert c < a < b


class TestEventQueueCancellation:
    """Edge cases of the cancel-in-heap accounting.

    Cancelled events stay in the heap as tombstones; the live count and
    ``cancelled_total`` must stay exact through every interleaving of
    cancel and pop, or ``while queue:`` loops spin or exit early.
    """

    def test_cancel_then_pop_skips_without_miscounting(self):
        q = EventQueue()
        evs = [q.schedule(float(i), lambda: None) for i in range(6)]
        for ev in evs[::2]:  # cancel the head and every other event
            ev.cancel()
        assert len(q) == 3
        popped = [q.pop() for _ in range(3)]
        assert [e.time for e in popped] == [1.0, 3.0, 5.0]
        assert len(q) == 0 and not q
        with pytest.raises(IndexError):
            q.pop()

    def test_len_and_bool_track_cancellations(self):
        q = EventQueue()
        evs = [q.schedule(1.0, lambda: None) for _ in range(4)]
        assert len(q) == 4
        evs[0].cancel()
        evs[3].cancel()
        assert len(q) == 2 and q
        evs[1].cancel()
        evs[2].cancel()
        assert len(q) == 0 and not q  # only tombstones left in the heap
        with pytest.raises(IndexError):
            q.pop()

    def test_cancel_is_idempotent(self):
        q = EventQueue()
        ev = q.schedule(1.0, lambda: None)
        q.schedule(2.0, lambda: None)
        for _ in range(3):
            ev.cancel()
        assert len(q) == 1
        assert q.cancelled_total == 1

    def test_cancel_after_pop_does_not_corrupt_live_count(self):
        q = EventQueue()
        ev = q.schedule(1.0, lambda: None)
        q.schedule(2.0, lambda: None)
        assert q.pop() is ev
        ev.cancel()  # too late: already executed/popped
        assert len(q) == 1  # the remaining event is still live
        assert q.cancelled_total == 0  # not counted as a queue cancellation
        assert q.pop().time == 2.0

    def test_cancelled_total_accumulates_across_refills(self):
        q = EventQueue()
        for round_no in range(3):
            evs = [q.schedule(float(i), lambda: None) for i in range(4)]
            evs[0].cancel()
            evs[2].cancel()
            while q:
                q.pop()
            assert q.cancelled_total == 2 * (round_no + 1)

    def test_peek_time_after_mass_cancellation(self):
        q = EventQueue()
        evs = [q.schedule(float(i), lambda: None) for i in range(5)]
        for ev in evs[:4]:
            ev.cancel()
        assert q.peek_time() == 4.0
        evs[4].cancel()
        assert q.peek_time() is None

    def test_schedule_rejects_nan_but_allows_inf(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.schedule(float("nan"), lambda: None)
        assert len(q) == 0  # the rejected event was never queued
        q.schedule(float("inf"), lambda: None)
        q.schedule(1.0, lambda: None)
        assert q.pop().time == 1.0
        assert q.pop().time == float("inf")


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_advances_forward(self):
        c = VirtualClock()
        c.advance_to(3.5)
        assert c.now == 3.5

    def test_never_goes_backwards(self):
        c = VirtualClock()
        c.advance_to(2.0)
        c.advance_to(1.0)
        assert c.now == 2.0
