"""Unit tests for the event queue and virtual clock."""

from __future__ import annotations

import pytest

from repro.simmpi.clock import EventQueue, VirtualClock


class TestEventQueue:
    """The queue holds plain ``(time, seq, fn)`` tuples."""

    def test_orders_by_time(self):
        q = EventQueue()
        fired = []
        q.schedule(3.0, lambda: fired.append("c"))
        q.schedule(1.0, lambda: fired.append("a"))
        q.schedule(2.0, lambda: fired.append("b"))
        while q:
            q.pop()[2]()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_schedule_order(self):
        q = EventQueue()
        fired = []
        for i in range(10):
            q.schedule(1.0, lambda i=i: fired.append(i))
        while q:
            q.pop()[2]()
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

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_nan_time_rejected(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.schedule(float("nan"), lambda: None)

    def test_schedule_rejects_nan_but_allows_inf(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.schedule(float("nan"), lambda: None)
        assert len(q) == 0  # the rejected event was never queued
        q.schedule(float("inf"), lambda: None)
        q.schedule(1.0, lambda: None)
        assert q.pop()[0] == 1.0
        assert q.pop()[0] == float("inf")

    def test_events_compare_by_time_then_seq(self):
        def fn():
            return None

        q = EventQueue()
        q.schedule(1.0, fn)
        q.schedule(1.0, fn)
        q.schedule(0.5, fn)
        c, a, b = q.pop(), q.pop(), q.pop()
        assert [e[:2] for e in (c, a, b)] == [(0.5, 2), (1.0, 0), (1.0, 1)]
        assert c < a < b  # the callbacks never take part


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
