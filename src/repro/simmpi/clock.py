"""Virtual time and the global event queue of the discrete-event core.

Every cause/effect in the simulator — a message delivery, a process
failure, a timer expiring, a detector notification — is an :class:`Event`
on a single priority queue ordered by ``(time, seq)``.  The ``seq``
tie-breaker makes the simulation fully deterministic: two events scheduled
for the same virtual instant always execute in scheduling order.

The heap stores plain ``(time, seq, event)`` tuples rather than rich
comparable objects: tuple comparison is a single C-level operation and
``seq`` is unique, so ordering never falls through to the event itself.
:class:`Event` is a ``__slots__`` handle kept only for cancellation and
diagnostics.
"""

from __future__ import annotations

import heapq
from typing import Callable


class Event:
    """A scheduled callback at a virtual time.

    Events order by ``(time, seq)`` only; the callback itself never
    participates in ordering.  Cancelled events stay in the heap but are
    skipped when popped; :meth:`cancel` is idempotent and does the live
    accounting on its owning queue exactly once.
    """

    __slots__ = ("time", "seq", "fn", "label", "cancelled", "_queue")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[[], None],
        label: str = "",
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        #: Diagnostic label shown in traces and deadlock reports.
        self.label = label
        self.cancelled = cancelled
        #: Owning queue while the event is live in it (accounting target);
        #: ``None`` once popped or for free-standing events.
        self._queue: "EventQueue | None" = None

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def cancel(self) -> None:
        """Mark this event so it is skipped when it reaches the queue head.

        Idempotent, and safe after the event was already popped: the live
        count of the owning queue is decremented exactly once, and only
        while the event is actually still queued.
        """
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            self._queue = None
            queue._live -= 1
            queue.cancelled_total += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        flag = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time!r}, seq={self.seq}, {self.label!r}{flag})"


class EventQueue:
    """Deterministic priority queue of :class:`Event` objects."""

    __slots__ = ("_heap", "_seq", "_live", "cancelled_total")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._live = 0
        #: Total events ever cancelled (perf-counter food).
        self.cancelled_total = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def schedule(self, time: float, fn: Callable[[], None], label: str = "") -> Event:
        """Schedule *fn* to run at virtual *time*; returns a cancellable handle."""
        if time != time:  # NaN guard
            raise ValueError("event time must not be NaN")
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, seq, fn, label)
        ev._queue = self
        heapq.heappush(self._heap, (time, seq, ev))
        self._live += 1
        return ev

    def pop(self) -> Event:
        """Remove and return the earliest non-cancelled event.

        Raises :class:`IndexError` when no live event remains.
        """
        heap = self._heap
        while heap:
            ev = heapq.heappop(heap)[2]
            if ev.cancelled:
                continue
            ev._queue = None
            self._live -= 1
            return ev
        raise IndexError("pop from empty EventQueue")

    def peek_time(self) -> float | None:
        """Return the virtual time of the next live event, or ``None``."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None


class VirtualClock:
    """The global simulation clock.

    The clock only moves forward, driven by event execution.  Individual
    processes additionally keep *local* clocks (see
    :class:`~repro.simmpi.process.SimProcess`) which may run ahead of the
    global clock while a process performs local computation.
    """

    __slots__ = ("_now",)

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current global virtual time."""
        return self._now

    def advance_to(self, time: float) -> None:
        """Move the clock to *time*; the clock never runs backwards."""
        if time > self._now:
            self._now = time
