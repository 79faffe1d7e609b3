"""Virtual time and the global event queue of the discrete-event core.

Every cause/effect in the simulator — a message delivery, a process
failure, a timer expiring, a detector notification — is an event on a
single priority queue ordered by ``(time, seq)``.  The ``seq``
tie-breaker makes the simulation fully deterministic: two events scheduled
for the same virtual instant always execute in scheduling order.

An event is nothing but a plain ``(time, seq, fn)`` tuple: tuple
comparison is a single C-level operation and ``seq`` is unique, so
ordering never falls through to the callback.  There is no handle to
cancel an event with: no caller ever needed one, and an event that turns
out to be moot (a detector notice for a dead observer, a kill of a
finished rank) checks that itself when it runs.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable


class EventQueue:
    """Deterministic priority queue of ``(time, seq, fn)`` tuples.

    ``Runtime._next_fiber`` pops :attr:`_heap` directly, and
    ``Runtime.post_send`` pushes onto it as :meth:`schedule` does, NaN
    guard included; :meth:`pop` and :meth:`schedule` are the same
    operations for everyone else.
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def schedule(self, time: float, fn: Callable[[], None]) -> None:
        """Schedule *fn* to run at virtual *time*."""
        if time != time:  # NaN guard
            raise ValueError("event time must not be NaN")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, seq, fn))

    def pop(self) -> tuple[float, int, Callable[[], None]]:
        """Remove and return the earliest event as ``(time, seq, fn)``.

        Raises :class:`IndexError` when the queue is empty.
        """
        return heappop(self._heap)


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
