"""Deterministic cooperative scheduling of simulated processes.

Each simulated MPI rank runs ordinary Python code as a *fiber*: it
executes until it blocks inside a simulated MPI call (or finishes), at
which point the scheduling decision runs — events until a fiber is
runnable, then a deterministic policy picks which.  **Exactly one fiber
executes at any instant**, so the entire simulation is reproducible
bit-for-bit from its seed.

There is no scheduler thread.  The decision is one function,
``Runtime._next_fiber``, and the fiber that just gave up control runs
it on its own thread and wakes the pick directly.  A policy is
therefore called from a different thread each time and must not keep
thread-local state.

The scheduling layer is split in two:

* :mod:`repro.simmpi.fibers` — *how* a fiber's call stack suspends and
  where the loop runs: :class:`~repro.simmpi.fibers.Fiber`, a pooled OS
  thread with direct baton passing (one context switch per handoff on
  Linux), plus kill/fail-stop and shutdown unwinding
  (:class:`~repro.simmpi.errors.ProcessKilled` /
  :class:`~repro.simmpi.errors.SimShutdown`).
* this module — *which* runnable fiber goes next: the
  :class:`SchedulingPolicy` implementations (round-robin, lowest rank
  first, or seeded-random for interleaving exploration).

The runtime asks a policy once per decision, through
:meth:`SchedulingPolicy.take` ("the next fiber, or none").  A policy
implements ``pick`` and, if it holds fibers of its own, ``has_ready``;
the default ``take`` calls those two.  Policies see only fiber indices
and arrival order — never the suspension mechanism; the golden matrix
in ``tests/test_determinism_golden.py`` pins the traces of every
policy.
"""

from __future__ import annotations

import heapq
import random
from collections import deque

from .fibers import Fiber


class SchedulingPolicy:
    """Chooses which of the runnable fibers executes next.

    A policy may keep runnable fibers in an internal structure between
    picks (see :class:`LowestRankFirstPolicy`); the runtime therefore
    asks the policy — not the raw queue — whether anything is runnable.
    It does so with one call per scheduling decision, :meth:`take`,
    whose default asks :meth:`has_ready` and then :meth:`pick`: a policy
    that implements only those two is asked exactly those, in that
    order.
    """

    def pick(self, ready: deque[Fiber]) -> Fiber:  # pragma: no cover - abstract
        raise NotImplementedError

    def has_ready(self, ready: deque[Fiber]) -> bool:
        """Is any fiber runnable (in *ready* or held by the policy)?"""
        return bool(ready)

    def take(self, ready: deque[Fiber]) -> Fiber | None:
        """The next fiber to run, or ``None`` when nothing is runnable."""
        return self.pick(ready) if self.has_ready(ready) else None

    def reset(self) -> None:
        """Forget any internal state (called once per simulation)."""


class RoundRobinPolicy(SchedulingPolicy):
    """FIFO over the ready queue: fair, deterministic, and cheap."""

    def pick(self, ready: deque[Fiber]) -> Fiber:
        return ready.popleft()

    def take(self, ready: deque[Fiber]) -> Fiber | None:
        # has_ready and pick in one call: the runtime's hottest decision.
        return ready.popleft() if ready else None


class LowestRankFirstPolicy(SchedulingPolicy):
    """Always run the lowest-index runnable fiber.

    Produces highly regular interleavings; useful for writing tests whose
    expected traces are easy to reason about by hand.

    The ready set is kept index-ordered in a heap: each pick drains new
    arrivals from the queue and pops the minimum in O(log n), instead of
    the old O(n) scan-and-delete of the deque on every simulated MPI
    handoff.  Ties on index break by arrival order (FIFO), matching the
    scan's earliest-position choice exactly.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Fiber]] = []
        self._seq = 0

    def reset(self) -> None:
        self._heap.clear()
        self._seq = 0

    def pick(self, ready: deque[Fiber]) -> Fiber:
        while ready:
            fiber = ready.popleft()
            heapq.heappush(self._heap, (fiber.index, self._seq, fiber))
            self._seq += 1
        return heapq.heappop(self._heap)[2]

    def has_ready(self, ready: deque[Fiber]) -> bool:
        return bool(ready) or bool(self._heap)


class RandomPolicy(SchedulingPolicy):
    """Seeded-random choice among runnable fibers.

    Different seeds explore different interleavings of the *same* program,
    which is how the fault-scenario explorer shakes out ordering-dependent
    bugs; a fixed seed is still fully deterministic.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._rng = random.Random(seed)

    def reset(self) -> None:
        self._rng = random.Random(self._seed)

    def pick(self, ready: deque[Fiber]) -> Fiber:
        pos = self._rng.randrange(len(ready))
        fiber = ready[pos]
        del ready[pos]
        return fiber


def make_policy(spec: str | SchedulingPolicy, seed: int = 0) -> SchedulingPolicy:
    """Build a policy from a string spec (``"rr"``, ``"lowest"``, ``"random"``)."""
    if isinstance(spec, SchedulingPolicy):
        return spec
    if spec == "rr":
        return RoundRobinPolicy()
    if spec == "lowest":
        return LowestRankFirstPolicy()
    if spec == "random":
        return RandomPolicy(seed)
    raise ValueError(f"unknown scheduling policy: {spec!r}")
