"""KERNEL — microbenchmarks of the simulator's hot primitives.

Where the ``bench_fig*`` files measure paper scenarios end to end, these
series isolate the four kernel mechanisms the scenarios are built from,
so a regression can be attributed to the mechanism that caused it:

* ``handoff`` — the raw fiber suspend/resume round-trip, measured once
  on the active backend and once per available backend
  (``_threaded``/``_greenlet``): the thread-baton fallback pays an OS
  context switch (~10µs/handoff) where the greenlet backend does a
  single-threaded C stack switch (zero locks) that must come in at
  least 10x faster — asserted whenever greenlet is importable;
* ``event_queue`` — schedule/pop throughput of the binary heap of
  ``(time, seq, fn)`` tuples;
* ``matching`` — posted-receive lookup, indexed ``(source, tag)`` fast
  path vs the wildcard fallback scan;
* ``trace_overhead`` — an identical simulation with tracing on vs off
  (off must cost nothing per event).

All four land in ``BENCH_simperf.json`` like every other series.
"""

from __future__ import annotations

import time

import pytest

from repro.simmpi import (
    Simulation,
    greenlet_available,
    make_fiber,
    resolve_backend,
)
from repro.simmpi.clock import EventQueue
from repro.simmpi.constants import ANY_SOURCE, ANY_TAG
from repro.simmpi.matching import MatchingEngine, Message
from conftest import emit, timed


def _handoff_us(backend: str, n: int) -> float:
    """Microseconds per suspend/resume round-trip on *backend*."""
    fiber = None

    def target() -> None:
        for _ in range(n):
            fiber.yield_to_scheduler()

    fiber = make_fiber(backend, name="bench-handoff", index=0, target=target)
    t0 = time.perf_counter()
    fiber.start()
    for _ in range(n + 1):  # n yields + the final return
        fiber.resume_and_wait()
    per_us = (time.perf_counter() - t0) / n * 1e6
    fiber.join()
    fiber.release()
    assert fiber.finished() and fiber.error is None
    return per_us


def _bench_handoff(benchmark, backend: str, title: str) -> None:
    N = 2000
    stats = {}

    def run() -> None:
        stats["per_handoff_us"] = _handoff_us(backend, N)

    timed(benchmark, run, fibers=backend)
    emit(
        title,
        f"{N} handoffs, {stats['per_handoff_us']:.2f} us per round-trip "
        f"({backend} backend)",
    )


def bench_kernel_handoff(benchmark):
    """Raw suspend/resume round-trips on the *active* backend."""
    _bench_handoff(benchmark, resolve_backend(None),
                   "kernel: fiber handoff round-trip")


def bench_kernel_handoff_threaded(benchmark):
    """The thread-baton fallback, pinned regardless of the default."""
    _bench_handoff(benchmark, "thread",
                   "kernel: fiber handoff round-trip (thread)")


def bench_kernel_handoff_greenlet(benchmark):
    """The greenlet backend, plus the >=10x-vs-thread acceptance gate."""
    if not greenlet_available():
        pytest.skip("greenlet not installed (pip install repro[fast])")
    _bench_handoff(benchmark, "greenlet",
                   "kernel: fiber handoff round-trip (greenlet)")
    # Acceptance gate: zero-lock stack switches must beat the OS
    # context switch by an order of magnitude on the same machine.
    thread_us = min(_handoff_us("thread", 2000) for _ in range(3))
    greenlet_us = min(_handoff_us("greenlet", 2000) for _ in range(3))
    speedup = thread_us / greenlet_us
    emit(
        "kernel: handoff backend speedup",
        (f"thread {thread_us:.2f} us vs greenlet {greenlet_us:.2f} us "
         f"per round-trip -> {speedup:.1f}x"),
    )
    assert speedup >= 10.0, (
        f"greenlet handoff only {speedup:.1f}x faster than thread "
        f"({greenlet_us:.2f} vs {thread_us:.2f} us); expected >= 10x"
    )


def bench_kernel_event_queue(benchmark):
    """Heap throughput: schedule+pop."""
    N = 20_000
    stats = {}

    def run() -> None:
        q = EventQueue()
        fn = lambda: None  # noqa: E731 - body cost is not the point
        t0 = time.perf_counter()
        for i in range(N):
            q.schedule(i * 1e-9, fn)
        while q:
            q.pop()
        stats["sched_pop_us"] = (time.perf_counter() - t0) / N * 1e6

    timed(benchmark, run)
    emit(
        "kernel: event queue",
        f"schedule+pop {stats['sched_pop_us']:.3f} us/event",
    )


class _FakeRecv:
    """Just enough of a Request for the matching engine (peer + tag)."""

    __slots__ = ("peer", "tag")

    def __init__(self, peer: int, tag: int) -> None:
        self.peer = peer
        self.tag = tag


def _msg(src: int, tag: int, context: int = 0) -> Message:
    return Message(src=src, dst=0, tag=tag, context=context,
                   payload=None, nbytes=32)


def bench_kernel_matching(benchmark):
    """Indexed concrete (source, tag) lookup vs the wildcard fallback."""
    N = 5_000
    SRCS = 8
    stats = {}

    def run() -> None:
        # Concrete receives: one dict hit per deliver / post_recv.
        eng = MatchingEngine(rank=0)
        t0 = time.perf_counter()
        for i in range(N):
            src = i % SRCS
            eng.post_recv(_FakeRecv(src, tag=7), context=0)
            assert eng.deliver(_msg(src, tag=7)) is not None
        stats["concrete_us"] = (time.perf_counter() - t0) / N * 1e6

        # Wildcard receives: the fallback scans candidate buckets and
        # picks the oldest post — the worst case for the index.
        eng = MatchingEngine(rank=0)
        t0 = time.perf_counter()
        for i in range(N):
            eng.post_recv(_FakeRecv(ANY_SOURCE, ANY_TAG), context=0)
            assert eng.deliver(_msg(i % SRCS, tag=i % 3)) is not None
        stats["wildcard_us"] = (time.perf_counter() - t0) / N * 1e6

        # Unexpected-queue wildcard probe across several buckets.
        eng = MatchingEngine(rank=0)
        for i in range(SRCS):
            eng.deliver(_msg(i, tag=i))
        t0 = time.perf_counter()
        for _ in range(N):
            assert eng.probe(ANY_SOURCE, ANY_TAG, context=0) is not None
        stats["probe_us"] = (time.perf_counter() - t0) / N * 1e6

    timed(benchmark, run)
    emit(
        "kernel: matching engine",
        (f"concrete post+deliver {stats['concrete_us']:.3f} us; "
         f"wildcard post+deliver {stats['wildcard_us']:.3f} us; "
         f"wildcard probe over {SRCS} buckets {stats['probe_us']:.3f} us"),
    )


def bench_kernel_trace_overhead(benchmark):
    """The same message-heavy run with tracing on vs off."""
    stats = {}

    def _ping(mpi) -> None:
        comm = mpi.comm_world
        other = 1 - comm.rank
        for i in range(400):
            if comm.rank == i % 2:
                comm.send(i, dest=other)
            else:
                comm.recv(source=other)

    def run() -> None:
        for label, enabled in (("on", True), ("off", False)):
            t0 = time.perf_counter()
            sim = Simulation(nprocs=2, trace_enabled=enabled)
            r = sim.run(_ping)
            stats[label] = time.perf_counter() - t0
            assert (len(r.trace) > 0) == enabled
            # Observability is strictly opt-in: without metrics=True the
            # kernel must allocate no obs state at all (regardless of
            # the trace switch).
            assert sim.runtime.obs is None
            assert r.metrics is None

    timed(benchmark, run)
    ratio = stats["on"] / stats["off"] if stats["off"] else float("inf")
    emit(
        "kernel: trace overhead (800 sends)",
        (f"trace on {stats['on'] * 1e3:.2f} ms, "
         f"off {stats['off'] * 1e3:.2f} ms ({ratio:.2f}x)"),
    )
