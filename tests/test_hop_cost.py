"""What one simulated hop costs the host, as exact counters.

Wall time is a poor gate — it moves with the host and its load — so the
cost of a handoff is pinned by counts taken over a fault-free 32-rank
ring, each one decided by the program rather than by how the host
schedules threads:

* **baton releases and parks** per handoff.  A handoff releases the
  pick's ``_resume`` lock once and parks the yielder on its own once —
  or neither, when the pick is the yielder itself (``compute`` and poll
  wake-ups).  The fiber threads run under ``SCHED_BATCH``, so that one
  release is one OS context switch: a woken fiber cannot preempt its
  waker while the waker still holds the GIL (without the policy a
  handoff cost 3.4 switches).  The switch count itself is the host's,
  not the kernel's — it follows the host's load (2.7–3.0 voluntary plus
  2.5–2.9 involuntary per handoff beside two busy loops) — so it is
  measured A/B by the benchmark, not asserted here.
* **Enum lookups** per ring iteration: none.  On CPython 3.11 every
  attribute lookup on an Enum class goes through ``EnumType.__getattr__``
  (110–160 ns, against ~30 ns for a plain class attribute), so the hop
  reads members from module constants.  Set-up (per rank, per run) may
  still spell ``SomeEnum.MEMBER``.
* **interpreted frames** in ``repro`` per handoff, counted as call
  counts by one ``cProfile`` per fiber thread (the profiler is
  per-thread, and each fiber keeps its thread for the whole run).  The
  point-to-point hop — send, deliver, match, complete, wake — tests its
  arguments inline instead of through a chain of small helpers; it used
  to take about 81 frames, then 52.5 while events were objects, waits
  kept waiter lists and a flat message was sized field by field in
  Python, then 43.8 while the ring re-tested its variant in a receive
  closure.  It measures 42.8 (bound: 45), with the trace on or off: a
  traced call site appends one row of a declared shape, where it used
  to build a kwargs dict and a record object (55.5 traced).
* **C calls** per handoff — builtins, lock operations, heap pushes and
  pops — counted by a ``sys.setprofile`` hook per fiber thread, over
  the same ring: 29.5 untraced (bound: 34; 31.5 while ``wake`` and
  ``waitany`` called ``max()``, 39.3 before the delivery half of the hop
  went flat), 35.4 traced (bound: 38), the difference being one
  ``list.append`` per record.

Neither interpreted count may grow with the number of ranks: at 256
ranks each is within 0.5 of its 32-rank figure.

And the policy is an optimisation only: refused or absent, the run is
the same run.
"""

from __future__ import annotations

import cProfile
import enum
import os
import pstats
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.analysis import result_digest
from repro.core import RingConfig, Termination, make_ring_main
from repro.simmpi import Simulation, fibers
from repro.simmpi.runtime import Runtime

NPROCS = 32
ITERS = 50
RING = make_ring_main(RingConfig(max_iter=ITERS, termination=Termination.NONE))
PACKAGE = str(Path(repro.__file__).resolve().parent)


def _ring(main=RING, trace: bool = False, nprocs: int = NPROCS):
    sim = Simulation(nprocs=nprocs, trace_enabled=trace)
    return sim.run(main)


# ----------------------------------------------------------------------
# The baton: one release and one park per handoff
# ----------------------------------------------------------------------


class _CountedLock:
    """A fiber's ``_resume`` lock that counts releases and acquires.

    Each count is bumped before the operation, by the thread holding the
    baton at that moment (a release), or by the lock's own fiber thread
    (an acquire), so no two threads ever update one counter at once.
    """

    __slots__ = ("_lock", "releases", "acquires")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.releases = 0
        self.acquires = 0

    def acquire(self) -> bool:
        self.acquires += 1
        return self._lock.acquire()

    def release(self) -> None:
        self.releases += 1
        self._lock.release()


def _baton_counts(monkeypatch, main) -> tuple[int, int, int, int]:
    """Run *main* on the ring's 32 ranks; return its handoffs, the
    decisions that picked the yielder itself, and the ``_resume``
    releases and parks summed over the fibers."""
    start = fibers.Fiber.start

    def counted_start(fiber):
        fiber._resume = _CountedLock(fiber._resume)
        start(fiber)

    next_fiber = Runtime._next_fiber
    self_picks = [0]

    def counted_next_fiber(runtime, driver):
        pick = next_fiber(runtime, driver)
        if pick is not None and pick is driver:
            self_picks[0] += 1  # one decision at a time: the baton's
        return pick

    monkeypatch.setattr(fibers.Fiber, "start", counted_start)
    monkeypatch.setattr(Runtime, "_next_fiber", counted_next_fiber)
    sim = Simulation(nprocs=NPROCS, trace_enabled=False)
    perf = sim.run(main).perf
    locks = [proc.fiber._resume for proc in sim.runtime.procs]
    assert all(isinstance(lock, _CountedLock) for lock in locks)
    releases = sum(lock.releases for lock in locks)
    # Each fiber's first acquire is its wait for its first slice.
    parks = sum(lock.acquires - 1 for lock in locks)
    return perf.handoffs, self_picks[0], releases, parks


_COMPUTE_RING = make_ring_main(
    RingConfig(max_iter=ITERS, termination=Termination.NONE, work_per_iter=1e-6)
)


@pytest.mark.parametrize(
    "main, picks_itself",
    [(RING, False), (_COMPUTE_RING, True)],
    ids=["ring", "ring-with-compute"],
)
def test_one_baton_release_and_one_park_per_handoff(monkeypatch, main, picks_itself):
    """Every handoff wakes exactly one fiber, and parks exactly the one
    that gave up control, except that a pick of the yielder itself does
    neither and a finishing fiber leaves instead of parking.  Integers
    the kernel decides: they hold on any host under any load."""
    handoffs, self_picks, releases, parks = _baton_counts(monkeypatch, main)
    assert (self_picks > 0) is picks_itself, self_picks
    assert releases == handoffs - self_picks, (
        f"{releases} baton releases over {handoffs} handoffs, "
        f"{self_picks} of them to the yielder itself"
    )
    assert parks == handoffs - self_picks - NPROCS, (
        f"{parks} parks over {handoffs} handoffs, {self_picks} of them to "
        f"the yielder itself, {NPROCS} ranks finishing"
    )


@pytest.mark.skipif(
    not hasattr(os, "sched_getscheduler") or not hasattr(os, "SCHED_BATCH"),
    reason="SCHED_BATCH is Linux-only",
)
def test_fiber_threads_run_under_sched_batch():
    """The policy that holds a handoff's release to one OS switch."""
    probe: list[BaseException | None] = []

    def settable():
        try:
            os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
            probe.append(None)
        except OSError as exc:
            probe.append(exc)

    thread = threading.Thread(target=settable)  # a throwaway thread
    thread.start()
    thread.join()
    if probe[0] is not None:
        pytest.skip(f"this host refuses SCHED_BATCH: {probe[0]}")
    policies: set[int] = set()

    def main(mpi):
        policies.add(os.sched_getscheduler(0))
        return RING(mpi)

    _ring(main)
    assert policies == {os.SCHED_BATCH}


# ----------------------------------------------------------------------
# Interpreted work per hop
# ----------------------------------------------------------------------


def test_no_enum_lookup_per_ring_iteration(monkeypatch):
    """Fifty more ring iterations (3,200 more handoffs) look up no Enum
    member on its class: the hop reads module constants instead."""
    lookups = [0]
    getattribute = type.__getattribute__

    def counted(cls, name):
        lookups[0] += 1  # one fiber runs at a time
        return getattribute(cls, name)

    def enum_lookups(iters: int) -> int:
        main = make_ring_main(
            RingConfig(max_iter=iters, termination=Termination.NONE)
        )
        lookups[0] = 0
        with monkeypatch.context() as patch:
            patch.setattr(enum.EnumType, "__getattribute__", counted, raising=False)
            _ring(main)
        return lookups[0]

    _ring()  # warm the worker pool and every lazily built cache
    short, long = enum_lookups(ITERS), enum_lookups(2 * ITERS)
    assert short > 0, "the counter saw no lookup at all: is it installed?"
    assert long - short == 0, (
        f"{long - short} Enum lookups in {ITERS} extra ring iterations "
        f"({short} at {ITERS} iterations, {long} at {2 * ITERS})"
    )


def _frames_per_handoff(trace: bool, nprocs: int = NPROCS) -> float:
    profiles: list[cProfile.Profile] = []

    def main(mpi):
        profile = cProfile.Profile()
        profiles.append(profile)  # one fiber runs at a time
        profile.enable()
        try:
            return RING(mpi)
        finally:
            profile.disable()

    perf = _ring(main, trace=trace, nprocs=nprocs).perf
    calls = sum(
        ncalls
        for profile in profiles
        for (filename, _, _), (_, ncalls, *_) in pstats.Stats(profile).stats.items()
        if filename.startswith(PACKAGE)
    )
    assert len(profiles) == nprocs
    return calls / perf.handoffs


def _c_calls_per_handoff(trace: bool, nprocs: int = NPROCS) -> float:
    calls = [0]

    def count(frame, event, arg):
        if event == "c_call":
            calls[0] += 1  # one fiber runs at a time

    def main(mpi):
        sys.setprofile(count)
        try:
            return RING(mpi)
        finally:
            sys.setprofile(None)

    perf = _ring(main, trace=trace, nprocs=nprocs).perf
    return calls[0] / perf.handoffs


def test_frames_per_handoff():
    per_handoff = _frames_per_handoff(trace=False)
    assert per_handoff <= 45, f"{per_handoff:.2f} repro frames per handoff"


def test_frames_per_handoff_traced():
    per_handoff = _frames_per_handoff(trace=True)
    assert per_handoff <= 45, f"{per_handoff:.2f} repro frames per handoff"


def test_c_calls_per_handoff():
    per_handoff = _c_calls_per_handoff(trace=False)
    assert per_handoff <= 34, f"{per_handoff:.2f} C calls per handoff"


def test_c_calls_per_handoff_traced():
    per_handoff = _c_calls_per_handoff(trace=True)
    assert per_handoff <= 38, f"{per_handoff:.2f} C calls per handoff"


def test_hop_cost_is_flat_in_the_number_of_ranks():
    """An interpreted O(n) per operation shows here without a clock:
    eight times the ranks, the same frames and C calls per handoff."""
    for name, per_handoff in (
        ("repro frames", _frames_per_handoff),
        ("C calls", _c_calls_per_handoff),
    ):
        small = per_handoff(False, nprocs=NPROCS)
        large = per_handoff(False, nprocs=8 * NPROCS)
        assert large <= small + 0.5, (
            f"{name} per handoff: {small:.2f} at {NPROCS} ranks, "
            f"{large:.2f} at {8 * NPROCS}"
        )


# ----------------------------------------------------------------------
# The policy is an optimisation only
# ----------------------------------------------------------------------


def _refused(*args):
    raise PermissionError(1, "Operation not permitted")


@pytest.mark.parametrize("how", ["refused", "absent"])
def test_without_the_policy_the_run_is_the_same(how, monkeypatch):
    reference = _ring(trace=True)
    if how == "refused":
        monkeypatch.setattr(os, "sched_setscheduler", _refused, raising=False)
    else:
        monkeypatch.delattr(os, "sched_setscheduler", raising=False)
    # A fresh pool, so every fiber thread of the run starts (and asks for
    # the policy) under the patch.
    pool = fibers._WorkerPool()
    monkeypatch.setattr(fibers, "_POOL", pool)
    policies: set[int] = set()

    def main(mpi):
        if hasattr(os, "sched_getscheduler"):
            policies.add(os.sched_getscheduler(0))
        return RING(mpi)

    try:
        result = _ring(main, trace=True)
    finally:
        for worker in pool._idle:  # retire the pool's threads
            worker.submit(None)
            worker.thread.join(timeout=10)
            assert not worker.thread.is_alive()
    if hasattr(os, "SCHED_BATCH"):
        assert os.SCHED_BATCH not in policies
    assert result.trace.format() == reference.trace.format()
    assert result_digest(result) == result_digest(reference)
