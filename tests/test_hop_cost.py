"""What one simulated hop costs the host, as exact counters.

Wall time is a poor gate — it moves with the host and its load — so the
cost of a handoff on the thread backend is pinned by two counts taken
over a fault-free 32-rank ring:

* **context switches** per handoff (Linux only), voluntary plus
  involuntary, from ``/proc/self/task/*/status`` for the threads that ran
  the simulation, on one CPU as the benchmark runs a single simulation
  (on several, where a woken thread lands is the kernel's choice).  The
  ideal is one: the pick wakes, its waker parks.  Fiber
  threads run under ``SCHED_BATCH`` so a woken fiber cannot preempt its
  waker while the waker still holds the GIL — without it a handoff cost
  3.4 switches.  Time-slice expiry under load adds about one per hundred
  handoffs, hence the 1.5 bound.
* **interpreted frames** in ``repro`` per handoff, counted as call
  counts by one ``cProfile`` per fiber thread (the profiler is
  per-thread, and each fiber keeps its thread for the whole run).  The
  point-to-point hop — send, deliver, match, complete, wake — tests its
  arguments inline instead of through a chain of small helpers; it used
  to take about 81 frames, then 52.5 while events were objects, waits
  kept waiter lists and a flat message was sized field by field in
  Python.  It measures 43.8 (bound: 46), with the trace on or off: a
  traced call site appends one row of a declared shape, where it used
  to build a kwargs dict and a record object (55.5 traced).
* **C calls** per handoff — builtins, lock operations, heap pushes and
  pops — counted by a ``sys.setprofile`` hook per fiber thread, over
  the same ring: 32.5 untraced (bound: 36; 39.3 before the delivery half
  of the hop went flat), 38.3 traced (bound: 40), the difference being
  one ``list.append`` per record.

And the policy is an optimisation only: refused or absent, the run is
the same run.
"""

from __future__ import annotations

import cProfile
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

NPROCS = 32
RING = make_ring_main(RingConfig(max_iter=50, termination=Termination.NONE))
PACKAGE = str(Path(repro.__file__).resolve().parent)


def _ring(main=RING, trace: bool = False):
    sim = Simulation(nprocs=NPROCS, fibers="thread", trace_enabled=trace)
    return sim.run(main)


def _switches() -> dict[int, int]:
    """Voluntary + involuntary context switches of each live thread."""
    out = {}
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/status") as status:
                out[int(tid)] = sum(
                    int(line.split()[1]) for line in status
                    if line.startswith(("voluntary_ctxt", "nonvoluntary_ctxt"))
                )
        except FileNotFoundError:  # a thread that exited meanwhile
            pass
    return out


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or not hasattr(os, "SCHED_BATCH"),
    reason="per-thread switch counts and SCHED_BATCH are Linux-only",
)
def test_one_context_switch_per_handoff():
    _ring()  # warm the worker pool: thread creation is not a handoff
    tids: set[int] = {threading.get_native_id()}
    policies: set[int] = set()
    allowed = os.sched_getaffinity(0)
    cpu = {min(allowed)}

    def main(mpi):
        mine = os.sched_getaffinity(0)
        os.sched_setaffinity(0, cpu)
        try:
            tids.add(threading.get_native_id())
            policies.add(os.sched_getscheduler(0))
            return RING(mpi)
        finally:
            os.sched_setaffinity(0, mine)  # the thread goes back to the pool

    os.sched_setaffinity(0, cpu)
    try:
        before = _switches()
        perf = _ring(main).perf
        after = _switches()
    finally:
        os.sched_setaffinity(0, allowed)
    if policies != {os.SCHED_BATCH}:
        pytest.skip(f"fiber threads run under policies {policies}, not SCHED_BATCH")
    switches = sum(after[t] - before.get(t, 0) for t in tids if t in after)
    per_handoff = switches / perf.handoffs
    assert per_handoff <= 1.5, (
        f"{switches} context switches over {perf.handoffs} handoffs "
        f"= {per_handoff:.3f} per handoff; other threads that ran meanwhile "
        f"(a GIL-contending one inflates the count):\n"
        + _other_threads(before, after, tids)
    )


_POLICIES = {
    getattr(os, name): name
    for name in ("SCHED_OTHER", "SCHED_BATCH", "SCHED_IDLE", "SCHED_FIFO", "SCHED_RR")
    if hasattr(os, name)
}


def _other_threads(
    before: dict[int, int], after: dict[int, int], measured: set[int]
) -> str:
    """One line per thread outside *measured* that switched between the
    two snapshots: tid, name, ``/proc`` state, policy, switch delta."""
    names = {t.native_id: t.name for t in threading.enumerate()}
    lines = []
    for tid in sorted(after):
        delta = after[tid] - before.get(tid, 0)
        if tid in measured or delta == 0:
            continue
        try:
            with open(f"/proc/self/task/{tid}/status") as status:
                fields = dict(line.split(":", 1) for line in status if ":" in line)
            policy = _POLICIES.get(os.sched_getscheduler(tid), "?")
        except (FileNotFoundError, ProcessLookupError):
            continue  # exited meanwhile
        name = names.get(tid, fields.get("Name", "?").strip())
        state = fields.get("State", "?").strip()
        lines.append(
            f"  tid {tid} {name!r} state={state} policy={policy} switches=+{delta}"
        )
    return "\n".join(lines) or "  (none)"


def _assert_frames_per_handoff(trace: bool) -> None:
    profiles: list[cProfile.Profile] = []

    def main(mpi):
        profile = cProfile.Profile()
        profiles.append(profile)  # one fiber runs at a time
        profile.enable()
        try:
            return RING(mpi)
        finally:
            profile.disable()

    perf = _ring(main, trace=trace).perf
    calls = sum(
        ncalls
        for profile in profiles
        for (filename, _, _), (_, ncalls, *_) in pstats.Stats(profile).stats.items()
        if filename.startswith(PACKAGE)
    )
    per_handoff = calls / perf.handoffs
    assert len(profiles) == NPROCS
    assert per_handoff <= 46, (
        f"{calls} repro frames over {perf.handoffs} handoffs "
        f"= {per_handoff:.2f} per handoff"
    )


def test_frames_per_handoff():
    _assert_frames_per_handoff(trace=False)


def test_frames_per_handoff_traced():
    _assert_frames_per_handoff(trace=True)


def _assert_c_calls_per_handoff(trace: bool, bound: float) -> None:
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

    perf = _ring(main, trace=trace).perf
    per_handoff = calls[0] / perf.handoffs
    assert per_handoff <= bound, (
        f"{calls[0]} C calls over {perf.handoffs} handoffs "
        f"= {per_handoff:.2f} per handoff"
    )


def test_c_calls_per_handoff():
    _assert_c_calls_per_handoff(trace=False, bound=36)


def test_c_calls_per_handoff_traced():
    _assert_c_calls_per_handoff(trace=True, bound=40)


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
