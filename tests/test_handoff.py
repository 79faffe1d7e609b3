"""Direct baton passing between fibers, pinned exactly.

Inside a runtime loop the thread that gives up control — a fiber that
blocks or finishes — runs the scheduling decision (``Runtime._next_fiber``)
itself and wakes the pick directly; the main thread only starts the first
fiber and sleeps until a fiber thread reports the loop over.  These tests
pin what that protocol must get right beyond "the goldens still match":

* a kill event whose victim is the very fiber executing it;
* budget overruns and callback exceptions raised on a fiber thread;
* mutual exclusion (one decision, one slice, at any instant);
* a simulation run from inside a rank of another simulation;
* Ctrl-C in the main thread while fiber threads hold the baton;
* handoff and message counts that are exactly linear in the rank count.

Nothing here asserts on elapsed time.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import pytest

from repro.analysis import result_digest
from repro.core import RingConfig, Termination, make_ring_main
from repro.faults import run_campaign
from repro.parallel import RingScenario, StandardRingInvariants
from repro.simmpi import ErrorHandler, RankFailStopError, Simulation
from repro.simmpi.fibers import Fiber, FiberState
from repro.simmpi.runtime import Runtime, SimulationLimitExceeded

from tests.test_agreement import run_schedule
from tests.test_determinism_golden import GOLDEN_DIR
from tests.test_determinism_golden import _run_scenario as golden_scenario
from tests.test_fiber_lifecycle import _assert_no_fiber_threads

#: Traces of the two driver-kill scenarios, recorded at the commit
#: before direct passing existed (main-thread scheduler).
TRACES = Path(__file__).resolve().parent / "traces"


def _fiber_threads_idle(before: int) -> None:
    """Every worker is parked in the pool again (the measure of
    ``tests/test_fiber_lifecycle.py``)."""
    assert threading.active_count() == before
    _assert_no_fiber_threads()


@pytest.fixture
def warm_pool():
    """Thread count with the worker pool warm enough for 8 ranks."""
    Simulation(nprocs=8).run(lambda mpi: mpi.comm_world.barrier())
    return threading.active_count()


# ----------------------------------------------------------------------
# (a) The kill event's victim is the fiber whose thread executes it
# ----------------------------------------------------------------------


def _logs_its_unwinding(main):
    """Every rank logs to the trace as it leaves *main* — for a killed
    rank that is mid-unwind, so the record's position in the trace shows
    exactly when the unwinding ran."""
    def wrapped(mpi):
        try:
            return main(mpi)
        finally:
            mpi.log("unwound", calls=mpi.call_count)

    return wrapped


def _pair_main(mpi):
    comm = mpi.comm_world
    comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
    if comm.rank == 0:
        mpi.compute(1e-6)  # rank 1 blocks first ...
        comm.recv(source=1)  # ... so this block leaves rank 0 driving
    else:
        try:
            comm.recv(source=0)
        except RankFailStopError:
            mpi.log("peer died")


def driver_kill_n2():
    sim = Simulation(nprocs=2)
    sim.kill(0, at_time=5e-6)
    return sim, _logs_its_unwinding(_pair_main)


def driver_kill_n8():
    """Two victims that each hold the loop when their kill fires, a
    third that is parked (unwound by a nested resume)."""
    sim, main = RingScenario(nprocs=8, iters=3)()
    sim.kill(3, at_time=5.06e-06)
    sim.kill(4, at_time=6.52e-06)
    sim.kill(6, at_time=2.0e-05)
    return sim, _logs_its_unwinding(main)


DRIVER_KILLS = {
    "driver_kill_n2": (driver_kill_n2, [(0, True)]),
    "driver_kill_n8": (driver_kill_n8, [(3, True), (4, True), (6, False)]),
}


@pytest.mark.parametrize("name", DRIVER_KILLS)
def test_kill_aimed_at_the_driver_unwinds_it_before_anything_else(
    name, monkeypatch
):
    factory, expected = DRIVER_KILLS[name]
    sim, main = factory()
    kills: list[tuple[int, bool]] = []
    kill_event = Runtime._kill_event

    def spy(self, rank, time):
        fiber = self.procs[rank].fiber
        assert fiber.state is FiberState.BLOCKED
        kills.append((rank, fiber is self._driver))
        kill_event(self, rank, time)
        if fiber is self._driver:
            # It could not be resumed from its own thread: still parked
            # in its yield, marked, and unwound right after this event.
            assert fiber.kill_pending and not fiber.finished()
        else:
            assert fiber.state is FiberState.FAILED

    monkeypatch.setattr(Runtime, "_kill_event", spy)
    result = sim.run(main, on_deadlock="return")
    assert kills == expected
    assert result.failed_ranks == {rank for rank, _ in expected}
    assert result.trace.format() + "\n" == (TRACES / f"{name}.txt").read_text()


# ----------------------------------------------------------------------
# (b) Exceptions raised by the decision function on a fiber thread
# ----------------------------------------------------------------------


def _raised_while_a_fiber_drove(exc: BaseException) -> bool:
    """The traceback runs main thread -> (re-raise) -> fiber thread."""
    frames = [f.name for f in traceback.extract_tb(exc.__traceback__)]
    return "_pass_baton" in frames and (
        frames.index("run_loop") < frames.index("_pass_baton")
        < frames.index("_next_fiber")
    )


def _barriers(mpi):
    for _ in range(100):
        mpi.comm_world.barrier()


def test_max_events_overrun_on_a_fiber_thread_reaches_the_caller(warm_pool):
    sim = Simulation(nprocs=4, max_events=50)
    with pytest.raises(SimulationLimitExceeded, match="max_events=50") as info:
        sim.run(_barriers)
    assert _raised_while_a_fiber_drove(info.value)
    assert all(p.fiber.finished() for p in sim.runtime.procs)
    _fiber_threads_idle(warm_pool)


def test_max_time_overrun_on_a_fiber_thread_reaches_the_caller(warm_pool):
    sim = Simulation(nprocs=2, max_time=1e-6)
    with pytest.raises(SimulationLimitExceeded, match="max_time=1e-06") as info:
        sim.run(lambda mpi: mpi.compute(1e-3))
    assert _raised_while_a_fiber_drove(info.value)
    assert all(p.fiber.finished() for p in sim.runtime.procs)
    _fiber_threads_idle(warm_pool)


def test_failure_listener_exception_on_a_fiber_thread_reaches_the_caller(
    warm_pool,
):
    raised: list[tuple[BaseException, str]] = []

    def listener(observer, failed, time):
        exc = RuntimeError(f"listener bug at rank {observer}")
        raised.append((exc, threading.current_thread().name))
        raise exc

    sim = Simulation(nprocs=3)
    sim.runtime.add_failure_listener(2, listener)
    sim.kill(1, at_time=2e-6)
    with pytest.raises(RuntimeError, match="listener bug at rank 2") as info:
        sim.run(lambda mpi: mpi.compute(1e-5))
    ((exc, thread_name),) = raised
    assert info.value is exc
    assert thread_name == "sim-fiber-worker"
    assert _raised_while_a_fiber_drove(exc)
    assert traceback.extract_tb(exc.__traceback__)[-1].name == "listener"
    assert all(p.fiber.finished() for p in sim.runtime.procs)
    _fiber_threads_idle(warm_pool)


# ----------------------------------------------------------------------
# (c) Mutual exclusion
# ----------------------------------------------------------------------


class _Gauge:
    """How many threads are inside a region at once, at most."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.inside = 0
        self.peak = 0
        self.entries = 0

    def enter(self) -> None:
        with self._lock:
            self.inside += 1
            self.entries += 1
            self.peak = max(self.peak, self.inside)

    def leave(self) -> None:
        with self._lock:
            self.inside -= 1


@pytest.fixture
def gauges(monkeypatch):
    """Count concurrent executions of the scheduling decision and of
    fiber slices (a slice: from getting the baton to giving it up)."""
    deciding, running = _Gauge(), _Gauge()
    next_fiber = Runtime._next_fiber
    run_target = Fiber._run_target
    yield_to_scheduler = Fiber.yield_to_scheduler

    def counted_next_fiber(self, driver):
        deciding.enter()
        try:
            return next_fiber(self, driver)
        finally:
            deciding.leave()

    def counted_run_target(self):
        # The target runs only once the first baton arrived and no kill
        # or shutdown was pending before the fiber's first slice.
        target = self._target

        def counted_target():
            running.enter()
            try:
                return target()
            finally:
                running.leave()

        self._target = counted_target
        run_target(self)

    def counted_yield(self):
        running.leave()
        try:
            yield_to_scheduler(self)
        finally:
            running.enter()

    monkeypatch.setattr(Runtime, "_next_fiber", counted_next_fiber)
    monkeypatch.setattr(Fiber, "_run_target", counted_run_target)
    monkeypatch.setattr(Fiber, "yield_to_scheduler", counted_yield)
    return deciding, running


def test_one_decision_and_one_slice_at_a_time(gauges):
    deciding, running = gauges
    # A sample of the agreement kill matrix: single and double kills, on
    # the coordinator and its successor, under every detector.
    for api in ("validate", "agree", "shrink"):
        for detector in ("instant", "racing", "trailing", "staggered"):
            for budgets in ({0: 0}, {1: 2}, {0: 1, 1: 0}, {2: 3, 4: 1}):
                run_schedule(api, 5, detector, budgets)
    # One random-policy campaign: timed kills under a shuffled interleaving.
    def shuffled_ring():
        sim, main = RingScenario(nprocs=6, iters=4)()
        return sim.configure(policy="random", policy_seed=3), main

    report = run_campaign(
        shuffled_ring,
        seeds=range(30),
        horizon=2e-5,
        invariants=StandardRingInvariants(4, 6),
    )
    assert sum(len(r.kills) for r in report.runs) == 30
    assert deciding.entries > 1000 and running.entries > 1000
    assert deciding.peak == 1
    assert running.peak == 1
    assert deciding.inside == 0


# ----------------------------------------------------------------------
# (d) A simulation inside a rank of another simulation
# ----------------------------------------------------------------------


def _ring(nprocs: int, iters: int):
    cfg = RingConfig(max_iter=iters, termination=Termination.NONE)
    return Simulation(nprocs=nprocs), make_ring_main(cfg)


def test_simulation_inside_a_rank_of_another_simulation():
    sim, main = _ring(4, 3)
    alone = result_digest(sim.run(main))

    def outer_main(mpi):
        comm = mpi.comm_world
        comm.barrier()
        # The calling fiber thread is the inner runtime's "main thread":
        # it sleeps on the inner loop's own baton, not the outer one's.
        inner, inner_main = _ring(4, 3)
        digest = result_digest(inner.run(inner_main))
        return comm.allreduce(comm.rank, "sum"), digest

    result = Simulation(nprocs=3).run(outer_main)
    assert result.values() == {r: (3, alone) for r in range(3)}


# ----------------------------------------------------------------------
# Ctrl-C in the main thread while fiber threads hold the baton
# ----------------------------------------------------------------------


@pytest.mark.skipif(
    threading.current_thread() is not threading.main_thread(),
    reason="signals are delivered to the main thread",
)
def test_interrupt_in_the_main_thread_stops_the_loop_before_shutdown(warm_pool):
    sim, main = RingScenario(nprocs=8, iters=6)()
    rt = sim.runtime
    blocks_after_signal: list[int] = []

    def interrupting_main(mpi):
        if mpi.rank == 3:
            # The main thread needs the GIL to take the signal; give it up
            # until it has, so that what follows is exact.  (Resent in the
            # rare case CPython loses the wake-up: a signal that lands just
            # before the main thread's lock wait does not interrupt it.)
            give_up = time.monotonic() + 60
            while not rt._interrupted and time.monotonic() < give_up:
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
                resend = time.monotonic() + 0.2
                while not rt._interrupted and time.monotonic() < resend:
                    time.sleep(0.001)
            mpi.log("carrying on")  # the rank itself is not interrupted
            blocks_after_signal.append(rt.perf.handoffs)
        return main(mpi)

    shutdown = rt.shutdown
    at_shutdown: list[tuple[bool, int, int]] = []

    def checked_shutdown():
        # Main thread, KeyboardInterrupt in flight.  The loop must be over
        # already: nothing may still be handing off while fibers unwind.
        before = rt.perf.handoffs
        shutdown()
        at_shutdown.append((rt._interrupted, before, rt.perf.handoffs))

    rt.shutdown = checked_shutdown
    with pytest.raises(KeyboardInterrupt):
        sim.run(interrupting_main)
    # Ranks 0-3 got one slice each (rr); rank 3's first block found the
    # stop flag, so the loop ended there, long before the ring did.
    assert blocks_after_signal == [4]
    assert at_shutdown == [(True, 4, 4)]
    assert all(p.fiber.finished() for p in rt.procs)
    _fiber_threads_idle(warm_pool)

    # The process is intact: the next simulation reproduces its golden.
    assert golden_scenario("rr", 0) == (GOLDEN_DIR / "trace_rr.txt").read_text()
    _fiber_threads_idle(warm_pool)


# ----------------------------------------------------------------------
# Scale gate: the fault-free ring costs exactly 6n handoffs, 5n messages
# ----------------------------------------------------------------------


@pytest.mark.parametrize("policy", ["rr", "lowest"])
@pytest.mark.parametrize("nprocs", [64, 256, 1024])
def test_fault_free_ring_handoffs_and_messages_are_linear(nprocs, policy):
    cfg = RingConfig(max_iter=5, termination=Termination.NONE)
    sim = Simulation(nprocs=nprocs, policy=policy, trace_enabled=False)
    perf = sim.run(make_ring_main(cfg)).perf
    assert perf.handoffs == 6 * nprocs
    assert perf.messages_sent == 5 * nprocs


def test_4096_rank_ring_through_the_cli_costs_exactly_6n_handoffs_5n_messages():
    """The 4,096-rank row, through the command line, in its own process:
    one OS thread per rank, so a per-hop cost that grows with n shows as
    a slow run, and its ``handoffs_per_s`` line says by how much."""
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run(
        [
            sys.executable, "-m", "repro", "perf", "ring", "--nprocs", "4096",
            "--iters", "5", "--termination", "none", "--no-trace",
        ],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert "handoffs             24576" in lines, run.stdout
    assert "messages_sent        20480" in lines, run.stdout
