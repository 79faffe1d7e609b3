"""The kernel's loop, pinned exactly.

``Runtime.loop`` runs the scheduling decision (``Runtime._next_fiber``)
and steps the pick's coroutine, one after the other, on the caller's
thread.  These tests pin what that loop must get right beyond "the
goldens still match":

* a kill event whose victim is the rank that ran last;
* budget overruns and callback exceptions raised inside the decision;
* mutual exclusion (one decision, one slice, at any instant);
* a simulation run from inside a rank of another simulation;
* Ctrl-C raised inside a rank's program and inside an event callback;
* a rank program that forgets an ``await``;
* handoff and message counts that are exactly linear in the rank count.

Nothing here asserts on elapsed time.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import traceback
from pathlib import Path

import pytest

from repro.analysis import result_digest
from repro.core import RingConfig, Termination, make_ring_main
from repro.faults import run_campaign
from repro.parallel import RingScenario, StandardRingInvariants
from repro.simmpi import ErrorHandler, RankFailStopError, Simulation
from repro.simmpi.errors import SimulationError
from repro.simmpi.fibers import Fiber, FiberState
from repro.simmpi.runtime import Runtime, SimulationLimitExceeded

from tests.test_agreement import run_schedule
from tests.test_determinism_golden import GOLDEN_DIR
from tests.test_determinism_golden import _run_scenario as golden_scenario

#: Traces of the two driver-kill scenarios, recorded when every rank was
#: an OS thread and the scheduler ran on the main thread.
TRACES = Path(__file__).resolve().parent / "traces"


# ----------------------------------------------------------------------
# (a) The kill event's victim is the rank whose block led to it
# ----------------------------------------------------------------------


def _logs_its_unwinding(main):
    """Every rank logs to the trace as it leaves *main* — for a killed
    rank that is mid-unwind, so the record's position in the trace shows
    exactly when the unwinding ran."""
    async def wrapped(mpi):
        try:
            return await main(mpi)
        finally:
            mpi.log("unwound", calls=mpi.call_count)

    return wrapped


async def _pair_main(mpi):
    comm = mpi.comm_world
    comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
    if comm.rank == 0:
        await mpi.compute(1e-6)  # rank 1 blocks first ...
        await comm.recv(source=1)  # ... so rank 0's block leads to the kill
    else:
        try:
            await comm.recv(source=0)
        except RankFailStopError:
            mpi.log("peer died")


def driver_kill_n2():
    sim = Simulation(nprocs=2)
    sim.kill(0, at_time=5e-6)
    return sim, _logs_its_unwinding(_pair_main)


def driver_kill_n8():
    """Two victims that each ran last when their kill fires, a third
    that blocked earlier."""
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
    """Whether or not its victim is the rank that ran last, a kill event
    unwinds it on the spot: no rank is executing while an event runs."""
    factory, expected = DRIVER_KILLS[name]
    sim, main = factory()
    kills: list[tuple[int, bool]] = []
    last = [None]
    step = Fiber._step
    kill_event = Runtime._kill_event

    def tracked_step(fiber):
        last[0] = fiber
        step(fiber)

    def spy(self, rank, time):
        fiber = self.procs[rank].fiber
        assert fiber.state is FiberState.BLOCKED
        kills.append((rank, fiber is last[0]))
        kill_event(self, rank, time)
        assert fiber.state is FiberState.FAILED

    monkeypatch.setattr(Fiber, "_step", tracked_step)
    monkeypatch.setattr(Runtime, "_kill_event", spy)
    result = sim.run(main, on_deadlock="return")
    assert kills == expected
    assert result.failed_ranks == {rank for rank, _ in expected}
    assert result.trace.format() + "\n" == (TRACES / f"{name}.txt").read_text()


# ----------------------------------------------------------------------
# (b) Exceptions raised by the decision function
# ----------------------------------------------------------------------


def _raised_in_the_decision(exc: BaseException) -> bool:
    """The traceback runs loop -> decision, with no rank in between."""
    frames = [f.name for f in traceback.extract_tb(exc.__traceback__)]
    return frames.index("run_loop") < frames.index("_next_fiber")


async def _barriers(mpi):
    for _ in range(100):
        await mpi.comm_world.barrier()


def test_max_events_overrun_on_a_fiber_thread_reaches_the_caller():
    sim = Simulation(nprocs=4, max_events=50)
    with pytest.raises(SimulationLimitExceeded, match="max_events=50") as info:
        sim.run(_barriers)
    assert _raised_in_the_decision(info.value)
    assert all(p.fiber.finished() for p in sim.runtime.procs)


def test_max_time_overrun_on_a_fiber_thread_reaches_the_caller():
    sim = Simulation(nprocs=2, max_time=1e-6)
    with pytest.raises(SimulationLimitExceeded, match="max_time=1e-06") as info:
        sim.run(lambda mpi: mpi.compute(1e-3))
    assert _raised_in_the_decision(info.value)
    assert all(p.fiber.finished() for p in sim.runtime.procs)


def test_failure_listener_exception_on_a_fiber_thread_reaches_the_caller():
    raised: list[tuple[BaseException, int]] = []

    def listener(observer, failed, time):
        exc = RuntimeError(f"listener bug at rank {observer}")
        raised.append((exc, threading.get_ident()))
        raise exc

    sim = Simulation(nprocs=3)
    sim.runtime.add_failure_listener(2, listener)
    sim.kill(1, at_time=2e-6)
    with pytest.raises(RuntimeError, match="listener bug at rank 2") as info:
        sim.run(lambda mpi: mpi.compute(1e-5))
    ((exc, thread),) = raised
    assert info.value is exc
    assert thread == threading.get_ident()  # the caller's own thread
    assert _raised_in_the_decision(exc)
    assert traceback.extract_tb(exc.__traceback__)[-1].name == "listener"
    assert all(p.fiber.finished() for p in sim.runtime.procs)


# ----------------------------------------------------------------------
# (c) Mutual exclusion
# ----------------------------------------------------------------------


class _Gauge:
    """How deeply a region is entered at once, at most."""

    def __init__(self) -> None:
        self.inside = 0
        self.peak = 0
        self.entries = 0

    def enter(self) -> None:
        self.inside += 1
        self.entries += 1
        self.peak = max(self.peak, self.inside)

    def leave(self) -> None:
        self.inside -= 1


@pytest.fixture
def gauges(monkeypatch):
    """Count nested executions of the scheduling decision and of fiber
    slices (a slice: one step of a rank's coroutine)."""
    deciding, running = _Gauge(), _Gauge()
    next_fiber = Runtime._next_fiber
    step = Fiber._step

    def counted_next_fiber(self):
        deciding.enter()
        try:
            return next_fiber(self)
        finally:
            deciding.leave()

    def counted_step(self):
        running.enter()
        try:
            step(self)
        finally:
            running.leave()

    monkeypatch.setattr(Runtime, "_next_fiber", counted_next_fiber)
    monkeypatch.setattr(Fiber, "_step", counted_step)
    return deciding, running


def test_one_decision_and_one_slice_at_a_time(gauges):
    """A kill steps its victim from inside the decision, but no slice
    ever runs inside another slice, nor a decision inside a decision."""
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
    assert deciding.inside == 0 and running.inside == 0


# ----------------------------------------------------------------------
# (d) A simulation inside a rank of another simulation
# ----------------------------------------------------------------------


def _ring(nprocs: int, iters: int):
    cfg = RingConfig(max_iter=iters, termination=Termination.NONE)
    return Simulation(nprocs=nprocs), make_ring_main(cfg)


def test_simulation_inside_a_rank_of_another_simulation():
    sim, main = _ring(4, 3)
    alone = result_digest(sim.run(main))

    async def outer_main(mpi):
        comm = mpi.comm_world
        await comm.barrier()
        # The inner loop runs to its end inside this rank's slice.
        inner, inner_main = _ring(4, 3)
        digest = result_digest(inner.run(inner_main))
        return await comm.allreduce(comm.rank, "sum"), digest

    result = Simulation(nprocs=3).run(outer_main)
    assert result.values() == {r: (3, alone) for r in range(3)}


# ----------------------------------------------------------------------
# (e) Ctrl-C, inside a rank's program and inside an event callback
# ----------------------------------------------------------------------


def _interrupted_run(sim, main) -> list[tuple[int, int]]:
    """Run *sim* expecting Ctrl-C; return the handoff count before and
    after the teardown, which the interrupt must not precede."""
    rt = sim.runtime
    shutdown = rt.shutdown
    at_shutdown: list[tuple[int, int]] = []

    def checked_shutdown():
        before = rt.perf.handoffs
        shutdown()
        at_shutdown.append((before, rt.perf.handoffs))

    rt.shutdown = checked_shutdown
    with pytest.raises(KeyboardInterrupt):
        sim.run(main)
    assert all(p.fiber.finished() for p in rt.procs)
    assert [p.fiber.error for p in rt.procs] == [None] * sim.nprocs
    # The process is intact: the next simulation reproduces its golden.
    assert golden_scenario("rr", 0) == (GOLDEN_DIR / "trace_rr.txt").read_text()
    return at_shutdown


@pytest.mark.skipif(
    threading.current_thread() is not threading.main_thread(),
    reason="signals are delivered to the main thread",
)
def test_interrupt_in_the_main_thread_stops_the_loop_before_shutdown():
    # From a rank's program: ranks 0-3 get one slice each (rr), and the
    # signal lands in rank 3's, long before the ring is done.
    sim, main = RingScenario(nprocs=8, iters=6)()

    async def interrupting_main(mpi):
        if mpi.rank == 3:
            signal.raise_signal(signal.SIGINT)
        return await main(mpi)

    assert _interrupted_run(sim, interrupting_main) == [(4, 4)]

    # From an event callback, while every rank is parked or not started.
    sim, main = RingScenario(nprocs=8, iters=6)()
    sim.runtime.events.schedule(
        3e-6, lambda: signal.raise_signal(signal.SIGINT)
    )
    ((before, after),) = _interrupted_run(sim, main)
    assert 8 < before == after


# ----------------------------------------------------------------------
# (f) A forgotten ``await``
# ----------------------------------------------------------------------


def test_a_forgotten_await_fails_the_run_and_names_the_rank():
    async def main(mpi):
        comm = mpi.comm_world
        if comm.rank == 0:
            comm.send("x", dest=1)
            return None
        data, _ = comm.recv(source=0)  # the await is missing
        return data

    with pytest.warns(RuntimeWarning, match="'Comm.recv' was never awaited"):
        with pytest.raises(SimulationError, match="rank 1 raised TypeError"):
            Simulation(nprocs=2).run(main)


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
    """The 4,096-rank row, through the command line, in its own process;
    its ``handoffs_per_s`` line shows a per-hop cost that grows with n."""
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
