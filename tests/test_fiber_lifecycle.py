"""Fiber lifecycle across batches of simulations.

A long in-process sweep (10k-run campaigns) must not accumulate fiber
resources.  The contract: ``Simulation.run`` retires every fiber on
**every** exit path — normal completion, deadlock return, fail-stop
kills, aborts, application errors, and budget overruns — and releases
the fibers' references to the application mains afterwards.  The
thread-count assertions check that no OS thread is left running a rank;
the target-release assertions check the references.
"""

from __future__ import annotations

import threading

import pytest

from repro.faults import KillAtProbe, run_campaign
from repro.parallel import RingScenario, StandardRingInvariants
from repro.simmpi import Simulation
from repro.simmpi.errors import SimulationError
from repro.simmpi.runtime import SimulationLimitExceeded


def _fiber_threads() -> list[str]:
    return [t.name for t in threading.enumerate() if t.name.startswith("rank-")]


def _assert_no_fiber_threads() -> None:
    assert _fiber_threads() == []


def _clean_main(mpi):
    comm = mpi.comm_world
    return comm.allreduce(comm.rank, "sum")


def _hang_main(mpi):
    comm = mpi.comm_world
    if comm.rank == 0:
        comm.recv(source=1)  # never sent
    return "done"


def _abort_main(mpi):
    if mpi.comm_world.rank == 0:
        mpi.abort(3)
    else:
        mpi.comm_world.recv(source=0)


def _error_main(mpi):
    if mpi.comm_world.rank == 1:
        raise RuntimeError("app bug")
    mpi.compute(1e-6)


def _barrier_main(mpi):
    comm = mpi.comm_world
    for _ in range(100):
        comm.barrier()


class TestThreadLifecycle:
    def test_batch_of_runs_releases_all_threads(self):
        """The satellite's regression: live threads before == after a batch
        of runs spanning every exit path."""
        before = threading.active_count()
        for i in range(20):
            Simulation(nprocs=4, seed=i).run(_clean_main)
            Simulation(nprocs=2, seed=i).run(_hang_main, on_deadlock="return")
            sim = Simulation(nprocs=3, seed=i)
            sim.kill(1, at_time=1e-6)
            sim.run(_clean_main, on_deadlock="return")
            Simulation(nprocs=3, seed=i).run(_abort_main, on_deadlock="return")
            with pytest.raises(SimulationError):
                Simulation(nprocs=3, seed=i).run(_error_main)
        assert threading.active_count() == before
        _assert_no_fiber_threads()

    def test_deadlock_raise_path_releases_threads(self):
        before = threading.active_count()
        for _ in range(5):
            with pytest.raises(Exception):
                Simulation(nprocs=2).run(_hang_main)  # on_deadlock="raise"
        assert threading.active_count() == before
        _assert_no_fiber_threads()

    def test_budget_overrun_releases_threads(self):
        before = threading.active_count()
        for _ in range(5):
            with pytest.raises(SimulationLimitExceeded):
                Simulation(nprocs=4, max_events=50).run(_barrier_main)
        assert threading.active_count() == before
        _assert_no_fiber_threads()

    def test_killed_at_probe_releases_threads(self):
        before = threading.active_count()
        for _ in range(10):
            sim, main = RingScenario(nprocs=4, iters=3)()
            sim.add_injector(KillAtProbe(rank=1, probe="post_recv", hit=1))
            sim.run(main, on_deadlock="return")
        assert threading.active_count() == before
        _assert_no_fiber_threads()

    def test_campaign_batch_releases_threads(self):
        """An in-process sweep — the workload the satellite names."""
        before = threading.active_count()
        run_campaign(
            RingScenario(nprocs=4, iters=3),
            seeds=range(25),
            horizon=8e-6,
            invariants=StandardRingInvariants(3, 4),
        )
        assert threading.active_count() == before
        _assert_no_fiber_threads()

    def test_fibers_release_application_target(self):
        """After a run, retained Simulation objects no longer pin mains."""
        sim = Simulation(nprocs=2)
        sim.run(_clean_main)
        from repro.simmpi.fibers import _released

        for proc in sim.runtime.procs:
            assert proc.fiber is not None
            assert proc.fiber._target is _released
