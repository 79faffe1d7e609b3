"""Fiber lifecycle across batches of simulations.

A long in-process sweep (10k-run campaigns) must not accumulate fiber
resources.  The contract: ``Simulation.run`` retires every fiber on
**every** exit path — normal completion, deadlock return, fail-stop
kills, aborts, application errors, and budget overruns — and releases
the fibers' references to the application mains afterwards.  The
thread assertions check that a batch of runs starts no OS thread at all
(every rank is a coroutine stepped on the caller's thread); the
target-release assertions check the references.
"""

from __future__ import annotations

import threading

import pytest

from repro.faults import KillAtProbe, run_campaign
from repro.parallel import RingScenario, StandardRingInvariants
from repro.simmpi import Simulation
from repro.simmpi.errors import SimulationError
from repro.simmpi.runtime import SimulationLimitExceeded


async def _clean_main(mpi):
    comm = mpi.comm_world
    return await comm.allreduce(comm.rank, "sum")


async def _hang_main(mpi):
    comm = mpi.comm_world
    if comm.rank == 0:
        await comm.recv(source=1)  # never sent
    return "done"


async def _abort_main(mpi):
    if mpi.comm_world.rank == 0:
        mpi.abort(3)
    else:
        await mpi.comm_world.recv(source=0)


async def _error_main(mpi):
    if mpi.comm_world.rank == 1:
        raise RuntimeError("app bug")
    await mpi.compute(1e-6)


async def _barrier_main(mpi):
    comm = mpi.comm_world
    for _ in range(100):
        await comm.barrier()


class TestThreadLifecycle:
    def test_batch_of_runs_releases_all_threads(self):
        """Live threads before == after a batch of runs spanning every
        exit path."""
        before = threading.enumerate()
        for i in range(20):
            Simulation(nprocs=4, seed=i).run(_clean_main)
            Simulation(nprocs=2, seed=i).run(_hang_main, on_deadlock="return")
            sim = Simulation(nprocs=3, seed=i)
            sim.kill(1, at_time=1e-6)
            sim.run(_clean_main, on_deadlock="return")
            Simulation(nprocs=3, seed=i).run(_abort_main, on_deadlock="return")
            with pytest.raises(SimulationError):
                Simulation(nprocs=3, seed=i).run(_error_main)
        assert threading.enumerate() == before

    def test_deadlock_raise_path_releases_threads(self):
        before = threading.enumerate()
        for _ in range(5):
            with pytest.raises(Exception):
                Simulation(nprocs=2).run(_hang_main)  # on_deadlock="raise"
        assert threading.enumerate() == before

    def test_budget_overrun_releases_threads(self):
        before = threading.enumerate()
        for _ in range(5):
            with pytest.raises(SimulationLimitExceeded):
                Simulation(nprocs=4, max_events=50).run(_barrier_main)
        assert threading.enumerate() == before

    def test_killed_at_probe_releases_threads(self):
        before = threading.enumerate()
        for _ in range(10):
            sim, main = RingScenario(nprocs=4, iters=3)()
            sim.add_injector(KillAtProbe(rank=1, probe="post_recv", hit=1))
            sim.run(main, on_deadlock="return")
        assert threading.enumerate() == before

    def test_campaign_batch_releases_threads(self):
        """An in-process sweep: a 25-seed campaign."""
        before = threading.enumerate()
        run_campaign(
            RingScenario(nprocs=4, iters=3),
            seeds=range(25),
            horizon=8e-6,
            invariants=StandardRingInvariants(3, 4),
        )
        assert threading.enumerate() == before

    def test_fibers_release_application_target(self):
        """After a run, retained Simulation objects no longer pin mains."""
        sim = Simulation(nprocs=2)
        sim.run(_clean_main)
        from repro.simmpi.fibers import _released

        for proc in sim.runtime.procs:
            assert proc.fiber is not None
            assert proc.fiber._target is _released
            assert proc.fiber._coro is None
