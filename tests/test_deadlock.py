"""Deadlock (hang) detection: the simulator's proof of paper Fig. 6."""

from __future__ import annotations

import pytest

from repro.simmpi import Simulation, SimulationDeadlock
from tests.conftest import run_sim


class TestDeadlockDetection:
    def test_recv_without_send_deadlocks(self):
        async def main(mpi):
            await mpi.comm_world.recv(source=(mpi.rank + 1) % mpi.size)

        r = run_sim(main, 3, on_deadlock="return")
        assert r.hung
        assert len(r.deadlock.blocked) == 3

    def test_deadlock_raises_by_default(self):
        async def main(mpi):
            if mpi.rank == 0:
                await mpi.comm_world.recv(source=1)

        with pytest.raises(SimulationDeadlock):
            run_sim(main, 2)

    def test_deadlock_report_names_waits(self):
        async def main(mpi):
            if mpi.rank == 0:
                await mpi.comm_world.recv(source=1, tag=42)

        r = run_sim(main, 2, on_deadlock="return")
        (rank, desc), = r.deadlock.blocked
        assert rank == 0
        assert "tag=42" in desc

    def test_no_deadlock_when_processes_finish(self):
        async def main(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                comm.send(1, dest=1)
            else:
                await comm.recv(source=0)

        assert not run_sim(main, 2).hung

    def test_failed_process_blocked_forever_is_not_deadlock(self):
        # Dead ranks waiting on nothing must not count as a hang.
        async def main(mpi):
            comm = mpi.comm_world
            if comm.rank == 1:
                await comm.recv(source=0)  # blocks; killed while blocked
            return "ok"

        r = run_sim(main, 2, kills=[(1, 0.5)], on_deadlock="return")
        assert not r.hung
        assert r.outcomes[1].state == "failed"

    def test_blocked_survivor_after_abort_not_deadlock(self):
        async def main(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                mpi.abort(3)
            else:
                await comm.recv(source=0)

        r = run_sim(main, 2, on_deadlock="return")
        assert r.aborted is not None and r.aborted.code == 3
        assert not r.hung

    def test_eager_sends_break_the_cycle(self):
        async def main(mpi):
            comm = mpi.comm_world
            comm.send("token", dest=(comm.rank + 1) % comm.size)
            data, _ = await comm.recv(source=(comm.rank - 1) % comm.size)
            return data

        r = run_sim(main, 4)
        assert all(v == "token" for v in r.values().values())

    def test_partial_deadlock_reports_only_blocked(self):
        async def main(mpi):
            comm = mpi.comm_world
            if comm.rank == 2:
                await comm.recv(source=0, tag=9)  # never satisfied
            return "fine"

        r = run_sim(main, 3, on_deadlock="return")
        assert r.hung
        assert [rank for rank, _ in r.deadlock.blocked] == [2]
        assert r.value(0) == "fine"
