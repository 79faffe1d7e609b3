"""Completion-operation semantics: wait/waitany/waitall/waitsome/test."""

from __future__ import annotations

import pytest

from repro.simmpi import (
    ErrorHandler,
    RankFailStopError,
    Simulation,
    test as mpi_test,
    testany as mpi_testany,
    wait,
    waitall,
    waitany,
    waitsome,
)
from repro.simmpi.trace import TraceKind
from tests.conftest import run_sim


class TestWaitany:
    def test_returns_first_completed_index(self):
        async def main(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                comm.send("b", dest=1, tag=2)
            else:
                r1 = comm.irecv(source=0, tag=1)
                r2 = comm.irecv(source=0, tag=2)
                idx, status = await waitany([r1, r2])
                return (idx, r2.data)

        assert run_sim(main, 2).value(1) == (1, "b")

    def test_error_carries_index(self):
        async def main(mpi):
            comm = mpi.comm_world
            comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
            if comm.rank == 0:
                r_data = comm.irecv(source=1, tag=1)
                r_watch = comm.irecv(source=2, tag=1)
                try:
                    await waitany([r_data, r_watch])
                except RankFailStopError as e:
                    return e.index
            elif comm.rank == 1:
                await mpi.compute(2.0)
                comm.send("late", dest=0, tag=1)
            else:
                await mpi.compute(0.5)  # killed at 0.2

        r = run_sim(main, 3, kills=[(2, 0.2)])
        assert r.value(0) == 1

    def test_mixed_owner_rejected(self):
        def main(mpi):
            comm = mpi.comm_world
            return comm.irecv(source=0, tag=1)

        # Construct two sims is overkill; check the guard directly:
        async def main2(mpi):
            comm = mpi.comm_world
            r = comm.irecv(source=0, tag=1)
            with pytest.raises(ValueError):
                await waitany([])
            r.cancel()
            return "ok"

        assert run_sim(main2, 1).value(0) == "ok"


class TestWaitall:
    def test_collects_all(self):
        async def main(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                for t in range(3):
                    comm.send(t * 10, dest=1, tag=t)
            else:
                reqs = [comm.irecv(source=0, tag=t) for t in range(3)]
                statuses = await waitall(reqs)
                assert len(statuses) == 3
                return [r.data for r in reqs]

        assert run_sim(main, 2).value(1) == [0, 10, 20]

    def test_raises_lowest_failed_index_after_all_complete(self):
        async def main(mpi):
            comm = mpi.comm_world
            comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
            if comm.rank == 0:
                r1 = comm.irecv(source=1, tag=1)  # will error (1 dies)
                r2 = comm.irecv(source=2, tag=1)  # will complete
                try:
                    await waitall([r1, r2])
                except RankFailStopError as e:
                    return (e.index, r2.done, r2.data)
            elif comm.rank == 1:
                await mpi.compute(1.0)
            else:
                comm.send("ok", dest=0, tag=1)

        r = run_sim(main, 3, kills=[(1, 0.1)])
        assert r.value(0) == (0, True, "ok")


class TestWaitsome:
    def test_returns_completed_subset(self):
        async def main(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                comm.send(1, dest=1, tag=1)
                comm.send(2, dest=1, tag=2)
            else:
                reqs = [comm.irecv(source=0, tag=t) for t in (1, 2, 3)]
                done = await waitsome(reqs)
                indices = sorted(i for i, _ in done)
                for _, s in done:
                    assert s.error.name == "SUCCESS"
                reqs[2].cancel()
                return indices

        out = run_sim(main, 2).value(1)
        assert out and set(out) <= {0, 1}


class TestTest:
    def test_test_returns_none_then_status(self):
        async def main(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                await mpi.compute(1e-6)
                comm.send("x", dest=1)
            else:
                req = comm.irecv(source=0)
                first = await mpi_test(req)
                while await mpi_test(req) is None:
                    pass
                return (first, req.data)

        first, data = run_sim(main, 2).value(1)
        assert first is None and data == "x"

    def test_testany(self):
        async def main(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                comm.send("y", dest=1, tag=7)
            else:
                reqs = [comm.irecv(source=0, tag=t) for t in (6, 7)]
                while (hit := await mpi_testany(reqs)) is None:
                    pass
                idx, _status = hit
                reqs[0].cancel()
                return (idx, reqs[1].data)

        assert run_sim(main, 2).value(1) == (1, "y")

    def test_test_loop_advances_virtual_time(self):
        # A test() spin across an idle gap must terminate (bounded polls
        # in virtual time), not livelock.
        async def main(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                await mpi.compute(1e-4)
                comm.send("late", dest=1)
            else:
                req = comm.irecv(source=0)
                polls = 0
                while await mpi_test(req) is None:
                    polls += 1
                return polls

        polls = run_sim(main, 2).value(1)
        assert polls > 0


class TestWaitTiming:
    def test_wait_advances_to_completion_time(self):
        async def main(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                await mpi.compute(1.0)
                comm.send("x", dest=1)
            else:
                req = comm.irecv(source=0)
                await wait(req)
                return mpi.now

        assert run_sim(main, 2).value(1) >= 1.0


class TestBlockReason:
    """The reason a ``wait*`` blocks is rendered only when a deadlock
    report asks for it — and then as plain text, byte for byte."""

    def test_deadlock_report_renders_the_waits_as_strings(self):
        async def main(mpi):
            comm = mpi.comm_world
            peer = 1 - comm.rank
            reqs = [comm.irecv(source=peer, tag=1), comm.irecv(source=peer, tag=2)]
            if comm.rank == 0:
                await waitany(reqs)
            else:
                await wait(reqs[1])

        result = run_sim(main, 2, on_deadlock="return")
        expected = [
            (0, "wait on [recv(peer=1, tag=1, id=1), recv(peer=1, tag=2, id=2)]"),
            (1, "wait on [recv(peer=0, tag=2, id=4)]"),
        ]
        assert result.deadlock.blocked == expected
        assert all(type(text) is str for _, text in result.deadlock.blocked)
        assert str(result.deadlock) == (
            "deadlock at t=0.000000000: "
            + "; ".join(f"rank {rank}: {text}" for rank, text in expected)
        )
        waiting = [ev.detail["waiting"]
                   for ev in result.trace.filter(kind=TraceKind.DEADLOCK)]
        assert waiting == [text for _, text in expected]
        assert all(type(text) is str for text in waiting)
