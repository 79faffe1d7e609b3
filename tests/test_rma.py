"""One-sided (RMA) operations with run-through stabilization semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ft import comm_validate_all, comm_validate_clear
from repro.simmpi import (
    ErrorHandler,
    InvalidArgumentError,
    RankFailStopError,
    Simulation,
    wait,
)
from repro.simmpi.rma import win_create
from tests.conftest import run_sim


def returning(mpi):
    mpi.comm_world.set_errhandler(ErrorHandler.ERRORS_RETURN)
    return mpi.comm_world


class TestBasicRMA:
    def test_put_lands_in_target_window(self):
        async def main(mpi):
            comm = returning(mpi)
            win = win_create(comm, size=comm.size)
            if comm.rank != 0:
                await wait(win.put([float(comm.rank * 10)], target=0,
                                   offset=comm.rank))
            await win.fence()
            return win.local.tolist()

        r = run_sim(main, 4)
        assert r.value(0) == [0.0, 10.0, 20.0, 30.0]

    def test_get_reads_remote_values(self):
        async def main(mpi):
            comm = returning(mpi)
            win = win_create(comm, size=3, init=float(comm.rank))
            await win.fence()
            req = win.get(target=(comm.rank + 1) % comm.size, count=3)
            await wait(req)
            return req.data.tolist()

        r = run_sim(main, 3)
        assert r.value(0) == [1.0, 1.0, 1.0]
        assert r.value(2) == [0.0, 0.0, 0.0]

    def test_accumulate_is_atomic_per_element(self):
        async def main(mpi):
            comm = returning(mpi)
            win = win_create(comm, size=1)
            await wait(win.accumulate([1.0], target=0, op="sum"))
            await win.fence()
            return win.local[0]

        r = run_sim(main, 6)
        assert r.value(0) == 6.0

    def test_accumulate_other_ops(self):
        async def main(mpi):
            comm = returning(mpi)
            win = win_create(comm, size=1, init=1.0)
            await wait(win.accumulate([float(comm.rank + 1)], target=0, op="max"))
            await win.fence()
            return win.local[0]

        r = run_sim(main, 4)
        assert r.value(0) == 4.0

    def test_target_thread_never_participates(self):
        # The defining RMA property: the target can be blocked elsewhere
        # while the progress engine applies the put.
        async def main(mpi):
            comm = returning(mpi)
            win = win_create(comm, size=1)
            if comm.rank == 0:
                # Block in an unrelated recv the whole time.
                data, _ = await comm.recv(source=1, tag=9)
                return (win.local[0], data)
            await wait(win.put([7.0], target=0))
            if comm.rank == 1:
                comm.send("late", dest=0, tag=9)

        r = run_sim(main, 3)
        value, data = r.value(0)
        assert value == 7.0 and data == "late"

    def test_local_view_mutable(self):
        async def main(mpi):
            comm = returning(mpi)
            win = win_create(comm, size=2)
            win.local[:] = [5.0, 6.0]
            await win.fence()
            req = win.get(target=comm.rank, count=2)
            await wait(req)
            return req.data.tolist()

        r = run_sim(main, 2)
        assert r.value(0) == [5.0, 6.0]

    def test_multiple_windows_isolated(self):
        async def main(mpi):
            comm = returning(mpi)
            a = win_create(comm, size=1)
            b = win_create(comm, size=1)
            if comm.rank == 1:
                await wait(a.put([1.0], target=0))
                await wait(b.put([2.0], target=0))
            await a.fence()
            await b.fence()
            return (a.local[0], b.local[0])

        r = run_sim(main, 2)
        assert r.value(0) == (1.0, 2.0)

    def test_invalid_target_and_op(self):
        async def main(mpi):
            comm = returning(mpi)
            win = win_create(comm, size=1)
            with pytest.raises(InvalidArgumentError):
                win.put([1.0], target=44)
            with pytest.raises(InvalidArgumentError):
                win.accumulate([1.0], target=0, op="frobnicate")
            await win.fence()
            return "ok"

        assert run_sim(main, 2).value(0) == "ok"


class TestRMAFailureSemantics:
    def test_op_to_known_failed_raises(self):
        async def main(mpi):
            comm = returning(mpi)
            win = win_create(comm, size=1)
            await win.fence()
            if comm.rank == 0:
                await mpi.compute(1.0)
                with pytest.raises(RankFailStopError):
                    win.put([1.0], target=1)
                return "caught"
            await mpi.compute(2.0)

        r = run_sim(main, 2, kills=[(1, 0.5)], on_deadlock="return")
        assert r.outcomes[0].value == "caught"

    def test_op_to_recognized_failed_is_proc_null(self):
        async def main(mpi):
            comm = returning(mpi)
            win = win_create(comm, size=2)
            await win.fence()
            if comm.rank == 0:
                await mpi.compute(1.0)
                comm_validate_clear(comm, [1])
                await wait(win.put([1.0], target=1))  # no-op, succeeds
                req = win.get(target=1, count=2)
                await wait(req)
                return req.data.tolist()
            await mpi.compute(2.0)

        r = run_sim(main, 2, kills=[(1, 0.5)], on_deadlock="return")
        assert r.outcomes[0].value == [0.0, 0.0]  # zeros, per PROC_NULL

    def test_in_flight_op_errors_when_target_dies(self):
        async def main(mpi):
            comm = returning(mpi)
            win = win_create(comm, size=1)
            if comm.rank == 0:
                req = win.put([1.0], target=1)
                with pytest.raises(RankFailStopError):
                    await wait(req)
                return "errored"
            await mpi.compute(1.0)

        # Detection latency lets the put be issued before rank 0 knows.
        r = run_sim(
            main, 2, kills=[(1, 1e-9)], detection_latency=1e-3,
            on_deadlock="return",
        )
        assert r.outcomes[0].value == "errored"

    def test_fence_disabled_until_validate(self):
        async def main(mpi):
            comm = returning(mpi)
            win = win_create(comm, size=1)
            if comm.rank == 2:
                await mpi.compute(1.0)
                return
            await mpi.compute(2.0)
            with pytest.raises(RankFailStopError):
                await win.fence()
            await comm_validate_all(comm)
            await win.fence()  # over survivors now
            return "ok"

        r = run_sim(main, 3, kills=[(2, 0.5)])
        assert r.value(0) == "ok" and r.value(1) == "ok"

    def test_rma_continues_over_survivors_after_validate(self):
        async def main(mpi):
            comm = returning(mpi)
            win = win_create(comm, size=comm.size)
            if comm.rank == 1:
                await mpi.compute(1.0)
                return
            await mpi.compute(2.0)
            await comm_validate_all(comm)
            if comm.rank != 0:
                await wait(win.put([float(comm.rank)], target=0, offset=comm.rank))
            await win.fence()
            return win.local.tolist()

        r = run_sim(main, 4, kills=[(1, 0.5)])
        assert r.value(0) == [0.0, 0.0, 2.0, 3.0]

    def test_win_free(self):
        async def main(mpi):
            comm = returning(mpi)
            win = win_create(comm, size=1)
            await win.fence()
            win.free()
            return "ok"

        assert run_sim(main, 2).value(0) == "ok"
