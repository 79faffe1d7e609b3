"""Sub-communicators carved by ``split``, their ``group`` tuples of world
ranks, and freed-handle checks."""

from __future__ import annotations

import pytest

from repro.simmpi import InvalidArgumentError, UNDEFINED
from tests.conftest import run_sim


class TestCommCreate:
    def test_create_subcomm_from_group(self):
        async def main(mpi):
            comm = mpi.comm_world
            member = comm.rank in (0, 2, 4)
            sub = await comm.split(
                color=0 if member else UNDEFINED, key=comm.rank
            )
            if sub is None:
                return None
            return (sub.rank, sub.group, await sub.allreduce(1, "sum"))

        r = run_sim(main, 5)
        assert r.value(0) == (0, (0, 2, 4), 3)
        assert r.value(2) == (1, (0, 2, 4), 3)
        assert r.value(1) is None
        assert r.value(3) is None

    def test_group_obj_matches_membership(self):
        async def main(mpi):
            comm = mpi.comm_world
            sub = await comm.split(color=comm.rank % 2, key=comm.rank)
            return sub.group

        r = run_sim(main, 4)
        assert r.value(0) == (0, 2)
        assert r.value(1) == (1, 3)


class TestCommFree:
    def test_freed_comm_rejects_operations(self):
        from repro.simmpi import ErrorHandler

        async def main(mpi):
            comm = mpi.comm_world
            d = comm.dup()
            d.set_errhandler(ErrorHandler.ERRORS_RETURN)
            d.free()
            with pytest.raises(InvalidArgumentError):
                d.send("x", dest=(comm.rank + 1) % comm.size)
            with pytest.raises(InvalidArgumentError):
                d.irecv(source=0)
            with pytest.raises(InvalidArgumentError):
                await d.barrier()
            return "ok"

        r = run_sim(main, 2)
        assert all(v == "ok" for v in r.values().values())

    def test_world_still_usable_after_dup_freed(self):
        async def main(mpi):
            comm = mpi.comm_world
            d = comm.dup()
            d.free()
            return await comm.allreduce(1, "sum")

        r = run_sim(main, 3)
        assert all(v == 3 for v in r.values().values())
