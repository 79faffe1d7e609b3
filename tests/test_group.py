"""Group objects, comm creation from groups, and freed-handle checks."""

from __future__ import annotations

import pytest

from repro.simmpi import InvalidArgumentError, Simulation, UNDEFINED
from repro.simmpi.group import Group
from tests.conftest import run_sim


class TestGroupAlgebra:
    def test_basic_shape(self):
        g = Group([3, 1, 4])
        assert g.size == 3
        assert g.ranks == (3, 1, 4)
        assert len(g) == 3
        assert 4 in g and 2 not in g

    def test_duplicates_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Group([1, 1, 2])

    def test_rank_translation(self):
        g = Group([5, 7, 9])
        assert g.rank_of_world(7) == 1
        assert g.rank_of_world(6) == UNDEFINED
        assert g.world_rank(2) == 9
        with pytest.raises(InvalidArgumentError):
            g.world_rank(3)

    def test_translate_ranks(self):
        a = Group([0, 1, 2, 3])
        b = Group([2, 3, 4])
        assert a.translate_ranks([0, 2, 3], b) == [UNDEFINED, 0, 1]

    def test_incl_preserves_order(self):
        g = Group([0, 1, 2, 3, 4])
        assert g.incl([4, 0, 2]).ranks == (4, 0, 2)

    def test_excl_keeps_original_order(self):
        g = Group([0, 1, 2, 3, 4])
        assert g.excl([1, 3]).ranks == (0, 2, 4)

    def test_union(self):
        a = Group([0, 2])
        b = Group([2, 3])
        assert a.union(b).ranks == (0, 2, 3)

    def test_intersection(self):
        a = Group([0, 1, 2, 3])
        b = Group([3, 1])
        assert a.intersection(b).ranks == (1, 3)

    def test_difference(self):
        a = Group([0, 1, 2, 3])
        b = Group([1, 3])
        assert a.difference(b).ranks == (0, 2)

    def test_equality_and_hash(self):
        assert Group([1, 2]) == Group([1, 2])
        assert Group([1, 2]) != Group([2, 1])
        assert hash(Group([1, 2])) == hash(Group([1, 2]))


class TestCommCreate:
    def test_create_subcomm_from_group(self):
        async def main(mpi):
            comm = mpi.comm_world
            world = comm.group_obj()
            evens = world.incl([0, 2, 4])
            sub = await comm.create(evens)
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
            return sub.group_obj().ranks

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
