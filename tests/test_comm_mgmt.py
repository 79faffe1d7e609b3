"""Communicator management: dup, split, translation, error handlers."""

from __future__ import annotations

import pytest

from repro.simmpi import (
    ErrorHandler,
    InvalidArgumentError,
    Simulation,
    UNDEFINED,
)
from repro.ft import comm_validate_clear
from repro.simmpi.communicator import Comm
from tests.conftest import run_sim


class TestIntrospection:
    def test_world_shape(self):
        def main(mpi):
            comm = mpi.comm_world
            return (comm.rank, comm.size, comm.cid, comm.group)

        r = run_sim(main, 3)
        for i in range(3):
            rank, size, cid, group = r.value(i)
            assert rank == i and size == 3 and cid == 0
            assert group == (0, 1, 2)

    def test_rank_translation(self):
        def main(mpi):
            comm = mpi.comm_world
            assert comm.world_rank(2) == 2
            assert comm.comm_rank_of_world(2) == 2
            assert comm.comm_rank_of_world(99) is None
            with pytest.raises(InvalidArgumentError):
                comm.world_rank(5)
            return "ok"

        assert run_sim(main, 3).value(0) == "ok"

    def test_contexts_are_distinct_per_comm(self):
        def main(mpi):
            comm = mpi.comm_world
            d = comm.dup()
            return (comm.context(), d.context())

        r = run_sim(main, 2)
        a, b = r.value(0)
        assert a != b


class _ScanForbidden(tuple):
    """A group whose linear scan is an error: translation must not use it."""

    def index(self, *args):
        raise AssertionError("tuple.index scan over a communicator group")


class TestRankIndex:
    """World rank -> comm rank goes through one dict per group, owned by
    the runtime and shared by every handle holding that group."""

    def test_construction_and_translation_never_scan_the_group(self):
        sim = Simulation(nprocs=5)
        comm = Comm(sim.runtime.procs[2], 7, _ScanForbidden((3, 2, 0)))
        assert comm.rank == 1
        assert [comm.comm_rank_of_world(w) for w in range(-1, 6)] == [
            None, 2, None, 1, 0, None, None,
        ]
        # The same group as a plain tuple resolves to the same map.
        plain = Comm(sim.runtime.procs[0], 7, (3, 2, 0))
        assert plain.rank == 2 and plain._ranks is comm._ranks

    def test_every_handle_of_a_group_shares_one_map(self):
        def main(mpi):
            comm = mpi.comm_world
            dup = comm.dup()
            half = comm.split(color=comm.rank % 2)
            return comm._ranks, dup._ranks, half.group, half._ranks

        r = run_sim(main, 6)
        world, dup, _, _ = r.value(0)
        assert world == {w: w for w in range(6)}
        for i in range(6):
            assert r.value(i)[0] is world and r.value(i)[1] is dup is world
        # Each member of a split builds its own (equal) group tuple.
        for parity in (0, 1):
            members = [r.value(i) for i in range(parity, 6, 2)]
            assert {m[2] for m in members} == {tuple(range(parity, 6, 2))}
            assert all(m[3] is members[0][3] for m in members)
        assert r.value(0)[3] is not r.value(1)[3]

    def test_replace_rank_re_resolves_the_map_and_spares_other_handles(self):
        def main(mpi):
            comm = mpi.comm_world
            repaired = comm.dup()
            if comm.rank != 1:
                repaired.replace_rank(1, 3)  # slot 1 now names world rank 3
            return comm._ranks, repaired.group, repaired._ranks, repaired.rank

        r = run_sim(main, 3)
        world = r.value(0)[0]
        assert world == {0: 0, 1: 1, 2: 2}  # the shared map is not patched
        for i in (0, 2):
            _, group, ranks, rank = r.value(i)
            assert group == (0, 3, 2) and ranks == {0: 0, 3: 1, 2: 2}
            assert rank == i and ranks is r.value(0)[2] is not world
        assert r.value(1)[2] is world


class TestDup:
    def test_dup_same_group_new_cid(self):
        def main(mpi):
            comm = mpi.comm_world
            d = comm.dup()
            return (d.cid, d.group, d.rank)

        r = run_sim(main, 4)
        cids = {r.value(i)[0] for i in range(4)}
        assert len(cids) == 1 and 0 not in cids
        assert all(r.value(i)[1] == (0, 1, 2, 3) for i in range(4))

    def test_dup_traffic_isolated(self):
        def main(mpi):
            comm = mpi.comm_world
            d = comm.dup()
            if comm.rank == 0:
                comm.send("world", dest=1, tag=3)
                d.send("dup", dest=1, tag=3)
            else:
                on_dup, _ = d.recv(source=0, tag=3)
                on_world, _ = comm.recv(source=0, tag=3)
                return (on_world, on_dup)

        assert run_sim(main, 2).value(1) == ("world", "dup")

    def test_successive_dups_get_distinct_cids(self):
        def main(mpi):
            comm = mpi.comm_world
            return (comm.dup().cid, comm.dup().cid)

        r = run_sim(main, 2)
        a, b = r.value(0)
        assert a != b
        assert r.value(1) == (a, b)  # agreed across ranks

    def test_dup_does_not_inherit_recognition(self):
        def main(mpi):
            comm = mpi.comm_world
            comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
            if comm.rank == 2:
                mpi.compute(1.0)
                return
            mpi.compute(2.0)
            comm_validate_clear(comm, [2])
            d = comm.dup()
            return (sorted(comm.recognized), sorted(d.recognized))

        # dup() is a collective: run it before the failure instead.
        def main2(mpi):
            comm = mpi.comm_world
            comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
            d = comm.dup()
            d.set_errhandler(ErrorHandler.ERRORS_RETURN)
            if comm.rank == 2:
                mpi.compute(1.0)
                return
            mpi.compute(2.0)
            comm_validate_clear(comm, [2])
            return (sorted(comm.recognized), sorted(d.recognized))

        r = run_sim(main2, 3, kills=[(2, 0.5)])
        assert r.value(0) == ([2], [])
        assert r.value(1) == ([2], [])


class TestSplit:
    def test_split_by_parity(self):
        def main(mpi):
            comm = mpi.comm_world
            sub = comm.split(color=comm.rank % 2, key=comm.rank)
            return (sub.rank, sub.size, sub.group)

        r = run_sim(main, 6)
        assert r.value(0) == (0, 3, (0, 2, 4))
        assert r.value(1) == (0, 3, (1, 3, 5))
        assert r.value(4) == (2, 3, (0, 2, 4))

    def test_split_key_reorders(self):
        def main(mpi):
            comm = mpi.comm_world
            sub = comm.split(color=0, key=-comm.rank)
            return sub.rank

        r = run_sim(main, 4)
        # key = -rank reverses the ordering.
        assert [r.value(i) for i in range(4)] == [3, 2, 1, 0]

    def test_split_undefined_returns_none(self):
        def main(mpi):
            comm = mpi.comm_world
            color = UNDEFINED if comm.rank == 0 else 1
            sub = comm.split(color=color, key=comm.rank)
            return None if sub is None else sub.group

        r = run_sim(main, 3)
        assert r.value(0) is None
        assert r.value(1) == (1, 2)

    def test_split_comm_collectives_work(self):
        def main(mpi):
            comm = mpi.comm_world
            sub = comm.split(color=comm.rank % 2, key=comm.rank)
            return sub.allreduce(comm.rank, "sum")

        r = run_sim(main, 6)
        assert r.value(0) == 0 + 2 + 4
        assert r.value(1) == 1 + 3 + 5

    def test_split_p2p_uses_comm_ranks(self):
        def main(mpi):
            comm = mpi.comm_world
            sub = comm.split(color=comm.rank % 2, key=comm.rank)
            if sub.rank == 0:
                sub.send(f"from-{comm.rank}", dest=1)
            elif sub.rank == 1:
                data, status = sub.recv(source=0)
                return (data, status.source)

        r = run_sim(main, 4)
        assert r.value(2) == ("from-0", 0)
        assert r.value(3) == ("from-1", 0)


class TestErrorHandlers:
    def test_default_is_fatal(self):
        def main(mpi):
            comm = mpi.comm_world
            assert comm.errhandler is ErrorHandler.ERRORS_ARE_FATAL
            return "ok"

        assert run_sim(main, 1).value(0) == "ok"

    def test_fatal_error_aborts_job(self):
        def main(mpi):
            comm = mpi.comm_world  # ERRORS_ARE_FATAL
            if comm.rank == 0:
                mpi.compute(2.0)
                comm.send("x", dest=1)  # rank 1 dead & known -> abort
                return "unreachable"
            mpi.compute(1.0)

        r = run_sim(main, 2, kills=[(1, 0.5)], on_deadlock="return")
        assert r.aborted is not None
        assert r.aborted.origin_rank == 0

    def test_errors_return_raises_catchable(self):
        from repro.simmpi import RankFailStopError

        def main(mpi):
            comm = mpi.comm_world
            comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
            if comm.rank == 0:
                mpi.compute(2.0)
                try:
                    comm.send("x", dest=1)
                except RankFailStopError as e:
                    return ("caught", e.peer)
            mpi.compute(1.0)

        r = run_sim(main, 2, kills=[(1, 0.5)])
        assert r.value(0) == ("caught", 1)
