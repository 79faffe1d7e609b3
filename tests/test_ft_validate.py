"""Local validate operations and rank states (paper Fig. 1)."""

from __future__ import annotations

import pytest

from repro.ft import (
    RankInfo,
    RankState,
    comm_validate,
    comm_validate_clear,
    comm_validate_rank,
    rank_state,
)
from repro.simmpi import ErrorHandler, InvalidArgumentError
from tests.conftest import run_sim


def returning(mpi):
    mpi.comm_world.set_errhandler(ErrorHandler.ERRORS_RETURN)
    return mpi.comm_world


class TestRankInfo:
    def test_ok_helper(self):
        assert RankInfo(0, 0, RankState.OK).ok()
        assert not RankInfo(0, 0, RankState.FAILED).ok()
        assert not RankInfo(0, 0, RankState.NULL).ok()

    def test_frozen(self):
        info = RankInfo(1, 0, RankState.OK)
        with pytest.raises(AttributeError):
            info.rank = 2  # type: ignore[misc]


class TestValidateRank:
    def test_alive_rank_is_ok(self):
        def main(mpi):
            comm = returning(mpi)
            info = comm_validate_rank(comm, 1)
            return (info.rank, info.generation, info.state)

        assert run_sim(main, 2).value(0) == (1, 0, RankState.OK)

    def test_failed_unrecognized_is_failed(self):
        async def main(mpi):
            comm = returning(mpi)
            if comm.rank == 1:
                await mpi.compute(1.0)
                return
            await mpi.compute(2.0)
            return comm_validate_rank(comm, 1).state

        assert run_sim(main, 2, kills=[(1, 0.5)]).value(0) is RankState.FAILED

    def test_recognized_is_null(self):
        async def main(mpi):
            comm = returning(mpi)
            if comm.rank == 1:
                await mpi.compute(1.0)
                return
            await mpi.compute(2.0)
            comm_validate_clear(comm, [1])
            return comm_validate_rank(comm, 1).state

        assert run_sim(main, 2, kills=[(1, 0.5)]).value(0) is RankState.NULL

    def test_out_of_range_rejected(self):
        def main(mpi):
            comm = returning(mpi)
            with pytest.raises(InvalidArgumentError):
                comm_validate_rank(comm, 17)
            return "ok"

        assert run_sim(main, 2).value(0) == "ok"

    def test_unknown_failure_still_ok(self):
        # Before detection the observer sees the rank as OK (the detector
        # is accurate and complete, not instantaneous).
        async def main(mpi):
            comm = returning(mpi)
            if comm.rank == 1:
                await mpi.compute(1.0)
                return
            await mpi.compute(2.0)
            return comm_validate_rank(comm, 1).state

        r = run_sim(main, 2, kills=[(1, 0.5)], detection_latency=100.0)
        assert r.value(0) is RankState.OK


class TestValidateList:
    def test_empty_when_no_failures(self):
        def main(mpi):
            return comm_validate(returning(mpi))

        assert run_sim(main, 3).value(0) == []

    def test_lists_failed_and_recognized(self):
        async def main(mpi):
            comm = returning(mpi)
            if comm.rank in (1, 2):
                await mpi.compute(1.0)
                return
            await mpi.compute(2.0)
            comm_validate_clear(comm, [1])
            infos = comm_validate(comm)
            return [(i.rank, i.state) for i in infos]

        r = run_sim(main, 4, kills=[(1, 0.4), (2, 0.5)])
        assert r.value(0) == [(1, RankState.NULL), (2, RankState.FAILED)]


class TestValidateClear:
    def test_returns_newly_recognized_count(self):
        async def main(mpi):
            comm = returning(mpi)
            if comm.rank in (1, 2):
                await mpi.compute(1.0)
                return
            await mpi.compute(2.0)
            first = comm_validate_clear(comm, [1, 2])
            again = comm_validate_clear(comm, [1, 2])
            return (first, again)

        assert run_sim(main, 3, kills=[(1, 0.4), (2, 0.5)]).value(0) == (2, 0)

    def test_accepts_rank_infos(self):
        async def main(mpi):
            comm = returning(mpi)
            if comm.rank == 1:
                await mpi.compute(1.0)
                return
            await mpi.compute(2.0)
            infos = comm_validate(comm)
            n = comm_validate_clear(comm, infos)
            return (n, rank_state(comm, 1))

        assert run_sim(main, 2, kills=[(1, 0.5)]).value(0) == (1, RankState.NULL)

    def test_alive_ranks_ignored(self):
        def main(mpi):
            comm = returning(mpi)
            n = comm_validate_clear(comm, [1])
            return (n, rank_state(comm, 1))

        assert run_sim(main, 2).value(0) == (0, RankState.OK)

    def test_out_of_range_rejected(self):
        def main(mpi):
            comm = returning(mpi)
            with pytest.raises(InvalidArgumentError):
                comm_validate_clear(comm, [55])
            return "ok"

        assert run_sim(main, 2).value(0) == "ok"

    def test_recognition_is_per_communicator(self):
        async def main(mpi):
            comm = returning(mpi)
            dup = comm.dup()
            dup.set_errhandler(ErrorHandler.ERRORS_RETURN)
            if comm.rank == 1:
                await mpi.compute(1.0)
                return
            await mpi.compute(2.0)
            comm_validate_clear(comm, [1])
            return (rank_state(comm, 1), rank_state(dup, 1))

        r = run_sim(main, 2, kills=[(1, 0.5)])
        assert r.value(0) == (RankState.NULL, RankState.FAILED)
