"""Odds and ends: error objects, request lifecycle, process helpers."""

from __future__ import annotations

import pytest

from repro.simmpi import (
    ErrorClass,
    ErrorHandler,
    MPIError,
    RankFailStopError,
    Status,
    TraceKind,
    wait,
)
from repro.simmpi.request import Request, RequestKind
from tests.conftest import run_sim


class TestErrorObjects:
    def test_mpi_error_defaults(self):
        e = MPIError("boom")
        assert e.error_class is ErrorClass.ERR_OTHER
        assert e.rank is None and e.peer is None and e.index is None
        assert "boom" in repr(e)

    def test_rank_fail_stop_class(self):
        e = RankFailStopError(peer=3)
        assert e.error_class is ErrorClass.ERR_RANK_FAIL_STOP
        assert e.peer == 3

    def test_error_class_str(self):
        assert str(ErrorClass.ERR_RANK_FAIL_STOP) == "ERR_RANK_FAIL_STOP"

    def test_status_repr(self):
        s = Status(source=1, tag=2, count=3)
        text = repr(s)
        assert "source=1" in text and "count=3" in text


class TestRequestLifecycle:
    def test_double_complete_rejected(self):
        def main(mpi):
            req = Request(RequestKind.GENERIC, mpi)
            req.complete(0.0)
            with pytest.raises(RuntimeError):
                req.complete(1.0)
            return "ok"

        assert run_sim(main, 1).value(0) == "ok"

    def test_failed_helper_and_repr(self):
        def main(mpi):
            req = Request(RequestKind.RECV, mpi, mpi.comm_world, peer=1, tag=9)
            assert "pending" in repr(req)
            req.complete(0.0, error=ErrorClass.ERR_RANK_FAIL_STOP)
            assert req.failed()
            assert "error" in repr(req)
            return "ok"

        assert run_sim(main, 2).value(0) == "ok"

    def test_success_error_normalized_to_none(self):
        def main(mpi):
            req = Request(RequestKind.GENERIC, mpi)
            req.complete(0.0, error=ErrorClass.SUCCESS)
            assert req.error is None and not req.failed()
            return "ok"

        assert run_sim(main, 1).value(0) == "ok"


class TestProcessHelpers:
    def test_log_records_user_trace(self):
        def main(mpi):
            mpi.log("hello from rank", extra=1)
            return "ok"

        r = run_sim(main, 2)
        users = r.trace.filter(kind=TraceKind.USER)
        assert len(users) == 2
        assert users[0].detail["message"] == "hello from rank"

    def test_sleep_is_compute(self):
        async def main(mpi):
            await mpi.sleep(1.5)
            return mpi.now

        assert run_sim(main, 1).value(0) >= 1.5

    def test_repr(self):
        def main(mpi):
            return repr(mpi)

        assert "rank=0" in run_sim(main, 1).value(0)


class TestSendrecvUnderFailure:
    def test_sendrecv_raises_when_source_dies(self):
        async def main(mpi):
            comm = mpi.comm_world
            comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
            if comm.rank == 0:
                with pytest.raises(RankFailStopError):
                    await comm.sendrecv("out", dest=2, source=1)
                return "caught"
            if comm.rank == 1:
                await mpi.compute(1.0)
                return
            await comm.recv(source=0)

        r = run_sim(main, 3, kills=[(1, 0.5)])
        assert r.value(0) == "caught"


class TestValidateRankAfterCollectiveValidate:
    def test_state_is_null_everywhere_after_validate_all(self):
        from repro.ft import RankState, comm_validate_all, rank_state

        async def main(mpi):
            comm = mpi.comm_world
            comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
            if comm.rank == 2:
                await mpi.compute(1.0)
                return
            await mpi.compute(2.0)
            await comm_validate_all(comm)
            return rank_state(comm, 2)

        r = run_sim(main, 4, kills=[(2, 0.5)])
        from repro.ft import RankState

        assert all(
            r.value(i) is RankState.NULL for i in (0, 1, 3)
        )
