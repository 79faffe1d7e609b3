"""Odds and ends: error objects, request lifecycle, cost models in situ."""

from __future__ import annotations

import pytest

from repro.simmpi import (
    ErrorClass,
    ErrorHandler,
    HierarchicalCostModel,
    MPIError,
    RankFailStopError,
    Simulation,
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

    def test_on_complete_fires_immediately_when_done(self):
        def main(mpi):
            req = Request(RequestKind.GENERIC, mpi)
            req.complete(0.0, data=42)
            seen = []
            req.on_complete(lambda r: seen.append(r.data))
            return seen

        assert run_sim(main, 1).value(0) == [42]

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


class TestHierarchicalCostInSitu:
    def test_intra_vs_inter_node_latency_observed(self):
        cost = HierarchicalCostModel(
            latency=1e-7, remote_latency=1e-4, ranks_per_node=2,
            byte_cost=0.0, remote_byte_cost=0.0, overhead=0.0,
        )

        async def main(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                comm.send("near", dest=1)   # same node (0,1)
                comm.send("far", dest=2)    # different node
            elif comm.rank in (1, 2):
                _, status = await comm.recv(source=0)
                return mpi.now

        r = Simulation(nprocs=4, cost=cost).run(main)
        near, far = r.value(1), r.value(2)
        assert far > near
        assert far >= 1e-4

    def test_message_size_affects_remote_cost(self):
        cost = HierarchicalCostModel(
            latency=1e-7, remote_latency=1e-7,
            byte_cost=0.0, remote_byte_cost=1e-6,
            ranks_per_node=1, overhead=0.0,
        )

        async def main(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                comm.send(b"x" * 1000, dest=1)
            else:
                await comm.recv(source=0)
                return mpi.now

        r = Simulation(nprocs=2, cost=cost).run(main)
        assert r.value(1) >= 1000 * 1e-6


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


class TestIprobeFailurePaths:
    def test_iprobe_raises_on_failed_specific_source(self):
        async def main(mpi):
            comm = mpi.comm_world
            comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
            if comm.rank == 1:
                await mpi.compute(1.0)
                return
            await mpi.compute(2.0)
            with pytest.raises(RankFailStopError):
                await comm.iprobe(source=1)
            return "ok"

        assert run_sim(main, 2, kills=[(1, 0.5)]).value(0) == "ok"

    def test_probe_unblocked_by_failure_detection(self):
        async def main(mpi):
            comm = mpi.comm_world
            comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
            if comm.rank == 1:
                await mpi.compute(1.0)
                return
            with pytest.raises(RankFailStopError):
                await comm.probe(source=1)
            return mpi.now

        r = run_sim(main, 2, kills=[(1, 0.5)])
        assert r.value(0) == pytest.approx(0.5)


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
