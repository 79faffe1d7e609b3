"""Fail-stop semantics and the perfect failure detector (paper §II)."""

from __future__ import annotations

import pytest

from repro.simmpi import (
    ANY_SOURCE,
    ErrorHandler,
    RankFailStopError,
    Simulation,
    TraceKind,
    wait,
    waitany,
)
from repro.ft import comm_validate_clear
from tests.conftest import run_sim


def returning(mpi):
    mpi.comm_world.set_errhandler(ErrorHandler.ERRORS_RETURN)
    return mpi.comm_world


class TestFailStop:
    def test_killed_process_reported_failed(self):
        async def main(mpi):
            await mpi.compute(1.0)
            return "survived"

        r = run_sim(main, 3, kills=[(1, 0.5)])
        assert r.failed_ranks == {1}
        assert r.outcomes[1].state == "failed"
        assert r.value(0) == "survived"

    def test_kill_after_completion_is_noop(self):
        def main(mpi):
            return "done"

        r = run_sim(main, 2, kills=[(1, 100.0)])
        assert r.failed_ranks == set()

    def test_send_to_known_failed_raises(self):
        async def main(mpi):
            comm = returning(mpi)
            if comm.rank == 0:
                await mpi.compute(1.0)
                with pytest.raises(RankFailStopError) as e:
                    comm.send("x", dest=1)
                assert e.value.peer == 1
                return "ok"
            await mpi.compute(2.0)

        assert run_sim(main, 2, kills=[(1, 0.5)]).value(0) == "ok"

    def test_recv_posted_to_peer_that_later_fails(self):
        # The watchdog semantic: pending receives error at detection.
        async def main(mpi):
            comm = returning(mpi)
            if comm.rank == 0:
                req = comm.irecv(source=1)
                with pytest.raises(RankFailStopError):
                    await wait(req)
                return mpi.now
            await mpi.compute(2.0)

        r = run_sim(main, 2, kills=[(1, 0.5)])
        assert r.value(0) == pytest.approx(0.5)

    def test_any_source_recv_with_unrecognized_failure_errors(self):
        async def main(mpi):
            comm = returning(mpi)
            if comm.rank == 0:
                await mpi.compute(1.0)
                with pytest.raises(RankFailStopError):
                    await comm.recv(source=ANY_SOURCE)
                return "errored"
            await mpi.compute(2.0)

        assert run_sim(main, 3, kills=[(1, 0.5)]).value(0) == "errored"

    def test_any_source_ok_after_recognition(self):
        async def main(mpi):
            comm = returning(mpi)
            if comm.rank == 0:
                await mpi.compute(1.0)
                comm_validate_clear(comm, [1])
                data, status = await comm.recv(source=ANY_SOURCE)
                return (data, status.source)
            if comm.rank == 1:
                await mpi.compute(2.0)
                return
            comm.send("from2", dest=0)
            await mpi.compute(2.0)

        r = run_sim(main, 3, kills=[(1, 0.5)])
        assert r.value(0) == ("from2", 2)

    def test_in_flight_message_from_dead_sender_still_delivered(self):
        # Fail-stop wire semantics: what was sent before death arrives.
        # Detection must lag delivery for the receiver to consume it.
        async def main(mpi):
            comm = returning(mpi)
            if comm.rank == 1:
                comm.send("last words", dest=0)
                await mpi.compute(1.0)
            else:
                data, _ = await comm.recv(source=1)
                return data

        r = run_sim(
            main, 2, kills=[(1, 1e-7)], detection_latency=1e-3,
            on_deadlock="return",
        )
        assert r.value(0) == "last words"

    def test_message_to_dead_rank_dropped(self):
        async def main(mpi):
            comm = returning(mpi)
            if comm.rank == 0:
                comm.send("into the void", dest=1)
                return "sent"
            await mpi.compute(1.0)

        # Detection latency ensures the send is posted before rank 0
        # learns of the death (so it does not raise).
        r = run_sim(
            main, 2, kills=[(1, 1e-9)], detection_latency=1.0,
            on_deadlock="return",
        )
        assert r.value(0) == "sent"
        assert r.trace.count(TraceKind.SEND_DROP) == 1


class TestRecognition:
    def test_send_to_recognized_failed_is_proc_null(self):
        async def main(mpi):
            comm = returning(mpi)
            if comm.rank == 0:
                await mpi.compute(1.0)
                comm_validate_clear(comm, [1])
                comm.send("x", dest=1)  # no error: PROC_NULL semantics
                return "ok"
            await mpi.compute(2.0)

        assert run_sim(main, 2, kills=[(1, 0.5)]).value(0) == "ok"

    def test_recv_from_recognized_failed_completes_empty(self):
        from repro.simmpi import PROC_NULL

        async def main(mpi):
            comm = returning(mpi)
            if comm.rank == 0:
                await mpi.compute(1.0)
                comm_validate_clear(comm, [1])
                data, status = await comm.recv(source=1)
                return (data, status.source)
            await mpi.compute(2.0)

        assert run_sim(main, 2, kills=[(1, 0.5)]).value(0) == (None, PROC_NULL)


class TestDetectionLatency:
    def test_uniform_latency_delays_knowledge(self):
        async def main(mpi):
            comm = returning(mpi)
            if comm.rank == 0:
                req = comm.irecv(source=1)
                with pytest.raises(RankFailStopError):
                    await wait(req)
                return mpi.now
            await mpi.compute(1.0)

        r = run_sim(main, 2, kills=[(1, 0.5)], detection_latency=0.25)
        assert r.value(0) == pytest.approx(0.75)

    def test_per_observer_latency(self):
        def lat(observer: int, failed: int) -> float:
            return 0.1 if observer == 0 else 0.9

        async def main(mpi):
            comm = returning(mpi)
            if comm.rank == 2:
                await mpi.compute(1.0)
                return
            req = comm.irecv(source=2)
            with pytest.raises(RankFailStopError):
                await wait(req)
            return mpi.now

        r = run_sim(main, 3, kills=[(2, 0.5)], detection_latency=lat)
        assert r.value(0) == pytest.approx(0.6)
        assert r.value(1) == pytest.approx(1.4)

    def test_detect_events_traced_per_observer(self):
        async def main(mpi):
            await mpi.compute(1.0)

        r = run_sim(main, 4, kills=[(2, 0.5)])
        detects = r.trace.filter(kind=TraceKind.DETECT)
        assert {e.rank for e in detects} == {0, 1, 3}


class TestSsendFailure:
    def test_pending_ssend_errors_when_peer_dies(self):
        async def main(mpi):
            comm = returning(mpi)
            if comm.rank == 0:
                req = comm.issend("never matched", dest=1)
                with pytest.raises(RankFailStopError):
                    await wait(req)
                return "errored"
            await mpi.compute(1.0)  # never posts the receive

        assert run_sim(main, 2, kills=[(1, 0.5)]).value(0) == "errored"

    def test_issend_to_known_failed_completes_in_error(self):
        async def main(mpi):
            comm = returning(mpi)
            if comm.rank == 0:
                await mpi.compute(1.0)
                req = comm.issend("x", dest=1)
                assert req.done and req.failed()
                return "ok"
            await mpi.compute(2.0)

        assert run_sim(main, 2, kills=[(1, 0.5)]).value(0) == "ok"


class TestWatchdogPattern:
    def test_watchdog_irecv_detects_right_neighbor_death(self):
        # The paper's central trick in isolation (Fig. 9 mechanism).
        async def main(mpi):
            comm = returning(mpi)
            if comm.rank == 0:
                data_req = comm.irecv(source=1, tag=1)
                watchdog = comm.irecv(source=2, tag=1)
                try:
                    await waitany([data_req, watchdog])
                except RankFailStopError as e:
                    data_req.cancel()
                    return ("watchdog fired", e.index, e.peer)
            elif comm.rank == 1:
                await mpi.compute(5.0)  # silent; never sends
                comm.send("data", dest=0, tag=1)
            else:
                await mpi.compute(1.0)

        r = run_sim(main, 3, kills=[(2, 0.5)])
        assert r.value(0) == ("watchdog fired", 1, 2)
