"""Point-to-point semantics: blocking/non-blocking, wildcards, ordering."""

from __future__ import annotations

import pytest

from repro.simmpi import (
    ANY_SOURCE,
    ANY_TAG,
    PROC_NULL,
    ErrorHandler,
    InvalidArgumentError,
    Simulation,
    SimulationError,
    wait,
    waitall,
)
from tests.conftest import run_sim


class TestBasicSendRecv:
    def test_blocking_roundtrip(self):
        async def main(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                comm.send({"k": 1}, dest=1, tag=5)
            else:
                data, status = await comm.recv(source=0, tag=5)
                assert status.source == 0
                assert status.tag == 5
                return data

        r = run_sim(main, 2)
        assert r.value(1) == {"k": 1}

    def test_payload_not_aliased_is_not_required(self):
        # Payloads are passed by reference (zero-copy, like shared memory);
        # the ring code defends itself by copying.  Document the semantic.
        async def main(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                obj = [1, 2]
                comm.send(obj, dest=1)
                obj.append(3)  # after delivery this may be visible
            else:
                data, _ = await comm.recv(source=0)
                return list(data)

        r = run_sim(main, 2)
        assert r.value(1)[:2] == [1, 2]

    def test_isend_completes_eagerly(self):
        async def main(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                req = comm.isend("hi", dest=1)
                assert req.done
                await wait(req)
            else:
                return (await comm.recv(source=0))[0]

        assert run_sim(main, 2).value(1) == "hi"

    def test_irecv_then_wait(self):
        async def main(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                comm.send(99, dest=1)
            else:
                req = comm.irecv(source=0)
                status = await wait(req)
                assert status.count > 0
                return req.data

        assert run_sim(main, 2).value(1) == 99

    def test_self_send(self):
        async def main(mpi):
            comm = mpi.comm_world
            req = comm.irecv(source=comm.rank, tag=3)
            comm.send("loop", comm.rank, tag=3)
            await wait(req)
            return req.data

        r = run_sim(main, 2)
        assert r.value(0) == "loop" and r.value(1) == "loop"

    def test_sendrecv(self):
        async def main(mpi):
            comm = mpi.comm_world
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            data, _ = await comm.sendrecv(comm.rank, dest=right, source=left)
            return data

        r = run_sim(main, 4)
        assert [r.value(i) for i in range(4)] == [3, 0, 1, 2]


class TestWildcards:
    def test_any_source(self):
        async def main(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                seen = set()
                for _ in range(comm.size - 1):
                    data, status = await comm.recv(source=ANY_SOURCE, tag=1)
                    assert data == status.source
                    seen.add(data)
                return sorted(seen)
            comm.send(comm.rank, dest=0, tag=1)

        assert run_sim(main, 4).value(0) == [1, 2, 3]

    def test_any_tag(self):
        async def main(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                comm.send("a", dest=1, tag=17)
            else:
                data, status = await comm.recv(source=0, tag=ANY_TAG)
                assert status.tag == 17
                return data

        assert run_sim(main, 2).value(1) == "a"

    def test_tag_selectivity(self):
        async def main(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                comm.send("first", dest=1, tag=1)
                comm.send("second", dest=1, tag=2)
            else:
                b, _ = await comm.recv(source=0, tag=2)
                a, _ = await comm.recv(source=0, tag=1)
                return (a, b)

        assert run_sim(main, 2).value(1) == ("first", "second")


class TestOrdering:
    def test_non_overtaking_same_channel(self):
        async def main(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                for i in range(20):
                    comm.send(i, dest=1, tag=9)
            else:
                return [(await comm.recv(source=0, tag=9))[0] for _ in range(20)]

        assert run_sim(main, 2).value(1) == list(range(20))

    def test_non_overtaking_with_mixed_sizes(self):
        # A large early message must not be overtaken by a small later one.
        async def main(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                comm.send(b"x" * 100_000, dest=1, tag=9)
                comm.send(b"y", dest=1, tag=9)
            else:
                first, _ = await comm.recv(source=0, tag=9)
                second, _ = await comm.recv(source=0, tag=9)
                return (len(first), len(second))

        assert run_sim(main, 2).value(1) == (100_000, 1)

    def test_unexpected_queue_preserves_order(self):
        async def main(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                for i in range(5):
                    comm.send(i, dest=1, tag=4)
            else:
                await mpi.compute(1.0)  # let everything land unexpected
                return [(await comm.recv(source=0, tag=4))[0] for _ in range(5)]

        assert run_sim(main, 2).value(1) == list(range(5))


class TestProcNull:
    def test_send_to_proc_null_is_noop(self):
        def main(mpi):
            mpi.comm_world.send("void", dest=PROC_NULL)
            return "ok"

        assert run_sim(main, 1).value(0) == "ok"

    def test_recv_from_proc_null_completes_empty(self):
        async def main(mpi):
            data, status = await mpi.comm_world.recv(source=PROC_NULL)
            assert data is None
            assert status.source == PROC_NULL
            assert status.count == 0
            return "ok"

        assert run_sim(main, 1).value(0) == "ok"


class TestSsend:
    def test_ssend_completes_on_match(self):
        async def main(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                await comm.ssend("sync", dest=1)
                return mpi.now
            await mpi.compute(1.0)
            await comm.recv(source=0)

        r = run_sim(main, 2)
        # Sender must have waited for the receiver's late recv.
        assert r.value(0) >= 1.0

    def test_issend_pending_until_matched(self):
        async def main(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                req = comm.issend("sync", dest=1)
                assert not req.done
                await wait(req)
                return "matched"
            await comm.recv(source=0)

        assert run_sim(main, 2).value(0) == "matched"

    def test_unmatched_ssend_deadlocks(self):
        async def main(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                await comm.ssend("never", dest=1)

        r = run_sim(main, 2, on_deadlock="return")
        assert r.hung


class TestProbe:
    def test_probe_blocks_until_message(self):
        async def main(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                await mpi.compute(1.0)
                comm.send("late", dest=1, tag=6)
            else:
                status = await comm.probe(source=0, tag=6)
                assert status.tag == 6
                return (await comm.recv(source=0, tag=6))[0]

        assert run_sim(main, 2).value(1) == "late"

    def test_iprobe_none_when_empty(self):
        async def main(mpi):
            comm = mpi.comm_world
            if comm.rank == 1:
                return await comm.iprobe(source=0)

        assert run_sim(main, 2).value(1) is None


class TestArgumentValidation:
    def test_bad_dest_raises(self):
        def main(mpi):
            comm = mpi.comm_world
            comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
            with pytest.raises(InvalidArgumentError):
                comm.send("x", dest=99)
            return "ok"

        assert run_sim(main, 2).value(0) == "ok"

    def test_bad_tag_raises(self):
        def main(mpi):
            comm = mpi.comm_world
            comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
            with pytest.raises(InvalidArgumentError):
                comm.send("x", dest=1, tag=-5)
            return "ok"

        assert run_sim(main, 2).value(0) == "ok"

    def test_bad_source_raises(self):
        async def main(mpi):
            comm = mpi.comm_world
            comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
            with pytest.raises(InvalidArgumentError):
                await comm.recv(source=42)
            return "ok"

        assert run_sim(main, 2).value(0) == "ok"

    def test_app_exception_surfaces_as_simulation_error(self):
        def main(mpi):
            if mpi.rank == 0:
                raise RuntimeError("app bug")

        with pytest.raises(SimulationError) as exc_info:
            run_sim(main, 2)
        assert exc_info.value.rank == 0


class TestCancel:
    def test_cancelled_recv_completes_cancelled(self):
        def main(mpi):
            comm = mpi.comm_world
            req = comm.irecv(source=ANY_SOURCE, tag=8)
            req.cancel()
            assert req.done
            assert req.status.cancelled
            return "ok"

        assert run_sim(main, 2).value(0) == "ok"

    def test_cancel_after_completion_is_noop(self):
        async def main(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                comm.send(1, dest=1, tag=8)
            else:
                req = comm.irecv(source=0, tag=8)
                await wait(req)
                req.cancel()
                assert not req.status.cancelled
                return req.data

        assert run_sim(main, 2).value(1) == 1


class TestTiming:
    def test_virtual_time_advances_with_messages(self):
        async def main(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                comm.send("x", dest=1)
            else:
                await comm.recv(source=0)

        r = run_sim(main, 2)
        assert r.final_time > 0

    def test_compute_advances_local_clock(self):
        async def main(mpi):
            await mpi.compute(2.5)
            return mpi.now

        assert run_sim(main, 1).value(0) >= 2.5

    def test_compute_rejects_negative(self):
        async def main(mpi):
            with pytest.raises(ValueError):
                await mpi.compute(-1.0)
            return "ok"

        assert run_sim(main, 1).value(0) == "ok"

    def test_waitall_accumulates(self):
        async def main(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                reqs = [comm.isend(i, dest=1, tag=i) for i in range(4)]
                await waitall(reqs)
            else:
                reqs = [comm.irecv(source=0, tag=i) for i in range(4)]
                await waitall(reqs)
                return [r.data for r in reqs]

        assert run_sim(main, 2).value(1) == [0, 1, 2, 3]
