"""Non-blocking barrier and the §III-C ibarrier-termination demonstration."""

from __future__ import annotations

import pytest

from repro.core import RingConfig, Termination, make_ring_main
from repro.faults import KillAtProbe
from repro.simmpi import (
    ErrorHandler,
    RankFailStopError,
    Simulation,
    wait,
    waitany,
)
from repro.simmpi.nbcoll import ibarrier
from tests.conftest import run_sim


def returning(mpi):
    mpi.comm_world.set_errhandler(ErrorHandler.ERRORS_RETURN)
    return mpi.comm_world


class TestIbarrier:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
    def test_synchronizes(self, n):
        async def main(mpi):
            comm = returning(mpi)
            await mpi.compute(comm.rank * 1e-6)
            await wait(ibarrier(comm))
            return mpi.now

        r = run_sim(main, n)
        times = [r.value(i) for i in range(n)]
        assert min(times) >= (n - 1) * 1e-6

    def test_overlaps_p2p(self):
        # The point of the non-blocking form: progress happens in the
        # engine while the application thread does sends/receives.
        async def main(mpi):
            comm = returning(mpi)
            req = ibarrier(comm)
            if comm.rank == 0:
                comm.send("work", dest=1)
            elif comm.rank == 1:
                data, _ = await comm.recv(source=0)
                assert data == "work"
            await wait(req)
            return "ok"

        r = run_sim(main, 3)
        assert all(v == "ok" for v in r.values().values())

    def test_repeated_barriers(self):
        async def main(mpi):
            comm = returning(mpi)
            for _ in range(4):
                await wait(ibarrier(comm))
            return "ok"

        r = run_sim(main, 4)
        assert all(v == "ok" for v in r.values().values())

    def test_entry_error_with_unrecognized_failure(self):
        async def main(mpi):
            comm = returning(mpi)
            if comm.rank == 2:
                await mpi.compute(1.0)
                return
            await mpi.compute(2.0)
            req = ibarrier(comm)
            with pytest.raises(RankFailStopError):
                await wait(req)
            return "errored"

        r = run_sim(main, 4, kills=[(2, 0.5)])
        assert all(r.value(i) == "errored" for i in (0, 1, 3))

    def test_runs_over_survivors_after_validate(self):
        from repro.ft import comm_validate_all

        async def main(mpi):
            comm = returning(mpi)
            if comm.rank == 1:
                await mpi.compute(1.0)
                return
            await mpi.compute(2.0)
            await comm_validate_all(comm)
            await wait(ibarrier(comm))
            return "ok"

        r = run_sim(main, 4, kills=[(1, 0.5)])
        assert all(r.value(i) == "ok" for i in (0, 2, 3))

    def test_mid_barrier_death_errors_waiting_ranks(self):
        async def main(mpi):
            comm = returning(mpi)
            if comm.rank == 1:
                await mpi.compute(0.5)  # dies inside the barrier window
                return
            req = ibarrier(comm)
            try:
                await wait(req)
                return "ok"
            except RankFailStopError:
                return "errored"

        r = run_sim(main, 4, kills=[(1, 1e-7)], on_deadlock="return")
        outcomes = {r.value(i) for i in r.completed_ranks}
        assert "errored" in outcomes  # someone was still owed a round


class TestIbarrierTermination:
    def test_failure_free_uses_barrier_path(self):
        cfg = RingConfig(max_iter=3, termination=Termination.IBARRIER)
        r = run_sim(make_ring_main(cfg), 5)
        assert all(
            r.value(i)["termination_path"] == "ibarrier" for i in range(5)
        )

    def test_mid_loop_failure_falls_back_to_consensus(self):
        cfg = RingConfig(max_iter=3, termination=Termination.IBARRIER)
        r = run_sim(
            make_ring_main(cfg), 5,
            injectors=[KillAtProbe(rank=2, probe="post_recv", hit=2)],
            on_deadlock="return",
        )
        assert not r.hung
        assert all(
            r.value(i)["termination_path"] == "fallback"
            for i in r.completed_ranks
        )

    def test_termination_phase_failure_can_split_and_hang(self):
        # The documented sharp edge — and the paper's reason to reject
        # the scheme: inconsistent barrier return codes split the ranks
        # between the barrier and the fallback, which deadlocks.
        cfg = RingConfig(max_iter=3, termination=Termination.IBARRIER)
        r = run_sim(
            make_ring_main(cfg), 5,
            injectors=[KillAtProbe(rank=2, probe="pre_termination", hit=1)],
            on_deadlock="return",
        )
        assert r.hung  # deterministically, for this seed and scenario
