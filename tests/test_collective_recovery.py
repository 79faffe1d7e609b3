"""Recovery blocks around every collective (paper §II, Randell [10]).

The paper notes ``MPI_Comm_validate_all`` "is useful in creating recovery
blocks for sets of collective operations".  These tests run the *agreed*
recovery-block pattern (:func:`repro.ft.run_recovery_block`) around every
collective in the library with a victim dying mid-run, and assert the
survivors always complete with a sensible survivor-set result.

One test pins the negative result that motivated the helper: the naive
try/validate/retry loop deadlocks when the failing collective returns
success at some ranks and an error at others, because the retry decision
is then inconsistent and collective call order desynchronizes.
"""

from __future__ import annotations

import pytest

from repro.ft import comm_validate_all, run_recovery_block
from repro.simmpi import ErrorHandler, RankFailStopError, Simulation
from tests.conftest import AGREEMENT_MODES, run_sim

N = 5
VICTIM = 2
SURVIVORS = [r for r in range(N) if r != VICTIM]


def _run_collective_scenario(op_builder, kill_time=2.0e-6, rounds=6):
    """Loop agreed recovery blocks at every rank; victim dies mid-run."""

    async def main(mpi):
        comm = mpi.comm_world
        comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
        # Every rank (the victim included, until it dies) runs the same
        # loop — collective programs must be call-matched at all ranks.
        results = []
        for _ in range(rounds):
            await mpi.compute(1e-6)
            results.append(await run_recovery_block(comm, op_builder(mpi, comm)))
        return results

    return run_sim(main, N, kills=[(VICTIM, kill_time)], on_deadlock="return")


class TestAgreedRecoveryBlocks:
    def test_barrier(self):
        r = _run_collective_scenario(lambda mpi, comm: comm.barrier)
        assert not r.hung
        assert set(r.completed_ranks) == set(SURVIVORS)

    def test_allreduce(self):
        r = _run_collective_scenario(
            lambda mpi, comm: (lambda: comm.allreduce(1, "sum"))
        )
        assert not r.hung
        finals = [r.value(i)[-1] for i in SURVIVORS]
        assert all(v == len(SURVIVORS) for v in finals)

    def test_bcast(self):
        r = _run_collective_scenario(
            lambda mpi, comm: (
                lambda: comm.bcast("x" if comm.rank == 0 else None, root=0)
            )
        )
        assert not r.hung
        assert all(r.value(i)[-1] == "x" for i in SURVIVORS)

    def test_reduce(self):
        r = _run_collective_scenario(
            lambda mpi, comm: (lambda: comm.reduce(1, "sum", root=0))
        )
        assert not r.hung
        assert r.value(0)[-1] == len(SURVIVORS)

    def test_gather(self):
        r = _run_collective_scenario(
            lambda mpi, comm: (lambda: comm.gather(comm.rank, root=0))
        )
        assert not r.hung
        final = r.value(0)[-1]
        assert final[VICTIM] is None
        assert [final[i] for i in SURVIVORS] == SURVIVORS

    def test_scatter(self):
        r = _run_collective_scenario(
            lambda mpi, comm: (
                lambda: comm.scatter(
                    list(range(comm.size)) if comm.rank == 0 else None,
                    root=0,
                )
            )
        )
        assert not r.hung
        assert all(r.value(i)[-1] == i for i in SURVIVORS)

    def test_allgather(self):
        r = _run_collective_scenario(
            lambda mpi, comm: (lambda: comm.allgather(comm.rank))
        )
        assert not r.hung
        final = r.value(0)[-1]
        assert [final[i] for i in SURVIVORS] == SURVIVORS

    def test_alltoall(self):
        r = _run_collective_scenario(
            lambda mpi, comm: (
                lambda: comm.alltoall(
                    [(comm.rank, j) for j in range(comm.size)]
                )
            )
        )
        assert not r.hung
        final = r.value(0)[-1]
        for j in SURVIVORS:
            assert final[j] == (j, 0)

    def test_scan(self):
        r = _run_collective_scenario(
            lambda mpi, comm: (lambda: comm.scan(1, "sum"))
        )
        assert not r.hung
        finals = {i: r.value(i)[-1] for i in SURVIVORS}
        assert finals[0] == 1
        assert finals[N - 1] == len(SURVIVORS)

    def test_exscan(self):
        r = _run_collective_scenario(
            lambda mpi, comm: (lambda: comm.exscan(1, "sum"))
        )
        assert not r.hung
        finals = {i: r.value(i)[-1] for i in SURVIVORS}
        assert finals[0] is None
        assert finals[N - 1] == len(SURVIVORS) - 1

    def test_reduce_scatter(self):
        r = _run_collective_scenario(
            lambda mpi, comm: (
                lambda: comm.reduce_scatter([1] * comm.size)
            )
        )
        assert not r.hung
        assert all(r.value(i)[-1] == len(SURVIVORS) for i in SURVIVORS)

    @pytest.mark.parametrize("kill_time", [5e-7, 1.5e-6, 3.2e-6, 5.1e-6])
    def test_allreduce_many_windows(self, kill_time):
        r = _run_collective_scenario(
            lambda mpi, comm: (lambda: comm.allreduce(1, "sum")),
            kill_time=kill_time,
        )
        assert not r.hung
        assert all(r.value(i)[-1] == len(SURVIVORS) for i in SURVIVORS)

    @pytest.mark.parametrize("mode", AGREEMENT_MODES)
    def test_both_consensus_modes(self, mode):
        async def main(mpi):
            comm = mpi.comm_world
            comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
            out = []
            for _ in range(4):
                await mpi.compute(1e-6)
                out.append(
                    await run_recovery_block(
                        comm, lambda: comm.allreduce(1, "sum"), mode=mode
                    )
                )
            return out

        r = run_sim(main, N, kills=[(VICTIM, 2e-6)], on_deadlock="return")
        assert not r.hung
        assert all(r.value(i)[-1] == len(SURVIVORS) for i in SURVIVORS)


class TestNaivePatternIsBroken:
    def test_naive_retry_desynchronizes_and_hangs(self):
        # The negative result: try/validate/retry without an agreed retry
        # decision.  In the window where the failing allreduce succeeds at
        # some ranks and errors at others, the erroring ranks consume an
        # extra collective call and the job deadlocks.
        async def main(mpi):
            comm = mpi.comm_world
            comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
            out = []
            for _ in range(6):
                await mpi.compute(1e-6)
                while True:
                    try:
                        out.append(await comm.allreduce(1, "sum"))
                        break
                    except RankFailStopError:
                        await comm_validate_all(comm)
            return out

        # Asymmetry needs the detector to lag: ranks whose part of the
        # collective completed before their detection return success
        # while the rest error and retry.
        r = run_sim(
            main, N, kills=[(VICTIM, 3.2e-6)], detection_latency=1e-6,
            on_deadlock="return",
        )
        assert r.hung  # deterministic for this window; the helper's raison d'etre
