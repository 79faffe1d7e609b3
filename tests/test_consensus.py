"""The fault-tolerant consensus behind MPI_Comm_validate_all (paper §II).

Agreement, validity, and termination are checked under failure-free runs,
failures before the call, failures *during* the protocol (including many
simultaneous deaths), both consensus modes, repeated validates, and
subcommunicators.
"""

from __future__ import annotations

import pytest

from repro.ft import comm_validate_all, icomm_validate_all
from repro.simmpi import ErrorHandler, RankFailStopError, Simulation, wait
from tests.conftest import AGREEMENT_MODES as MODES, run_sim


def returning(mpi):
    mpi.comm_world.set_errhandler(ErrorHandler.ERRORS_RETURN)
    return mpi.comm_world


class TestFailureFree:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 9])
    def test_zero_failures_agreed(self, n, mode):
        def main(mpi):
            return comm_validate_all(returning(mpi), mode=mode)

        r = run_sim(main, n)
        assert all(v == 0 for v in r.values().values())

    @pytest.mark.parametrize("mode", MODES)
    def test_repeated_validates(self, mode):
        def main(mpi):
            comm = returning(mpi)
            return [comm_validate_all(comm, mode=mode) for _ in range(3)]

        r = run_sim(main, 4)
        assert all(v == [0, 0, 0] for v in r.values().values())

    def test_single_rank_trivial(self):
        def main(mpi):
            return comm_validate_all(returning(mpi))

        assert run_sim(main, 1).value(0) == 0

    def test_invalid_mode_rejected(self):
        def main(mpi):
            for mode in ("psychic", "early"):  # "early" is gone, not aliased
                with pytest.raises(ValueError):
                    comm_validate_all(returning(mpi), mode=mode)
            return "ok"

        assert run_sim(main, 1).value(0) == "ok"


class TestWithPriorFailures:
    @pytest.mark.parametrize("mode", MODES)
    def test_known_failure_counted_and_recognized(self, mode):
        def main(mpi):
            comm = returning(mpi)
            if comm.rank == 2:
                mpi.compute(1.0)
                return
            mpi.compute(2.0)
            n = comm_validate_all(comm, mode=mode)
            return (n, sorted(comm.validated), sorted(comm.recognized))

        r = run_sim(main, 4, kills=[(2, 0.5)])
        for i in (0, 1, 3):
            assert r.value(i) == (1, [2], [2])

    @pytest.mark.parametrize("mode", MODES)
    def test_multiple_prior_failures(self, mode):
        def main(mpi):
            comm = returning(mpi)
            if comm.rank in (1, 3, 4):
                mpi.compute(1.0)
                return
            mpi.compute(2.0)
            return comm_validate_all(comm, mode=mode)

        r = run_sim(main, 6, kills=[(1, 0.3), (3, 0.4), (4, 0.5)])
        assert all(r.value(i) == 3 for i in (0, 2, 5))

    def test_count_accumulates_across_validates(self):
        def main(mpi):
            comm = returning(mpi)
            if comm.rank == 1:
                mpi.compute(1.0)
                return
            if comm.rank == 2:
                mpi.compute(3.0)
                return
            mpi.compute(2.0)
            first = comm_validate_all(comm)
            mpi.compute(2.5)  # wait past the second failure
            second = comm_validate_all(comm)
            return (first, second)

        r = run_sim(main, 4, kills=[(1, 0.5), (2, 2.5)])
        # The second validate returns the *total* failures, per the paper.
        assert r.value(0) == (1, 2)
        assert r.value(3) == (1, 2)


class TestFailuresDuringProtocol:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("victim_time", [1e-8, 5e-7, 2e-6, 1e-5])
    def test_death_mid_protocol_agreement(self, mode, victim_time):
        def main(mpi):
            comm = returning(mpi)
            if comm.rank == 1:
                mpi.compute(1.0)
                return
            return comm_validate_all(comm, mode=mode)

        r = run_sim(main, 5, kills=[(1, victim_time)], on_deadlock="return")
        assert not r.hung
        vals = {v for k, v in r.values().items()}
        assert len(vals) == 1  # agreement

    @pytest.mark.parametrize("mode", MODES)
    def test_many_simultaneous_deaths(self, mode):
        def main(mpi):
            comm = returning(mpi)
            if comm.rank in (1, 2, 3, 4):
                mpi.compute(1.0)
                return
            return comm_validate_all(comm, mode=mode)

        kills = [(i, 1e-7) for i in (1, 2, 3, 4)]
        r = run_sim(main, 6, kills=kills, on_deadlock="return")
        assert not r.hung
        assert r.value(0) == r.value(5)

    @pytest.mark.parametrize("mode", MODES)
    def test_all_but_one_die(self, mode):
        def main(mpi):
            comm = returning(mpi)
            if comm.rank != 0:
                mpi.compute(1.0)
                return
            return comm_validate_all(comm, mode=mode)

        kills = [(i, 1e-7) for i in range(1, 4)]
        r = run_sim(main, 4, kills=kills, on_deadlock="return")
        assert not r.hung
        assert isinstance(r.value(0), int)

    @pytest.mark.parametrize("mode", MODES)
    def test_staggered_deaths_agreement(self, mode):
        def main(mpi):
            comm = returning(mpi)
            if comm.rank in (2, 5):
                mpi.compute(1.0)
                return
            return comm_validate_all(comm, mode=mode)

        r = run_sim(
            main, 7, kills=[(2, 3e-7), (5, 9e-7)], on_deadlock="return",
            detection_latency=5e-7,
        )
        assert not r.hung
        vals = {v for v in r.values().values() if v is not None}
        assert len(vals) == 1


class TestNonBlocking:
    def test_icomm_request_completes(self):
        def main(mpi):
            comm = returning(mpi)
            req = icomm_validate_all(comm)
            status = wait(req)
            return (status.count, sorted(req.data))

        r = run_sim(main, 3)
        assert all(v == (0, []) for v in r.values().values())

    def test_icomm_progresses_while_blocked_elsewhere(self):
        # The consensus must complete in the progress engine even while
        # the application thread waits in an unrelated recv — the property
        # paper Fig. 13 relies on.
        def main(mpi):
            comm = returning(mpi)
            req = icomm_validate_all(comm)
            if comm.rank == 0:
                # Block on a message that arrives only after the others
                # have finished their validates.
                data, _ = comm.recv(source=1, tag=77)
                wait(req)
                return (data, req.status.count)
            wait(req)
            if comm.rank == 1:
                comm.send("late", dest=0, tag=77)
            return req.status.count

        r = run_sim(main, 3)
        assert r.value(0) == ("late", 0)

    def test_decision_applied_on_completion(self):
        def main(mpi):
            comm = returning(mpi)
            if comm.rank == 1:
                mpi.compute(1.0)
                return
            mpi.compute(2.0)
            req = icomm_validate_all(comm)
            wait(req)
            return (sorted(req.data), sorted(comm.validated))

        r = run_sim(main, 3, kills=[(1, 0.5)])
        assert r.value(0) == ([1], [1])


class TestSubcommunicators:
    def test_validate_on_split_comm(self):
        def main(mpi):
            comm = returning(mpi)
            sub = comm.split(color=comm.rank % 2, key=comm.rank)
            sub.set_errhandler(ErrorHandler.ERRORS_RETURN)
            if comm.rank == 2:
                mpi.compute(1.0)
                return
            mpi.compute(2.0)
            n = comm_validate_all(sub)
            return (n, sorted(sub.validated))

        r = run_sim(main, 6, kills=[(2, 0.5)])
        # Rank 2 is comm rank 1 of the even subcomm {0,2,4}.
        assert r.value(0) == (1, [1])
        assert r.value(4) == (1, [1])
        # The odd subcomm {1,3,5} sees no failure.
        assert r.value(1) == (0, [])

    def test_validate_world_and_sub_independent(self):
        def main(mpi):
            comm = returning(mpi)
            sub = comm.split(color=0 if comm.rank < 2 else 1, key=comm.rank)
            sub.set_errhandler(ErrorHandler.ERRORS_RETURN)
            if comm.rank == 3:
                mpi.compute(1.0)
                return
            mpi.compute(2.0)
            n_world = comm_validate_all(comm)
            n_sub = comm_validate_all(sub)
            return (n_world, n_sub)

        r = run_sim(main, 4, kills=[(3, 0.5)])
        assert r.value(0) == (1, 0)  # sub {0,1} unaffected
        assert r.value(2) == (1, 1)  # sub {2,3} lost rank 3
