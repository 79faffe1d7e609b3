"""Failure-free ring behaviour: baseline (Fig. 2) and FT (Fig. 3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    RingConfig,
    RingMsg,
    RingVariant,
    Termination,
    get_current_root,
    make_ring_main,
    to_left_of,
    to_right_of,
)
from repro.simmpi import ErrorHandler, Simulation
from tests.conftest import run_sim

ALL_FT_VARIANTS = [
    RingVariant.NAIVE,
    RingVariant.FT_NO_MARKER,
    RingVariant.FT_MARKER,
    RingVariant.FT_TAGGED,
]


class TestRingMsgCopy:
    """``copy`` must not alias a mutable value; for an immutable scalar
    ``deepcopy`` would return the same object, so it is skipped."""

    @pytest.mark.parametrize(
        "value", [7, 2.5, True, 1 + 2j, "token", b"token", None]
    )
    def test_scalar_value_gives_an_equal_message(self, value):
        msg = RingMsg(value, marker=3)
        dup = msg.copy()
        assert dup == msg and dup is not msg
        assert dup.value is value and type(dup.value) is type(value)

    def test_list_value_is_still_copied_deeply(self):
        msg = RingMsg([1, [2, 3]], marker=1)
        dup = msg.copy()
        msg.value.append(4)
        msg.value[1].append(5)
        assert dup == RingMsg([1, [2, 3]], marker=1)

    def test_numpy_value_is_still_copied(self):
        msg = RingMsg(np.arange(4.0), marker=2)
        dup = msg.copy()
        msg.value[:] = -1.0
        assert dup.marker == 2 and dup.value.tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_scalar_subclass_is_not_mistaken_for_a_scalar(self):
        class Tagged(int):
            pass

        value = Tagged(5)
        value.note = ["mutable"]
        dup = RingMsg(value, marker=0).copy()
        assert dup.value == 5 and dup.value.note is not value.note


class TestNeighborSelection:
    def test_all_alive_arithmetic(self):
        def main(mpi):
            comm = mpi.comm_world
            comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
            return (
                to_left_of(comm, comm.rank),
                to_right_of(comm, comm.rank),
                get_current_root(comm),
            )

        r = run_sim(main, 5)
        assert r.value(0) == (4, 1, 0)
        assert r.value(2) == (1, 3, 0)
        assert r.value(4) == (3, 0, 0)

    def test_skips_failed_ranks(self):
        async def main(mpi):
            comm = mpi.comm_world
            comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
            if comm.rank in (1, 2):
                await mpi.compute(1.0)
                return
            await mpi.compute(2.0)
            return (to_right_of(comm, comm.rank), to_left_of(comm, comm.rank))

        r = run_sim(main, 4, kills=[(1, 0.4), (2, 0.5)])
        assert r.value(0) == (3, 3)
        assert r.value(3) == (0, 0)

    def test_root_election_skips_failed(self):
        async def main(mpi):
            comm = mpi.comm_world
            comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
            if comm.rank == 0:
                await mpi.compute(1.0)
                return
            await mpi.compute(2.0)
            return get_current_root(comm)

        r = run_sim(main, 3, kills=[(0, 0.5)])
        assert r.value(1) == 1 and r.value(2) == 1

    def test_alone_aborts(self):
        async def main(mpi):
            comm = mpi.comm_world
            comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
            if comm.rank == 1:
                await mpi.compute(1.0)
                return
            await mpi.compute(2.0)
            to_right_of(comm, comm.rank)  # only survivor: aborts

        r = run_sim(main, 2, kills=[(1, 0.5)], on_deadlock="return")
        assert r.aborted is not None


class TestBaselineRing:
    @pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
    def test_completes_with_full_values(self, n):
        cfg = RingConfig(max_iter=5, variant=RingVariant.BASELINE)
        r = run_sim(make_ring_main(cfg), n)
        comp = r.value(0)["root_completions"]
        assert comp == [(i, n) for i in range(5)]

    def test_any_failure_aborts_job(self):
        cfg = RingConfig(max_iter=50, variant=RingVariant.BASELINE,
                         work_per_iter=1e-6)
        r = run_sim(make_ring_main(cfg), 4, kills=[(2, 1e-5)],
                    on_deadlock="return")
        assert r.aborted is not None


class TestFTRingFailureFree:
    @pytest.mark.parametrize("variant", ALL_FT_VARIANTS)
    @pytest.mark.parametrize("term", [Termination.ROOT_BCAST,
                                      Termination.VALIDATE_ALL,
                                      Termination.NONE])
    def test_completes_like_baseline(self, variant, term):
        cfg = RingConfig(max_iter=4, variant=variant, termination=term)
        r = run_sim(make_ring_main(cfg), 5)
        comp = r.value(0)["root_completions"]
        assert comp == [(i, 5) for i in range(4)]
        for i in range(1, 5):
            rep = r.value(i)
            assert rep["forwards"] == 4
            assert rep["resends"] == 0
            assert rep["duplicates_discarded"] == 0

    @pytest.mark.parametrize("n", [2, 3, 7, 12])
    def test_various_sizes(self, n):
        cfg = RingConfig(max_iter=3, termination=Termination.VALIDATE_ALL)
        r = run_sim(make_ring_main(cfg), n)
        assert r.value(0)["root_completions"] == [(i, n) for i in range(3)]

    def test_report_shape(self):
        cfg = RingConfig(max_iter=2)
        r = run_sim(make_ring_main(cfg), 3)
        rep = r.value(1)
        for key in ("rank", "role", "left", "right", "root", "cur_marker",
                    "iterations_completed", "forwards", "resends",
                    "duplicates_discarded", "right_retargets",
                    "left_retargets", "root_completions"):
            assert key in rep
        assert rep["role"] == "nonroot"
        assert r.value(0)["role"] == "root"

    def test_single_iteration(self):
        cfg = RingConfig(max_iter=1, termination=Termination.VALIDATE_ALL)
        r = run_sim(make_ring_main(cfg), 4)
        assert r.value(0)["root_completions"] == [(0, 4)]

    def test_ft_overhead_is_bounded(self):
        # The FT ring posts one extra watchdog per iteration; its virtual
        # completion time should stay within a small factor of baseline.
        n, iters = 6, 10
        base = run_sim(
            make_ring_main(RingConfig(max_iter=iters,
                                      variant=RingVariant.BASELINE)), n
        ).final_time
        ft = run_sim(
            make_ring_main(RingConfig(max_iter=iters,
                                      variant=RingVariant.FT_MARKER,
                                      termination=Termination.NONE)), n
        ).final_time
        assert ft < 3 * base
