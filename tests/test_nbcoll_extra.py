"""Further non-blocking barrier coverage: subcomms, concurrency, stress."""

from __future__ import annotations

import pytest

from repro.ft import comm_validate_all
from repro.simmpi import ErrorHandler, Simulation, wait, waitall
from repro.simmpi.nbcoll import ibarrier
from tests.conftest import run_sim


def returning(mpi):
    mpi.comm_world.set_errhandler(ErrorHandler.ERRORS_RETURN)
    return mpi.comm_world


class TestIbarrierSubcomms:
    def test_ibarrier_on_split_comm(self):
        async def main(mpi):
            comm = returning(mpi)
            sub = await comm.split(color=comm.rank % 2, key=comm.rank)
            sub.set_errhandler(ErrorHandler.ERRORS_RETURN)
            await mpi.compute(comm.rank * 1e-6)
            await wait(ibarrier(sub))
            return mpi.now

        r = run_sim(main, 6)
        # Even subcomm {0,2,4}: nobody leaves before rank 4 arrives.
        assert r.value(0) >= 4e-6
        # Odd subcomm {1,3,5}: nobody leaves before rank 5 arrives.
        assert r.value(1) >= 5e-6

    def test_world_and_sub_barriers_interleave(self):
        async def main(mpi):
            comm = returning(mpi)
            sub = await comm.split(color=0 if comm.rank < 2 else 1, key=comm.rank)
            sub.set_errhandler(ErrorHandler.ERRORS_RETURN)
            r1 = ibarrier(sub)
            r2 = ibarrier(comm)
            await waitall([r1, r2])
            return "ok"

        r = run_sim(main, 4)
        assert all(v == "ok" for v in r.values().values())


class TestIbarrierConcurrency:
    def test_two_outstanding_barriers_same_comm(self):
        async def main(mpi):
            comm = returning(mpi)
            a = ibarrier(comm)
            b = ibarrier(comm)
            await waitall([a, b])
            return "ok"

        r = run_sim(main, 5)
        assert all(v == "ok" for v in r.values().values())

    def test_many_sequential_barriers(self):
        async def main(mpi):
            comm = returning(mpi)
            for _ in range(10):
                await wait(ibarrier(comm))
            return "ok"

        r = run_sim(main, 8)
        assert all(v == "ok" for v in r.values().values())

    def test_barrier_over_survivors_after_validate(self):
        async def main(mpi):
            comm = returning(mpi)
            if comm.rank in (1, 4):
                await mpi.compute(1.0)
                return
            await mpi.compute(2.0)
            await comm_validate_all(comm)
            await mpi.compute(comm.rank * 1e-6)
            await wait(ibarrier(comm))
            return mpi.now

        r = run_sim(main, 6, kills=[(1, 0.4), (4, 0.5)])
        times = [r.value(i) for i in (0, 2, 3, 5)]
        # All survivors leave after the last survivor's arrival.
        assert min(times) >= 2.0 + 5 * 1e-6 - 1e-9


class TestRingTaggedProperty:
    def test_tagged_variant_random_campaign(self):
        import random

        from repro.analysis import standard_ring_invariants
        from repro.core import (
            RingConfig,
            RingVariant,
            Termination,
            make_ring_main,
        )

        rng = random.Random(42)
        for _ in range(25):
            n = rng.choice([4, 5, 6])
            cfg = RingConfig(max_iter=4, variant=RingVariant.FT_TAGGED,
                             termination=Termination.VALIDATE_ALL,
                             work_per_iter=1e-6)
            sim = Simulation(nprocs=n, seed=rng.randrange(5),
                             policy="random",
                             detection_latency=rng.choice([0.0, 1e-6, 2e-6]))
            for v in rng.sample(range(1, n), rng.randint(1, 2)):
                sim.kill(v, at_time=rng.uniform(1e-7, 8e-6))
            r = sim.run(make_ring_main(cfg), on_deadlock="return")
            for inv in standard_ring_invariants(4, n):
                assert inv(r) is None, (n, inv)
