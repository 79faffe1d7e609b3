"""Bit-for-bit reproducibility: identical seeds => identical traces."""

from __future__ import annotations

import pytest

from repro.simmpi import Simulation
from repro.core import RingConfig, RingVariant, Termination, make_ring_main
from repro.faults import KillAtProbe, KillAtTime


def ring_factory(seed: int, policy: str = "rr", kill: bool = False):
    sim = Simulation(nprocs=5, seed=seed, policy=policy)
    if kill:
        sim.add_injector(KillAtProbe(rank=2, probe="post_recv", hit=2))
    cfg = RingConfig(max_iter=4, termination=Termination.VALIDATE_ALL)
    return sim, make_ring_main(cfg)


class TestTraceDeterminism:
    @pytest.mark.parametrize("policy", ["rr", "lowest", "random"])
    def test_identical_runs_identical_traces(self, policy):
        sim1, main1 = ring_factory(3, policy)
        sim2, main2 = ring_factory(3, policy)
        t1 = sim1.run(main1).trace.keys()
        t2 = sim2.run(main2).trace.keys()
        assert t1 == t2

    def test_identical_runs_with_failures(self):
        sim1, main1 = ring_factory(3, kill=True)
        sim2, main2 = ring_factory(3, kill=True)
        r1 = sim1.run(main1, on_deadlock="return")
        r2 = sim2.run(main2, on_deadlock="return")
        assert r1.trace.keys() == r2.trace.keys()
        assert r1.values() == r2.values()
        assert r1.final_time == r2.final_time

    def test_different_random_seeds_may_differ(self):
        # Not guaranteed for every pair, but these two differ; the test
        # pins that seeds are actually plumbed through.
        async def main(mpi):
            comm = mpi.comm_world
            comm.send(mpi.rank, dest=(mpi.rank + 1) % mpi.size)
            await comm.recv(source=(mpi.rank - 1) % mpi.size)

        traces = set()
        for seed in range(6):
            r = Simulation(nprocs=4, policy="random", seed=seed).run(main)
            traces.add(tuple(r.trace.keys()))
        assert len(traces) > 1

    def test_time_based_kills_deterministic(self):
        def build():
            sim = Simulation(nprocs=4)
            sim.add_injector(KillAtTime(rank=2, time=3e-6))
            cfg = RingConfig(max_iter=5, termination=Termination.VALIDATE_ALL)
            return sim, make_ring_main(cfg)

        sims = [build() for _ in range(2)]
        results = [s.run(m, on_deadlock="return") for s, m in sims]
        assert results[0].trace.keys() == results[1].trace.keys()

    def test_event_and_request_ids_reset_per_simulation(self):
        async def main(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                comm.send("x", dest=1)
            else:
                req = comm.irecv(source=0)
                from repro.simmpi import wait

                await wait(req)
                return req.id

        first = Simulation(nprocs=2).run(main).value(1)
        second = Simulation(nprocs=2).run(main).value(1)
        assert first == second


class TestSimulationGuards:
    def test_simulation_runs_once(self):
        def main(mpi):
            return 1

        sim = Simulation(nprocs=1)
        sim.run(main)
        with pytest.raises(RuntimeError):
            sim.run(main)

    def test_bad_on_deadlock_value(self):
        sim = Simulation(nprocs=1)
        with pytest.raises(ValueError):
            sim.run(lambda mpi: None, on_deadlock="explode")

    def test_wrong_mains_count(self):
        sim = Simulation(nprocs=3)
        with pytest.raises(ValueError):
            sim.run([lambda mpi: None] * 2)

    def test_kill_rank_out_of_range(self):
        sim = Simulation(nprocs=2)
        with pytest.raises(ValueError):
            sim.kill(5, at_time=1.0)

    def test_nprocs_must_be_positive(self):
        with pytest.raises(ValueError):
            Simulation(nprocs=0)

    def test_max_events_guard(self):
        from repro.simmpi import SimulationLimitExceeded

        async def main(mpi):
            while True:
                await mpi.compute(1e-9)

        sim = Simulation(nprocs=1, max_events=1000)
        with pytest.raises(SimulationLimitExceeded):
            sim.run(main)

    def test_max_time_guard(self):
        from repro.simmpi import SimulationLimitExceeded

        async def main(mpi):
            while True:
                await mpi.compute(10.0)

        sim = Simulation(nprocs=1, max_time=100.0)
        with pytest.raises(SimulationLimitExceeded):
            sim.run(main)

    def test_mpmd_mains(self):
        def a(mpi):
            return "a"

        def b(mpi):
            return "b"

        r = Simulation(nprocs=2).run([a, b])
        assert r.value(0) == "a" and r.value(1) == "b"
