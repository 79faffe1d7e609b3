"""Unit tests for the cooperative fiber scheduler and policies."""

from __future__ import annotations

from collections import deque

import pytest

from repro.simmpi import Fiber, Simulation
from repro.simmpi.fibers import FiberState
from repro.simmpi.scheduler import (
    LowestRankFirstPolicy,
    RandomPolicy,
    RoundRobinPolicy,
    make_policy,
)


class FakeFiber:
    def __init__(self, index: int) -> None:
        self.index = index


class TestPolicies:
    def test_round_robin_is_fifo(self):
        p = RoundRobinPolicy()
        q = deque([FakeFiber(2), FakeFiber(0), FakeFiber(1)])
        assert [p.pick(q).index for _ in range(3)] == [2, 0, 1]

    def test_lowest_rank_first(self):
        p = LowestRankFirstPolicy()
        q = deque([FakeFiber(2), FakeFiber(0), FakeFiber(1)])
        assert [p.pick(q).index for _ in range(3)] == [0, 1, 2]

    def test_random_policy_deterministic_per_seed(self):
        def order(seed: int) -> list[int]:
            p = RandomPolicy(seed)
            q = deque(FakeFiber(i) for i in range(6))
            return [p.pick(q).index for _ in range(6)]

        assert order(7) == order(7)

    def test_random_policy_reset_restores_sequence(self):
        p = RandomPolicy(3)
        q1 = deque(FakeFiber(i) for i in range(5))
        first = [p.pick(q1).index for _ in range(5)]
        p.reset()
        q2 = deque(FakeFiber(i) for i in range(5))
        assert [p.pick(q2).index for _ in range(5)] == first

    def test_make_policy_specs(self):
        assert isinstance(make_policy("rr"), RoundRobinPolicy)
        assert isinstance(make_policy("lowest"), LowestRankFirstPolicy)
        assert isinstance(make_policy("random", seed=1), RandomPolicy)
        custom = RoundRobinPolicy()
        assert make_policy(custom) is custom

    def test_make_policy_unknown(self):
        with pytest.raises(ValueError):
            make_policy("bogus")


class TestFiberHandoff:
    def test_fiber_runs_to_completion(self):
        out = []
        f = Fiber(name="t", index=0, target=lambda: out.append("ran"))
        f.start()
        f.resume_and_wait()
        assert out == ["ran"]
        assert f.state is FiberState.DONE
        f.join()

    def test_fiber_result_captured(self):
        f = Fiber(name="t", index=0, target=lambda: 42)
        f.start()
        f.resume_and_wait()
        assert f.result == 42
        f.join()

    def test_fiber_error_captured(self):
        def boom():
            raise ValueError("nope")

        f = Fiber(name="t", index=0, target=boom)
        f.start()
        f.resume_and_wait()
        assert isinstance(f.error, ValueError)
        assert f.state is FiberState.DONE
        f.join()

    def test_shutdown_unwinds_blocked_fiber(self):
        # Exercised through the Simulation facade: a rank that blocks
        # forever is unwound at shutdown after a deadlock is reported.
        def main(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                comm.recv(source=1)  # never sent
            return "done"

        r = Simulation(nprocs=2).run(main, on_deadlock="return")
        assert r.hung
        assert r.outcomes[1].value == "done"

class TestSchedulingDeterminism:
    def test_policies_change_interleaving_not_results(self):
        def main(mpi):
            comm = mpi.comm_world
            total = comm.allreduce(comm.rank, "sum")
            return total

        expected = sum(range(5))
        for policy in ("rr", "lowest", "random"):
            r = Simulation(nprocs=5, policy=policy, seed=11).run(main)
            assert all(v == expected for v in r.values().values())

    def test_random_policy_reproducible_end_to_end(self):
        def main(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                comm.send("x", dest=1)
            elif comm.rank == 1:
                comm.recv(source=0)

        t1 = Simulation(nprocs=3, policy="random", seed=5).run(main).trace.keys()
        t2 = Simulation(nprocs=3, policy="random", seed=5).run(main).trace.keys()
        assert t1 == t2
