"""Collective operations over the simulated point-to-point layer."""

from __future__ import annotations

import pytest

from repro.simmpi import ErrorHandler, InvalidArgumentError, RankFailStopError
from repro.simmpi.collectives import OPS, _binomial_children, _binomial_parent
from repro.ft import comm_validate_all
from tests.conftest import run_sim

SIZES = [1, 2, 3, 4, 5, 8, 13]


class TestBinomialTree:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 8, 16, 33])
    @pytest.mark.parametrize("root", [0, 1])
    def test_tree_is_consistent(self, m, root):
        if root >= m:
            pytest.skip("root outside tree")
        # Every non-root node's parent lists it as a child; the tree spans.
        seen = {root}
        for node in range(m):
            if node == root:
                assert _binomial_parent(node, root, m) is None
                continue
            parent = _binomial_parent(node, root, m)
            assert parent is not None
            assert node in _binomial_children(parent, root, m)
            seen.add(node)
        assert seen == set(range(m))

    @pytest.mark.parametrize("m", [2, 5, 9, 16])
    def test_no_cycles(self, m):
        for node in range(1, m):
            hops = 0
            cur: int | None = node
            while cur is not None:
                cur = _binomial_parent(cur, 0, m)
                hops += 1
                assert hops <= m
            assert hops <= m.bit_length() + 1


class TestBarrier:
    @pytest.mark.parametrize("n", SIZES)
    def test_barrier_synchronizes(self, n):
        async def main(mpi):
            comm = mpi.comm_world
            await mpi.compute(comm.rank * 1e-6)  # staggered arrival
            await comm.barrier()
            return mpi.now

        r = run_sim(main, n)
        times = [r.value(i) for i in range(n)]
        # Nobody leaves before the last arrival.
        assert min(times) >= (n - 1) * 1e-6


class TestBcast:
    @pytest.mark.parametrize("n", SIZES)
    def test_bcast_from_zero(self, n):
        async def main(mpi):
            comm = mpi.comm_world
            return await comm.bcast("payload" if comm.rank == 0 else None, root=0)

        r = run_sim(main, n)
        assert all(v == "payload" for v in r.values().values())

    def test_bcast_from_nonzero_root(self):
        async def main(mpi):
            comm = mpi.comm_world
            return await comm.bcast(comm.rank if comm.rank == 3 else None, root=3)

        r = run_sim(main, 6)
        assert all(v == 3 for v in r.values().values())

    def test_bcast_invalid_root(self):
        async def main(mpi):
            comm = mpi.comm_world
            comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
            with pytest.raises(InvalidArgumentError):
                await comm.bcast("x", root=77)
            return "ok"

        assert run_sim(main, 2).value(0) == "ok"


class TestReduceFamily:
    @pytest.mark.parametrize("n", SIZES)
    def test_reduce_sum(self, n):
        async def main(mpi):
            comm = mpi.comm_world
            return await comm.reduce(comm.rank + 1, "sum", root=0)

        r = run_sim(main, n)
        assert r.value(0) == n * (n + 1) // 2
        for i in range(1, n):
            assert r.value(i) is None

    @pytest.mark.parametrize("op,expect", [("max", 4), ("min", 0), ("prod", 0)])
    def test_reduce_ops(self, op, expect):
        async def main(mpi):
            return await mpi.comm_world.reduce(mpi.rank, op, root=0)

        assert run_sim(main, 5).value(0) == expect

    def test_reduce_custom_callable_order(self):
        # Non-commutative op: string concat must respect rank order.
        async def main(mpi):
            return await mpi.comm_world.reduce(
                str(mpi.rank), lambda a, b: a + b, root=0
            )

        assert run_sim(main, 6).value(0) == "012345"

    @pytest.mark.parametrize("n", SIZES)
    def test_allreduce(self, n):
        async def main(mpi):
            return await mpi.comm_world.allreduce(mpi.rank, "sum")

        r = run_sim(main, n)
        expect = n * (n - 1) // 2
        assert all(v == expect for v in r.values().values())

    def test_unknown_op_rejected(self):
        async def main(mpi):
            comm = mpi.comm_world
            comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
            with pytest.raises(InvalidArgumentError):
                await comm.allreduce(1, "bogus")
            return "ok"

        assert run_sim(main, 2).value(0) == "ok"

    def test_ops_registry(self):
        assert OPS["sum"](2, 3) == 5
        assert OPS["land"](1, 0) is False
        assert OPS["lor"](0, 1) is True
        assert OPS["band"](6, 3) == 2
        assert OPS["bor"](6, 3) == 7


class TestGatherScatter:
    @pytest.mark.parametrize("n", SIZES)
    def test_gather(self, n):
        async def main(mpi):
            return await mpi.comm_world.gather(mpi.rank * 2, root=0)

        r = run_sim(main, n)
        assert r.value(0) == [2 * i for i in range(n)]

    def test_gather_nonzero_root(self):
        async def main(mpi):
            return await mpi.comm_world.gather(mpi.rank, root=2)

        r = run_sim(main, 4)
        assert r.value(2) == [0, 1, 2, 3]
        assert r.value(0) is None

    @pytest.mark.parametrize("n", SIZES)
    def test_scatter(self, n):
        async def main(mpi):
            comm = mpi.comm_world
            values = [i * i for i in range(n)] if comm.rank == 0 else None
            return await comm.scatter(values, root=0)

        r = run_sim(main, n)
        assert [r.value(i) for i in range(n)] == [i * i for i in range(n)]

    def test_scatter_wrong_length(self):
        async def main(mpi):
            comm = mpi.comm_world
            comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
            if comm.rank == 0:
                with pytest.raises(InvalidArgumentError):
                    await comm.scatter([1], root=0)
            return "ok"

        r = run_sim(main, 3, on_deadlock="return")
        assert r.outcomes[0].value == "ok"


class TestAllgatherAlltoallScan:
    @pytest.mark.parametrize("n", SIZES)
    def test_allgather(self, n):
        async def main(mpi):
            return await mpi.comm_world.allgather(mpi.rank + 100)

        r = run_sim(main, n)
        expect = [100 + i for i in range(n)]
        assert all(v == expect for v in r.values().values())

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_alltoall(self, n):
        async def main(mpi):
            comm = mpi.comm_world
            out = await comm.alltoall([(comm.rank, j) for j in range(n)])
            return out

        r = run_sim(main, n)
        for i in range(n):
            assert r.value(i) == [(j, i) for j in range(n)]

    @pytest.mark.parametrize("n", SIZES)
    def test_scan(self, n):
        async def main(mpi):
            return await mpi.comm_world.scan(mpi.rank + 1, "sum")

        r = run_sim(main, n)
        for i in range(n):
            assert r.value(i) == (i + 1) * (i + 2) // 2


class TestCollectiveFailureSemantics:
    def test_collective_disabled_after_known_failure(self):
        async def main(mpi):
            comm = mpi.comm_world
            comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
            if comm.rank == 3:
                await mpi.compute(1.0)
                return
            await mpi.compute(2.0)
            with pytest.raises(RankFailStopError):
                await comm.barrier()
            return "disabled"

        r = run_sim(main, 4, kills=[(3, 0.5)], on_deadlock="return")
        assert all(r.value(i) == "disabled" for i in range(3))

    def test_validate_all_reenables_over_survivors(self):
        async def main(mpi):
            comm = mpi.comm_world
            comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
            if comm.rank == 2:
                await mpi.compute(1.0)
                return
            await mpi.compute(2.0)
            n = await comm_validate_all(comm)
            total = await comm.allreduce(1, "sum")
            gathered = await comm.gather(comm.rank, root=0)
            return (n, total, gathered)

        r = run_sim(main, 5, kills=[(2, 0.5)])
        n, total, gathered = r.value(0)
        assert n == 1
        assert total == 4
        assert gathered == [0, 1, None, 3, 4]
        assert r.value(1)[0:2] == (1, 4)

    def test_bcast_from_validated_root_is_proc_null(self):
        async def main(mpi):
            comm = mpi.comm_world
            comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
            if comm.rank == 0:
                await mpi.compute(1.0)
                return
            await mpi.compute(2.0)
            await comm_validate_all(comm)
            # Root 0 is dead+validated: bcast is a no-op returning input.
            return await comm.bcast("mine", root=0)

        r = run_sim(main, 3, kills=[(0, 0.5)])
        assert r.value(1) == "mine" and r.value(2) == "mine"

    def test_mid_collective_failure_errors_survivors(self):
        # Rank dies while inside the barrier: peers that must hear from it
        # error out (possibly not all — inconsistent return codes are
        # legitimate, the paper's §II point).
        async def main(mpi):
            comm = mpi.comm_world
            comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
            if comm.rank == 1:
                await mpi.compute(0.5)  # dies inside/near the barrier
            try:
                await comm.barrier()
                return "ok"
            except RankFailStopError:
                return "err"

        r = run_sim(main, 4, kills=[(1, 0.5)], on_deadlock="return")
        outcomes = [r.value(i) for i in r.completed_ranks]
        assert "err" in outcomes
