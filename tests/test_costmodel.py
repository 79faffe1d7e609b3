"""Unit tests for the LogGP-style cost models."""

from __future__ import annotations

import pytest

from repro.core import RingConfig, Termination, make_ring_main
from repro.simmpi import (
    DEFAULT_COST,
    ZERO_COST,
    CostModel,
    JitteredCostModel,
    Simulation,
)


class TestCostModel:
    def test_defaults_positive(self):
        assert DEFAULT_COST.latency > 0
        assert DEFAULT_COST.byte_cost > 0
        assert DEFAULT_COST.overhead > 0

    def test_zero_cost_is_free(self):
        assert ZERO_COST.transit_time(0, 1, 10_000) == 0.0
        assert ZERO_COST.send_overhead(0, 1, 10_000) == 0.0
        assert ZERO_COST.recv_overhead(0, 1, 10_000) == 0.0

    def test_transit_scales_with_bytes(self):
        m = CostModel(latency=1e-6, byte_cost=1e-9)
        small = m.transit_time(0, 1, 8)
        big = m.transit_time(0, 1, 8_000_000)
        assert big > small
        assert big == pytest.approx(1e-6 + 8_000_000 * 1e-9)

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            CostModel(latency=-1.0)
        with pytest.raises(ValueError):
            CostModel(byte_cost=-1.0)
        with pytest.raises(ValueError):
            CostModel(overhead=-1.0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            DEFAULT_COST.latency = 5.0  # type: ignore[misc]


class TestTheKernelReadsOnlyAPlainModelInline:
    """The hop reads ``o``, ``L`` and ``G`` off a model whose type is
    exactly :class:`CostModel`, decided when the run starts; any other
    model's methods are called."""

    @pytest.mark.parametrize("installed", ["constructor", "configure"])
    def test_an_overridden_transit_time_still_sets_the_virtual_time(
        self, installed
    ):
        class SlowWire(CostModel):
            def transit_time(self, src: int, dst: int, nbytes: int) -> float:
                return 1e-3

        async def main(mpi):
            comm = mpi.comm_world
            if mpi.rank == 0:
                comm.send(1, 1)
            else:
                await comm.recv(source=0)
            return mpi.now

        if installed == "constructor":
            sim = Simulation(nprocs=2, cost=SlowWire())
        else:
            sim = Simulation(nprocs=2).configure(cost=SlowWire())
        result = sim.run(main)
        o = SlowWire().overhead
        assert result.final_time == pytest.approx(o + 1e-3)
        assert result.value(1) == pytest.approx(o + 1e-3 + o)

    @pytest.mark.parametrize("amplitude", [0.0, 0.5])
    def test_a_jittered_model_installed_by_configure_is_called(self, amplitude):
        """``Simulation.configure`` swaps the model in after the kernel
        is built (the fuzzer's path).  With zero amplitude the trace is
        the plain model's, byte for byte; with jitter it is the trace of
        the same model passed to the constructor."""
        spec = dict(latency=3e-6, byte_cost=2e-9, overhead=5e-7)
        main = make_ring_main(
            RingConfig(max_iter=4, termination=Termination.ROOT_BCAST)
        )

        def trace(cost: CostModel, configured: bool):
            if configured:
                sim = Simulation(nprocs=6).configure(cost=cost)
            else:
                sim = Simulation(nprocs=6, cost=cost)
            sim.kill(3, 2e-5)
            return sim.run(main, on_deadlock="return").trace.keys()

        def jittered() -> JitteredCostModel:
            return JitteredCostModel(
                **spec, jitter_seed=7, overhead_jitter=amplitude,
                latency_jitter=amplitude, byte_cost_jitter=amplitude,
            )

        configured = trace(jittered(), configured=True)
        assert configured == trace(jittered(), configured=False)
        assert (configured == trace(CostModel(**spec), False)) is (
            amplitude == 0.0
        )



class NaNWire(CostModel):
    """A model whose every message would arrive at a NaN time."""

    def transit_time(self, src: int, dst: int, nbytes: int) -> float:
        return float("nan")


class TestANaNDeliveryTimeChangesNothing:
    """A send whose delivery time is NaN is refused before it touches
    any state: no counter, trace row, channel clamp, message id, event
    or sender clock moves, so the refused message leaves no phantom."""

    @staticmethod
    def _state(mpi):
        rt = mpi.runtime
        return (
            rt.perf.messages_sent,
            rt.trace.keys(),
            dict(rt._channel_last),
            rt._msg_seq,
            len(rt.events),
            mpi.now,
        )

    @pytest.mark.parametrize("path", ["send", "send_am"])
    def test_the_refused_send_leaves_no_trace(self, path):
        async def main(mpi):
            if mpi.rank == 1:
                return None
            comm = mpi.comm_world
            await mpi.compute(1e-6)  # a clock that is not zero
            before = self._state(mpi)
            with pytest.raises(ValueError, match="NaN"):
                if path == "send":
                    comm.send(1, 1, 0)
                else:
                    mpi.runtime.send_am(0, 1, comm.context(), 1)
            return before, self._state(mpi)

        sim = Simulation(nprocs=2, cost=NaNWire(), trace_enabled=True)
        before, after = sim.run(main).value(0)
        assert after == before

    def test_the_refused_revoke_leaves_no_trace(self):
        # Nothing revoked, counted or paid: not even the revoker's own
        # (rank, cid) entry, which takes effect before any notice leaves.
        async def main(mpi):
            if mpi.rank != 0:
                return None
            comm = mpi.comm_world
            await mpi.compute(1e-6)
            revoked = mpi.runtime._revoked
            before = (self._state(mpi), set(revoked))
            with pytest.raises(ValueError, match="NaN"):
                comm.revoke()
            return before, (self._state(mpi), set(revoked))

        sim = Simulation(nprocs=3, cost=NaNWire(), trace_enabled=True)
        before, after = sim.run(main).value(0)
        assert after == before
