"""Serializable failure schedules and new-collective coverage."""

from __future__ import annotations

import json

import pytest

from repro.faults import FailureSchedule, KillSpec
from repro.simmpi import Simulation
from tests.conftest import run_sim


async def busy_main(mpi):
    for _ in range(10):
        mpi.probe_point("tick")
        await mpi.compute(1e-7)
    return "done"


class TestKillSpec:
    def test_time_trigger_requires_time(self):
        with pytest.raises(ValueError):
            KillSpec(trigger="time", rank=0)

    def test_probe_trigger_requires_probe(self):
        with pytest.raises(ValueError):
            KillSpec(trigger="probe", rank=0)

    def test_call_trigger_requires_call_no(self):
        with pytest.raises(ValueError):
            KillSpec(trigger="call", rank=0)

    def test_unknown_trigger(self):
        with pytest.raises(ValueError):
            KillSpec(trigger="voodoo", rank=0)

    def test_roundtrip_each_kind(self):
        specs = [
            KillSpec(trigger="time", rank=2, time=1.5e-6),
            KillSpec(trigger="probe", rank=0, probe="post_recv", hit=2),
            KillSpec(trigger="call", rank=1, call_no=17, op="send"),
        ]
        for spec in specs:
            assert KillSpec.from_dict(spec.to_dict()) == spec

    def test_json_compatible(self):
        spec = KillSpec(trigger="probe", rank=3, probe="tick", hit=4)
        blob = json.dumps(spec.to_dict())
        assert KillSpec.from_dict(json.loads(blob)) == spec


class TestFailureSchedule:
    def test_chainable_builders(self):
        sched = (
            FailureSchedule()
            .at_time(1, 2.0)
            .at_probe(2, "tick", hit=3)
            .at_call(3, 5)
        )
        assert len(sched) == 3
        assert sched.victims() == {1, 2, 3}

    def test_roundtrip(self):
        sched = FailureSchedule().at_time(1, 2.0).at_probe(0, "x")
        again = FailureSchedule.from_dict(sched.to_dict())
        assert again.to_dict() == sched.to_dict()

    def test_schedule_drives_simulation(self):
        sched = FailureSchedule().at_probe(1, "tick", hit=4).at_time(2, 5e-7)
        r = run_sim(busy_main, 4, injectors=[sched.injector()],
                    on_deadlock="return")
        assert r.failed_ranks == {1, 2}
        assert r.value(0) == "done"

    def test_replay_is_identical(self):
        blob = json.dumps(
            FailureSchedule().at_probe(1, "tick", hit=2).to_dict()
        )

        def run_once():
            sched = FailureSchedule.from_dict(json.loads(blob))
            sim = Simulation(nprocs=3)
            sim.add_injector(sched.injector())
            return sim.run(busy_main, on_deadlock="return")

        a, b = run_once(), run_once()
        assert a.trace.keys() == b.trace.keys()

    def test_from_specs(self):
        specs = [KillSpec(trigger="time", rank=0, time=1.0)]
        assert FailureSchedule.from_specs(specs).kills == specs


class TestNewCollectives:
    def test_exscan(self):
        async def main(mpi):
            return await mpi.comm_world.exscan(mpi.rank + 1, "sum")

        r = run_sim(main, 5)
        assert [r.value(i) for i in range(5)] == [None, 1, 3, 6, 10]

    def test_exscan_custom_op(self):
        async def main(mpi):
            return await mpi.comm_world.exscan(str(mpi.rank), lambda a, b: a + b)

        r = run_sim(main, 4)
        assert [r.value(i) for i in range(4)] == [None, "0", "01", "012"]

    def test_reduce_scatter(self):
        async def main(mpi):
            comm = mpi.comm_world
            values = [mpi.rank * 10 + j for j in range(comm.size)]
            return await comm.reduce_scatter(values)

        n = 4
        r = run_sim(main, n)
        for j in range(n):
            assert r.value(j) == sum(i * 10 + j for i in range(n))

    def test_reduce_scatter_wrong_length(self):
        from repro.simmpi import ErrorHandler, InvalidArgumentError

        async def main(mpi):
            comm = mpi.comm_world
            comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
            with pytest.raises(InvalidArgumentError):
                await comm.reduce_scatter([1])
            return "ok"

        r = run_sim(main, 3, on_deadlock="return")
        assert r.outcomes[0].value == "ok"

    def test_reduce_scatter_over_survivors(self):
        from repro.ft import comm_validate_all
        from repro.simmpi import ErrorHandler

        async def main(mpi):
            comm = mpi.comm_world
            comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
            if comm.rank == 1:
                await mpi.compute(1.0)
                return
            await mpi.compute(2.0)
            await comm_validate_all(comm)
            values = [10 + j for j in range(comm.size)]
            return await comm.reduce_scatter(values)

        r = run_sim(main, 4, kills=[(1, 0.5)])
        # Three survivors each contribute 10+j to slot j.
        assert r.value(0) == 3 * 10
        assert r.value(2) == 3 * 12
