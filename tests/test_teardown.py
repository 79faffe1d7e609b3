"""A finished simulation is freed by reference counting alone.

Sweeps run thousands of simulations back to back in one process.  If a
finished run were cyclic garbage, only a full collection would free it,
and peak RSS would grow with the number of runs between collections.  So
``Simulation.run`` breaks every reference cycle through the run on every
exit path — completion, deadlock, abort, budget overrun, application
error — while keeping the result and ``sim.runtime.procs[i]`` (``fiber``,
``now``, ``failed_at``) inspectable.

:func:`cyclic_leftovers` is the instrument: with the collector off it
runs one scenario, drops the ``Simulation`` and the result, and lists
every ``repro`` object that a collection then finds unreachable.
"""

from __future__ import annotations

import gc
import threading
import weakref
from collections import Counter
from typing import Any, Callable

import pytest

from repro.core import RingConfig, Termination, make_ring_main
from repro.faults import KillAtCall, KillAtProbe, KillAtTime
from repro.parallel import AppScenario, RingScenario
from repro.simmpi import (
    ErrorHandler,
    Simulation,
    SimulationDeadlock,
    SimulationError,
    wait,
)
from repro.simmpi.nbcoll import ibarrier
from repro.simmpi.runtime import SimulationLimitExceeded

#: ``build() -> (Simulation, main)``.
Build = Callable[[], "tuple[Simulation, Any]"]


def _run_and_drop(build: Build, raises: type[BaseException] | None) -> weakref.ref:
    sim, main = build()
    ref = weakref.ref(sim.runtime)
    if raises is None:
        sim.run(main, on_deadlock="return")
    else:
        with pytest.raises(raises):
            sim.run(main)
    return ref


def cyclic_leftovers(
    build: Build, raises: type[BaseException] | None = None
) -> tuple[dict[str, int], bool]:
    """Run one scenario with the collector off and drop everything.

    Returns the ``repro`` objects a collection then finds unreachable
    (type name -> count), and whether the run's ``Runtime`` was still
    alive before that collection.  Both are empty / ``False`` when
    reference counting alone frees the run.
    """
    gc.collect()
    gc.disable()
    try:
        ref = _run_and_drop(build, raises)
        runtime_alive = ref() is not None
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        found = Counter(
            f"{type(o).__module__}.{type(o).__qualname__}"
            for o in gc.garbage
            if type(o).__module__.startswith("repro")
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    return dict(found), runtime_alive


# -- scenarios -----------------------------------------------------------


def _ring(termination: str, **kw: Any) -> Build:
    return RingScenario(nprocs=6, iters=3, termination=termination, **kw)


def _with(build: Build, *injectors: Any) -> Build:
    def scenario() -> tuple[Simulation, Any]:
        sim, main = build()
        for inj in injectors:
            sim.add_injector(inj)
        return sim, main

    return scenario


def _fresh(main: Any, nprocs: int = 4, **sim_kw: Any) -> Build:
    return lambda: (Simulation(nprocs=nprocs, **sim_kw), main)


async def _hang_main(mpi):
    if mpi.rank == 0:
        await mpi.comm_world.recv(source=1)  # never sent
    return "done"


async def _abort_main(mpi):
    if mpi.rank == 0:
        await mpi.compute(1e-6)
        mpi.abort(3)
    await mpi.comm_world.recv(source=0)


async def _error_main(mpi):
    comm = mpi.comm_world
    if mpi.rank == 1:
        req = comm.irecv(source=0)  # pending when the error strikes
        raise RuntimeError(f"app bug with {req.id} pending")
    await comm.recv(source=1)


async def _barrier_main(mpi):
    for _ in range(100):
        await mpi.comm_world.barrier()


async def _nbc_main(mpi):
    comm = mpi.comm_world
    comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
    await mpi.compute(comm.rank * 1e-6)
    await wait(ibarrier(comm))
    return mpi.now


_RING = make_ring_main(RingConfig(max_iter=3, termination=Termination.VALIDATE_ALL))

SCENARIOS: dict[str, tuple[Build, type[BaseException] | None]] = {
    **{
        f"ring_{t.value}": (_with(_ring(t.value), KillAtTime(2, 4e-6)), None)
        for t in Termination
    },
    "kill_by_time": (_with(_ring("validate_all"), KillAtTime(3, 2e-6)), None),
    "kill_by_probe": (
        _with(_ring("validate_all"), KillAtProbe(1, "post_recv", 2)), None
    ),
    "kill_by_call": (_with(_ring("root_bcast"), KillAtCall(4, 5)), None),
    "deadlock_return": (_fresh(_hang_main, 2), None),
    "deadlock_raise": (_fresh(_hang_main, 2), SimulationDeadlock),
    "abort": (_fresh(_abort_main, 3), None),
    "app_error": (_fresh(_error_main, 3), SimulationError),
    "budget_overrun": (
        _fresh(_barrier_main, 4, max_events=50), SimulationLimitExceeded
    ),
    **{
        f"protocol_{p}": (
            _with(
                RingScenario(nprocs=4, iters=3, protocol=p), KillAtTime(2, 3e-6)
            ),
            None,
        )
        for p in ("rts", "shrink_repair", "replication", "partial_restart")
    },
    **{
        f"app_{a}": (AppScenario(app=a, nprocs=4, size=4, steps=2), None)
        for a in ("heat1d", "ring_allreduce", "abft_matvec", "manager_worker")
    },
    "nbcoll": (_fresh(_nbc_main, 5), None),
    "trace_cap": (_fresh(_RING, 4, trace_cap=10), None),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_finished_run_leaves_no_cyclic_garbage(name):
    build, raises = SCENARIOS[name]
    found, runtime_alive = cyclic_leftovers(build, raises)
    assert found == {}, f"{name}: objects only a collection frees: {found}"
    assert not runtime_alive, f"{name}: the Runtime outlived its references"


def test_a_run_stays_inspectable_after_teardown():
    sim = Simulation(nprocs=4)
    sim.kill(2, at_time=2e-6)
    result = sim.run(_RING, on_deadlock="return")
    procs = sim.runtime.procs
    assert [p.fiber.finished() for p in procs] == [True] * 4
    assert procs[2].failed_at == 2e-6
    assert [p.now for p in procs] == [o.final_time for o in result.outcomes]
    assert result.value(0)["iterations_completed"] == 3
    assert result.failed_ranks == {2} and len(result.trace) > 0


def test_an_application_error_keeps_its_traceback():
    sim = Simulation(nprocs=3)
    with pytest.raises(SimulationError) as info:
        sim.run(_error_main)
    error = info.value.__cause__
    assert isinstance(error, RuntimeError)
    frames = [tb.tb_frame.f_code.co_name for tb in _walk(error.__traceback__)]
    assert "_error_main" in frames


def _walk(tb):
    while tb is not None:
        yield tb
        tb = tb.tb_next


class _Value:
    pass


def test_a_run_starts_no_thread_and_pins_no_finished_fiber():
    """Every rank is a coroutine stepped on the caller's thread: a
    256-rank run starts no OS thread (a campaign batch neither:
    ``tests/test_fiber_lifecycle.py``), and nothing keeps a finished
    rank's return value alive once the run is dropped."""
    before = threading.enumerate()
    sim, main = RingScenario(nprocs=256, iters=3)()
    assert not sim.run(main).hung
    assert threading.enumerate() == before

    values = []

    async def main(mpi):
        await mpi.compute(1e-6)  # a value returned after a block
        value = _Value()
        values.append(weakref.ref(value))
        return value

    Simulation(nprocs=3).run(main)
    assert [ref() for ref in values] == [None] * 3
