"""What one simulated hop costs the host, as exact counters.

Wall time is a poor gate — it moves with the host and its load — so the
cost of a handoff is pinned by counts taken over a fault-free 32-rank
ring, each one decided by the program rather than by the host:

* **slices** per handoff: exactly one.  A slice is one step of a rank's
  coroutine (``Fiber._step``); a handoff picks a rank and steps it once,
  also when the pick is the rank that just blocked (``compute`` and poll
  wake-ups).  The only other slices unwind a rank: one per kill of a
  blocked rank and one per rank still parked at shutdown.
* **Enum lookups** per ring iteration: none.  On CPython 3.11 every
  attribute lookup on an Enum class goes through ``EnumType.__getattr__``
  (110–160 ns, against ~30 ns for a plain class attribute), so the hop
  reads members from module constants.  Set-up (per rank, per run) may
  still spell ``SomeEnum.MEMBER``.
* **interpreted instructions** per handoff, counted by ``sys.settrace``
  opcode events in every Python frame of the run, generated code
  included (dataclass ``__init__`` methods, the payload sizers of
  ``repro.simmpi.util``): 1,355.4 untraced (bound: 1,369) and 1,445.4
  traced (bound: 1,460), on CPython 3.11, each bound the measured value
  plus 1 %.  This is the count that moves with every line the hop runs.
* **interpreted frames** in ``repro`` per handoff, counted by one
  ``sys.setprofile`` hook on the loop's thread, whose ``call`` events
  split in two by ``co_flags & CO_COROUTINE``:

  - *plain* frames — the point-to-point hop takes one frame per layer:
    ``Comm.send`` (which runs every send check itself) →
    ``Runtime.post_send`` (which sizes the payload, prices it and pushes
    the delivery event itself) → the delivery event,
    ``Runtime._deliver`` → ``MatchingEngine.deliver`` →
    ``Runtime._complete_recv`` (which completes the request, fills its
    status and wakes its owner itself), and ``Comm.irecv`` →
    ``Runtime.post_recv`` → ``MatchingEngine.post_recv`` on the other
    side.  A ring message is a value, so ``RingMsg.copy`` hands back a
    message of an immutable scalar, once per forward.  Each MPI entry
    point runs the per-call guard in its own frame, a plain
    ``CostModel`` is read rather than called, and a wait blocks on its
    request tuple.  It measures 19.5 (bound: 20.5), with the trace on
    or off: a traced call site appends one row of a declared shape.  A
    block costs one frame, ``SimProcess.block``, which returns one
    shared awaitable whose ``__await__`` is a C callable.  Generated
    code has no ``repro`` file, so it shows in the instruction count
    only.
  - *coroutine* frame events — each resume of a rank re-enters every
    coroutine on its stack (the ring's main, ``ft_recv_left``,
    ``waitany``, ``compute``): 4.9 per handoff (bound: 5.9).
* **C calls** per handoff — builtins, heap pushes and pops, the
  coroutine ``send`` — counted by the same hook: 23.9 untraced (bound:
  24.9), 29.8 traced (bound: 30.8), the difference being one
  ``list.append`` per record.

None of the interpreted counts may grow with the number of ranks: at
4,096 ranks each is within 0.5 of its 32-rank figure.  A frame or
instruction bound that fails prints the ten functions with the most
frames or instructions per handoff, so the failure names the layer that
grew.
"""

from __future__ import annotations

import enum
import inspect
import sys
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import pytest

import repro
from repro.core import RingConfig, Termination, make_ring_main
from repro.simmpi import Simulation
from repro.simmpi.fibers import Fiber, FiberState
from repro.simmpi.runtime import Runtime

NPROCS = 32
ITERS = 50
RING = make_ring_main(RingConfig(max_iter=ITERS, termination=Termination.NONE))
PACKAGE = str(Path(repro.__file__).resolve().parent)


def _ring(main=RING, trace: bool = False, nprocs: int = NPROCS, kills=()):
    sim = Simulation(nprocs=nprocs, trace_enabled=trace)
    for rank, at in kills:
        sim.kill(rank, at)
    return sim.run(main, on_deadlock="return")


# ----------------------------------------------------------------------
# One slice per handoff
# ----------------------------------------------------------------------


_COMPUTE_RING = make_ring_main(
    RingConfig(max_iter=ITERS, termination=Termination.NONE, work_per_iter=1e-6)
)
_KILLED_RING = make_ring_main(
    RingConfig(max_iter=ITERS, termination=Termination.ROOT_BCAST)
)


@pytest.mark.parametrize(
    "main, kills",
    [(RING, ()), (_COMPUTE_RING, ()), (_KILLED_RING, ((5, 2e-5), (9, 4e-5)))],
    ids=["ring", "ring-with-compute", "ring-with-kills"],
)
def test_one_slice_per_handoff(monkeypatch, main, kills):
    """Every handoff steps exactly one coroutine once; every other step
    unwinds a rank — a kill of a blocked rank, or a rank still parked
    when the run is torn down.  Integers the kernel decides: they hold on
    any host under any load."""
    steps = [0]
    unwinds = [0]
    step = Fiber._step
    kill_event = Runtime._kill_event
    shutdown = Runtime.shutdown

    def counted_step(fiber):
        steps[0] += 1
        step(fiber)

    def counted_kill_event(self, rank, time):
        fiber = self.procs[rank].fiber
        blocked = fiber.state is FiberState.BLOCKED
        kill_event(self, rank, time)
        unwinds[0] += blocked

    def counted_shutdown(self):
        unwinds[0] += sum(not p.fiber.finished() for p in self.procs)
        shutdown(self)

    monkeypatch.setattr(Fiber, "_step", counted_step)
    monkeypatch.setattr(Runtime, "_kill_event", counted_kill_event)
    monkeypatch.setattr(Runtime, "shutdown", counted_shutdown)
    result = _ring(main, kills=kills)
    assert result.failed_ranks == {rank for rank, _ in kills}
    assert (unwinds[0] > 0) is bool(kills), unwinds[0]
    assert steps[0] == result.perf.handoffs + unwinds[0], (
        f"{steps[0]} slices over {result.perf.handoffs} handoffs and "
        f"{unwinds[0]} unwinds"
    )


# ----------------------------------------------------------------------
# Interpreted work per hop
# ----------------------------------------------------------------------


def test_no_enum_lookup_per_ring_iteration(monkeypatch):
    """Fifty more ring iterations (3,200 more handoffs) look up no Enum
    member on its class: the hop reads module constants instead."""
    lookups = [0]
    getattribute = type.__getattribute__

    def counted(cls, name):
        lookups[0] += 1
        return getattribute(cls, name)

    def enum_lookups(iters: int) -> int:
        main = make_ring_main(
            RingConfig(max_iter=iters, termination=Termination.NONE)
        )
        lookups[0] = 0
        with monkeypatch.context() as patch:
            patch.setattr(enum.EnumType, "__getattribute__", counted, raising=False)
            _ring(main)
        return lookups[0]

    _ring()  # warm every lazily built cache
    short, long = enum_lookups(ITERS), enum_lookups(2 * ITERS)
    assert short > 0, "the counter saw no lookup at all: is it installed?"
    assert long - short == 0, (
        f"{long - short} Enum lookups in {ITERS} extra ring iterations "
        f"({short} at {ITERS} iterations, {long} at {2 * ITERS})"
    )


class HopCost(NamedTuple):
    """Per handoff: plain ``repro`` frames, ``repro`` coroutine-frame
    events and C calls, and the ten ``repro`` functions with the most
    frames, one per line."""

    plain: float
    coro: float
    c_calls: float
    top: str


def _hop_cost(trace: bool, nprocs: int = NPROCS, iters: int = ITERS) -> HopCost:
    """Count the ring's host work with one profile hook around the run."""
    plain = coro = c_calls = 0
    frames: Counter[str] = Counter()

    def count(frame, event, arg):
        nonlocal plain, coro, c_calls
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(PACKAGE):
                frames[code.co_qualname] += 1
                if code.co_flags & inspect.CO_COROUTINE:
                    coro += 1
                else:
                    plain += 1
        elif event == "c_call":
            c_calls += 1

    main = make_ring_main(RingConfig(max_iter=iters, termination=Termination.NONE))
    sim = Simulation(nprocs=nprocs, trace_enabled=trace)
    sys.setprofile(count)
    try:
        perf = sim.run(main).perf
    finally:
        sys.setprofile(None)
    h = perf.handoffs
    top = "\n".join(
        f"{n / h:8.2f}  {name}" for name, n in frames.most_common(10)
    )
    return HopCost(plain / h, coro / h, c_calls / h, top)


def _frames_message(cost: HopCost) -> str:
    return (
        f"{cost.plain:.2f} plain repro frames and {cost.coro:.2f} "
        f"coroutine-frame events per handoff; most frames per handoff:\n"
        f"{cost.top}"
    )


def test_frames_per_handoff():
    cost = _hop_cost(trace=False)
    assert cost.plain <= 20.5 and cost.coro <= 5.9, _frames_message(cost)


def test_frames_per_handoff_traced():
    cost = _hop_cost(trace=True)
    assert cost.plain <= 20.5 and cost.coro <= 5.9, _frames_message(cost)


def test_c_calls_per_handoff():
    cost = _hop_cost(trace=False)
    assert cost.c_calls <= 24.9, f"{cost.c_calls:.2f} C calls per handoff"


def test_c_calls_per_handoff_traced():
    cost = _hop_cost(trace=True)
    assert cost.c_calls <= 30.8, f"{cost.c_calls:.2f} C calls per handoff"


def _instructions(trace: bool) -> tuple[float, str]:
    """Interpreted instructions per handoff over a whole 20-iteration
    run, and the ten functions with the most of them, one per line."""
    ops: Counter[str] = Counter()

    def opcode(frame, event, arg):
        if event == "opcode":
            ops[frame.f_code.co_qualname] += 1
        return opcode

    def call(frame, event, arg):
        frame.f_trace_opcodes = True
        return opcode

    main = make_ring_main(RingConfig(max_iter=20, termination=Termination.NONE))
    sim = Simulation(nprocs=NPROCS, trace_enabled=trace)
    sys.settrace(call)
    try:
        perf = sim.run(main).perf
    finally:
        sys.settrace(None)
    h = perf.handoffs
    top = "\n".join(f"{n / h:8.1f}  {name}" for name, n in ops.most_common(10))
    return sum(ops.values()) / h, top


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="bytecode counts are CPython 3.11's"
)
@pytest.mark.parametrize("trace, bound", [(False, 1369), (True, 1460)],
                         ids=["untraced", "traced"])
def test_instructions_per_handoff(trace, bound):
    _ring()  # warm every lazily built cache (the payload sizers)
    per_handoff, top = _instructions(trace)
    assert per_handoff <= bound, (
        f"{per_handoff:.1f} interpreted instructions per handoff; most "
        f"per handoff:\n{top}"
    )


def test_hop_cost_is_flat_in_the_number_of_ranks():
    """An interpreted O(n) per operation shows here without a clock:
    128 times the ranks, the same frames and C calls per handoff."""
    small = _hop_cost(False, nprocs=NPROCS, iters=5)
    large = _hop_cost(False, nprocs=128 * NPROCS, iters=5)
    for name, s, n in zip(
        ("plain repro frames", "coroutine-frame events", "C calls"),
        small[:3],
        large[:3],
    ):
        assert n <= s + 0.5, (
            f"{name} per handoff: {s:.2f} at {NPROCS} ranks, "
            f"{n:.2f} at {128 * NPROCS}; most frames per handoff at "
            f"{128 * NPROCS} ranks:\n{large.top}"
        )
