"""The simulation kernel: event loop, transport, failures, detection.

:class:`Runtime` wires every substrate piece together:

* runs the deterministic scheduler loop (runnable fibers first, then the
  earliest event; **deadlock is detected** when neither exists but alive
  processes remain blocked — the simulator's proof of a hang);
* implements the transport (send posting, per-channel in-order delivery,
  matching, receive completion) on the LogGP cost model;
* implements **fail-stop failures**: a killed process unwinds immediately
  and never communicates again; messages already injected into the network
  still arrive (wire semantics — the paper's Fig. 8 duplicate scenario
  depends on this);
* implements the **perfect failure detector**: every failure becomes known
  to every surviving observer after a per-observer detection latency, at
  which point the observer's pending receives involving the dead rank
  complete with ``MPI_ERR_RANK_FAIL_STOP`` and failure listeners (the
  consensus engine) are notified.

:class:`Simulation` is the user-facing facade; see its docstring for the
typical driver loop.
"""

from __future__ import annotations

import time as _time
from collections import deque
from dataclasses import dataclass
from functools import partial
from heapq import heappop, heappush
from typing import Any, Callable, Sequence

from ..perf import SESSION, PerfCounters
from .clock import EventQueue, VirtualClock
from .communicator import CONTEXTS_PER_COMM, CTX_AM, CTX_COLL, Comm
from .constants import ANY_SOURCE
from .costmodel import DEFAULT_COST, CostModel
from .errors import (
    ErrorClass,
    JobAborted,
    ProcessKilled,
    SimShutdown,
    SimulationDeadlock,
    SimulationError,
)
from .fibers import Fiber, FiberState
from .matching import Message
from .process import SimProcess
from .request import Request, Status
from .scheduler import SchedulingPolicy, make_policy
from .trace import (
    DEADLOCK, DELIVER, DETECT, FAILURE, RECV_COMPLETE, RECV_POST, REQ_ERROR_CID,
    REQ_ERROR_PEER, REVOKE, SEND_DROP, SEND_POST, SEND_POST_AM, Trace,
)
from .util import _FIXED_SCALAR, _SIZERS, ENVELOPE_BYTES, _sizer_for, payload_nbytes

# Per-event paths read Enum members from module constants (see
# ``repro.simmpi.fibers``).
_DONE = FiberState.DONE
_FAILED = FiberState.FAILED
_BLOCKED = FiberState.BLOCKED
_READY = FiberState.READY
_SUCCESS = ErrorClass.SUCCESS
#: Allocates a :class:`Status` without running its ``__init__``.
_new_status = object.__new__


class SimulationLimitExceeded(Exception):
    """The event or virtual-time budget was exhausted (runaway guard)."""


#: Type of a failure listener: ``fn(observer_rank, failed_world_rank, time)``.
FailureListener = Callable[[int, int, float], None]

#: Type of an active-message handler: ``fn(msg, time)``.
AMHandler = Callable[[Message, float], None]


class Runtime:
    """Internal simulation kernel (use :class:`Simulation` to drive it)."""

    def __init__(
        self,
        nprocs: int,
        *,
        cost: CostModel = DEFAULT_COST,
        policy: str | SchedulingPolicy = "rr",
        seed: int = 0,
        detection_latency: float | Callable[[int, int], float] = 0.0,
        trace_enabled: bool = True,
        trace_cap: int | None = None,
        max_events: int = 20_000_000,
        max_time: float = float("inf"),
    ) -> None:
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        self.nprocs = nprocs
        self.cost = cost
        #: ``type(cost) is CostModel``, decided by :meth:`loop`: the hop
        #: then reads ``o``, ``L`` and ``G`` off the model instead of
        #: calling its methods.  Any other model — a subclass, or the
        #: fuzzer's jittered one that ``Simulation.configure`` installs
        #: after construction — is called, in the same order as always.
        self._plain_cost = False
        self.seed = seed
        self.policy = make_policy(policy, seed)
        self.policy.reset()
        self.clock = VirtualClock()
        self.events = EventQueue()
        self.trace = Trace(enabled=trace_enabled, cap=trace_cap)
        self.perf = PerfCounters()
        self.max_events = max_events
        self.max_time = max_time
        self._detection_latency = detection_latency
        self.procs: list[SimProcess] = [SimProcess(self, r) for r in range(nprocs)]
        self._ready: deque[SimProcess] = deque()
        #: Ground-truth failed world ranks.
        self.failed: set[int] = set()
        #: Per-observer knowledge: observer world rank -> known failed set.
        self.known_by: dict[int, set[int]] = {r: set() for r in range(nprocs)}
        self._failure_listeners: dict[int, list[FailureListener]] = {}
        self._am_handlers: dict[tuple[int, int], AMHandler] = {}
        #: The contexts some rank has bound a handler on: a delivery on
        #: any other context (every point-to-point one) skips the lookup.
        self._am_contexts: set[int] = set()
        #: Progress engines of the layers above (agreement, ibarrier) by
        #: name, each created on first use by its module's ``engine_for``.
        self.engines: dict[str, Any] = {}
        self._channel_last: dict[tuple[int, int, int], float] = {}
        self._cid_registry: dict[tuple[int, int, Any], int] = {}
        self._next_cid = 1  # cid 0 is COMM_WORLD
        #: Per-observer revocation knowledge: (observer rank, cid) present
        #: means the observer has learned that the communicator was
        #: revoked (ULFM).  Like failure knowledge, revocation spreads
        #: with message latency — members learn at notice delivery time.
        self._revoked: set[tuple[int, int]] = set()
        self.abort_info: JobAborted | None = None
        self.deadlock: SimulationDeadlock | None = None
        self.injectors: list[Any] = []
        #: The injectors consulted at MPI-call and probe windows: those
        #: of :attr:`injectors` that can answer there, chosen once when
        #: :meth:`loop` arms them (an event-only injector such as
        #: ``KillAtTime`` is armed and never polled).
        self.polled_injectors: list[Any] = []
        #: Last message / request id handed out: per-simulation, so equal
        #: seeds give equal traces.  Bumped inline where ids are taken.
        self._msg_seq = 0
        self._req_seq = 0
        #: One ``world rank -> comm rank`` map per distinct group tuple,
        #: shared by every :class:`Comm` handle holding that group.
        self._group_ranks: dict[tuple[int, ...], dict[int, int]] = {}
        self._last_group: tuple[tuple[int, ...], dict[int, int]] | None = None
        world = tuple(range(nprocs))
        for p in self.procs:
            p.comm_world = Comm(p, 0, world, name="world")

    # ------------------------------------------------------------------
    # Scheduling plumbing
    # ------------------------------------------------------------------

    def schedule_wake(self, proc: SimProcess, time: float, label: str) -> None:
        """Schedule *proc* to wake at virtual *time*."""
        self.events.schedule(time, partial(proc.wake, time, label))

    # ------------------------------------------------------------------
    # Failure knowledge
    # ------------------------------------------------------------------

    def is_known_failed(self, observer: int, world_rank: int) -> bool:
        """Does *observer* currently know that *world_rank* failed?"""
        return world_rank in self.known_by[observer]

    def known_failed_set(self, observer: int) -> frozenset[int]:
        """The set of world ranks *observer* knows to have failed."""
        return frozenset(self.known_by[observer])

    def add_failure_listener(self, observer: int, fn: FailureListener) -> None:
        """Notify *fn* whenever *observer* learns of a failure."""
        self._failure_listeners.setdefault(observer, []).append(fn)

    def detection_delay(self, observer: int, failed: int) -> float:
        if callable(self._detection_latency):
            return float(self._detection_latency(observer, failed))
        return float(self._detection_latency)

    # ------------------------------------------------------------------
    # Fail-stop machinery
    # ------------------------------------------------------------------

    def kill_now(self, proc: SimProcess) -> None:
        """Fail-stop *proc* at its current local time, from its own slice.

        Used by fault injectors at MPI-call and probe-point windows.
        Raises :class:`ProcessKilled` (never returns normally).
        """
        self._mark_failed(proc, proc.now)
        raise ProcessKilled()

    def kill_at(self, rank: int, time: float) -> None:
        """Schedule a fail-stop of *rank* at virtual *time* (event path)."""
        self.events.schedule(time, lambda: self._kill_event(rank, time))

    def _kill_event(self, rank: int, time: float) -> None:
        proc = self.procs[rank]
        if not proc.alive():
            return
        if proc.fiber is not None and proc.fiber.finished():
            return  # the process already exited; nothing left to kill
        self._mark_failed(proc, time)
        fiber = proc.fiber
        assert fiber is not None
        if fiber.state is _BLOCKED:
            # Unwind it now so it never runs application code again.
            fiber.kill_pending = True
            fiber._step()
        elif fiber.state in (FiberState.READY, FiberState.NEW):
            fiber.kill_pending = True  # unwinds when next scheduled
        # RUNNING is impossible: events execute only between fiber slices.

    def _mark_failed(self, proc: SimProcess, time: float) -> None:
        proc.failed_at = time
        self.failed.add(proc.rank)
        if self.trace.enabled:
            self.trace.add((time, FAILURE, proc.rank))
        failed = proc.rank
        for observer in range(self.nprocs):
            if observer == failed:
                continue
            when = time + self.detection_delay(observer, failed)
            self.events.schedule(
                when, partial(self._detect_event, observer, failed, when)
            )

    def _detect_event(self, observer: int, failed: int, time: float) -> None:
        obs = self.procs[observer]
        if not obs.alive():
            return
        if failed in self.known_by[observer]:
            return
        self.known_by[observer].add(failed)
        if self.trace.enabled:
            self.trace.add((time, DETECT, observer, failed))
        self._sweep_pending(obs, failed, time)
        for fn in self._failure_listeners.get(observer, []):
            fn(observer, failed, time)

    def _sweep_pending(self, obs: SimProcess, failed: int, time: float) -> None:
        """Error the observer's pending operations that involve *failed*.

        This implements the paper's "all posted receive operations
        involving that peer will return an error in the class
        ``MPI_ERR_RANK_FAIL_STOP``" — the watchdog-Irecv mechanism.
        """
        trace = self.trace
        for req in list(obs.engine.pending_recvs()):
            hit = False
            if req.peer == failed:
                hit = True
            elif req.peer == ANY_SOURCE and req.comm is not None:
                cr = req.comm.comm_rank_of_world(failed)
                if cr is not None and cr not in req.comm.recognized:
                    hit = True
            elif (
                req.comm is not None
                and req.context is not None
                and req.context % CONTEXTS_PER_COMM == CTX_COLL
                and req.comm.comm_rank_of_world(failed) is not None
            ):
                # RTS rule: once any member of the communicator fails,
                # *all* collective operations return an error until the
                # collective validate — including receives inside a
                # collective that are addressed to still-alive peers
                # (those peers may have already abandoned the collective).
                hit = True
            if hit:
                obs.engine.cancel_recv(req)
                src = req.peer if req.peer != ANY_SOURCE else failed
                # ``peer`` is a world rank; the status reports a comm rank.
                src = req.comm._ranks.get(src, src)
                if trace.enabled:
                    trace.add((
                        time, REQ_ERROR_PEER, obs.rank,
                        req.id, failed, req.kind.value,
                    ))
                req.complete(
                    time,
                    error=ErrorClass.ERR_RANK_FAIL_STOP,
                    status=Status(source=src, tag=req.tag,
                                  error=ErrorClass.ERR_RANK_FAIL_STOP),
                )

    # ------------------------------------------------------------------
    # Revocation (ULFM ``MPI_Comm_revoke``)
    # ------------------------------------------------------------------

    def is_revoked(self, observer: int, cid: int) -> bool:
        """Has *observer* learned that communicator *cid* was revoked?"""
        return (observer, cid) in self._revoked

    def revoke_comm(self, proc: SimProcess, comm: Comm) -> None:
        """Revoke *comm* on behalf of *proc* and notify the other members.

        Revocation is local-immediate at the caller and propagates to the
        remaining members as control messages (one per member, paid for
        by the caller like any eager send).  On arrival the member's
        pending receives on the communicator's contexts complete with
        ``MPI_ERR_REVOKED`` — the interrupt that kicks every rank out of
        a broken communication pattern so they can converge on shrink.
        """
        if (proc.rank, comm.cid) in self._revoked:
            return
        # Every notice is priced before any state changes, so a NaN
        # delivery time is refused with nothing revoked, counted or paid.
        known = self.known_by[proc.rank]
        now = proc.now
        notices: list[tuple[int, float]] = []
        for world_rank in comm.group:
            if world_rank == proc.rank or world_rank in known:
                continue
            now += self.cost.overhead
            deliver = now + self.cost.transit_time(proc.rank, world_rank, 1)
            if deliver != deliver:
                raise ValueError("event time must not be NaN")
            notices.append((world_rank, deliver))
        self._revoke_event(proc.rank, comm.cid, proc.now)
        proc.now = now
        for world_rank, deliver in notices:
            self.perf.messages_sent += 1
            self.events.schedule(
                deliver, partial(self._revoke_event, world_rank, comm.cid, deliver)
            )

    def _revoke_event(self, rank: int, cid: int, time: float) -> None:
        """A revocation notice for *cid* takes effect at *rank*."""
        if (rank, cid) in self._revoked:
            return
        proc = self.procs[rank]
        if not proc.alive():
            return
        self._revoked.add((rank, cid))
        trace = self.trace
        if trace.enabled:
            trace.add((time, REVOKE, rank, cid))
        lo = cid * CONTEXTS_PER_COMM
        am_ctx = lo + CTX_AM
        for req in list(proc.engine.pending_recvs()):
            ctx = req.context
            # The AM context keeps working: consensus (validate / agree)
            # must still run on a revoked communicator to reach shrink.
            if ctx is None or not lo <= ctx < lo + CONTEXTS_PER_COMM:
                continue
            if ctx == am_ctx:
                continue
            proc.engine.cancel_recv(req)
            if trace.enabled:
                trace.add(
                    (time, REQ_ERROR_CID, rank, req.id, cid, req.kind.value)
                )
            # ``peer`` is a world rank or ANY_SOURCE; report a comm rank.
            src = req.comm._ranks.get(req.peer, req.peer)
            req.complete(
                time,
                error=ErrorClass.ERR_REVOKED,
                status=Status(source=src, tag=req.tag,
                              error=ErrorClass.ERR_REVOKED),
            )

    # ------------------------------------------------------------------
    # Fault injection hooks
    # ------------------------------------------------------------------

    def check_injection(
        self, proc: SimProcess, op: str | None = None, probe: str | None = None
    ) -> None:
        """Consult every polled injector at an MPI-call or probe window."""
        if not self.polled_injectors or not proc.alive():
            return
        for inj in self.polled_injectors:
            if inj.should_kill(proc, op=op, probe=probe):
                self.kill_now(proc)

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def post_send(
        self,
        proc: SimProcess,
        dst_world: int,
        tag: int,
        context: int,
        payload: Any,
        nbytes: int | None = None,
    ) -> None:
        """Inject one message into the network from *proc* (eager send).

        Every point-to-point hop runs this, so it sizes the payload
        (:func:`~repro.simmpi.util.payload_nbytes`), prices the message
        and schedules its delivery (``EventQueue.schedule``) in its own
        frame.
        """
        if nbytes is None:
            t = type(payload)
            size = _FIXED_SCALAR.get(t)
            if size is None:
                size = (_SIZERS.get(t) or _sizer_for(t))(payload)
            size += ENVELOPE_BYTES
        else:
            size = nbytes
        src = proc.rank
        cost = self.cost
        if self._plain_cost:
            now = proc.now + cost.overhead
            deliver = now + (cost.latency + size * cost.byte_cost)
        else:
            now = proc.now + cost.send_overhead(src, dst_world, size)
            deliver = now + cost.transit_time(src, dst_world, size)
        if deliver != deliver:  # refused before any state changes
            raise ValueError("event time must not be NaN")
        proc.now = now
        key = (src, dst_world, context)
        channel_last = self._channel_last
        prev = channel_last.get(key, -1.0)
        if prev > deliver:
            deliver = prev  # per-channel in-order delivery
        channel_last[key] = deliver
        msg_id = self._msg_seq = self._msg_seq + 1
        msg = Message(
            src, dst_world, tag, context, payload, size, msg_id, now, deliver,
        )
        self.perf.messages_sent += 1
        trace = self.trace
        if trace.enabled:
            trace.add((now, SEND_POST, src, dst_world, tag, context, size, msg_id))
        events = self.events
        seq = events._seq
        events._seq = seq + 1
        heappush(events._heap, (deliver, seq, partial(self._deliver, msg)))

    def _deliver(self, msg: Message) -> None:
        dst = self.procs[msg.dst]
        perf = self.perf
        trace = self.trace
        if dst.failed_at is not None:
            perf.messages_dropped += 1
            if trace.enabled:
                trace.add((
                    msg.deliver_time, SEND_DROP, msg.src,
                    msg.dst, msg.tag, msg.msg_id,
                ))
            return
        perf.deliveries += 1
        if trace.enabled:
            trace.add((
                msg.deliver_time, DELIVER, msg.dst,
                msg.src, msg.tag, msg.context, msg.msg_id,
            ))
        if msg.context in self._am_contexts:
            handler = self._am_handlers.get((msg.dst, msg.context))
            if handler is not None:
                handler(msg, msg.deliver_time)
                return
        req = dst.engine.deliver(msg)
        if req is not None:
            perf.messages_matched += 1
            self._complete_recv(req, msg, msg.deliver_time)
        else:
            perf.messages_unexpected += 1

    def post_recv(self, comm: Comm, req: Request, context: int | None = None) -> None:
        """Post a receive request on *comm* (or an explicit context)."""
        ctx = comm.context() if context is None else context
        req.context = ctx
        proc = req.owner
        trace = self.trace
        if trace.enabled:
            trace.add((proc.now, RECV_POST, proc.rank, req.peer, req.tag, ctx, req.id))
        msg = proc.engine.post_recv(req, ctx)
        if msg is not None:
            self.perf.messages_matched += 1
            t = msg.deliver_time  # max(proc.now, t), without the builtin
            self._complete_recv(req, msg, t if t > proc.now else proc.now)

    def _complete_recv(self, req: Request, msg: Message, time: float) -> None:
        """Complete a matched receive and wake its owner if it waits.

        ``Request.complete``, ``Status.__init__`` and ``SimProcess.wake``
        for the one outcome a match has, success, in this frame: every
        hop ends here.
        """
        src, tag, nbytes = msg.src, msg.tag, msg.nbytes
        cost = self.cost
        if self._plain_cost:
            t = time + cost.overhead
        else:
            t = time + cost.recv_overhead(src, msg.dst, nbytes)
        source = src
        comm = req.comm
        if comm is not None:
            cr = comm._ranks.get(src)
            if cr is not None:
                source = cr
        trace = self.trace
        if trace.enabled:
            trace.add((t, RECV_COMPLETE, msg.dst, src, tag, req.id, msg.msg_id))
        if req.done:
            raise RuntimeError(f"request {req.id} completed twice")
        req.done = True
        # ``Status(source, tag, _SUCCESS, nbytes)``, without the frame of
        # ``Status.__init__``: keep the two in step.
        status = req.status = _new_status(Status)
        status.source = source
        status.tag = tag
        status.error = _SUCCESS
        status.count = nbytes
        status.cancelled = False
        req.data = msg.payload
        req.completion_time = t
        if req.waited:
            req.waited = False
            owner = req.owner
            if t > owner.now:
                owner.now = t
            fiber = owner.fiber
            if fiber.state is _BLOCKED:
                fiber.state = _READY
                fiber.block_reason = ""
                self._ready.append(owner)

    def cancel_request(self, req: Request) -> None:
        """Cancel a pending posted receive (MPI_Cancel semantics)."""
        if req.done:
            return
        if req.owner.engine.cancel_recv(req):
            req.complete(req.owner.now, status=Status(cancelled=True))

    # ------------------------------------------------------------------
    # Active-message layer (consensus protocol transport)
    # ------------------------------------------------------------------

    def register_am_handler(self, rank: int, context: int, fn: AMHandler) -> None:
        """Route deliveries on (rank, context) to *fn* instead of matching.

        A (rank, context) pair has one handler: binding it again would
        hand one layer's messages to another's, so it raises.
        """
        key = (rank, context)
        if key in self._am_handlers:
            raise RuntimeError(
                f"AM context {context} on rank {rank} is already bound"
            )
        self._am_handlers[key] = fn
        self._am_contexts.add(context)

    def send_am(
        self, src_rank: int, dst_world: int, context: int, payload: Any,
        nbytes: int | None = None,
    ) -> None:
        """Send an active message *on behalf of* ``src_rank``.

        Unlike :meth:`post_send` this may be called from event context (the
        AM handler of another delivery); the sender's local clock is not
        advanced — the progress engine, not the application, pays the cost.
        A fan-out of one payload passes its size as *nbytes*, measured once.
        """
        src = self.procs[src_rank]
        if not src.alive():
            return
        size = payload_nbytes(payload) if nbytes is None else nbytes
        t0 = src.now
        if self.clock.now > t0:
            t0 = self.clock.now
        deliver = t0 + self.cost.overhead + self.cost.transit_time(src_rank, dst_world, size)
        if deliver != deliver:  # refused before any state changes
            raise ValueError("event time must not be NaN")
        key = (src_rank, dst_world, context)
        prev = self._channel_last.get(key, -1.0)
        if prev > deliver:
            deliver = prev  # per-channel in-order delivery
        self._channel_last[key] = deliver
        msg_id = self._msg_seq = self._msg_seq + 1
        msg = Message(
            src_rank, dst_world, 0, context, payload, size, msg_id, t0, deliver,
        )
        self.perf.messages_sent += 1
        trace = self.trace
        if trace.enabled:
            trace.add((
                t0, SEND_POST_AM, src_rank,
                dst_world, 0, context, size, msg_id, True,
            ))
        self.events.schedule(deliver, partial(self._deliver, msg))

    # ------------------------------------------------------------------
    # Communicator ids and groups
    # ------------------------------------------------------------------

    def group_ranks(self, group: tuple[int, ...]) -> dict[int, int]:
        """The shared ``world rank -> comm rank`` map of *group*.

        One dict per distinct tuple value, however many handles hold it
        (a dict per handle would be O(n^2) memory for the world alone).
        Hashing a tuple is O(n), so the most recent group is also
        remembered by identity: the n world handles and every ``dup``
        pass the very same tuple object.
        """
        last = self._last_group
        if last is not None and last[0] is group:
            return last[1]
        ranks = self._group_ranks.get(group)
        if ranks is None:
            # Reversed, so the first slot wins if a world rank repeats —
            # what tuple.index answers.
            n = len(group)
            ranks = dict(zip(reversed(group), range(n - 1, -1, -1)))
            self._group_ranks[group] = ranks
        self._last_group = (group, ranks)
        return ranks

    def cid_for(self, parent_cid: int, op_index: int, color: Any = None) -> int:
        """Deterministically allocate/lookup a context id for a comm-creation
        operation: every member passes the same (parent, op_index, color)
        and receives the same cid."""
        key = (parent_cid, op_index, color)
        cid = self._cid_registry.get(key)
        if cid is None:
            cid = self._next_cid
            self._next_cid += 1
            self._cid_registry[key] = cid
        return cid

    # ------------------------------------------------------------------
    # Abort
    # ------------------------------------------------------------------

    def trigger_abort(self, info: JobAborted) -> None:
        """Record an ``MPI_Abort`` and unwind the calling fiber."""
        if self.abort_info is None:
            self.abort_info = info
        raise SimShutdown()

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def attach_and_start(self, mains: Sequence[Callable[[SimProcess], Any]]) -> None:
        """Create one fiber per rank around the given mains and make it
        runnable (see :class:`~repro.simmpi.fibers.Fiber`).  Its host
        seconds are ``perf.setup_s``.
        """
        t0 = _time.perf_counter()
        for proc, main in zip(self.procs, mains):
            fiber = Fiber(
                name=f"rank-{proc.rank}",
                index=proc.rank,
                target=partial(main, proc),
            )
            proc.attach_fiber(fiber)
            fiber.start()
        self._ready.extend(self.procs)
        self.perf.setup_s += _time.perf_counter() - t0

    def loop(self) -> None:
        """Run until every process finished, the job aborted, a deadlock is
        proven, or a budget is exhausted.

        The loop body is :meth:`_next_fiber` and one step of its pick
        (:meth:`repro.simmpi.fibers.Fiber.run_loop`), on this thread.
        """
        for inj in self.injectors:
            inj.arm(self)
        self.polled_injectors = [
            inj for inj in self.injectors if inj.polled()
        ]
        self._plain_cost = type(self.cost) is CostModel
        t0 = _time.perf_counter()
        try:
            Fiber.run_loop(self._next_fiber)
        finally:
            self.perf.wall_s += _time.perf_counter() - t0

    def _next_fiber(self) -> Fiber | None:
        """The scheduling decision: run events until the policy picks a
        fiber and return it; ``None`` when the loop is over.

        No rank is executing while it runs, so everything reachable from
        here (event callbacks, AM handlers, failure listeners, policies)
        may step a fiber itself: a kill unwinds its victim on the spot.
        """
        perf = self.perf
        # Ask the policy, not the raw queue: a policy may hold runnable
        # fibers in its own ordered structure between picks.
        take = self.policy.take
        ready = self._ready
        heap = self.events._heap
        clock = self.clock
        max_events = self.max_events
        max_time = self.max_time
        while True:
            if self.abort_info is not None:
                return None
            proc = take(ready)  # type: ignore[arg-type]
            if proc is not None:
                fiber = proc.fiber
                state = fiber.state
                if state is _DONE or state is _FAILED:
                    continue
                perf.handoffs += 1
                return fiber
            if heap:
                time, _, fn = heappop(heap)
                executed = perf.events_executed = perf.events_executed + 1
                if executed > max_events:
                    raise SimulationLimitExceeded(
                        f"exceeded max_events={max_events}"
                    )
                if time > max_time:
                    raise SimulationLimitExceeded(
                        f"virtual time {time} exceeded max_time={max_time}"
                    )
                if time > clock._now:
                    clock._now = time
                fn()
                continue
            blocked = [
                p for p in self.procs
                if p.alive() and p.fiber is not None
                and p.fiber.state is _BLOCKED
            ]
            if blocked:
                desc = "; ".join(
                    f"rank {p.rank}: {p.wait_description()}" for p in blocked
                )
                self.deadlock = SimulationDeadlock(
                    f"deadlock at t={self.clock.now:.9f}: {desc}",
                    [(p.rank, p.wait_description()) for p in blocked],
                )
                if self.trace.enabled:
                    for p in blocked:
                        self.trace.add((
                            self.clock.now, DEADLOCK, p.rank,
                            p.wait_description(),
                        ))
            return None  # deadlock, or all processes done/failed, no events

    def shutdown(self) -> None:
        """Unwind every still-parked fiber, release it, and take the
        finished run apart.

        Runs on **every** exit path of :meth:`Simulation.run` (normal
        completion, deadlock/abort returns, budget overruns, application
        errors), so batch drivers — a 10k-run in-process sweep — never
        accumulate fiber state across simulations.  Its host seconds are
        ``perf.teardown_s``.

        Teardown contract: afterwards no reference cycle runs through the
        simulation, so reference counting alone frees it the moment the
        caller drops the :class:`Simulation` and its result — peak RSS
        does not grow with the number of runs between collections.  What
        stays inspectable is the result and, per rank,
        ``procs[i].fiber`` (state, result, error), ``now``,
        ``failed_at``, ``call_count`` and ``probe_counts``; plus the
        runtime's trace, counters and ground truth (``failed``,
        ``known_by``, ``abort_info``, ``deadlock``).  Gone are what only
        a running simulation uses: pending events, active-message
        handlers, failure listeners, the layers' engines, and each
        rank's ``runtime``, ``comm_world`` and matching queues, with the
        pending requests in them (all ``None``).
        """
        t0 = _time.perf_counter()
        for proc in self.procs:
            fiber = proc.fiber
            if fiber is None or fiber.finished():
                continue
            fiber.shutdown_pending = True
            fiber._step()
        for proc in self.procs:
            if proc.fiber is not None:
                proc.fiber.release()
        # Leftover events hold bound methods of this runtime; handlers,
        # listeners and engines hold the engines, which hold it back.
        self.events._heap.clear()
        self._am_handlers.clear()
        self._am_contexts.clear()
        self._failure_listeners.clear()
        self.engines.clear()
        for proc in self.procs:
            # The back-pointers, and the queues whose requests point back.
            proc.runtime = proc.comm_world = proc.engine = None
        self.perf.teardown_s += _time.perf_counter() - t0


@dataclass
class RankOutcome:
    """Terminal state of one rank after a simulation."""

    rank: int
    #: "done", "failed" (fail-stop), "error" (app exception), "shutdown".
    state: str
    #: Return value of the rank's main function, if it completed.
    value: Any = None
    #: The application exception, if state == "error".
    error: BaseException | None = None
    #: Local virtual clock at the end.
    final_time: float = 0.0


@dataclass
class SimulationResult:
    """Everything a driver can observe about a finished simulation."""

    outcomes: list[RankOutcome]
    final_time: float
    trace: Trace
    aborted: JobAborted | None = None
    deadlock: SimulationDeadlock | None = None
    events_executed: int = 0
    #: Ground-truth failed ranks at the end of the run.
    failed_ranks: frozenset[int] = frozenset()
    #: Kernel performance counters for this run (handoffs, events,
    #: matches, wall seconds); see
    #: :class:`repro.perf.PerfCounters`.
    perf: PerfCounters | None = None

    def value(self, rank: int) -> Any:
        """Return value of *rank*'s main (raises if it did not complete)."""
        out = self.outcomes[rank]
        if out.state != "done":
            raise RuntimeError(f"rank {rank} did not complete: {out.state}")
        return out.value

    def values(self) -> dict[int, Any]:
        """Return values of every rank that completed normally."""
        return {o.rank: o.value for o in self.outcomes if o.state == "done"}

    @property
    def hung(self) -> bool:
        """True if the run ended in a proven deadlock (a hang)."""
        return self.deadlock is not None

    @property
    def completed_ranks(self) -> list[int]:
        return [o.rank for o in self.outcomes if o.state == "done"]


class Simulation:
    """User-facing driver for one simulated MPI job.

    Typical use::

        async def main(mpi):
            comm = mpi.comm_world
            ...

        sim = Simulation(nprocs=4, seed=1)
        sim.kill(rank=2, at_time=5e-6)
        result = sim.run(main)

    ``run`` may be given a single main (SPMD) or one main per rank.
    ``metrics=True`` is an alias of ``trace_enabled=True``, and wins over
    ``trace_enabled=False``: every view of a run
    (:func:`repro.obs.run_report`, the Perfetto counter tracks) is a fold
    over its trace.
    """

    def __init__(
        self,
        nprocs: int,
        *,
        seed: int = 0,
        cost: CostModel = DEFAULT_COST,
        policy: str | SchedulingPolicy = "rr",
        detection_latency: float | Callable[[int, int], float] = 0.0,
        trace_enabled: bool = True,
        trace_cap: int | None = None,
        metrics: bool = False,
        max_events: int = 20_000_000,
        max_time: float = float("inf"),
    ) -> None:
        self.runtime = Runtime(
            nprocs,
            cost=cost,
            policy=policy,
            seed=seed,
            detection_latency=detection_latency,
            trace_enabled=trace_enabled or metrics,
            trace_cap=trace_cap,
            max_events=max_events,
            max_time=max_time,
        )
        self._ran = False

    @property
    def nprocs(self) -> int:
        return self.runtime.nprocs

    def kill(self, rank: int, at_time: float) -> None:
        """Schedule a fail-stop of *rank* at a virtual time."""
        if not 0 <= rank < self.nprocs:
            raise ValueError(f"rank {rank} out of range")
        self.runtime.kill_at(rank, at_time)

    def configure(
        self,
        *,
        policy: str | SchedulingPolicy | None = None,
        policy_seed: int | None = None,
        cost: CostModel | None = None,
    ) -> "Simulation":
        """Re-plumb the scheduling policy and/or cost model before the run.

        This is the fuzzer's hook: a scenario factory builds its
        ``(Simulation, main)`` pair with the workload's defaults, and the
        perturbation layer then swaps in a seeded policy and a jittered
        cost model without the factory having to know about either.
        Returns ``self`` (chainable).  Must be called before :meth:`run`.
        """
        if self._ran:
            raise RuntimeError("cannot configure a Simulation after run()")
        rt = self.runtime
        if policy is not None:
            seed = rt.seed if policy_seed is None else policy_seed
            rt.policy = make_policy(policy, seed)
            rt.policy.reset()
        if cost is not None:
            rt.cost = cost
        return self

    def add_injector(self, injector: Any) -> None:
        """Attach a fault injector (see :mod:`repro.faults`)."""
        self.runtime.injectors.append(injector)

    def run(
        self,
        main: Callable[[SimProcess], Any] | Sequence[Callable[[SimProcess], Any]],
        *,
        on_deadlock: str = "raise",
        raise_app_errors: bool = True,
    ) -> SimulationResult:
        """Execute the job to completion and return the result.

        Parameters
        ----------
        main:
            One callable (run at every rank) or a sequence of ``nprocs``
            callables (MPMD).  ``main(mpi)`` is an ``async def`` whose
            coroutine the loop steps, or returns, without blocking, the
            rank's result.
        on_deadlock:
            ``"raise"`` (default) raises :class:`SimulationDeadlock`;
            ``"return"`` records it on the result — used by the harness
            that *wants* to observe the paper's Fig. 6 hang.
        raise_app_errors:
            Re-raise the first unexpected application exception as
            :class:`SimulationError`; pass ``False`` to inspect them on
            the result instead.

        Whichever way it ends — result, deadlock, abort, budget overrun
        or application error — the run is torn down first
        (:meth:`Runtime.shutdown`): reference counting alone frees it once
        the caller drops this object, the result and any exception
        raised from here.  Every result field stays readable, and so do
        ``self.runtime.procs[i].fiber``, ``.now`` and ``.failed_at``; the
        ranks' ``runtime``, ``comm_world`` and ``engine`` are ``None``.
        An application error keeps its traceback, without frame locals.
        """
        if self._ran:
            raise RuntimeError("a Simulation object can only run once")
        self._ran = True
        if on_deadlock not in ("raise", "return"):
            raise ValueError("on_deadlock must be 'raise' or 'return'")
        rt = self.runtime
        mains: list[Callable[[SimProcess], Any]]
        if callable(main):
            mains = [main] * rt.nprocs
        else:
            mains = list(main)
            if len(mains) != rt.nprocs:
                raise ValueError(
                    f"expected {rt.nprocs} mains, got {len(mains)}"
                )
        rt.attach_and_start(mains)
        try:
            rt.loop()
        finally:
            rt.shutdown()
            # Fold this run's counters into the process-wide session
            # accumulator (harnesses snapshot deltas around it).
            SESSION.add(rt.perf)
        outcomes = []
        for proc in rt.procs:
            fiber = proc.fiber
            assert fiber is not None
            if proc.failed_at is not None:
                state = "failed"
            elif fiber.error is not None:
                state = "error"
            elif rt.abort_info is not None and rt.abort_info.origin_rank == proc.rank:
                state = "aborted"
            elif fiber.shutdown_pending:
                state = "shutdown"
            else:
                state = "done"
            outcomes.append(
                RankOutcome(
                    rank=proc.rank,
                    state=state,
                    value=fiber.result,
                    error=fiber.error,
                    final_time=proc.now,
                )
            )
        result = SimulationResult(
            outcomes=outcomes,
            final_time=rt.clock.now,
            trace=rt.trace,
            aborted=rt.abort_info,
            deadlock=rt.deadlock,
            events_executed=rt.perf.events_executed,
            failed_ranks=frozenset(rt.failed),
            perf=rt.perf,
        )
        if raise_app_errors:
            for out in outcomes:
                if out.state == "error":
                    assert out.error is not None
                    raise SimulationError(out.rank, out.error) from out.error
        deadlock = result.deadlock
        if deadlock is not None and on_deadlock == "raise":
            # A copy: the stored one would reach this frame's traceback.
            raise SimulationDeadlock(str(deadlock), deadlock.blocked)
        return result
