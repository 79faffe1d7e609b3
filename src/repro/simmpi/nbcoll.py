"""Non-blocking collectives driven by the progress engine.

``MPI_Ibarrier`` is scheduled for MPI 3.0 in the paper's timeline and its
§III-C discusses — and rejects — building termination detection from
"multiple calls to MPI_Ibarrier ... inspecting combinations of return
codes".  To reproduce that discussion honestly we implement a real
non-blocking dissemination barrier as an active-message state machine, so
application threads can overlap it with point-to-point work (exactly like
the non-blocking validate).

Failure semantics follow the run-through stabilization rules for
collectives:

* entering an ibarrier while the communicator has failures not covered by
  a collective validate completes the request with
  ``MPI_ERR_RANK_FAIL_STOP`` immediately;
* a failure striking mid-barrier errors the request at the ranks that
  still owe rounds, while ranks whose rounds already completed return
  success — the *inconsistent return codes* the paper warns about.

This is precisely why ibarrier-retry termination cannot work under the
proposal (collectives stay disabled until ``MPI_Comm_validate_all``), and
the ibarrier ablation (EXP-ABL) demonstrates it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .communicator import Comm
from .errors import ErrorClass
from .request import Request, RequestKind, Status
from .trace import IBARRIER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .matching import Message
    from .runtime import Runtime

#: Context offset used by non-blocking collectives (distinct from the
#: consensus engine's CTX_AM, but equal to agree's ``CTX_AGREE``: one
#: communicator cannot run both, the second engine to bind it raises).
CTX_NBC = 3


@dataclass
class _BarrierMsg:
    """Wire format of one ibarrier signal."""

    cid: int
    instance: int
    round: int
    sender: int  # world rank


@dataclass
class _BarrierSM:
    """Per-(rank, comm, instance) dissemination-barrier state."""

    owner: int
    cid: int
    instance: int
    comm: Comm | None = None
    request: Request | None = None
    started: bool = False
    done: bool = False
    round: int = 0
    participants: tuple[int, ...] = ()  # world ranks
    #: rounds for which the expected signal already arrived (early ones).
    got: set[int] = field(default_factory=set)


class IBarrierEngine:
    """Progress engine for every rank's in-flight ibarriers."""

    def __init__(self, runtime: "Runtime") -> None:
        self.runtime = runtime
        self._sms: dict[tuple[int, int, int], _BarrierSM] = {}
        self._handling: set[tuple[int, int]] = set()
        self._listening: set[int] = set()

    def ensure_comm(self, comm: Comm) -> None:
        ctx = comm.context(CTX_NBC)
        for wr in comm.group:
            if (wr, ctx) not in self._handling:
                self.runtime.register_am_handler(
                    wr, ctx, lambda msg, t, r=wr: self._on_message(r, msg, t)
                )
                self._handling.add((wr, ctx))
            if wr not in self._listening:
                self._listening.add(wr)
                self.runtime.add_failure_listener(
                    wr, lambda obs, failed, t: self._on_failure(obs, failed, t)
                )

    def _sm(self, owner: int, cid: int, instance: int) -> _BarrierSM:
        key = (owner, cid, instance)
        sm = self._sms.get(key)
        if sm is None:
            sm = _BarrierSM(owner=owner, cid=cid, instance=instance)
            self._sms[key] = sm
        return sm

    # -- local call ---------------------------------------------------------

    def start(self, comm: Comm, instance: int, request: Request) -> None:
        self.ensure_comm(comm)
        proc = comm.proc
        sm = self._sm(proc.rank, comm.cid, instance)
        sm.comm = comm
        sm.request = request
        sm.started = True
        known = comm.known_failed_comm_ranks()
        if not known <= comm.validated:
            self._fail(sm, proc.now)
            return
        sm.participants = tuple(
            comm.world_rank(cr)
            for cr in range(comm.size)
            if cr not in comm.validated
        )
        if len(sm.participants) <= 1:
            self._complete(sm, proc.now)
            return
        self._enter_round(sm, 0, proc.now)

    # -- protocol -----------------------------------------------------------

    def _idx(self, sm: _BarrierSM) -> int:
        return sm.participants.index(sm.owner)

    def _enter_round(self, sm: _BarrierSM, r: int, time: float) -> None:
        assert sm.comm is not None
        sm.round = r
        m = len(sm.participants)
        peer = sm.participants[(self._idx(sm) + (1 << r)) % m]
        self.runtime.send_am(
            sm.owner,
            peer,
            sm.comm.context(CTX_NBC),
            _BarrierMsg(cid=sm.cid, instance=sm.instance, round=r,
                        sender=sm.owner),
        )
        self._advance(sm, time)

    def _advance(self, sm: _BarrierSM, time: float) -> None:
        while sm.started and not sm.done:
            m = len(sm.participants)
            if (1 << sm.round) >= m:
                self._complete(sm, time)
                return
            if sm.round not in sm.got:
                # Check whether the expected sender is known dead — the
                # collective then fails at this rank.
                expected = sm.participants[(self._idx(sm) - (1 << sm.round)) % m]
                if expected in self.runtime.known_failed_set(sm.owner):
                    self._fail(sm, time)
                return
            self._enter_round(sm, sm.round + 1, time)

    def _complete(self, sm: _BarrierSM, time: float) -> None:
        sm.done = True
        assert sm.request is not None
        self._record(sm, time, "ok")
        sm.request.complete(time, status=Status())

    def _fail(self, sm: _BarrierSM, time: float) -> None:
        sm.done = True
        assert sm.request is not None
        self._record(sm, time, "fail_stop")
        sm.request.complete(
            time,
            error=ErrorClass.ERR_RANK_FAIL_STOP,
            status=Status(error=ErrorClass.ERR_RANK_FAIL_STOP),
        )

    def _record(self, sm: _BarrierSM, time: float, outcome: str) -> None:
        trace = self.runtime.trace
        if trace.enabled:
            trace.add((time, IBARRIER, sm.owner, "ibarrier", outcome, sm.instance))

    # -- event-context inputs -------------------------------------------------

    def _on_message(self, owner: int, msg: "Message", time: float) -> None:
        bm: _BarrierMsg = msg.payload
        sm = self._sm(owner, bm.cid, bm.instance)
        sm.got.add(bm.round)
        if sm.started and not sm.done:
            self._advance(sm, time)

    def _on_failure(self, observer: int, failed: int, time: float) -> None:
        for sm in list(self._sms.values()):
            if sm.owner != observer or not sm.started or sm.done:
                continue
            assert sm.comm is not None
            cr = sm.comm.comm_rank_of_world(failed)
            if cr is not None:
                self._advance(sm, time)


def engine_for(runtime: "Runtime") -> IBarrierEngine:
    """Get (or lazily create) the simulation's ibarrier engine."""
    engine = runtime.engines.get("ibarrier")
    if engine is None:
        engine = runtime.engines["ibarrier"] = IBarrierEngine(runtime)
    return engine


def ibarrier(comm: Comm) -> Request:
    """Non-blocking barrier over the validated membership of *comm*.

    Returns a request that completes when every participant has entered
    the barrier — or completes with ``MPI_ERR_RANK_FAIL_STOP`` under the
    collective failure rules described in the module docstring.
    """
    proc = comm.proc
    proc._mpi_call("ibarrier")
    instance = next(_instance_counter(comm))
    req = Request(RequestKind.GENERIC, proc, comm)
    engine_for(proc.runtime).start(comm, instance, req)
    return req


def _instance_counter(comm: Comm):
    counter = getattr(comm, "_nbc_seq", None)
    if counter is None:
        counter = itertools.count()
        comm._nbc_seq = counter  # type: ignore[attr-defined]
    return counter
