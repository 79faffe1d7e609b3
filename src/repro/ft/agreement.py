"""The fault-tolerant agreement engine (paper §II, Fig. 13).

The proposal states that ``MPI_Comm_validate_all`` "provides the
application with an implementation of a fault tolerant consensus
algorithm".  Rather than oracle-ing the agreement inside the simulator we
run a real one over the simulated network, so its failure behaviour
(including processes dying *mid-protocol*) is honest.  One engine serves
both collective APIs; they differ only in their :class:`Flavor`:

* ``icomm_validate_all`` agrees on the union of every member's known
  failed comm ranks and *recognises* the decided set (:data:`VALIDATE`);
* ``icomm_agree`` / ``comm_shrink`` agree on the union of ``(rank,
  value)`` contribution pairs, recognise nothing, and run on their own AM
  context so they still work on a revoked communicator (:data:`AGREE`).

Either way the engine agrees on a **set-union of opaque items** among the
members of one communicator, under fail-stop faults and the runtime's
perfect failure detector, with FIFO channels.  Two algorithms:

``"coordinator"`` (the default) — two phases, 2(n-1) messages
    Every member sends its items to the *coordinator*: the lowest-ranked
    member it does not know dead; that member's comm rank is the *term*.
    The coordinator waits for a contribution from every member its
    detector has not reported dead, unions them, and sends ``DECIDE`` to
    those members.  When a member learns its coordinator died it
    re-reports to the next one, carrying the decision it adopted if it
    has one; a coordinator that is told a decision announces that one
    instead of forming its own.  A dead coordinator's ``DECIDE`` can
    still be on the wire after that, so a member that has reported to
    term *t* ignores any ``DECIDE`` of a lower term — its new
    coordinator either heard that decision from someone who adopted it
    in time, or nobody alive holds it.  Survivors agree; a member that
    adopted a decision and then died may have held a different one
    (non-uniform agreement, which is all a fail-stop application can
    observe).

``"full"`` — FloodSet (Lynch, *Distributed Algorithms*, §6.2), n rounds
    In round ``r`` each member sends its accumulated set to every member
    it does not know dead, then waits for a round-``r`` message from each
    of them (the wait set shrinks as the detector reports deaths).
    Rounds merge strictly in order, so the run is a synchronous FloodSet
    under a synchronizer; after ``len(members)`` rounds every survivor
    holds the same set.  n²(n-1) messages: kept only as the differential
    oracle the property tests compare the coordinator protocol against.

Instances on one communicator run one at a time per member (the next may
start once the previous decided locally) — the ordering every MPI
collective already has, and what lets a decided member stop answering
for an instance: once a *later* instance decides, every live member has
contributed to it and therefore finished this one.

The protocol runs on the runtime's active-message layer: all sends and
state transitions happen in event context (the "MPI progress engine"),
which is what makes the *non-blocking* ``MPI_Icomm_validate_all`` of
paper Fig. 13 possible without burning the application thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..simmpi.communicator import CTX_AM, Comm
from ..simmpi.request import Request, Status
from ..simmpi.trace import (
    VALIDATE_DECIDE, VALIDATE_DECIDE_CONTRIBUTORS, VALIDATE_START,
    VALIDATE_START_PROPOSAL,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simmpi.matching import Message
    from ..simmpi.runtime import Runtime

#: Context offset of the agree/shrink active messages (offsets 0-2 are
#: p2p / collectives / validate; revocation spares both AM contexts).
CTX_AGREE = 3

MODES = ("coordinator", "full")
DEFAULT_MODE = "coordinator"


@dataclass(frozen=True, slots=True)
class Flavor:
    """What tells the two collective APIs apart on the shared engine."""

    #: AM context offset within the communicator's context block.
    offset: int
    #: Prefix of the ``VALIDATE`` trace records (``<op>_start/_decide``).
    op: str
    #: Items are failed comm ranks, recognised on decide.
    recognise: bool


VALIDATE = Flavor(CTX_AM, "all", recognise=True)
AGREE = Flavor(CTX_AGREE, "agree", recognise=False)


@dataclass(slots=True)
class _Msg:
    """Wire format of one agreement message."""

    kind: str  # "round" (FloodSet) | "contrib" | "decide" (coordinator)
    instance: int
    #: FloodSet round, or the coordinator term the message belongs to.
    n: int
    sender: int  # world rank
    items: frozenset[Any]
    #: ``contrib`` only: ``items`` is the decision the sender adopted.
    decided: bool = False


@dataclass(slots=True, eq=False)
class _Instance:
    """Per-(rank, context, instance) protocol state."""

    owner: int  # world rank whose state this is
    ctx: int
    instance: int
    comm: Comm | None = None  # set when the local call starts
    members: frozenset[int] = frozenset()  # world ranks of ``comm.group``
    request: Request | None = None
    flavor: Flavor = VALIDATE
    mode: str = DEFAULT_MODE
    #: Nothing is owed any more: messages and failures are ignored.
    closed: bool = False
    decision: frozenset[Any] | None = None
    #: The member's proposal; FloodSet accumulates the union into it.
    items: set[Any] = field(default_factory=set)
    #: Coordinator term last reported to (a comm rank).
    term: int = -1
    #: Reported protocol phase: the FloodSet round, or 1 contribute /
    #: 2 decide, plus 2 per coordinator takeover.
    round: int = 0
    #: Received ``round``/``contrib`` messages: ``n`` -> sender -> message.
    inbox: dict[int, dict[int, _Msg]] = field(default_factory=dict)

    @property
    def started(self) -> bool:
        return self.comm is not None


class UnionAgreement:
    """Distributed-state holder for every rank's agreement instances.

    The engine is a single simulator-level object, but its state is
    strictly partitioned per world rank: rank p's instances are only ever
    touched by deliveries addressed to p, detector notifications for p,
    and p's own local calls — the same isolation a real per-process
    progress engine would have.
    """

    def __init__(self, runtime: "Runtime") -> None:
        self.runtime = runtime
        #: (owner, ctx, instance) -> state; instance numbers on one context
        #: are consecutive (the communicator handle's per-API counter).
        self._instances: dict[tuple[int, int, int], _Instance] = {}
        #: owner -> started instances that still react to failures.
        self._live: dict[int, list[_Instance]] = {}
        self._wired: set[int] = set()

    # -- plumbing ----------------------------------------------------------

    def _wire(self, comm: Comm, ctx: int) -> None:
        """Register AM handlers + failure listeners for every member."""
        if ctx in self._wired:
            return
        self._wired.add(ctx)
        for wr in comm.group:
            self.runtime.register_am_handler(
                wr, ctx, lambda msg, t, r=wr: self._on_message(r, msg, t)
            )
            if wr not in self._live:
                self._live[wr] = []
                self.runtime.add_failure_listener(wr, self._on_failure)

    def _inst(self, owner: int, ctx: int, instance: int) -> _Instance:
        key = (owner, ctx, instance)
        inst = self._instances.get(key)
        if inst is None:
            inst = self._instances[key] = _Instance(owner, ctx, instance)
        return inst

    def _heard_all(self, inst: _Instance, n: int) -> bool:
        """Does the owner hold an ``n`` message from every member its
        detector has not reported dead (itself included)?"""
        alive = inst.members - self.runtime.known_by[inst.owner]
        return alive <= inst.inbox.get(n, {}).keys()

    def _send_all(self, inst: _Instance, msg: _Msg) -> None:
        """Send *msg* to every other member not known dead, in rank order."""
        assert inst.comm is not None
        dead = self.runtime.known_by[inst.owner]
        for wr in inst.comm.group:
            if wr != inst.owner and wr not in dead:
                self.runtime.send_am(inst.owner, wr, inst.ctx, msg)

    def _note_round(self, inst: _Instance, round_no: int, time: float) -> None:
        inst.round = round_no
        obs = self.runtime.obs
        if obs is not None:
            obs.consensus_round(
                inst.owner, (inst.ctx, inst.instance), round_no, time
            )

    def _close(self, inst: _Instance) -> None:
        inst.closed = True
        inst.inbox.clear()
        self._live[inst.owner].remove(inst)

    # -- local call --------------------------------------------------------

    def start(
        self,
        comm: Comm,
        instance: int,
        items: set[Any],
        request: Request,
        flavor: Flavor,
        mode: str = DEFAULT_MODE,
    ) -> None:
        """Begin one instance at ``comm.proc``, proposing *items*."""
        if mode not in MODES:
            raise ValueError(f"unknown agreement mode {mode!r} (known: {MODES})")
        proc = comm.proc
        ctx = comm.context(flavor.offset)
        self._wire(comm, ctx)
        prev = self._instances.get((proc.rank, ctx, instance - 1))
        if prev is not None and prev.decision is None:
            raise RuntimeError(
                f"{flavor.op} instance {prev.instance} on {comm.name} has not "
                f"decided yet: instances on one communicator run in order"
            )
        inst = self._inst(proc.rank, ctx, instance)
        assert not inst.started, "agreement instance started twice"
        inst.comm, inst.request, inst.flavor, inst.mode = comm, request, flavor, mode
        inst.members = frozenset(comm.group)
        inst.items = items
        self._live[proc.rank].append(inst)
        trace = self.runtime.trace
        if trace.enabled:
            op = f"{flavor.op}_start"
            if flavor.recognise:
                trace.add((
                    proc.now, VALIDATE_START_PROPOSAL, proc.rank,
                    op, comm.name, instance, sorted(inst.items),
                ))
            else:
                trace.add(
                    (proc.now, VALIDATE_START, proc.rank, op, comm.name, instance)
                )
        if mode == "full":
            self._enter_round(inst, 1, proc.now)
            self._check_round(inst, proc.now)
        else:
            self._report(inst, proc.now)

    # -- event-context inputs ----------------------------------------------

    def _on_message(self, owner: int, msg: "Message", time: float) -> None:
        m: _Msg = msg.payload
        inst = self._inst(owner, msg.context, m.instance)
        if inst.closed:
            return
        if m.kind == "decide":
            # A dead coordinator's DECIDE may arrive after this member
            # re-reported to its successor, which can decide otherwise.
            if inst.decision is None and m.n >= inst.term:
                self._decide(inst, m.items, time, how=f"coordinator:{m.n}")
            return
        inst.inbox.setdefault(m.n, {})[m.sender] = m
        if inst.started:
            self._advance(inst, time)

    def _on_failure(self, observer: int, failed: int, time: float) -> None:
        for inst in list(self._live[observer]):
            assert inst.comm is not None
            if inst.closed:
                continue  # by a later instance, earlier in this sweep
            if inst.mode != "full" and inst.comm.group[inst.term] == failed:
                self._report(inst, time)  # coordinator died: on to the next
            else:
                self._advance(inst, time)  # the wait set shrank

    def _advance(self, inst: _Instance, time: float) -> None:
        if inst.mode == "full":
            self._check_round(inst, time)
        else:
            self._collect(inst, time)

    def _decide(
        self, inst: _Instance, decision: frozenset[Any], time: float, how: str
    ) -> None:
        comm, request = inst.comm, inst.request
        assert comm is not None and request is not None, "decide before start"
        inst.decision = decision
        if inst.mode != "full":
            self._note_round(inst, inst.round + 1, time)
        if inst.flavor.recognise:
            # Collective recognition: the agreed failures become PROC_NULL
            # for both point-to-point and collectives, re-enabling the latter.
            comm.recognized |= decision
            comm.validated |= decision
        trace = self.runtime.trace
        if trace.enabled:
            if inst.flavor.recognise:
                shape, outcome = VALIDATE_DECIDE, sorted(decision)
            else:
                shape = VALIDATE_DECIDE_CONTRIBUTORS
                outcome = sorted(r for r, _v in decision)
            trace.add((
                time, shape, inst.owner, f"{inst.flavor.op}_decide",
                comm.name, inst.instance, how, inst.round, outcome,
            ))
        obs = self.runtime.obs
        if obs is not None:
            obs.consensus_decided(
                inst.owner, (inst.ctx, inst.instance), time, how, inst.round
            )
        # Every live member contributed to this instance, so each has
        # finished the previous one: it owes nobody an answer any more.
        prev = self._instances.get((inst.owner, inst.ctx, inst.instance - 1))
        if prev is not None and not prev.closed:
            self._close(prev)
        request.complete(time, data=decision, status=Status(count=len(decision)))

    # -- coordinator protocol ----------------------------------------------

    def _report(self, inst: _Instance, time: float) -> None:
        """Send my items — or the decision I adopted — to my coordinator."""
        assert inst.comm is not None
        dead = self.runtime.known_by[inst.owner]
        group = inst.comm.group
        inst.term = next(i for i, wr in enumerate(group) if wr not in dead)
        coordinator = group[inst.term]
        if inst.decision is None:
            self._note_round(inst, inst.round + 1 + (inst.round > 0), time)
            msg = _Msg("contrib", inst.instance, inst.term, inst.owner,
                       frozenset(inst.items))
        else:
            msg = _Msg("contrib", inst.instance, inst.term, inst.owner,
                       inst.decision, decided=True)
        if coordinator == inst.owner:
            inst.inbox.setdefault(inst.term, {})[inst.owner] = msg
            self._collect(inst, time)
        else:
            self.runtime.send_am(inst.owner, coordinator, inst.ctx, msg)

    def _collect(self, inst: _Instance, time: float) -> None:
        """Coordinator side: announce once every live member has reported."""
        assert inst.comm is not None
        me = inst.comm.rank
        if not self._heard_all(inst, me):
            return  # I am missing myself until I know every lower rank dead
        heard = inst.inbox[me]
        adopted = {m.items for m in heard.values() if m.decided}
        assert len(adopted) <= 1, "two decisions alive in one instance"
        if adopted:
            (decision,) = adopted
        else:
            decision = frozenset().union(*(m.items for m in heard.values()))
        if inst.decision is None:
            self._decide(inst, decision, time, how=f"coordinator:{me}")
        self._send_all(inst, _Msg("decide", inst.instance, me, inst.owner, decision))
        # While I live nobody reports to a later term, so this is final.
        self._close(inst)

    # -- FloodSet (differential oracle) ------------------------------------

    def _enter_round(self, inst: _Instance, r: int, time: float) -> None:
        self._note_round(inst, r, time)
        msg = _Msg("round", inst.instance, r, inst.owner, frozenset(inst.items))
        inst.inbox.setdefault(r, {})[inst.owner] = msg
        self._send_all(inst, msg)

    def _check_round(self, inst: _Instance, time: float) -> None:
        """Advance through every round whose quota is already met."""
        assert inst.comm is not None
        while not inst.closed:
            r = inst.round
            if not self._heard_all(inst, r):
                return
            for m in inst.inbox.pop(r).values():
                inst.items |= m.items
            if r >= inst.comm.size:
                self._decide(inst, frozenset(inst.items), time, how="floodset")
                self._close(inst)  # all survivors decide in this same round
                return
            self._enter_round(inst, r + 1, time)


def engine_for(runtime: "Runtime") -> UnionAgreement:
    """Get (or lazily create) the simulation's agreement engine."""
    engine = runtime.engines.get("agreement")
    if engine is None:
        engine = runtime.engines["agreement"] = UnionAgreement(runtime)
    return engine
