"""Communicators: groups, contexts, per-process FT state, point-to-point.

A :class:`Comm` is a *per-process* handle (as in real MPI): every rank
holds its own instance, but instances describing the same communicator
share a context id and a group.  The per-process state carried here is
exactly what the run-through stabilization proposal needs:

* the installed :class:`~repro.simmpi.errors.ErrorHandler`;
* ``recognized`` — comm ranks whose failure this process has locally
  recognized (``MPI_Comm_validate_clear``): point-to-point with them gets
  ``MPI_PROC_NULL`` semantics;
* ``validated`` — comm ranks recognized *collectively*
  (``MPI_Comm_validate_all``): collectives are re-enabled only when every
  known failure is covered by ``validated``.

Point-to-point failure semantics (paper §II):

* send/recv addressed to an **unrecognized known-failed** rank raises
  ``MPI_ERR_RANK_FAIL_STOP`` (or aborts, under ``ERRORS_ARE_FATAL``);
* addressed to a **recognized** failed rank: ``MPI_PROC_NULL`` semantics
  (immediate completion, no data);
* a receive posted on ``ANY_SOURCE`` while the communicator contains an
  unrecognized known failure raises ``MPI_ERR_RANK_FAIL_STOP``;
* pending receives complete in error the moment the detector reports the
  peer's failure (see :mod:`repro.simmpi.runtime`).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Awaitable, NoReturn, Sequence

from .constants import (
    ANY_SOURCE,
    ANY_TAG,
    PROC_NULL,
    TAG_UB,
    UNDEFINED,
    is_valid_tag,
)
from .errors import (
    CommRevokedError,
    ErrorClass,
    ErrorHandler,
    InvalidArgumentError,
    MPIError,
    RankFailStopError,
)
from .request import Request, RequestKind, Status

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .process import SimProcess

#: Number of distinct message contexts reserved per communicator.
CONTEXTS_PER_COMM = 8
#: Offsets within a communicator's context block.
CTX_P2P = 0
CTX_COLL = 1
CTX_AM = 2  # active-message layer (consensus protocol)

# Enum members the point-to-point path reads, as module constants (see
# ``repro.simmpi.fibers``).
_RECV = RequestKind.RECV
_SEND = RequestKind.SEND
_ERR_RANK_FAIL_STOP = ErrorClass.ERR_RANK_FAIL_STOP
_ERRORS_ARE_FATAL = ErrorHandler.ERRORS_ARE_FATAL


class Comm:
    """A simulated MPI communicator handle for one process."""

    def __init__(
        self,
        proc: "SimProcess",
        cid: int,
        group: tuple[int, ...],
        name: str = "",
    ) -> None:
        self._proc = proc
        #: Context id; identical at every member rank.
        self.cid = cid
        #: World ranks of the members, indexed by comm rank.
        self.group = group
        #: Human-readable name for traces (``"world"``, ``"dup1"``...).
        self.name = name or f"comm{cid}"
        self.errhandler = _ERRORS_ARE_FATAL
        #: Comm ranks locally recognized as failed (p2p => PROC_NULL).
        self.recognized: set[int] = set()
        #: Comm ranks collectively recognized (collectives re-enabled).
        self.validated: set[int] = set()
        #: Per-process counter aligning collective operations across ranks.
        self._coll_seq = itertools.count()
        #: Per-process counter aligning comm-creation operations.
        self._create_seq = itertools.count()
        #: Per-process counters aligning validate_all / agree instances.
        self._validate_seq = itertools.count()
        self._agree_seq = itertools.count()
        #: Set by :meth:`free`; every operation through the handle fails.
        self._freed = False
        #: World rank -> comm rank; one dict per group, owned by the
        #: runtime and shared by every handle of that group.
        self._ranks = proc.runtime.group_ranks(group)
        try:
            self._my_rank = self._ranks[proc.rank]
        except KeyError as exc:  # pragma: no cover - construction bug
            raise InvalidArgumentError(
                f"process {proc.rank} not in group {group}"
            ) from exc

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def rank(self) -> int:
        """This process's rank within the communicator."""
        return self._my_rank

    @property
    def size(self) -> int:
        """Number of member ranks (including failed ones — fail-stop ranks
        keep their slots; that is the point of run-through stabilization)."""
        return len(self.group)

    @property
    def proc(self) -> "SimProcess":
        """The owning simulated process."""
        return self._proc

    def world_rank(self, comm_rank: int) -> int:
        """Translate a comm rank to a world rank."""
        if not 0 <= comm_rank < len(self.group):
            raise InvalidArgumentError(
                f"rank {comm_rank} out of range for {self.name} (size {self.size})",
                rank=self._my_rank,
            )
        return self.group[comm_rank]

    def comm_rank_of_world(self, world_rank: int) -> int | None:
        """Translate a world rank to a comm rank (``None`` if not a member)."""
        return self._ranks.get(world_rank)

    def context(self, offset: int = CTX_P2P) -> int:
        """The message context id for one of this comm's channels."""
        return self.cid * CONTEXTS_PER_COMM + offset

    # ------------------------------------------------------------------
    # Error handling
    # ------------------------------------------------------------------

    def set_errhandler(self, handler: ErrorHandler) -> None:
        """Install the communicator's error handler (paper Fig. 3 line 10)."""
        self.errhandler = handler

    def _raise(self, exc: MPIError) -> NoReturn:
        """Dispatch an MPI error through the installed handler."""
        exc.rank = self._my_rank
        if self.errhandler is ErrorHandler.ERRORS_ARE_FATAL:
            self._proc.abort(int(exc.error_class))
        try:
            raise exc
        finally:
            del exc  # this frame is on its traceback

    # ------------------------------------------------------------------
    # Revocation (ULFM)
    # ------------------------------------------------------------------

    def revoke(self) -> None:
        """``MPI_Comm_revoke``: invalidate the communicator at every member.

        Local-immediate at the caller; other members learn via control
        messages.  Once a member knows, its pending receives on the
        communicator complete with ``MPI_ERR_REVOKED`` and every new
        operation raises :class:`CommRevokedError` — only the AM layer
        (consensus) keeps working, so the members can still agree on the
        failed set and shrink (:func:`repro.ft.comm_shrink`).
        """
        self._proc._mpi_call("comm_revoke")
        self._check_not_freed()
        self._proc.runtime.revoke_comm(self._proc, self)

    @property
    def is_revoked(self) -> bool:
        """Has *this process* learned that the communicator was revoked?"""
        return self._proc.runtime.is_revoked(self._proc.rank, self.cid)

    def _check_revoked(self) -> None:
        if self._proc.runtime.is_revoked(self._proc.rank, self.cid):
            self._raise(CommRevokedError(f"{self.name} has been revoked"))

    # ------------------------------------------------------------------
    # Failure knowledge (per-observer view backed by the detector)
    # ------------------------------------------------------------------

    def known_failed_comm_ranks(self) -> set[int]:
        """Comm ranks this process currently *knows* to have failed.

        O(known failures), through the group's shared rank map — unless
        the group repeats a world rank (the map then keeps only its first
        slot), where every slot is scanned.
        """
        known = self._proc.runtime.known_by[self._proc.rank]
        ranks = self._ranks
        if len(ranks) == len(self.group):
            return {ranks[wr] for wr in known if wr in ranks}
        return {cr for cr, wr in enumerate(self.group) if wr in known}

    def _known_failed(self, comm_rank: int) -> bool:
        wr = self.group[comm_rank]
        return self._proc.runtime.is_known_failed(self._proc.rank, wr)

    def _has_unrecognized_failure(self) -> bool:
        return bool(self.known_failed_comm_ranks() - self.recognized)

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------

    def _check_send_args(self, dest: int, tag: int) -> None:
        if dest != PROC_NULL and not 0 <= dest < self.size:
            self._raise(
                InvalidArgumentError(
                    f"invalid destination rank {dest}",
                    error_class=ErrorClass.ERR_RANK,
                    peer=dest,
                )
            )
        if not is_valid_tag(tag):
            self._raise(
                InvalidArgumentError(
                    f"invalid tag {tag}", error_class=ErrorClass.ERR_TAG
                )
            )

    def _check_recv_args(self, source: int, tag: int) -> None:
        if source != PROC_NULL and source != ANY_SOURCE:
            if not 0 <= source < self.size:
                self._raise(
                    InvalidArgumentError(
                        f"invalid source rank {source}",
                        error_class=ErrorClass.ERR_RANK,
                        peer=source,
                    )
                )
        if tag != ANY_TAG and not is_valid_tag(tag):
            self._raise(
                InvalidArgumentError(
                    f"invalid tag {tag}", error_class=ErrorClass.ERR_TAG
                )
            )

    def send(
        self, payload: Any, dest: int, tag: int = 0, nbytes: int | None = None
    ) -> None:
        """Standard (eager/buffered) send.

        Raises :class:`RankFailStopError` when *dest* is known-failed and
        unrecognized — the semantic ``FT_Send_right`` (paper Fig. 5)
        depends on.
        """
        self._proc._mpi_call("send")
        self._send_common(payload, dest, tag, nbytes, op="send")

    def isend(
        self, payload: Any, dest: int, tag: int = 0, nbytes: int | None = None
    ) -> Request:
        """Non-blocking send; the returned request is already complete
        (standard sends buffer eagerly in this simulator)."""
        self._proc._mpi_call("isend")
        self._send_common(payload, dest, tag, nbytes, op="isend")
        req = Request(RequestKind.SEND, self._proc, self, peer=dest, tag=tag)
        req.complete(self._proc.now, status=Status(source=dest, tag=tag))
        return req

    def issend(
        self, payload: Any, dest: int, tag: int = 0, nbytes: int | None = None
    ) -> Request:
        """Non-blocking synchronous send: the request completes when the
        message is *matched* by a receive (or in error if the destination
        dies first)."""
        self._proc._mpi_call("issend")
        req = self._send_common(payload, dest, tag, nbytes, "issend", sync=True)
        assert req is not None
        return req

    async def ssend(
        self, payload: Any, dest: int, tag: int = 0, nbytes: int | None = None
    ) -> None:
        """Blocking synchronous send (returns once matched)."""
        self._proc._mpi_call("ssend")
        req = self.issend(payload, dest, tag, nbytes)
        from .p2p import wait

        await wait(req)

    def _send_common(
        self,
        payload: Any,
        dest: int,
        tag: int,
        nbytes: int | None,
        op: str,
        sync: bool = False,
    ) -> Request | None:
        """Post one send after the checks every send shares, in one order.

        Every send of every hop runs this, so the checks are tested inline
        and a ``_check_*`` / ``_raise`` helper is called only to build the
        error of a failing one.  A synchronous send (*sync*) returns its
        request, which then carries the outcome a plain send returns
        early on (``PROC_NULL``) or raises (a known failure).
        """
        proc = self._proc
        runtime = proc.runtime
        if self._freed:
            self._check_not_freed()
        if (proc.rank, self.cid) in runtime._revoked:
            self._check_revoked()
        group = self.group
        if (
            dest != PROC_NULL and not 0 <= dest < len(group)
        ) or not 0 <= tag <= TAG_UB:
            self._check_send_args(dest, tag)
        req = Request(_SEND, proc, self, dest, tag) if sync else None
        if dest == PROC_NULL or dest in self.recognized:
            # A recognized failed rank has MPI_PROC_NULL semantics too.
            if req is not None:
                req.complete(proc.now, status=Status(dest, tag))
            return req
        dst_world = group[dest]
        if dst_world in runtime.known_by[proc.rank]:
            if req is None:
                self._raise(
                    RankFailStopError(
                        f"{op} to failed rank {dest} on {self.name}", peer=dest
                    )
                )
            fail = _ERR_RANK_FAIL_STOP
            req.complete(proc.now, error=fail, status=Status(dest, tag, fail))
            return req
        if req is not None:
            # Like receives, a pending synchronous send carries the *world*
            # rank in ``peer``, for the detector sweep to match failures.
            req.peer = dst_world
        runtime.post_send(
            proc, dst_world, tag, self.cid * CONTEXTS_PER_COMM + CTX_P2P,
            payload, nbytes, req,
        )
        return req

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Non-blocking receive.

        The returned request completes when a matching message arrives —
        or *in error* (``MPI_ERR_RANK_FAIL_STOP``) when the failure
        detector reports the selected source failed.  That error path is
        the watchdog mechanism of paper Fig. 9.
        """
        self._proc._mpi_call("irecv")
        return self._irecv_common(source, tag)

    def _irecv_common(self, source: int, tag: int) -> Request:
        # Checks inline and helpers only on failure, as in _send_common.
        proc = self._proc
        runtime = proc.runtime
        if self._freed:
            self._check_not_freed()
        if (proc.rank, self.cid) in runtime._revoked:
            self._check_revoked()
        group = self.group
        if (
            source != PROC_NULL and source != ANY_SOURCE
            and not 0 <= source < len(group)
        ) or (tag != ANY_TAG and not 0 <= tag <= TAG_UB):
            self._check_recv_args(source, tag)
        # Requests carry *world* ranks in ``peer`` so the matching engine
        # and the failure sweep compare like with like; statuses are
        # translated back to comm ranks at completion.
        wildcard = source == ANY_SOURCE
        peer_world = source if wildcard or source == PROC_NULL else group[source]
        req = Request(_RECV, proc, self, peer_world, tag)
        fail = _ERR_RANK_FAIL_STOP
        if source == PROC_NULL or (not wildcard and source in self.recognized):
            # PROC_NULL semantics: immediate empty completion.
            req.complete(proc.now, status=Status(PROC_NULL, ANY_TAG))
        elif not wildcard and peer_world in runtime.known_by[proc.rank]:
            req.complete(proc.now, error=fail, status=Status(source, tag, fail))
        elif wildcard and self._has_unrecognized_failure():
            req.complete(proc.now, error=fail, status=Status(ANY_SOURCE, tag, fail))
        else:
            runtime.post_recv(self, req, self.cid * CONTEXTS_PER_COMM + CTX_P2P)
        return req

    async def recv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> tuple[Any, Status]:
        """Blocking receive; returns ``(payload, status)``.

        Raises through the communicator's error handler if the peer fails
        before a message arrives.
        """
        self._proc._mpi_call("recv")
        req = self._irecv_common(source, tag)
        from .p2p import wait  # local import: avoids a cycle

        status = await wait(req)
        return req.data, status

    async def sendrecv(
        self,
        payload: Any,
        dest: int,
        source: int,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
    ) -> tuple[Any, Status]:
        """Combined send+receive (deadlock-free, as in MPI)."""
        self._proc._mpi_call("sendrecv")
        req = self._irecv_common(source, recvtag)
        self._send_common(payload, dest, sendtag, None, op="sendrecv")
        from .p2p import wait

        status = await wait(req)
        return req.data, status

    async def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Status:
        """Blocking probe: wait until a matching message is available."""
        self._proc._mpi_call("probe")
        while True:
            st = self._iprobe_now(source, tag)
            if st is not None:
                return st
            await self._proc.runtime.arrival_block(self._proc, "probe")

    async def iprobe(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Status | None:
        """Non-blocking probe; ``None`` if no matching message arrived yet."""
        self._proc._mpi_call("iprobe")
        st = self._iprobe_now(source, tag)
        if st is None:
            await self._proc.runtime.poll_block(self._proc, "iprobe")
            st = self._iprobe_now(source, tag)
        return st

    def _iprobe_now(self, source: int, tag: int) -> Status | None:
        self._check_revoked()
        if source != ANY_SOURCE and self._known_failed(source) and source not in self.recognized:
            self._raise(RankFailStopError(f"probe of failed rank {source}", peer=source))
        if source == ANY_SOURCE and self._has_unrecognized_failure():
            self._raise(RankFailStopError("probe ANY_SOURCE with unrecognized failure"))
        src_world = ANY_SOURCE if source == ANY_SOURCE else self.world_rank(source)
        msg = self._proc.engine.probe(src_world, tag, self.context(CTX_P2P))
        if msg is None:
            return None
        src_cr = self.comm_rank_of_world(msg.src)
        return Status(source=src_cr if src_cr is not None else msg.src,
                      tag=msg.tag, count=msg.nbytes)

    # ------------------------------------------------------------------
    # Communicator management
    # ------------------------------------------------------------------

    def dup(self, name: str = "") -> "Comm":
        """Collectively duplicate the communicator.

        Per the FT proposal, failures must be re-recognized on the new
        communicator: the duplicate starts with empty ``recognized`` /
        ``validated`` sets even if the parent had recognized failures.
        """
        self._proc._mpi_call("comm_dup")
        op_index = next(self._create_seq)
        cid = self._proc.runtime.cid_for(self.cid, op_index)
        return Comm(self._proc, cid, self.group, name or f"{self.name}.dup{op_index}")

    def group_obj(self) -> "Group":
        """The communicator's membership as a :class:`Group`."""
        from .group import Group

        return Group(self.group)

    async def create(self, group: "Group", name: str = "") -> "Comm | None":
        """``MPI_Comm_create``: carve a communicator for *group*.

        Collective over the *parent*: every member must call with the same
        group.  Members outside *group* receive ``None``.  Implemented as
        a color split, so it inherits the parent's collective failure
        semantics.
        """
        self._proc._mpi_call("comm_create")
        from .constants import UNDEFINED as _UNDEF

        color = 0 if self._proc.rank in group else _UNDEF
        try:
            key = group.rank_of_world(self._proc.rank)
        except Exception:  # pragma: no cover - defensive
            key = 0
        return await self.split(color=color, key=key if key >= 0 else 0,
                                name=name or f"{self.name}.create")

    def free(self) -> None:
        """``MPI_Comm_free``: mark the handle unusable (local bookkeeping).

        Subsequent operations through this handle raise ``ERR_COMM``.
        """
        self._proc._mpi_call("comm_free")
        self._freed = True

    def _check_not_freed(self) -> None:
        if self._freed:
            self._raise(
                InvalidArgumentError(
                    f"{self.name} has been freed",
                    error_class=ErrorClass.ERR_COMM,
                )
            )

    def replace_rank(self, comm_rank: int, world_rank: int) -> None:
        """Patch *comm_rank*'s slot to a new world rank (in-place repair).

        The non-collective reparation primitive (Rocco & Palermo,
        arXiv:2209.01849) used by the partial-restart protocol: the
        communicator keeps its cid — so messages already in flight between
        surviving members still arrive — while a failed member's slot is
        re-pointed at a freshly recruited spare.  Every survivor must
        apply the same patch (driven by an agreed failed set); the spare
        constructs its own handle with the patched group.  Recognition
        state for the slot is cleared: the slot is alive again.
        """
        if not 0 <= comm_rank < len(self.group):
            raise InvalidArgumentError(
                f"rank {comm_rank} out of range for {self.name}",
                rank=self._my_rank,
            )
        group = list(self.group)
        group[comm_rank] = world_rank
        self.group = tuple(group)
        self._ranks = self._proc.runtime.group_ranks(self.group)
        self.recognized.discard(comm_rank)
        self.validated.discard(comm_rank)
        self._my_rank = self._ranks[self._proc.rank]

    async def split(self, color: int, key: int = 0, name: str = "") -> "Comm | None":
        """Collectively split by color (``UNDEFINED`` => no new comm).

        Implemented over a real allgather on the parent communicator, so it
        inherits the parent's failure semantics (it errors if the parent
        has unrecognized failures, exactly like any collective).
        """
        self._proc._mpi_call("comm_split")
        from .collectives import allgather

        op_index = next(self._create_seq)
        triples = await allgather(self, (color, key, self.rank))
        members: list[tuple[int, int, int]] = [
            t for t in triples if t is not None and t[0] == color and color != UNDEFINED
        ]
        if color == UNDEFINED:
            return None
        members.sort(key=lambda t: (t[1], t[2]))
        group = tuple(self.group[t[2]] for t in members)
        cid = self._proc.runtime.cid_for(self.cid, op_index, color=color)
        return Comm(self._proc, cid, group, name or f"{self.name}.split{op_index}.{color}")

    # Collective entry points (implementations live in collectives.py).
    # Each returns the implementation's coroutine for the caller to await,
    # so a blocked collective resumes through one coroutine frame fewer.

    def barrier(self) -> Awaitable[None]:
        """Collective barrier over the validated membership."""
        from .collectives import barrier

        return barrier(self)

    def bcast(self, payload: Any, root: int = 0) -> Awaitable[Any]:
        """Broadcast from *root*; returns the payload at every rank."""
        from .collectives import bcast

        return bcast(self, payload, root)

    def reduce(
        self, value: Any, op: str | Any = "sum", root: int = 0
    ) -> Awaitable[Any]:
        """Reduce to *root*; returns the result at root, ``None`` elsewhere."""
        from .collectives import reduce as _reduce

        return _reduce(self, value, op, root)

    def allreduce(self, value: Any, op: str | Any = "sum") -> Awaitable[Any]:
        """Reduce-to-all."""
        from .collectives import allreduce

        return allreduce(self, value, op)

    def gather(self, value: Any, root: int = 0) -> Awaitable[list[Any] | None]:
        """Gather to *root* (list indexed by comm rank; failed-validated
        ranks contribute ``None``)."""
        from .collectives import gather

        return gather(self, value, root)

    def scatter(self, values: Sequence[Any] | None, root: int = 0) -> Awaitable[Any]:
        """Scatter from *root*."""
        from .collectives import scatter

        return scatter(self, values, root)

    def allgather(self, value: Any) -> Awaitable[list[Any]]:
        """Gather-to-all (ring algorithm)."""
        from .collectives import allgather

        return allgather(self, value)

    def alltoall(self, values: Sequence[Any]) -> Awaitable[list[Any]]:
        """Personalized all-to-all exchange."""
        from .collectives import alltoall

        return alltoall(self, values)

    def scan(self, value: Any, op: str | Any = "sum") -> Awaitable[Any]:
        """Inclusive prefix reduction."""
        from .collectives import scan

        return scan(self, value, op)

    def exscan(self, value: Any, op: str | Any = "sum") -> Awaitable[Any]:
        """Exclusive prefix reduction (participant 0 gets ``None``)."""
        from .collectives import exscan

        return exscan(self, value, op)

    def reduce_scatter(
        self, values: Sequence[Any], op: str | Any = "sum"
    ) -> Awaitable[Any]:
        """Reduce per-rank slots, scatter slot ``i`` to comm rank ``i``."""
        from .collectives import reduce_scatter

        return reduce_scatter(self, values, op)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Comm({self.name}, cid={self.cid}, rank={self.rank}/{self.size}, "
            f"recognized={sorted(self.recognized)}, validated={sorted(self.validated)})"
        )
