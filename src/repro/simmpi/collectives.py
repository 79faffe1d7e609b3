"""Collective operations, implemented over simulated point-to-point.

Collectives are deliberately built from p2p sends/receives on a hidden
context so that their failure behaviour is *honest*:

* A failure already known (and not collectively validated) fails the
  collective **at entry** with ``MPI_ERR_RANK_FAIL_STOP`` — the proposal's
  "collectives are disabled until ``MPI_Comm_validate_all``" rule.
* A failure that strikes **mid-collective** surfaces as p2p errors at the
  ranks that communicate with the dead process, while ranks that already
  finished their part may return success — exactly the *inconsistent
  return codes* the paper warns about (its ``MPI_Bcast`` tree example).

After a successful ``validate_all``, collectively-recognized failed ranks
drop out of the *participant list* (they behave as ``MPI_PROC_NULL``) and
the algorithms run over the survivors.

Algorithms: dissemination barrier, binomial-tree bcast/reduce,
reduce+bcast allreduce, linear gather/scatter, ring allgather, pairwise
alltoall, linear scan.  Each collective call consumes one tag from the
per-communicator collective sequence — MPI requires identical collective
call order at every rank, which keeps the sequences aligned.
"""

from __future__ import annotations

import operator
from functools import reduce as _freduce
from typing import Any, Callable, Sequence

from .communicator import CTX_COLL, Comm
from .errors import ErrorClass, InvalidArgumentError, RankFailStopError
from .request import Request, RequestKind
from .trace import COLL_DISABLED, COLL_DONE, COLL_DONE_ROOT

#: Named reduction operators (callable ``f(a, b) -> c``; associative).
OPS: dict[str, Callable[[Any, Any], Any]] = {
    "sum": operator.add,
    "prod": operator.mul,
    "max": max,
    "min": min,
    "land": lambda a, b: bool(a) and bool(b),
    "lor": lambda a, b: bool(a) or bool(b),
    "band": operator.and_,
    "bor": operator.or_,
}


def _resolve_op(op: str | Callable[[Any, Any], Any]) -> Callable[[Any, Any], Any]:
    if callable(op):
        return op
    try:
        return OPS[op]
    except KeyError:
        raise InvalidArgumentError(
            f"unknown reduction op {op!r}", error_class=ErrorClass.ERR_OP
        ) from None


class _CollCtx:
    """Per-call context: participant list, my index, tag, raw p2p helpers.

    Tag discipline: every *user-level* collective call consumes exactly one
    value of the per-communicator sequence, with composite collectives
    (allreduce, reduce_scatter) deriving their phases' tags from a single
    base (``base * 8 + phase``).  This keeps ranks tag-aligned even when a
    failure aborts a composite mid-way — with naive one-tag-per-phase
    allocation, ranks erroring in different phases would consume different
    numbers of tags and all later collectives would mis-match (a bug found
    by this repository's recovery-block tests).
    """

    def __init__(self, comm: Comm, name: str, tag: int | None = None) -> None:
        proc = comm.proc
        proc._mpi_call(name)
        comm._check_not_freed()
        comm._check_revoked()
        self.comm = comm
        self.name = name
        self.tag = next(comm._coll_seq) * 8 if tag is None else tag
        known = comm.known_failed_comm_ranks()
        if not known <= comm.validated:
            trace = proc.runtime.trace
            if trace.enabled:
                trace.add((
                    proc.now, COLL_DISABLED, proc.rank,
                    name, "disabled", sorted(known - comm.validated),
                ))
            comm._raise(
                RankFailStopError(
                    f"{name} on {comm.name} with unrecognized failures "
                    f"{sorted(known - comm.validated)}"
                )
            )
        #: Comm ranks that take part (validated failures act as PROC_NULL).
        self.participants: list[int] = [
            r for r in range(comm.size) if r not in comm.validated
        ]
        if comm.rank in comm.validated:  # pragma: no cover - dead rank calling
            raise RuntimeError("a validated-failed rank cannot call collectives")
        self.me = self.participants.index(comm.rank)
        self.m = len(self.participants)

    # Raw p2p on the collective context.  Failure of a peer mid-collective
    # raises RankFailStopError here, which the collective propagates
    # through the comm's error handler.

    def _check_membership(self) -> None:
        """RTS rule: any not-collectively-validated failure in the comm
        aborts the collective at the next internal operation — peers may
        already have abandoned it, so waiting on even an *alive* peer is
        unsafe once a member is known dead."""
        comm = self.comm
        fresh = comm.known_failed_comm_ranks() - comm.validated
        if fresh:
            comm._raise(
                RankFailStopError(
                    f"{self.name}: member(s) {sorted(fresh)} failed "
                    f"mid-collective"
                )
            )

    def send(self, payload: Any, part_idx: int) -> None:
        comm, proc = self.comm, self.comm.proc
        dest_cr = self.participants[part_idx]
        self._check_membership()
        proc.runtime.post_send(
            proc,
            dst_world=comm.world_rank(dest_cr),
            tag=self.tag,
            context=comm.context(CTX_COLL),
            payload=payload,
            nbytes=None,
        )

    async def recv(self, part_idx: int) -> Any:
        comm, proc = self.comm, self.comm.proc
        src_cr = self.participants[part_idx]
        self._check_membership()
        req = Request(
            RequestKind.RECV,
            proc,
            comm,
            peer=comm.world_rank(src_cr),
            tag=self.tag,
        )
        proc.runtime.post_recv(comm, req, context=comm.context(CTX_COLL))
        from .p2p import wait

        await wait(req)  # raises via errhandler if src fails mid-collective
        return req.data

    def done(self, root: str | None = None) -> None:
        proc = self.comm.proc
        trace = proc.runtime.trace
        if not trace.enabled:
            return
        if root is None:
            trace.add((proc.now, COLL_DONE, proc.rank, self.name, "ok", self.tag))
        else:
            trace.add((
                proc.now, COLL_DONE_ROOT, proc.rank,
                self.name, "ok", self.tag, root,
            ))


async def barrier(comm: Comm) -> None:
    """Dissemination barrier: ``ceil(log2 m)`` rounds of pairwise signals."""
    ctx = _CollCtx(comm, "barrier")
    if ctx.m == 1:
        ctx.done()
        return
    k = 1
    while k < ctx.m:
        ctx.send(None, (ctx.me + k) % ctx.m)
        await ctx.recv((ctx.me - k) % ctx.m)
        k *= 2
    ctx.done()


def _binomial_parent(me: int, root_idx: int, m: int) -> int | None:
    """Parent of *me* in a binomial tree of *m* nodes rooted at *root_idx*.

    Positions are relative to the root; the parent clears the highest set
    bit of the relative position.
    """
    rel = (me - root_idx) % m
    if rel == 0:
        return None
    parent_rel = rel - (1 << (rel.bit_length() - 1))
    return (parent_rel + root_idx) % m


def _binomial_children(me: int, root_idx: int, m: int) -> list[int]:
    """Children of *me*: relative positions ``rel + 2^j`` for ``2^j > rel``."""
    rel = (me - root_idx) % m
    children = []
    k = 1 << rel.bit_length()  # first power of two above rel (1 if rel == 0)
    if rel == 0:
        k = 1
    while rel + k < m:
        children.append((rel + k + root_idx) % m)
        k *= 2
    return children


async def bcast(
    comm: Comm, payload: Any, root: int = 0, _tag: int | None = None
) -> Any:
    """Binomial-tree broadcast from comm rank *root*.

    A validated-failed root has ``PROC_NULL`` semantics: the call returns
    the caller's input unchanged at every rank.
    """
    ctx = _CollCtx(comm, "bcast", tag=_tag)
    if root in comm.validated:
        ctx.done(root="proc_null")
        return payload
    if not 0 <= root < comm.size:
        comm._raise(
            InvalidArgumentError(f"invalid root {root}", error_class=ErrorClass.ERR_ROOT)
        )
    root_idx = ctx.participants.index(root)
    if ctx.m == 1:
        ctx.done()
        return payload
    parent = _binomial_parent(ctx.me, root_idx, ctx.m)
    if parent is not None:
        payload = await ctx.recv(parent)
    for child in _binomial_children(ctx.me, root_idx, ctx.m):
        ctx.send(payload, child)
    ctx.done()
    return payload


async def reduce(comm: Comm, value: Any, op: str | Callable[[Any, Any], Any] = "sum",
                 root: int = 0, _tag: int | None = None) -> Any:
    """Binomial-tree reduction to *root* (result at root, ``None`` elsewhere).

    Combination order is by participant index, so non-commutative custom
    ops see operands in deterministic rank order.
    """
    ctx = _CollCtx(comm, "reduce", tag=_tag)
    fn = _resolve_op(op)
    if root in comm.validated:
        ctx.done(root="proc_null")
        return None
    root_idx = ctx.participants.index(root)
    # Gather up the mirrored binomial tree: children send partial results
    # to parents.  To keep combination order deterministic we accumulate
    # (participant_index, partial) pairs and fold sorted at the end.
    acc: list[tuple[int, Any]] = [(ctx.me, value)]
    for child in _binomial_children(ctx.me, root_idx, ctx.m):
        acc.extend(await ctx.recv(child))
    parent = _binomial_parent(ctx.me, root_idx, ctx.m)
    if parent is not None:
        ctx.send(acc, parent)
        ctx.done()
        return None
    acc.sort(key=lambda p: p[0])
    result = _freduce(fn, (v for _, v in acc))
    ctx.done()
    return result


async def allreduce(
    comm: Comm, value: Any, op: str | Callable[[Any, Any], Any] = "sum"
) -> Any:
    """Reduce-to-all = reduce to the lowest participant, then bcast.

    Both phases share one collective sequence number (see the tag
    discipline note on :class:`_CollCtx`).
    """
    root = None
    for r in range(comm.size):
        if r not in comm.validated:
            root = r
            break
    assert root is not None
    base = next(comm._coll_seq) * 8
    partial = await reduce(comm, value, op, root=root, _tag=base)
    return await bcast(comm, partial, root=root, _tag=base + 1)


async def gather(comm: Comm, value: Any, root: int = 0) -> list[Any] | None:
    """Linear gather to *root*: result list indexed by comm rank.

    Validated-failed ranks contribute ``None`` (PROC_NULL semantics).
    """
    ctx = _CollCtx(comm, "gather")
    if root in comm.validated:
        ctx.done(root="proc_null")
        return None
    if comm.rank != root:
        root_idx = ctx.participants.index(root)
        ctx.send((comm.rank, value), root_idx)
        ctx.done()
        return None
    out: list[Any] = [None] * comm.size
    out[comm.rank] = value
    for idx in range(ctx.m):
        if ctx.participants[idx] == root:
            continue
        cr, v = await ctx.recv(idx)
        out[cr] = v
    ctx.done()
    return out


async def scatter(comm: Comm, values: Sequence[Any] | None, root: int = 0,
                  _tag: int | None = None) -> Any:
    """Linear scatter from *root*; ``values`` is indexed by comm rank."""
    ctx = _CollCtx(comm, "scatter", tag=_tag)
    if root in comm.validated:
        ctx.done(root="proc_null")
        return None
    if comm.rank == root:
        if values is None or len(values) != comm.size:
            comm._raise(
                InvalidArgumentError(
                    "scatter root needs one value per comm rank",
                    error_class=ErrorClass.ERR_COUNT,
                )
            )
        for idx in range(ctx.m):
            cr = ctx.participants[idx]
            if cr == root:
                continue
            ctx.send(values[cr], idx)
        ctx.done()
        return values[comm.rank]
    root_idx = ctx.participants.index(root)
    v = await ctx.recv(root_idx)
    ctx.done()
    return v


async def allgather(comm: Comm, value: Any) -> list[Any]:
    """Ring allgather: ``m - 1`` steps passing a growing window."""
    ctx = _CollCtx(comm, "allgather")
    out: list[Any] = [None] * comm.size
    out[comm.rank] = value
    right = (ctx.me + 1) % ctx.m
    left = (ctx.me - 1) % ctx.m
    carry = (comm.rank, value)
    for _ in range(ctx.m - 1):
        ctx.send(carry, right)
        carry = await ctx.recv(left)
        out[carry[0]] = carry[1]
    ctx.done()
    return out


async def alltoall(comm: Comm, values: Sequence[Any]) -> list[Any]:
    """Pairwise-exchange personalized all-to-all.

    ``values`` is indexed by comm rank; entries for validated-failed ranks
    are ignored, and their slots in the result stay ``None``.
    """
    ctx = _CollCtx(comm, "alltoall")
    if len(values) != comm.size:
        comm._raise(
            InvalidArgumentError(
                "alltoall needs one value per comm rank",
                error_class=ErrorClass.ERR_COUNT,
            )
        )
    out: list[Any] = [None] * comm.size
    out[comm.rank] = values[comm.rank]
    for step in range(1, ctx.m):
        dst = (ctx.me + step) % ctx.m
        src = (ctx.me - step) % ctx.m
        ctx.send(values[ctx.participants[dst]], dst)
        got = await ctx.recv(src)
        out[ctx.participants[src]] = got
    ctx.done()
    return out


async def scan(
    comm: Comm, value: Any, op: str | Callable[[Any, Any], Any] = "sum"
) -> Any:
    """Inclusive prefix reduction along participant order (linear chain)."""
    ctx = _CollCtx(comm, "scan")
    fn = _resolve_op(op)
    acc = value
    if ctx.me > 0:
        prev = await ctx.recv(ctx.me - 1)
        acc = fn(prev, value)
    if ctx.me + 1 < ctx.m:
        ctx.send(acc, ctx.me + 1)
    ctx.done()
    return acc


async def exscan(
    comm: Comm, value: Any, op: str | Callable[[Any, Any], Any] = "sum"
) -> Any:
    """Exclusive prefix reduction: participant 0 receives ``None``."""
    ctx = _CollCtx(comm, "exscan")
    fn = _resolve_op(op)
    if ctx.me == 0:
        prev = None
        acc = value
    else:
        prev = await ctx.recv(ctx.me - 1)
        acc = fn(prev, value)
    if ctx.me + 1 < ctx.m:
        ctx.send(acc, ctx.me + 1)
    ctx.done()
    return prev


async def reduce_scatter(
    comm: Comm,
    values: Sequence[Any],
    op: str | Callable[[Any, Any], Any] = "sum",
) -> Any:
    """Reduce one value per comm rank, scatter slot ``i`` to comm rank ``i``.

    ``values`` is indexed by comm rank; slots addressed to validated-failed
    ranks are ignored.  Implemented as reduce-to-lowest + scatter, which
    keeps the failure semantics identical to the other collectives.
    """
    ctx = _CollCtx(comm, "reduce_scatter")
    if len(values) != comm.size:
        comm._raise(
            InvalidArgumentError(
                "reduce_scatter needs one value per comm rank",
                error_class=ErrorClass.ERR_COUNT,
            )
        )
    fn = _resolve_op(op)
    root = ctx.participants[0]
    base = ctx.tag
    reduced = await reduce(comm, list(values),
                           lambda a, b: _pairwise(a, b, fn), root=root,
                           _tag=base + 1)
    return await scatter(comm, reduced, root=root, _tag=base + 2)


def _pairwise(
    a: Sequence[Any], b: Sequence[Any], fn: Callable[[Any, Any], Any]
) -> list[Any]:
    """Element-wise combine of two per-rank value lists (None passes through)."""
    out = []
    for x, y in zip(a, b):
        if x is None:
            out.append(y)
        elif y is None:
            out.append(x)
        else:
            out.append(fn(x, y))
    return out
