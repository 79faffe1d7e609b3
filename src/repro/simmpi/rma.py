"""One-sided communication (RMA) with run-through stabilization semantics.

The paper's §II notes the FT Working Group was "currently extending both
the proposal and prototype to support the remainder of the MPI standard
including parallel I/O and one-sided operations".  This module is that
extension for one-sided operations, scoped to active-target (fence)
synchronization:

* :func:`win_create` — collectively expose a per-rank numpy buffer;
* :meth:`Win.put` / :meth:`Win.get` / :meth:`Win.accumulate` —
  non-blocking one-sided operations executed by the target's *progress
  engine* (the AM layer), so the target's application thread never
  participates — the defining property of RMA;
* :meth:`Win.fence` — close the epoch: wait for every locally-issued
  operation's remote completion, then a barrier over the validated
  membership.

Failure semantics, following the proposal's pattern:

* an operation addressed to a known-failed, unrecognized rank raises
  ``MPI_ERR_RANK_FAIL_STOP``; addressed to a *recognized* failed rank it
  follows ``MPI_PROC_NULL`` semantics (completes immediately, no data,
  gets return zeros);
* an operation in flight when its target dies completes in error at the
  origin once the failure is detected (same sweep as pending
  synchronous sends);
* ``fence`` is a collective: it obeys the "disabled until
  ``MPI_Comm_validate_all``" rule and errors while unrecognized failures
  exist.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any

# numpy is imported where a window is first used, not here: it is a third
# of what a fresh interpreter spends in ``import repro.cli``, and this is
# the only kernel module that needs it.
from .collectives import OPS
from .communicator import Comm
from .constants import PROC_NULL
from .errors import (
    ErrorClass,
    InvalidArgumentError,
    RankFailStopError,
)
from .request import Request, RequestKind, Status

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from .matching import Message
    from .runtime import Runtime

#: Context offset for RMA traffic (after p2p/coll/am/nbc).
CTX_RMA = 4


class RMAEngine:
    """Progress engine applying one-sided operations at their targets."""

    def __init__(self, runtime: "Runtime") -> None:
        self.runtime = runtime
        #: (world_rank, cid, win_id) -> exposed numpy buffer.
        self.windows: dict[tuple[int, int, int], np.ndarray] = {}
        #: Origin-side pending requests by id (awaiting ack/reply).
        self.pending: dict[int, Request] = {}
        self._handling: set[tuple[int, int]] = set()

    def ensure_comm(self, comm: Comm) -> None:
        ctx = comm.context(CTX_RMA)
        for wr in comm.group:
            if (wr, ctx) not in self._handling:
                self._handling.add((wr, ctx))
                self.runtime.register_am_handler(
                    wr, ctx, lambda msg, t, r=wr: self._on_message(r, msg, t)
                )

    # -- target side (event context) -----------------------------------------

    def _on_message(self, owner: int, msg: "Message", time: float) -> None:
        import numpy as np

        kind = msg.payload[0]
        if kind == "put":
            _, cid, win_id, offset, data, req_id, origin, ctx = msg.payload
            buf = self.windows.get((owner, cid, win_id))
            if buf is not None:
                arr = np.asarray(data)
                buf[offset:offset + arr.size] = arr
            self.runtime.send_am(owner, origin, ctx, ("ack", req_id))
        elif kind == "acc":
            _, cid, win_id, offset, data, op, req_id, origin, ctx = msg.payload
            buf = self.windows.get((owner, cid, win_id))
            if buf is not None:
                fn = OPS[op]
                arr = np.asarray(data)
                for i in range(arr.size):
                    buf[offset + i] = fn(buf[offset + i], arr[i])
            self.runtime.send_am(owner, origin, ctx, ("ack", req_id))
        elif kind == "get":
            _, cid, win_id, offset, count, req_id, origin, ctx = msg.payload
            buf = self.windows.get((owner, cid, win_id))
            data = (
                buf[offset:offset + count].copy().tolist()
                if buf is not None else [0.0] * count
            )
            self.runtime.send_am(
                owner, origin, ctx, ("reply", req_id, data)
            )
        elif kind == "ack":
            _, req_id = msg.payload
            req = self.pending.pop(req_id, None)
            if req is not None and not req.done:
                req.complete(time, status=Status())
        elif kind == "reply":
            _, req_id, data = msg.payload
            req = self.pending.pop(req_id, None)
            if req is not None and not req.done:
                req.complete(
                    time,
                    data=np.asarray(data),
                    status=Status(count=len(data)),
                )


def engine_for(runtime: "Runtime") -> RMAEngine:
    """Get (or lazily create) the simulation's RMA engine."""
    engine = runtime.engines.get("rma")
    if engine is None:
        engine = runtime.engines["rma"] = RMAEngine(runtime)
    return engine


class Win:
    """A one-sided window handle for one process."""

    def __init__(self, comm: Comm, win_id: int, size: int, init: float) -> None:
        import numpy as np

        self.comm = comm
        self.win_id = win_id
        self.size = size
        proc = comm.proc
        self._engine = engine_for(proc.runtime)
        self._engine.ensure_comm(comm)
        self._engine.windows[(proc.rank, comm.cid, win_id)] = np.full(
            size, float(init)
        )
        #: Operations issued since the last fence (awaiting completion).
        self._epoch_requests: list[Request] = []

    # -- local access ----------------------------------------------------------

    @property
    def local(self) -> np.ndarray:
        """This rank's exposed buffer (direct, mutable view)."""
        proc = self.comm.proc
        return self._engine.windows[(proc.rank, self.comm.cid, self.win_id)]

    # -- one-sided operations ---------------------------------------------------

    def _check_target(self, target: int) -> str:
        """Returns "null" | "error" | "ok" for the target's FT state."""
        comm = self.comm
        if target == PROC_NULL or target in comm.recognized:
            return "null"
        if not 0 <= target < comm.size:
            comm._raise(
                InvalidArgumentError(
                    f"invalid RMA target {target}",
                    error_class=ErrorClass.ERR_RANK,
                )
            )
        if comm._known_failed(target):
            comm._raise(
                RankFailStopError(f"RMA target {target} failed", peer=target)
            )
        return "ok"

    def _issue(self, target: int, payload_tail: tuple) -> Request:
        comm = self.comm
        proc = comm.proc
        req = Request(RequestKind.GENERIC, proc, comm,
                      peer=comm.world_rank(target))
        self._engine.pending[req.id] = req
        proc.runtime.track_peer_request(proc.rank, req)
        ctx = comm.context(CTX_RMA)
        proc.runtime.send_am(
            proc.rank,
            comm.world_rank(target),
            ctx,
            payload_tail[:1] + (comm.cid, self.win_id) + payload_tail[1:]
            + (req.id, proc.rank, ctx),
        )
        self._epoch_requests.append(req)
        return req

    def put(self, data: Any, target: int, offset: int = 0) -> Request:
        """Write *data* into the target's window at *offset*."""
        self.comm.proc._mpi_call("rma_put")
        if self._check_target(target) == "null":
            return _null_request(self.comm)
        import numpy as np

        arr = np.asarray(data, dtype=float)
        return self._issue(target, ("put", offset, arr.tolist()))

    def get(self, target: int, offset: int = 0, count: int = 1) -> Request:
        """Read *count* elements from the target's window at *offset*.

        The returned request's ``data`` holds the values on completion.
        """
        self.comm.proc._mpi_call("rma_get")
        if self._check_target(target) == "null":
            import numpy as np

            req = _null_request(self.comm, data=np.zeros(count))
            return req
        req = self._issue(target, ("get", offset, count))
        return req

    def accumulate(
        self, data: Any, target: int, offset: int = 0, op: str = "sum"
    ) -> Request:
        """Combine *data* into the target's window with the named op."""
        self.comm.proc._mpi_call("rma_accumulate")
        if op not in OPS:
            self.comm._raise(
                InvalidArgumentError(
                    f"unknown RMA op {op!r}", error_class=ErrorClass.ERR_OP
                )
            )
        if self._check_target(target) == "null":
            return _null_request(self.comm)
        import numpy as np

        arr = np.asarray(data, dtype=float)
        return self._issue(target, ("acc", offset, arr.tolist(), op))

    # -- synchronization ---------------------------------------------------------

    def fence(self) -> None:
        """Close the access epoch (collective).

        Waits for remote completion of every operation issued since the
        previous fence, then synchronizes with a barrier over the
        validated membership.  Raises ``MPI_ERR_RANK_FAIL_STOP`` under the
        collective-disable rule (including when an epoch operation's
        target died in flight).
        """
        comm = self.comm
        comm.proc._mpi_call("rma_fence")
        from .p2p import wait

        reqs, self._epoch_requests = self._epoch_requests, []
        for req in reqs:
            wait(req)  # raises through the errhandler on target death
        comm.barrier()

    def free(self) -> None:
        """Drop the window's exposed buffer (local operation)."""
        proc = self.comm.proc
        self._engine.windows.pop(
            (proc.rank, self.comm.cid, self.win_id), None
        )


def _null_request(comm: Comm, data: Any = None) -> Request:
    """An already-complete request (PROC_NULL semantics)."""
    req = Request(RequestKind.GENERIC, comm.proc, comm)
    req.complete(comm.proc.now, data=data, status=Status(source=PROC_NULL))
    return req


def win_create(comm: Comm, size: int, init: float = 0.0) -> Win:
    """Collectively create a window of *size* float elements per rank.

    Every member of *comm* must call; window ids are allocated in call
    order (like every other collective, calls must match across ranks).
    """
    proc = comm.proc
    proc._mpi_call("win_create")
    if size < 0:
        comm._raise(
            InvalidArgumentError("window size must be >= 0",
                                 error_class=ErrorClass.ERR_ARG)
        )
    counter = getattr(comm, "_win_seq", None)
    if counter is None:
        counter = itertools.count()
        comm._win_seq = counter  # type: ignore[attr-defined]
    win_id = next(counter)
    return Win(comm, win_id, size, init)
