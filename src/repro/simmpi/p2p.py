"""Completion operations: ``wait`` / ``waitany`` / ``waitall`` / ``test``.

These are module-level functions (as in MPI, completion is not a
communicator method).  Error delivery follows the owning communicator's
error handler: under ``ERRORS_RETURN`` a failed completion raises an
:class:`~repro.simmpi.errors.MPIError` whose ``index`` attribute tells the
caller *which* request failed — the Python analogue of the ``idx``
out-parameter the paper's ``FT_Recv_left`` inspects (Fig. 9 line 8-11).

A request that completed in error is *consumed* by the wait that reported
it (``done`` stays true; callers repost as the paper's pseudo code does).
"""

from __future__ import annotations

from typing import Sequence

from .errors import (
    CommRevokedError,
    ErrorClass,
    ErrorHandler,
    MPIError,
    RankFailStopError,
)
from .request import Request, Status


def _owner(requests: Sequence[Request]) -> "SimProcess":  # type: ignore[name-defined]
    if not requests:
        raise ValueError("empty request list")
    owner = requests[0].owner
    for r in requests[1:]:
        if r.owner is not owner:
            raise ValueError("all requests in one wait must share an owner")
    return owner


def _raise_for(req: Request, index: int) -> None:
    """Raise the error recorded on *req* through its comm's error handler."""
    assert req.error is not None
    peer = req.peer
    if req.comm is not None and isinstance(peer, int) and peer >= 0:
        cr = req.comm.comm_rank_of_world(peer)
        if cr is not None:
            peer = cr
    if req.error is ErrorClass.ERR_RANK_FAIL_STOP:
        exc: MPIError = RankFailStopError(
            f"peer {peer} failed ({req.kind.value})", peer=peer, index=index
        )
    elif req.error is ErrorClass.ERR_REVOKED:
        exc = CommRevokedError(
            f"communicator revoked ({req.kind.value})", peer=peer, index=index
        )
    else:
        exc = MPIError(
            f"{req.kind.value} failed: {req.error!s}",
            error_class=req.error,
            peer=peer,
            index=index,
        )
    exc.status = req.status  # type: ignore[attr-defined]
    if req.comm is not None and req.comm.errhandler is ErrorHandler.ERRORS_ARE_FATAL:
        req.owner.abort(int(req.error))
    try:
        raise exc
    finally:
        del exc  # this frame is on its traceback


async def wait(request: Request) -> Status:
    """Block until *request* completes; return its status or raise."""
    proc = request.owner
    proc._mpi_call("wait")
    while not request.done:
        request.waited = True  # completion clears it and wakes proc
        await proc.block(_WaitOn((request,)))
    t = request.completion_time
    if t is not None and t > proc.now:  # max(), without the builtin call
        proc.now = t
    if request.error is not None:
        _raise_for(request, 0)
    assert request.status is not None
    return request.status


async def waitany(requests: Sequence[Request]) -> tuple[int, Status]:
    """Block until any request completes; return ``(index, status)``.

    If the completed request carries an error, an exception is raised whose
    ``index`` attribute identifies it (so the caller can repost just that
    request, as ``FT_Recv_left`` does).
    """
    # The ring's two-request wait checks its owner inline.
    if len(requests) == 2 and requests[0].owner is requests[1].owner:
        proc = requests[0].owner
    else:
        proc = _owner(requests)
    proc._mpi_call("waitany")
    while True:
        for i, req in enumerate(requests):
            if req.done:
                for r in requests:
                    r.waited = False
                t = req.completion_time
                if t is not None and t > proc.now:  # max(), inline
                    proc.now = t
                if req.error is not None:
                    _raise_for(req, i)
                assert req.status is not None
                return i, req.status
        for req in requests:
            req.waited = True
        await proc.block(_WaitOn(requests))


async def waitall(requests: Sequence[Request]) -> list[Status]:
    """Block until every request completes.

    If any completed in error, raises for the lowest-index failure after
    all completions (statuses of the others are on their requests).
    """
    proc = _owner(requests)
    proc._mpi_call("waitall")
    while not all(r.done for r in requests):
        for req in requests:
            if not req.done:
                req.waited = True
        await proc.block(_WaitOn(requests))
    for req in requests:
        req.waited = False
        if req.completion_time is not None:
            proc.now = max(proc.now, req.completion_time)
    for i, req in enumerate(requests):
        if req.error is not None:
            _raise_for(req, i)
    return [r.status for r in requests]  # type: ignore[return-value]


async def waitsome(requests: Sequence[Request]) -> list[tuple[int, Status]]:
    """Block until at least one completes; return all completed (index, status).

    Errors are reported like :func:`waitany`, for the lowest-index failed
    completion.
    """
    proc = _owner(requests)
    proc._mpi_call("waitsome")
    while not any(r.done for r in requests):
        for req in requests:
            req.waited = True
        await proc.block(_WaitOn(requests))
    for req in requests:
        req.waited = False
    done = [(i, r) for i, r in enumerate(requests) if r.done]
    for _, r in done:
        if r.completion_time is not None:
            proc.now = max(proc.now, r.completion_time)
    for i, r in done:
        if r.error is not None:
            _raise_for(r, i)
    return [(i, r.status) for i, r in done]  # type: ignore[misc]


async def test(request: Request) -> Status | None:
    """Non-blocking completion check.

    Returns the status if complete (raising on error), else ``None``.
    Each unsuccessful poll advances virtual time by one poll interval so a
    test loop cannot freeze the simulation.
    """
    proc = request.owner
    proc._mpi_call("test")
    if not request.done:
        await proc.runtime.poll_block(proc, "test")
    if not request.done:
        return None
    if request.completion_time is not None:
        proc.now = max(proc.now, request.completion_time)
    if request.error is not None:
        _raise_for(request, 0)
    return request.status


async def testany(requests: Sequence[Request]) -> tuple[int, Status] | None:
    """Non-blocking variant of :func:`waitany`; ``None`` if none complete."""
    proc = _owner(requests)
    proc._mpi_call("testany")
    if not any(r.done for r in requests):
        await proc.runtime.poll_block(proc, "testany")
    for i, req in enumerate(requests):
        if req.done:
            if req.completion_time is not None:
                proc.now = max(proc.now, req.completion_time)
            if req.error is not None:
                _raise_for(req, i)
            return i, req.status  # type: ignore[return-value]
    return None


class _WaitOn:
    """Block reason of a ``wait*``: rendered only if a deadlock report
    asks (:meth:`SimProcess.wait_description`), not once per block."""

    __slots__ = ("requests",)

    def __init__(self, requests: Sequence[Request]) -> None:
        self.requests = requests

    def __str__(self) -> str:
        parts = []
        for r in self.requests:
            parts.append(f"{r.kind.value}(peer={r.peer}, tag={r.tag}, id={r.id})")
        return "wait on [" + ", ".join(parts) + "]"
