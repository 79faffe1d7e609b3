"""Requests and statuses for non-blocking operations.

A :class:`Request` is the handle returned by ``isend``/``irecv`` (and by
the non-blocking validate collective).  Requests are completed by the
runtime — on message match, on send buffering, on consensus decision, or
*in error* when the failure detector learns that a peer of the operation
has failed.  That last path is the load-bearing semantic of the paper: a
pending receive posted to a rank that subsequently fails completes with
``MPI_ERR_RANK_FAIL_STOP``, which is what lets the ring use a posted
``MPI_Irecv`` as a failure detector for its right-hand neighbor.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any

from .constants import ANY_SOURCE, ANY_TAG
from .errors import ErrorClass

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .communicator import Comm
    from .process import SimProcess


#: Read by every completion; an Enum-class lookup is slow on CPython
#: 3.11 (see ``repro.simmpi.fibers``).
_SUCCESS = ErrorClass.SUCCESS


class Status:
    """Completion information for one operation (``MPI_Status``).

    ``Runtime._complete_recv`` builds a matched receive's status inline,
    without this ``__init__``: keep the two in step.
    """

    __slots__ = ("source", "tag", "error", "count", "cancelled")

    def __init__(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        error: ErrorClass = ErrorClass.SUCCESS,
        count: int = 0,
        cancelled: bool = False,
    ) -> None:
        self.source = source
        self.tag = tag
        self.error = error
        self.count = count
        self.cancelled = cancelled

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Status(source={self.source}, tag={self.tag}, "
            f"error={self.error!s}, count={self.count})"
        )


class RequestKind(enum.Enum):
    """What operation a request tracks."""

    SEND = "send"
    RECV = "recv"
    VALIDATE = "validate"  # non-blocking collective validate
    GENERIC = "generic"  # internal / extension requests


class Request:
    """Handle for a pending non-blocking operation.

    The runtime completes a request exactly once, either successfully (with
    a payload for receives) or with an :class:`ErrorClass`.  Only the
    request's owner ever waits on it (the ``wait*`` functions of
    :mod:`repro.simmpi.p2p` check ownership), so a wait is one flag,
    :attr:`waited`: set while the owner is blocked on the request, it
    makes completion wake the owner at the completion's virtual time.
    """

    __slots__ = (
        "id",
        "kind",
        "comm",
        "owner",
        "peer",
        "tag",
        "done",
        "error",
        "status",
        "data",
        "completion_time",
        "waited",
        "context",
    )

    def __init__(
        self,
        kind: RequestKind,
        owner: "SimProcess",
        comm: "Comm | None" = None,
        peer: int = ANY_SOURCE,
        tag: int = ANY_TAG,
    ) -> None:
        # Per-simulation id so identical seeds yield identical traces.
        runtime = owner.runtime
        self.id = runtime._req_seq = runtime._req_seq + 1
        self.kind = kind
        self.owner = owner
        self.comm = comm
        #: Remote rank of the operation (source for recv, dest for send).
        self.peer = peer
        self.tag = tag
        self.done = False
        self.error: ErrorClass | None = None
        self.status: Status | None = None
        #: For receives: the delivered payload.  For validates: the decision.
        self.data: Any = None
        self.completion_time: float | None = None
        #: The owner is blocked in a ``wait*`` on this request.
        self.waited = False
        #: Message context the request was posted under (set by the
        #: runtime at post time; the failure sweep uses it to identify
        #: collective-context receives).
        self.context: int | None = None

    # -- runtime side -----------------------------------------------------

    def complete(
        self,
        time: float,
        *,
        error: ErrorClass | None = None,
        status: Status | None = None,
        data: Any = None,
    ) -> None:
        """Mark the request complete and wake the owner if it waits.

        Completing an already-complete request is a runtime bug and raises.
        ``Runtime._complete_recv`` does the same, inline, for a matched
        receive: keep the two in step.
        """
        if self.done:
            raise RuntimeError(f"request {self.id} completed twice")
        self.done = True
        self.error = None if error is None or error == _SUCCESS else error
        self.status = status or Status(error=self.error or _SUCCESS)
        if self.error is not None:
            self.status.error = self.error
        self.data = data
        self.completion_time = time
        if self.waited:
            self.waited = False
            self.owner.wake(time, "request complete")

    def cancel(self) -> None:
        """Cancel a pending receive (best-effort, as in MPI).

        A completed request cannot be cancelled.  Cancelling removes the
        posted receive from the matching engine via the owner's runtime.
        """
        if self.done:
            return
        self.owner.runtime.cancel_request(self)

    def failed(self) -> bool:
        """True if the request completed in error."""
        return self.done and self.error is not None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = (
            "pending"
            if not self.done
            else ("error:" + str(self.error) if self.error else "ok")
        )
        return (
            f"Request(id={self.id}, {self.kind.value}, owner={self.owner.rank}, "
            f"peer={self.peer}, tag={self.tag}, {state})"
        )
