"""Collective validate (paper Fig. 1 lines 16–18).

* :func:`icomm_validate_all` — non-blocking: returns a
  :class:`~repro.simmpi.request.Request` that completes (in the progress
  engine, off the application thread) once the fault-tolerant agreement
  of :mod:`repro.ft.agreement` decides.  This is the request the paper's
  Fig. 13 termination-detection code passes to ``MPI_Waitany`` alongside
  the resend watchdog.
* :func:`comm_validate_all` — the blocking form: start + wait.

Every member proposes the failed comm ranks it knows when it calls; the
agreed set is the union of the survivors' proposals.  On completion that
set has been recognized both for point-to-point (``MPI_PROC_NULL``
semantics) and for collectives (which are hereby re-enabled), and the
request's ``data`` holds the decision; its status ``count`` is the agreed
total number of failures — the function's ``outcount``.
"""

from __future__ import annotations

from ..simmpi.communicator import Comm
from ..simmpi.p2p import wait
from ..simmpi.request import Request, RequestKind

from .agreement import DEFAULT_MODE, VALIDATE, engine_for


def icomm_validate_all(comm: Comm, mode: str = DEFAULT_MODE) -> Request:
    """``MPI_Icomm_validate_all``: start the collective validate.

    ``mode`` selects the agreement algorithm: ``"coordinator"`` (the
    default: 2(n-1) messages, two hops when nobody dies) or ``"full"``
    (FloodSet's worst-case ``len(comm.group)`` flooding rounds — the
    oracle the tests compare against).  All members of one collective
    call must pass the same mode, and a member may start its next
    validate on a communicator only once its previous one completed.
    """
    proc = comm.proc
    proc._mpi_call("icomm_validate_all")
    instance = next(comm._validate_seq)
    req = Request(RequestKind.VALIDATE, proc, comm)
    engine_for(proc.runtime).start(
        comm, instance, comm.known_failed_comm_ranks(), req, VALIDATE, mode
    )
    return req


async def comm_validate_all(comm: Comm, mode: str = DEFAULT_MODE) -> int:
    """``MPI_Comm_validate_all``: blocking collective validate.

    Returns the agreed total number of failed ranks in the communicator
    (the ``outcount`` of the paper's interface).
    """
    req = icomm_validate_all(comm, mode=mode)
    status = await wait(req)
    return status.count
