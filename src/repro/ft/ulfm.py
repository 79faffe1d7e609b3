"""ULFM-style recovery primitives: ``agree`` and ``shrink``.

The run-through stabilization proposal (the paper) and ULFM (User-Level
Failure Mitigation, the model MPI-4+ adopted) answer the same question —
*what does an application do after fail-stop?* — with different
primitives.  RTS keeps the communicator and re-enables it with a
collective validate; ULFM **revokes** the broken communicator,
**agrees** on what happened, and **shrinks** to a new communicator of
survivors (Rocco & Palermo, arXiv:2209.01849).  The revoke mechanics
live in the kernel (:meth:`repro.simmpi.Comm.revoke`); this module
implements the two collective halves on top of the active-message layer:

``comm_agree(comm, value, op)``
    ULFM ``MPI_Comm_agree``: a fault-tolerant agreement on the reduction
    of every live member's contribution.  It is one instance of the
    engine in :mod:`repro.ft.agreement` — the one ``comm_validate_all``
    runs on, default coordinator algorithm — agreeing on ``(rank,
    value)`` contribution pairs instead of bare failed ranks: every
    survivor decides the identical contribution map, then folds it
    locally with ``op`` — so the fold is deterministic and identical
    everywhere.  Crucially it runs on its own AM context
    (:data:`~repro.ft.agreement.CTX_AGREE`), which the revocation sweep
    spares: agreement still works on a revoked communicator, which is
    the whole point.

``comm_shrink(comm)``
    ULFM ``MPI_Comm_shrink``: agree (via ``comm_agree``) on the union of
    everyone's known failed comm ranks, then build the survivor
    communicator — original rank order preserved, context id allocated
    deterministically through :meth:`Runtime.cid_for` so every survivor
    constructs the same communicator without further communication.

Both are collective over the communicator's membership: every live
member must call them the same number of times (instances are aligned by
a per-handle counter, like the validate collective).
"""

from __future__ import annotations

from typing import Any, Callable

from ..simmpi.communicator import Comm
from ..simmpi.p2p import wait
from ..simmpi.request import Request, RequestKind

from .agreement import AGREE, engine_for

#: Reduction ops for folding the agreed contribution map.
AGREE_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "min": min,
    "max": max,
    "sum": lambda a, b: a + b,
    "union": lambda a, b: a | b,
    "band": lambda a, b: a & b,
}


def _resolve_op(op: str | Callable[[Any, Any], Any]) -> Callable[[Any, Any], Any]:
    if callable(op):
        return op
    try:
        return AGREE_OPS[op]
    except KeyError:
        raise ValueError(f"unknown agree op {op!r} (known: {sorted(AGREE_OPS)})")


def icomm_agree(comm: Comm, value: Any) -> Request:
    """Non-blocking ``MPI_Comm_agree``: request completes with the agreed
    frozen set of ``(comm_rank, value)`` contribution pairs."""
    proc = comm.proc
    proc._mpi_call("icomm_agree")
    instance = next(comm._agree_seq)
    req = Request(RequestKind.GENERIC, proc, comm=None)
    engine_for(proc.runtime).start(comm, instance, {(comm.rank, value)}, req, AGREE)
    return req


async def comm_agree(
    comm: Comm, value: Any, op: str | Callable[[Any, Any], Any] = "min"
) -> Any:
    """ULFM ``MPI_Comm_agree``: agreed fold of every member's *value*.

    Tolerates members failing at any point (perfect failure detector,
    coordinator takeover); works on a revoked communicator.  All survivors
    return the identical result: the ``op``-fold over the agreed
    contribution map, in rank order.  Contributions from members that
    died mid-protocol may or may not be included — but identically so at
    every survivor, which is the agreement guarantee that matters.
    """
    fold = _resolve_op(op)
    req = icomm_agree(comm, value)
    await wait(req)
    contributions = sorted(req.data, key=lambda rv: rv[0])
    values = [v for _r, v in contributions]
    result = values[0]
    for v in values[1:]:
        result = fold(result, v)
    return result


async def comm_shrink(comm: Comm, name: str = "") -> Comm:
    """ULFM ``MPI_Comm_shrink``: agree on the failed set, build survivors.

    The survivor group preserves the original rank order (members minus
    the agreed dead), and the new context id comes from the deterministic
    ``cid_for`` registry, so every survivor constructs an identical
    communicator handle with no extra communication.  The new
    communicator starts clean: no recognized/validated state, not
    revoked.  Failures *not yet agreed* (detection still in flight)
    surface as fresh errors on the new communicator — callers loop
    revoke/shrink until quiet, as ULFM applications do.
    """
    proc = comm.proc
    proc._mpi_call("comm_shrink")
    dead: frozenset[int] = await comm_agree(
        comm, frozenset(comm.known_failed_comm_ranks()), op="union"
    )
    op_index = next(comm._create_seq)
    group = tuple(wr for cr, wr in enumerate(comm.group) if cr not in dead)
    cid = proc.runtime.cid_for(comm.cid, op_index, color="shrink")
    return Comm(proc, cid, group, name or f"{comm.name}.shrink{op_index}")
