"""Local validate operations (paper Fig. 1 lines 10–15).

These functions are *local*: they consult only the calling process's
failure knowledge (its view of the perfect failure detector) and its
per-communicator recognition state.  They never communicate.

* :func:`comm_validate_rank` — query one rank's state.
* :func:`comm_validate` — list the failed ranks and their states.
* :func:`comm_validate_clear` — locally *recognize* failures, re-enabling
  point-to-point with those ranks under ``MPI_PROC_NULL`` semantics
  (collectives stay disabled until :func:`~repro.ft.validate_all.comm_validate_all`).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..simmpi.communicator import Comm
from ..simmpi.errors import ErrorClass, InvalidArgumentError
from ..simmpi.trace import VALIDATE_CLEAR
from .rank_info import RankInfo, RankState

# Module constants: Enum-class lookups are slow on CPython 3.11 (see
# ``repro.simmpi.fibers``), and the ring's neighbour walk asks per rank.
_OK = RankState.OK
_NULL = RankState.NULL
_FAILED = RankState.FAILED


def rank_state(comm: Comm, rank: int) -> RankState:
    """The state of comm rank *rank* as seen by the calling process."""
    if not 0 <= rank < comm.size:
        raise InvalidArgumentError(
            f"rank {rank} out of range for {comm.name}",
            error_class=ErrorClass.ERR_RANK,
        )
    if rank in comm.recognized:
        return _NULL
    if comm._known_failed(rank):
        return _FAILED
    return _OK


def comm_validate_rank(comm: Comm, rank: int) -> RankInfo:
    """``MPI_Comm_validate_rank``: locally query one rank's state."""
    comm.proc._mpi_call("comm_validate_rank")
    return RankInfo(rank=rank, generation=0, state=rank_state(comm, rank))


def comm_validate(comm: Comm) -> list[RankInfo]:
    """``MPI_Comm_validate``: locally list all failed ranks (any state)."""
    comm.proc._mpi_call("comm_validate")
    out = []
    for rank in range(comm.size):
        state = rank_state(comm, rank)
        if state is not _OK:
            out.append(RankInfo(rank=rank, generation=0, state=state))
    return out


def comm_validate_clear(comm: Comm, ranks: Iterable[int] | Sequence[RankInfo]) -> int:
    """``MPI_Comm_validate_clear``: locally recognize failed ranks.

    Accepts plain comm ranks or :class:`RankInfo` objects (as returned by
    :func:`comm_validate`).  Ranks that are not known-failed are ignored —
    recognition applies only to failures this process has been notified
    of.  Returns the number of ranks newly recognized.

    After recognition, point-to-point operations addressed to those ranks
    follow ``MPI_PROC_NULL`` semantics; collective operations remain
    disabled until a collective validate.
    """
    proc = comm.proc
    proc._mpi_call("comm_validate_clear")
    newly = 0
    for item in ranks:
        rank = item.rank if isinstance(item, RankInfo) else int(item)
        if not 0 <= rank < comm.size:
            raise InvalidArgumentError(
                f"rank {rank} out of range for {comm.name}",
                error_class=ErrorClass.ERR_RANK,
            )
        if rank in comm.recognized:
            continue
        if comm._known_failed(rank):
            comm.recognized.add(rank)
            newly += 1
    trace = proc.runtime.trace
    if newly and trace.enabled:
        trace.add((
            proc.now, VALIDATE_CLEAR, proc.rank,
            "clear", comm.name, sorted(comm.recognized),
        ))
    return newly
