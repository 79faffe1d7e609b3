"""Fault-aware neighbor selection and leader election (paper Figs. 4, 12).

``to_left_of`` / ``to_right_of`` walk the ring skipping every rank whose
state is not ``MPI_RANK_OK`` — consulting the *local* (communication-free)
``MPI_Comm_validate_rank``.  If the walk comes all the way back to the
caller, the process is alone and the job aborts, exactly as the paper's
pseudo code calls ``MPI_Abort``.

``get_current_root`` is the paper's Fig. 12 leader election: the lowest
rank among all ranks the caller believes alive.  Like the paper's version
it is purely local; different processes may transiently disagree while
detector notifications are in flight, which is precisely why §III-D pairs
it with the consensus-based termination of Fig. 13.
"""

from __future__ import annotations

from ..ft.rank_info import RankState
from ..ft.validate import rank_state
from ..simmpi.communicator import Comm

_OK = RankState.OK  # a module constant: see ``repro.simmpi.fibers``


def to_left_of(comm: Comm, n: int) -> int:
    """The nearest alive rank to the *left* of comm rank *n* (Fig. 4).

    Aborts the job if the caller is the only alive rank.
    """
    me = comm.rank
    size = comm.size
    while True:
        n = size - 1 if n == 0 else n - 1
        if rank_state(comm, n) is _OK:
            break
    if n == me:
        comm.proc.abort(-1)
    return n


def to_right_of(comm: Comm, n: int) -> int:
    """The nearest alive rank to the *right* of comm rank *n* (Fig. 4).

    Aborts the job if the caller is the only alive rank.
    """
    me = comm.rank
    size = comm.size
    while True:
        n = (n + 1) % size
        if rank_state(comm, n) is _OK:
            break
    if n == me:
        comm.proc.abort(-1)
    return n


def get_current_root(comm: Comm) -> int:
    """Leader election (Fig. 12): lowest comm rank believed alive.

    Aborts if no rank is alive (cannot happen for the caller itself, which
    is alive by definition — kept for fidelity with the paper's code).
    """
    for n in range(comm.size):
        if rank_state(comm, n) is _OK:
            return n
    comm.proc.abort(-1)
    raise AssertionError("unreachable")  # pragma: no cover
