"""ULFM-style shrink/repair ring driver.

The recovery strategy (contrast with the paper's RTS ring, which keeps
the communicator and *recognizes* failures):

1. Run the ring fault-unaware on the current communicator, in *epochs*.
2. Any member that hits an error — ``MPI_ERR_RANK_FAIL_STOP`` from a
   dead neighbor, or ``MPI_ERR_REVOKED`` from someone else's step 3 —
   **revokes** the communicator, kicking every other member out of its
   blocking call (the kernel completes their pending receives with
   ``ERR_REVOKED``).
3. All live members converge on a ``comm_agree`` of an "epoch clean?"
   flag.  Unanimously clean means the ring completed: exit.  Otherwise
   everyone calls ``comm_shrink`` — agree on the dead set, rebuild a
   survivor communicator with a fresh context id — and re-enters the
   epoch loop on the new communicator.
4. The root re-injects the first uncompleted iteration on the new
   communicator.  The fresh context id quarantines every stale in-flight
   message of the old epoch, so no duplicate detection is needed — the
   structural opposite of partial restart, which keeps the context and
   must de-duplicate.

Termination rides the same machinery: the root circulates a DONE token,
and the per-epoch agree doubles as the exit barrier, so a failure during
termination simply triggers one more (trivially short) epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..core.messages import TAG_DONE, TAG_NORMAL, RingMsg
from ..core.state import RingStats
from ..ft.ulfm import comm_agree, comm_shrink
from ..simmpi.communicator import Comm
from ..simmpi.constants import ANY_TAG
from ..simmpi.errors import CommRevokedError, ErrorHandler, MPIError, RankFailStopError
from ..simmpi.process import SimProcess
from .base import ABORT_RING_ALONE, ProtocolRingConfig, protocol_report


@dataclass
class _RingState:
    """Progress that must survive a failed epoch.

    Mutated *in place* as the epoch advances: an epoch that dies halfway
    through must not roll back completed work, or the retry would replay
    (and at the root, re-log) iterations that already finished — the
    duplicate-completion pathology the protocol exists to avoid.
    """

    completed: int = 0
    cur_marker: int = 0


async def _epoch(
    mpi: SimProcess,
    comm: Comm,
    cfg: ProtocolRingConfig,
    stats: RingStats,
    st: _RingState,
) -> None:
    """One failure-free attempt at the remaining ring work.

    Returns on clean completion (root: all iterations done and the DONE
    token came back; worker: the DONE token passed through).  Any MPI
    error propagates to the caller, with *st* reflecting true progress.
    """
    me, size = comm.rank, comm.size
    right = (me + 1) % size
    left = (me - 1) % size
    if me == 0:
        while st.completed < cfg.max_iter:
            if cfg.work_per_iter:
                await mpi.compute(cfg.work_per_iter)
            mpi.probe_point("root_post_send")
            comm.send(RingMsg(1, st.completed), right, TAG_NORMAL)
            mpi.probe_point("root_post_recv")
            back, _status = await comm.recv(source=left, tag=TAG_NORMAL)
            stats.root_completions.append((back.marker, back.value))
            stats.iterations_completed += 1
            st.completed += 1
            st.cur_marker = st.completed
        comm.send(RingMsg(None, st.completed), right, TAG_DONE)
        await comm.recv(source=left, tag=TAG_DONE)
        return
    while True:
        mpi.probe_point("post_recv")
        msg, status = await comm.recv(source=left, tag=ANY_TAG)
        if status.tag == TAG_DONE:
            comm.send(msg, right, TAG_DONE)
            st.completed = max(st.completed, msg.marker)
            st.cur_marker = max(st.cur_marker, msg.marker)
            return
        if cfg.work_per_iter:
            await mpi.compute(cfg.work_per_iter)
        msg.value += 1
        st.cur_marker = max(st.cur_marker, msg.marker + 1)
        mpi.probe_point("post_send")
        comm.send(msg, right, TAG_NORMAL)
        stats.forwards += 1


def make_shrink_repair_main(
    cfg: ProtocolRingConfig,
) -> Callable[[SimProcess], dict[str, Any]]:
    """Build the per-rank main for the shrink/repair protocol."""

    async def main(mpi: SimProcess) -> dict[str, Any]:
        comm = mpi.comm_world
        comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
        stats = RingStats()
        st = _RingState()
        epochs = 0
        recovery_time = 0.0
        while True:
            clean = 1
            err_at = None
            try:
                await _epoch(mpi, comm, cfg, stats, st)
            except (RankFailStopError, CommRevokedError):
                err_at = mpi.now
                clean = 0
                try:
                    comm.revoke()
                except MPIError:  # pragma: no cover - revoke never raises
                    pass
            if await comm_agree(comm, clean, op="min"):
                break
            t0 = err_at if err_at is not None else mpi.now
            comm = await comm_shrink(comm)
            comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
            epochs += 1
            recovery_time += mpi.now - t0
            if comm.size < 2:
                mpi.abort(ABORT_RING_ALONE)
        me, size = comm.rank, comm.size
        return protocol_report(
            rank=me,
            role="root" if me == 0 else "worker",
            left=(me - 1) % size,
            right=(me + 1) % size,
            root=0,
            cur_marker=st.cur_marker,
            stats=stats,
            protocol="shrink_repair",
            epochs=epochs,
            recoveries=epochs,
            recovery_time=recovery_time,
            final_size=size,
        )

    return main
