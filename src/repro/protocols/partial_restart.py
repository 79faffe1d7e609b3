"""Partial restart: repair the failed slot in place, recover from neighbors.

Modeled on the SNIPPETS ``partial-restart.c`` ring: instead of running
*through* the failure (RTS) or running *around* it (shrink), the job
keeps its shape — a failed rank's slot is re-filled by a spare process
and the recruit recovers its position in the computation from state its
neighbors already hold.  The communicator keeps its context id; only the
group binding of the repaired slot changes (``Comm.replace_rank``), so
in-flight messages of live members stay valid.

Roles (over ``n + spares`` physical ranks):

* **Root (slot 0, world rank 0)** — ring root *and* repair coordinator.
  On detecting a member failure it assigns the next live spare to the
  dead slot, ships the recruit a post-repair group snapshot
  (``TAG_RECRUIT`` on the world communicator), and notifies every other
  live member (``TAG_REPAIR``).  Per-channel FIFO from the root gives
  all members the same repair order — the protocol's agreement needs no
  consensus round, at the price of a liveness assumption on the root
  (root death is the classified abort
  :data:`~repro.protocols.base.ABORT_ROOT_LOST`, exactly as in the
  snippet, which never restarts rank 0).
* **Workers** — run the ring with an ANY_SOURCE watchdog receive
  (``TAG_WATCHDOG``, completed in error by the failure sweep) as their
  failure wake, apply repair notices, and perform the two neighbor
  duties: the *left* neighbor of a repaired slot sends the recruit its
  recovery state (``TAG_RECOVER``: the marker of its last forward) and
  resends its last message; a member whose *left* was repaired re-posts
  its data receive against the new occupant.
* **Spares** — park on a world-comm receive until recruited (or told to
  retire once the ring completes).

Duplicate suppression is the paper's marker rule: every member discards
tokens with ``marker < cur_marker``, so a resend that races a survived
original is harmless.  Spare exhaustion is the classified abort
:data:`~repro.protocols.base.ABORT_SPARES_EXHAUSTED`.
"""

from __future__ import annotations

from typing import Any, Callable

from ..core.messages import TAG_DONE, TAG_NORMAL, TAG_RESEND, RingMsg
from ..core.state import RingStats
from ..simmpi.communicator import Comm
from ..simmpi.constants import ANY_SOURCE, ANY_TAG
from ..simmpi.errors import ErrorHandler, MPIError, RankFailStopError
from ..simmpi.p2p import waitany
from ..simmpi.process import SimProcess
from ..simmpi.request import Request
from .base import (
    ABORT_ROOT_LOST,
    ABORT_SPARES_EXHAUSTED,
    TAG_RECOVER,
    TAG_RECRUIT,
    TAG_REPAIR,
    TAG_RETIRE,
    TAG_WATCHDOG,
    ProtocolRingConfig,
    protocol_report,
)


def _ring_cid(mpi: SimProcess) -> int:
    """The ring communicator's context id — deterministic, so actives at
    start and recruits mid-run construct the identical handle."""
    return mpi.runtime.cid_for(0, 0, color="partial_restart")


def _known_dead(mpi: SimProcess) -> set[int]:
    return mpi.runtime.known_by[mpi.rank]


def _slot_alive(mpi: SimProcess, comm: Comm, slot: int) -> bool:
    return comm.group[slot] not in _known_dead(mpi)


def _drop_failed(*reqs: "Request | None") -> "list[Request | None]":
    """Replace requests consumed by an error completion with ``None``."""
    return [None if (r is not None and r.failed()) else r for r in reqs]


# ---------------------------------------------------------------------------
# Worker / recruit
# ---------------------------------------------------------------------------


async def _worker_loop(
    mpi: SimProcess,
    cfg: ProtocolRingConfig,
    comm: Comm,
    *,
    recruited: bool,
) -> dict[str, Any]:
    world = mpi.comm_world
    slot = comm.rank
    left = (slot - 1) % comm.size
    right = (slot + 1) % comm.size
    stats = RingStats()
    cur_marker = 0
    #: Last message forwarded right, with the tag a resend would use.
    last_sent: tuple[RingMsg, int] | None = None
    done_forwarded = False
    recovered_marker: int | None = None
    repairs_seen = 0

    data: Request | None = None
    watchdog: Request | None = None
    notice: Request = world.irecv(source=0, tag=ANY_TAG)

    def resend_right() -> None:
        """Neighbor duty: hand the new right occupant its recovery state."""
        nonlocal last_sent
        if last_sent is None:
            return
        msg, rtag = last_sent
        try:
            comm.send(msg.marker, right, TAG_RECOVER)
            comm.send(msg.copy(), right, rtag)
            stats.resends += 1
        except RankFailStopError:
            pass  # recruit already died; the next repair notice retries

    while True:
        if data is None and _slot_alive(mpi, comm, left):
            mpi.probe_point("post_recv")
            data = comm.irecv(source=left, tag=ANY_TAG)
        if watchdog is None and not comm.known_failed_comm_ranks():
            watchdog = comm.irecv(source=ANY_SOURCE, tag=TAG_WATCHDOG)
        reqs = [r for r in (data, notice, watchdog) if r is not None]
        try:
            i, status = await waitany(reqs)
            req = reqs[i]
        except (RankFailStopError, MPIError):
            if 0 in _known_dead(mpi):
                mpi.abort(ABORT_ROOT_LOST)
            data, watchdog = _drop_failed(data, watchdog)
            continue
        if req is notice:
            payload = notice.data
            tag = status.tag
            notice = world.irecv(source=0, tag=ANY_TAG)
            if tag == TAG_RETIRE:
                break
            assert tag == TAG_REPAIR
            bad_slot, w_new = payload
            comm.replace_rank(bad_slot, w_new)
            repairs_seen += 1
            if bad_slot == left:
                stats.left_retargets += 1
                if data is not None and not data.done:
                    data.cancel()
                if data is None or not data.done:
                    data = None  # re-post against the new occupant
            if bad_slot == right:
                stats.right_retargets += 1
                resend_right()
            continue
        if req is watchdog:  # pragma: no cover - watchdog only errors
            watchdog = None
            continue
        # -- ring data -----------------------------------------------------
        payload, tag = data.data, status.tag
        data = None
        if tag == TAG_RECOVER:
            # Neighbor-held state: the marker our left last forwarded.
            if recovered_marker is None:
                recovered_marker = payload
            cur_marker = max(cur_marker, payload)
            continue
        if tag == TAG_DONE:
            if done_forwarded:
                stats.duplicates_discarded += 1
                continue
            done_forwarded = True
            cur_marker = max(cur_marker, payload.marker)
            last_sent = (payload, TAG_DONE)
            try:
                comm.send(payload, right, TAG_DONE)
            except RankFailStopError:
                pass  # resent when the dead right neighbor is repaired
            continue
        if payload.marker < cur_marker:
            stats.duplicates_discarded += 1
            continue
        if cfg.work_per_iter:
            await mpi.compute(cfg.work_per_iter)
        msg = RingMsg(payload.value + 1, payload.marker)
        cur_marker = msg.marker + 1
        mpi.probe_point("post_send")
        last_sent = (msg, TAG_RESEND)
        try:
            comm.send(msg.copy(), right, TAG_NORMAL)
        except RankFailStopError:
            pass  # resent when the dead right neighbor is repaired
        stats.forwards += 1

    for r in (data, watchdog, notice):
        if r is not None and not r.done:
            r.cancel()
    return protocol_report(
        rank=mpi.rank,
        role="recruit" if recruited else "worker",
        left=left,
        right=right,
        root=0,
        cur_marker=cur_marker,
        stats=stats,
        protocol="partial_restart",
        slot=slot,
        recruited=recruited,
        recovered_marker=recovered_marker,
        repairs_seen=repairs_seen,
    )


# ---------------------------------------------------------------------------
# Root (ring root + repair coordinator)
# ---------------------------------------------------------------------------


async def _root_loop(
    mpi: SimProcess,
    cfg: ProtocolRingConfig,
    comm: Comm,
    spare_pool: tuple[int, ...],
) -> dict[str, Any]:
    world = mpi.comm_world
    left = comm.size - 1
    right = 1
    stats = RingStats()
    completed = 0
    cur_marker = 0
    last_sent: tuple[RingMsg, int] | None = None
    next_spare = 0
    repairs = 0
    recovery_time = 0.0
    need_inject = True
    done_back = False

    data: Request | None = None
    watchdog: Request | None = None

    def repair() -> None:
        """Assign spares to every known-dead slot and notify the ring."""
        nonlocal next_spare, repairs, data
        while True:
            bad_slots = sorted(comm.known_failed_comm_ranks())
            if not bad_slots:
                return
            for bad_slot in bad_slots:
                w_new = None
                while next_spare < len(spare_pool):
                    cand = spare_pool[next_spare]
                    next_spare += 1
                    if cand not in _known_dead(mpi):
                        w_new = cand
                        break
                if w_new is None:
                    mpi.abort(ABORT_SPARES_EXHAUSTED)
                comm.replace_rank(bad_slot, w_new)
                repairs += 1
                world.send((bad_slot, tuple(comm.group)), w_new, TAG_RECRUIT)
                for cr, wr in enumerate(comm.group):
                    if cr in (0, bad_slot) or wr in _known_dead(mpi):
                        continue
                    world.send((bad_slot, w_new), wr, TAG_REPAIR)
                if bad_slot == right and last_sent is not None:
                    stats.right_retargets += 1
                    msg, rtag = last_sent
                    try:
                        comm.send(msg.marker, right, TAG_RECOVER)
                        comm.send(msg.copy(), right, rtag)
                        stats.resends += 1
                    except RankFailStopError:
                        pass  # re-detected; the outer while retries
                if bad_slot == left:
                    stats.left_retargets += 1
                    if data is not None and not data.done:
                        data.cancel()
                    if data is None or not data.done:
                        data = None

    while not done_back:
        if comm.known_failed_comm_ranks():
            t0 = mpi.now
            repair()
            recovery_time += mpi.now - t0
        if need_inject:
            if completed < cfg.max_iter:
                if cfg.work_per_iter:
                    await mpi.compute(cfg.work_per_iter)
                mpi.probe_point("root_post_send")
                msg = RingMsg(1, completed)
                last_sent = (msg, TAG_RESEND)
                try:
                    comm.send(msg.copy(), right, TAG_NORMAL)
                except RankFailStopError:
                    pass  # repaired and resent on the next pass
            else:
                done = RingMsg(None, cfg.max_iter)
                last_sent = (done, TAG_DONE)
                try:
                    comm.send(done, right, TAG_DONE)
                except RankFailStopError:
                    pass
            need_inject = False
        if data is None and _slot_alive(mpi, comm, left):
            mpi.probe_point("root_post_recv")
            data = comm.irecv(source=left, tag=ANY_TAG)
        if watchdog is None and not comm.known_failed_comm_ranks():
            watchdog = comm.irecv(source=ANY_SOURCE, tag=TAG_WATCHDOG)
        reqs = [r for r in (data, watchdog) if r is not None]
        if not reqs:
            continue  # a repair is pending; loop to perform it
        try:
            i, status = await waitany(reqs)
            req = reqs[i]
        except (RankFailStopError, MPIError):
            data, watchdog = _drop_failed(data, watchdog)
            continue
        if req is watchdog:  # pragma: no cover - watchdog only errors
            watchdog = None
            continue
        payload, tag = data.data, status.tag
        data = None
        if tag == TAG_DONE:
            done_back = True
            cur_marker = max(cur_marker, payload.marker)
            break
        if payload.marker != completed:
            stats.duplicates_discarded += 1
            continue
        stats.root_completions.append((payload.marker, payload.value))
        stats.iterations_completed += 1
        completed += 1
        cur_marker = completed
        need_inject = True

    for cr, wr in enumerate(comm.group):
        if cr == 0 or wr in _known_dead(mpi):
            continue
        try:
            world.send(0, wr, TAG_RETIRE)
        except RankFailStopError:
            pass
    for cand in spare_pool[next_spare:]:
        if cand in _known_dead(mpi):
            continue
        try:
            world.send(0, cand, TAG_RETIRE)
        except RankFailStopError:
            pass
    for r in (data, watchdog):
        if r is not None and not r.done:
            r.cancel()
    return protocol_report(
        rank=mpi.rank,
        role="root",
        left=left,
        right=right,
        root=0,
        cur_marker=cur_marker,
        stats=stats,
        protocol="partial_restart",
        slot=0,
        recruited=False,
        repairs=repairs,
        spares_used=next_spare,
        recovery_time=recovery_time,
    )


# ---------------------------------------------------------------------------
# Spare
# ---------------------------------------------------------------------------


async def _spare_main(
    mpi: SimProcess, cfg: ProtocolRingConfig
) -> dict[str, Any]:
    world = mpi.comm_world
    try:
        payload, status = await world.recv(source=0, tag=ANY_TAG)
    except RankFailStopError:
        mpi.abort(ABORT_ROOT_LOST)
    if status.tag == TAG_RETIRE:
        return protocol_report(
            rank=mpi.rank,
            role="spare",
            left=-1,
            right=-1,
            root=0,
            cur_marker=0,
            stats=RingStats(),
            protocol="partial_restart",
            slot=-1,
            recruited=False,
            recovered_marker=None,
            repairs_seen=0,
        )
    assert status.tag == TAG_RECRUIT
    slot, group = payload
    comm = Comm(mpi, _ring_cid(mpi), tuple(group), "ring.pr")
    comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
    assert comm.rank == slot
    return await _worker_loop(mpi, cfg, comm, recruited=True)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def make_partial_restart_mains(
    cfg: ProtocolRingConfig, logical_n: int, spares: int
) -> Callable[[SimProcess], dict[str, Any]]:
    """Build the (SPMD) per-rank main: ``logical_n`` actives + spares.

    Run it on ``logical_n + spares`` physical ranks; ranks below
    ``logical_n`` start as ring members, the rest park as spares.
    """

    async def main(mpi: SimProcess) -> dict[str, Any]:
        mpi.comm_world.set_errhandler(ErrorHandler.ERRORS_RETURN)
        if mpi.rank >= logical_n:
            return await _spare_main(mpi, cfg)
        cid = _ring_cid(mpi)
        comm = Comm(mpi, cid, tuple(range(logical_n)), "ring.pr")
        comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
        spare_pool = tuple(range(logical_n, logical_n + spares))
        if mpi.rank == 0:
            return await _root_loop(mpi, cfg, comm, spare_pool)
        return await _worker_loop(mpi, cfg, comm, recruited=False)

    return main
