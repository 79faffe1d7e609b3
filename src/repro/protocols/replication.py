"""Active rank replication: mask failures instead of recovering from them.

Modeled on FTHP-MPI (arXiv:2504.09989): every logical rank runs as two
physical replicas executing the same deterministic program.  The
:class:`ReplicatedRing` shim intercepts ring sends and receives:

* a logical **send** posts one physical copy to *each* live replica of
  the destination (honest per-copy cost: the sender's clock advances per
  copy, and every copy counts in the message totals);
* a logical **receive** de-duplicates by per-source sequence number —
  both replicas of a sender emit the identical ``(src, seq)`` stream, so
  the receiver consumes exactly the first arrival of each sequence
  number and drops the rest.

The de-duplication *is* the failover.  There is no detection window on
the critical path: when one replica dies, the copy from its twin is
already in flight (or already buffered), so the receiver never observes
a gap — zero client-visible recovery latency, the property the protocol
matrix pins.  The failure detector is consulted only off the critical
path, to stop sending to dead replicas and to classify the one
unsurvivable pathology: both replicas of a logical rank gone
(:data:`~repro.protocols.base.ABORT_REPLICAS_EXHAUSTED`).

Physical layout: ``2n`` ranks for a logical ring of ``n``; world rank
``w`` runs replica ``w // n`` of logical rank ``w % n``.  The shim rides
a dedicated reserved context id so replica traffic can never collide
with communicator traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..core.messages import TAG_DONE, TAG_NORMAL, RingMsg
from ..core.state import RingStats
from ..simmpi.communicator import CONTEXTS_PER_COMM
from ..simmpi.errors import ErrorClass, RankFailStopError
from ..simmpi.p2p import wait
from ..simmpi.process import SimProcess
from ..simmpi.request import Request, RequestKind, Status
from ..simmpi.util import payload_nbytes
from .base import ABORT_REPLICAS_EXHAUSTED, ProtocolRingConfig, protocol_report

_GENERIC = RequestKind.GENERIC  # a module constant: see ``repro.simmpi.fibers``


class ReplicasExhaustedError(RuntimeError):
    """Both replicas of a logical peer have failed — unmaskable."""

    def __init__(self, logical: int) -> None:
        super().__init__(f"both replicas of logical rank {logical} failed")
        self.logical = logical


@dataclass(slots=True)
class _RepMsg:
    """Wire format of one replicated logical message."""

    src: int  # logical source rank
    seq: int  # per-(src -> this dst) sequence number
    tag: int
    payload: Any


class ReplicatedRing:
    """Replica-aware send/recv shim for one physical rank.

    All replicas of a logical rank run the same deterministic program, so
    their outgoing ``(dst, seq)`` streams are identical — which is what
    makes receiver-side sequence de-duplication sound.
    """

    def __init__(self, mpi: SimProcess, logical_n: int) -> None:
        assert mpi.size == 2 * logical_n, "replication needs 2n physical ranks"
        self.proc = mpi
        self.n = logical_n
        self.logical = mpi.rank % logical_n
        self.replica = mpi.rank // logical_n
        runtime = mpi.runtime
        cid = runtime.cid_for(0, -1, color="replication")
        self.ctx = cid * CONTEXTS_PER_COMM
        runtime.register_am_handler(mpi.rank, self.ctx, self._on_message)
        runtime.add_failure_listener(mpi.rank, self._on_failure)
        self._out_seq: dict[int, int] = {}
        self._expected: dict[int, int] = {}
        self._buffer: dict[tuple[int, int], _RepMsg] = {}
        self._pending: tuple[int, Request] | None = None
        self.copies_sent = 0
        self.dups_discarded = 0

    # -- helpers -----------------------------------------------------------

    def _replicas(self, logical: int) -> tuple[int, int]:
        return (logical, logical + self.n)

    def _live_replicas(self, logical: int) -> list[int]:
        dead = self.proc.runtime.known_by[self.proc.rank]
        return [w for w in self._replicas(logical) if w not in dead]

    # -- logical operations ------------------------------------------------

    def send(self, payload: Any, dst_logical: int, tag: int) -> None:
        """Send one logical message: a physical copy per live replica,
        all carrying one envelope, built and sized once."""
        seq = self._out_seq.get(dst_logical, 0)
        self._out_seq[dst_logical] = seq + 1
        wire = _RepMsg(src=self.logical, seq=seq, tag=tag, payload=payload)
        size = payload_nbytes(wire)
        for phys in self._live_replicas(dst_logical):
            self.proc.runtime.post_send(
                self.proc,
                dst_world=phys,
                tag=tag,
                context=self.ctx,
                payload=wire,
                nbytes=size,
            )
            self.copies_sent += 1

    async def recv(self, src_logical: int) -> tuple[Any, int]:
        """Receive the next logical message from *src_logical*.

        Raises :class:`ReplicasExhaustedError` if (and only if) both
        replicas of the source are known-failed before the message shows
        up — a message buffered pre-failure still masks the failure.
        """
        while True:
            exp = self._expected.get(src_logical, 0)
            wire = self._buffer.pop((src_logical, exp), None)
            if wire is not None:
                self._expected[src_logical] = exp + 1
                return wire.payload, wire.tag
            if not self._live_replicas(src_logical):
                raise ReplicasExhaustedError(src_logical)
            req = Request(_GENERIC, self.proc, comm=None, peer=src_logical)
            self._pending = (src_logical, req)
            try:
                await wait(req)
            except RankFailStopError:
                raise ReplicasExhaustedError(src_logical) from None
            finally:
                self._pending = None

    # -- event-context inputs ----------------------------------------------

    def _on_message(self, msg: Any, time: float) -> None:
        wire: _RepMsg = msg.payload
        exp = self._expected.get(wire.src, 0)
        if wire.seq < exp or (wire.src, wire.seq) in self._buffer:
            self.dups_discarded += 1
            return
        self._buffer[(wire.src, wire.seq)] = wire
        if self._pending is not None:
            src, req = self._pending
            if src == wire.src and wire.seq == exp and not req.done:
                req.complete(time, status=Status(source=wire.src, tag=wire.tag))

    def _on_failure(self, observer: int, failed: int, time: float) -> None:
        if self._pending is None:
            return
        src, req = self._pending
        if req.done or self._live_replicas(src):
            return
        req.complete(
            time,
            error=ErrorClass.ERR_RANK_FAIL_STOP,
            status=Status(source=src, error=ErrorClass.ERR_RANK_FAIL_STOP),
        )


def make_replication_mains(
    cfg: ProtocolRingConfig, logical_n: int
) -> Callable[[SimProcess], dict[str, Any]]:
    """Build the (SPMD) per-rank main for the replicated ring.

    Run it on ``2 * logical_n`` physical ranks; each derives its logical
    role from its world rank.
    """

    async def main(mpi: SimProcess) -> dict[str, Any]:
        shim = ReplicatedRing(mpi, logical_n)
        me = shim.logical
        left = (me - 1) % logical_n
        right = (me + 1) % logical_n
        stats = RingStats()
        cur_marker = 0
        try:
            if me == 0:
                for it in range(cfg.max_iter):
                    if cfg.work_per_iter:
                        await mpi.compute(cfg.work_per_iter)
                    mpi.probe_point("root_post_send")
                    shim.send(RingMsg(1, it), right, TAG_NORMAL)
                    mpi.probe_point("root_post_recv")
                    back, _tag = await shim.recv(left)
                    stats.root_completions.append((back.marker, back.value))
                    stats.iterations_completed += 1
                    cur_marker = it + 1
                shim.send(RingMsg(None, cfg.max_iter), right, TAG_DONE)
                await shim.recv(left)
            else:
                while True:
                    mpi.probe_point("post_recv")
                    msg, tag = await shim.recv(left)
                    if tag == TAG_DONE:
                        shim.send(msg, right, TAG_DONE)
                        break
                    if cfg.work_per_iter:
                        await mpi.compute(cfg.work_per_iter)
                    msg = RingMsg(msg.value + 1, msg.marker)
                    cur_marker = max(cur_marker, msg.marker + 1)
                    mpi.probe_point("post_send")
                    shim.send(msg, right, TAG_NORMAL)
                    stats.forwards += 1
        except ReplicasExhaustedError:
            mpi.abort(ABORT_REPLICAS_EXHAUSTED)
        stats.duplicates_discarded = shim.dups_discarded
        return protocol_report(
            rank=mpi.rank,
            role="root" if me == 0 else "worker",
            left=left,
            right=right,
            root=0,
            cur_marker=cur_marker,
            stats=stats,
            protocol="replication",
            logical_rank=me,
            replica=shim.replica,
            copies_sent=shim.copies_sent,
        )

    return main
