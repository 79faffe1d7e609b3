"""Ring drivers: the paper's Fig. 2 baseline and the Fig. 3 FT main loop.

:func:`make_ring_main` builds a per-rank main function for
:class:`~repro.simmpi.runtime.Simulation` from a :class:`RingConfig`.
The configuration selects one of the paper's design stages
(:class:`RingVariant`) and a termination scheme (:class:`Termination`),
so every behavioural figure of the paper is a config away:

==============  =====================================================
Fig. 2          ``RingVariant.BASELINE`` (fault-unaware, fatal errors)
Fig. 6 hang     ``RingVariant.NAIVE`` + failure in the post-recv window
Fig. 7 resend   ``RingVariant.FT_MARKER`` + same failure
Fig. 8 dupes    ``RingVariant.FT_NO_MARKER`` + failure in the post-send
                window
Fig. 10         ``RingVariant.FT_MARKER`` + same failure
Fig. 11         ``Termination.ROOT_BCAST``
Fig. 13         ``Termination.VALIDATE_ALL``
§III-B alt      ``RingVariant.FT_TAGGED`` (resends on a separate tag)
==============  =====================================================

Fault-injection windows are exposed as probe points:

* non-root: ``post_recv`` (received, not yet forwarded — the Fig. 6
  window) and ``post_send`` (forwarded — the Fig. 8 window);
* root: ``root_post_send`` and ``root_post_recv``.

Each probe is hit once per iteration, so "rank 2 dies in iteration 1's
post-recv window" is ``KillAtProbe(rank=2, probe="post_recv", hit=2)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..ft.agreement import DEFAULT_MODE
from ..simmpi.errors import ErrorHandler
from ..simmpi.process import SimProcess
from .messages import TAG_NORMAL, RingMsg, RingVariant, Termination
from .neighbors import get_current_root, to_left_of, to_right_of
from .recv import ft_recv_left, naive_recv_left
from .send import ft_send_right
from .state import RingState
from .termination import (
    ft_termination_ibarrier,
    ft_termination_root_bcast,
    ft_termination_validate_all,
)


@dataclass(frozen=True)
class RingConfig:
    """Parameters of one ring run."""

    max_iter: int = 10
    variant: RingVariant = RingVariant.FT_MARKER
    termination: Termination = Termination.ROOT_BCAST
    #: Agreement algorithm for VALIDATE_ALL termination ("coordinator",
    #: or "full" for the FloodSet oracle).
    validate_mode: str = DEFAULT_MODE
    #: Per-iteration local compute time (spreads iterations over virtual
    #: time so failure windows at specific times are easy to hit).
    work_per_iter: float = 0.0


def ring_report(st: RingState, role: str) -> dict[str, Any]:
    """Assemble the per-rank result dictionary the harness consumes."""
    out: dict[str, Any] = {
        "rank": st.me,
        "role": role,
        "left": st.left,
        "right": st.right,
        "root": st.root,
        "cur_marker": st.cur_marker,
    }
    out.update(st.stats.as_dict())
    return out


async def baseline_ring_main(mpi: SimProcess, cfg: RingConfig) -> dict[str, Any]:
    """The traditional fault-unaware ring (paper Fig. 2).

    Neighbors are fixed arithmetic; the error handler stays at the default
    ``MPI_ERRORS_ARE_FATAL``, so any failure aborts the whole job.
    """
    comm = mpi.comm_world
    me, size = comm.rank, comm.size
    right = (me + 1) % size
    left = size - 1 if me == 0 else me - 1
    root = 0
    st = RingState(comm, left=left, right=right, root=root)
    for i in range(cfg.max_iter):
        if cfg.work_per_iter:
            await mpi.compute(cfg.work_per_iter)
        if me == root:
            buffer = RingMsg(value=1, marker=i)
            comm.send(buffer, right, TAG_NORMAL)
            mpi.probe_point("root_post_send")
            msg, _ = await comm.recv(source=left, tag=TAG_NORMAL)
            mpi.probe_point("root_post_recv")
            st.stats.root_completions.append((msg.marker, msg.value))
        else:
            msg, _ = await comm.recv(source=left, tag=TAG_NORMAL)
            mpi.probe_point("post_recv")
            msg = RingMsg(msg.value + 1, msg.marker)
            comm.send(msg, right, TAG_NORMAL)
            mpi.probe_point("post_send")
            st.stats.forwards += 1
        st.stats.iterations_completed += 1
        st.cur_marker = i + 1
    return ring_report(st, "root" if me == root else "nonroot")


async def ft_ring_main(mpi: SimProcess, cfg: RingConfig) -> dict[str, Any]:
    """The fault-tolerant ring main loop (paper Fig. 3).

    Assumes the root does not fail (paper §III assumption; §III-D's
    root-failure-tolerant driver lives in :mod:`repro.core.rootft`).
    """
    comm = mpi.comm_world
    comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
    me = comm.rank
    st = RingState(
        comm,
        left=to_left_of(comm, me),
        right=to_right_of(comm, me),
        root=get_current_root(comm),
        dedup=cfg.variant in (RingVariant.FT_MARKER, RingVariant.FT_TAGGED),
        resend_tag_split=cfg.variant is RingVariant.FT_TAGGED,
    )

    recv = naive_recv_left if cfg.variant is RingVariant.NAIVE else ft_recv_left

    for i in range(cfg.max_iter):
        if cfg.work_per_iter:
            await mpi.compute(cfg.work_per_iter)
        # ``st.is_root()``, without its two property calls: this driver
        # never changes ``st.root`` or the caller's rank.
        if st.root == me:
            st.cur_marker = i
            buffer = RingMsg(value=1, marker=i)
            ft_send_right(st, buffer)
            mpi.probe_point("root_post_send")
            msg = await recv(st)
            mpi.probe_point("root_post_recv")
            st.stats.root_completions.append((msg.marker, msg.value))
        else:
            msg = await recv(st)
            mpi.probe_point("post_recv")
            ft_send_right(st, RingMsg(msg.value + 1, msg.marker))
            mpi.probe_point("post_send")
            st.cur_marker += 1
        st.stats.iterations_completed += 1

    mpi.probe_point("pre_termination")
    termination_path = cfg.termination.value
    if cfg.termination is Termination.ROOT_BCAST:
        await ft_termination_root_bcast(st)
    elif cfg.termination is Termination.VALIDATE_ALL:
        await ft_termination_validate_all(st, mode=cfg.validate_mode)
    elif cfg.termination is Termination.IBARRIER:
        termination_path = await ft_termination_ibarrier(st, mode=cfg.validate_mode)
    report = ring_report(st, "root" if st.is_root() else "nonroot")
    report["termination_path"] = termination_path
    return report


def make_ring_main(cfg: RingConfig):
    """Bind a :class:`RingConfig` into a ``main(mpi)`` callable."""
    if cfg.variant is RingVariant.BASELINE:
        return lambda mpi: baseline_ring_main(mpi, cfg)
    return lambda mpi: ft_ring_main(mpi, cfg)
