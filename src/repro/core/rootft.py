"""Root-failure-tolerant ring (paper §III-D).

The paper's final design question: *what if the root fails?*  Its answer,
implemented here:

1. Every process re-elects the root locally via the Fig. 12 leader
   election (lowest alive rank).
2. The process that finds itself the new root must **regain control of
   the iteration**: "the ``P_L`` peer will resend to the new root the last
   buffer it passed to the old root.  From this information and local
   knowledge of the last buffer that it passed to ``P_R``, the new root
   can determine the last known iteration of the ring" (§III-D).
3. Termination uses the consensus-based Fig. 13 scheme
   (``MPI_Icomm_validate_all``), which — unlike the Fig. 11 root
   broadcast — survives root death.

Recovery logic.  Ring traffic flows strictly rightward, and the new root
is by construction the old root's ring successor (the lowest alive rank).
If the new root has already forwarded ``c`` iterations (``cur_marker ==
c``), the most-progressed surviving copy of the ring buffer carries marker
``c - 1`` and the resend chain is guaranteed to deliver it to the new
root: every alive process watches its right neighbor and retransmits its
last-sent buffer past failures.  The new root therefore waits for a buffer
with marker ``>= c - 1``, records it as that iteration's completion, and
resumes leading from the following marker.  Two corner cases:

* ``c == 0`` — nothing was ever forwarded; the new root simply starts
  leading iteration 0 (stale in-flight duplicates are marker-deduplicated
  at every receiver).
* The awaited resend arrived *before* the role change and was discarded
  as a duplicate (asymmetric detection latencies).  The receive machinery
  keeps the freshest discarded buffer (``st.last_discarded``) exactly for
  this: recovery consults it before blocking.
"""

from __future__ import annotations

from typing import Any

from ..simmpi.errors import ErrorHandler
from ..simmpi.process import SimProcess
from .messages import RingMsg
from .neighbors import get_current_root, to_left_of, to_right_of
from .recv import BecameRoot, ft_recv_left
from .ring import RingConfig, ring_report
from .send import ft_send_right
from .state import RingState
from .termination import ft_termination_validate_all


async def _recover_control(st: RingState, mpi: SimProcess) -> None:
    """Regain control of the iteration after becoming the root (§III-D).

    On return, ``st.cur_marker`` is the next iteration this process will
    lead, and the recovered in-flight completion (if any) is recorded.
    """
    mpi.probe_point("became_root")
    if st.cur_marker == 0:
        return  # nothing ever circulated; lead iteration 0 afresh
    want = st.cur_marker - 1
    if st.last_discarded is not None and st.last_discarded.marker >= want:
        msg = st.last_discarded
    else:
        msg = await ft_recv_left(st, accept_from=want)
    st.stats.root_completions.append((msg.marker, msg.value))
    st.cur_marker = msg.marker + 1
    mpi.probe_point("root_recovered")


async def rootft_ring_main(mpi: SimProcess, cfg: RingConfig) -> dict[str, Any]:
    """Ring main loop tolerating failures of any rank, root included.

    The per-iteration roles are re-evaluated against the local leader
    election; a process promoted to root mid-wait (signalled by
    :class:`~repro.core.recv.BecameRoot`) runs control recovery before
    leading its first iteration.
    """
    comm = mpi.comm_world
    comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
    me = comm.rank
    st = RingState(
        comm,
        left=to_left_of(comm, me),
        right=to_right_of(comm, me),
        root=get_current_root(comm),
        dedup=True,
    )
    was_root = st.is_root()

    while st.cur_marker < cfg.max_iter:
        if cfg.work_per_iter:
            await mpi.compute(cfg.work_per_iter)
        st.root = get_current_root(comm)
        if st.is_root() and not was_root:
            await _recover_control(st, mpi)
            was_root = True
            continue  # re-check the loop condition after recovery
        if st.is_root():
            i = st.cur_marker
            buffer = RingMsg(value=1, marker=i)
            ft_send_right(st, buffer)
            mpi.probe_point("root_post_send")
            msg = await ft_recv_left(st)
            mpi.probe_point("root_post_recv")
            st.stats.root_completions.append((msg.marker, msg.value))
            st.cur_marker = msg.marker + 1
            st.stats.iterations_completed += 1
        else:
            try:
                msg = await ft_recv_left(st, root_aware=True)
            except BecameRoot:
                st.root = get_current_root(comm)
                await _recover_control(st, mpi)
                was_root = True
                continue
            mpi.probe_point("post_recv")
            msg.value += 1
            ft_send_right(st, msg)
            mpi.probe_point("post_send")
            st.cur_marker += 1
            st.stats.iterations_completed += 1

    mpi.probe_point("pre_termination")
    await ft_termination_validate_all(st, mode=cfg.validate_mode)
    st.root = get_current_root(comm)
    return ring_report(st, "root" if st.is_root() else "nonroot")


def make_rootft_main(cfg: RingConfig):
    """Bind a :class:`RingConfig` into a root-failure-tolerant main."""
    return lambda mpi: rootft_ring_main(mpi, cfg)
