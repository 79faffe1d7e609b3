"""Fault-tolerant send to the right neighbor (paper Fig. 5).

``ft_send_right`` tries the current right neighbor; on a
``MPI_ERR_RANK_FAIL_STOP`` it advances ``P_R`` to the next alive rank and
retries, until the send succeeds or the process finds itself alone (in
which case neighbor selection aborts the job, per the paper).
"""

from __future__ import annotations

from ..simmpi.errors import RankFailStopError
from .messages import TAG_NORMAL, TAG_RESEND, RingMsg
from .neighbors import to_right_of
from .state import RingState


def ft_send_right(st: RingState, buffer: RingMsg, *, resend: bool = False) -> None:
    """Send *buffer* to the nearest alive right neighbor (Fig. 5).

    Retargets ``st.right`` past failed ranks as sends bounce.  Also
    records the buffer as ``st.last_sent`` so a later failure of the right
    neighbor can be repaired by resending it (Fig. 7).

    ``resend=True`` marks a repair retransmission: it bumps the resend
    counter and — in the split-tag variant — goes out on ``TAG_RESEND``.
    """
    comm = st.comm
    tag = TAG_RESEND if (resend and st.resend_tag_split) else TAG_NORMAL
    sent = buffer.copy()
    while True:
        try:
            comm.send(sent, st.right, tag)
            break
        except RankFailStopError:
            st.right = to_right_of(comm, st.right)
            st.stats.right_retargets += 1
    # A message that is its own copy (``RingMsg.copy``) can be kept as
    # is; any other must not alias what the receiver was handed.
    st.last_sent = buffer if sent is buffer else buffer.copy()
    if resend:
        st.stats.resends += 1
    else:
        st.stats.forwards += 1
