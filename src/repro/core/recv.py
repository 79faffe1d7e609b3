"""Receive-side machinery of the fault-tolerant ring (paper Figs. 6–10).

Three historical stages of the design, all kept so the benchmark harness
can demonstrate each figure's behaviour:

* :func:`naive_recv_left` — the "first attempt" modeled after
  ``FT_Send_right``: retarget the left neighbor on failure and repost.
  **This version hangs** (paper Fig. 6) when a process dies after
  receiving but before forwarding: the upstream neighbor is already
  waiting for the next iteration and never notices.  The simulator's
  deadlock detector proves the hang.
* :func:`ft_recv_left` with ``st.dedup = False`` — paper Fig. 9 *without*
  lines 24–28: the watchdog ``Irecv`` posted to the right neighbor turns
  the failure detector into a wake-up call, and the last-sent buffer is
  resent; but resends can duplicate messages (paper Fig. 8).
* :func:`ft_recv_left` with ``st.dedup = True`` — the full Fig. 9 with
  the iteration-marker check (Fig. 10): resent messages whose marker is
  below the current iteration are discarded.

The watchdog receive is posted to ``P_R`` on the normal tag: the right
neighbor never sends backwards in the ring, so the only way this request
completes is the ``MPI_ERR_RANK_FAIL_STOP`` raised when ``P_R`` dies.
One deliberate deviation from the paper's pseudo code: when only two
processes survive, ``P_L == P_R`` and a watchdog would share (source, tag)
with the data receive and could swallow a real message, so the watchdog is
suppressed — the data receive itself then reports the peer's death.
"""

from __future__ import annotations

from .. import mutation
from ..simmpi.constants import ANY_TAG
from ..simmpi.errors import RankFailStopError
from ..simmpi.p2p import waitany
from ..simmpi.request import Request
from .messages import IDX_WATCHDOG, TAG_NORMAL, RingMsg
from .neighbors import get_current_root, to_left_of, to_right_of
from .send import ft_send_right
from .state import RingState


class BecameRoot(Exception):
    """Raised (in root-aware mode) when the caller just became the root.

    §III-D: when the old root dies, the new root must stop waiting for a
    normal ring message and instead *regain control* of the iteration
    (see :mod:`repro.core.rootft`).  The exception carries no payload —
    the caller's :class:`~repro.core.state.RingState` has everything.
    """


async def naive_recv_left(st: RingState) -> RingMsg:
    """The flawed first-attempt receive (the design paper Fig. 6 breaks).

    Mirrors ``FT_Send_right``: on failure of the left neighbor, pick the
    next left and repost.  Contains no mechanism for noticing that the
    *right* neighbor died holding the ring's control, so the job deadlocks
    in that scenario.
    """
    comm = st.comm
    while True:
        try:
            msg, _status = await comm.recv(source=st.left, tag=TAG_NORMAL)
            return msg
        except RankFailStopError:
            st.left = to_left_of(comm, st.left)
            st.stats.left_retargets += 1


def _data_tag(st: RingState) -> int:
    """Receive selector: the split-tag variant must accept resends too."""
    return ANY_TAG if st.resend_tag_split else TAG_NORMAL


def ensure_watchdog(st: RingState) -> None:
    """(Re)post the failure-watchdog ``Irecv`` to the current ``P_R``.

    Cancels a stale watchdog left pointing at a previous right neighbor.
    Suppressed when ``P_L == P_R`` (two survivors; see module docstring).
    """
    comm = st.comm
    wd = st.watchdog
    if st.right == st.left:
        if wd is not None and not wd.done:
            wd.cancel()
        st.watchdog = None
        return
    wd_peer_world = comm.world_rank(st.right)
    if wd is not None and not wd.done and wd.peer == wd_peer_world:
        return
    if wd is not None and not wd.done:
        wd.cancel()
    # Posted to a known-failed rank, the watchdog completes in error at
    # once and the caller's wait observes it that way (paper semantics).
    st.watchdog = comm.irecv(source=st.right, tag=TAG_NORMAL)


def handle_right_failure(st: RingState) -> None:
    """Paper Fig. 9 lines 11–15: right peer died — repair and resend.

    Advances ``P_R`` past the failure and retransmits the last buffer this
    process passed along, so the ring's control survives (Fig. 7).  If
    nothing was ever sent there is nothing to resend (first iteration).
    """
    comm = st.comm
    st.right = to_right_of(comm, st.right)
    st.stats.right_retargets += 1
    st.watchdog = None
    if st.last_sent is not None:
        ft_send_right(st, st.last_sent, resend=True)


async def ft_recv_left(
    st: RingState, accept_from: int | None = None, root_aware: bool = False
) -> RingMsg:
    """Fault-tolerant receive from the left neighbor (paper Fig. 9).

    Waits on two requests: the data receive from ``P_L`` and the watchdog
    posted to ``P_R``.  Failure of ``P_R`` triggers a resend of the last
    buffer (control recovery, Fig. 7); failure of ``P_L`` retargets the
    receive and waits for the nearest alive left neighbor's resend.

    With ``st.dedup`` enabled, messages whose marker is below
    ``accept_from`` (default: the current iteration marker) are discarded
    as duplicates (Fig. 10); with it disabled the duplicate pathology of
    Fig. 8 is observable.
    """
    comm = st.comm
    threshold = st.cur_marker if accept_from is None else accept_from
    req_n = comm.irecv(source=st.left, tag=_data_tag(st))
    while True:
        ensure_watchdog(st)
        if st.watchdog is not None:
            requests: list[Request] = [req_n, st.watchdog]
        else:
            requests = [req_n]
        try:
            idx, _status = await waitany(requests)
        except RankFailStopError as exc:
            if exc.index == IDX_WATCHDOG and len(requests) == 2:
                handle_right_failure(st)
            else:
                # Left peer failed: try the nearest alive left peer and
                # wait for it to resend the last buffer (Fig. 7).
                st.left = to_left_of(comm, st.left)
                st.stats.left_retargets += 1
                if root_aware and get_current_root(comm) == comm.rank:
                    # §III-D: the dead left peer was the root and this
                    # process is now the lowest alive rank.  Bail out
                    # before reposting so the recovery receive (not a
                    # leaked request) gets the predecessor's resend.
                    raise BecameRoot() from None
                req_n = comm.irecv(source=st.left, tag=_data_tag(st))
            continue
        if idx == IDX_WATCHDOG:
            # The right neighbor sent backwards: impossible in a ring of
            # three or more (we suppress the watchdog at two).  Repost.
            st.watchdog = None
            continue
        msg: RingMsg = req_n.data
        # The "ring_no_dedup" mutation deliberately disables this marker
        # check so the fuzzer's mutation smoke test can prove it would
        # catch the Fig. 8 duplicate pathology if the defense regressed.
        if (
            st.dedup
            and msg.marker < threshold
            and not mutation.active("ring_no_dedup")
        ):
            st.stats.duplicates_discarded += 1
            # Remember the freshest discarded buffer: if this process is
            # about to become the root, a just-discarded resend may be the
            # very control message recovery needs (§III-D corner case).
            if (
                st.last_discarded is None
                or msg.marker > st.last_discarded.marker
            ):
                st.last_discarded = msg.copy()
            req_n = comm.irecv(source=st.left, tag=_data_tag(st))
            continue
        return msg
