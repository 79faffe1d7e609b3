"""Termination detection for the fault-tolerant ring (paper §III-C/D).

Once a process finishes propagating its last ring iteration it cannot
simply call ``MPI_Finalize``: it may still owe a *resend* to a right
neighbor whose predecessor died (paper Fig. 7).  Something must tell every
process "the ring is globally done; stop watching ``P_R``".

Two schemes, as in the paper:

* :func:`ft_termination_root_bcast` (Fig. 11) — the root linearly sends a
  ``T_D`` message to every rank, ignoring failures.  Non-roots wait on the
  termination receive *and* the resend watchdog.  If the root itself dies
  the survivors abort — root failure is outside this scheme's contract.
* :func:`ft_termination_validate_all` (Fig. 13) — replace the fragile
  reliable-broadcast problem with the fault-tolerant consensus already
  provided by ``MPI_Icomm_validate_all``.  Every process (root included)
  enters the non-blocking validate and services resends while it waits.
  This variant survives root failure, enabling §III-D.
"""

from __future__ import annotations

from ..ft.agreement import DEFAULT_MODE
from ..ft.validate_all import icomm_validate_all
from ..simmpi.errors import RankFailStopError
from ..simmpi.nbcoll import ibarrier
from ..simmpi.p2p import waitany
from ..simmpi.request import Request
from .messages import IDX_WATCHDOG, TAG_DONE
from .recv import ensure_watchdog, handle_right_failure
from .state import RingState


async def ft_termination_root_bcast(st: RingState) -> None:
    """Root-broadcast termination (paper Fig. 11).

    Aborts the job if the root fails, exactly as the paper's pseudo code
    does (line 24).
    """
    comm = st.comm
    if st.is_root():
        for peer in range(comm.size):
            if peer == st.me:
                continue
            try:
                comm.send(None, peer, TAG_DONE)
            except RankFailStopError:
                pass  # "Ignore fail." — dead ranks need no termination
        return
    req_t = comm.irecv(source=st.root, tag=TAG_DONE)
    while True:
        ensure_watchdog(st)
        if st.watchdog is not None:
            requests: list[Request] = [req_t, st.watchdog]
        else:
            requests = [req_t]
        try:
            idx, _status = await waitany(requests)
        except RankFailStopError as exc:
            if exc.index == IDX_WATCHDOG and len(requests) == 2:
                handle_right_failure(st)
                continue
            # Root failed: not supported by this scheme — abort (Fig. 11).
            comm.proc.abort(-1)
        if idx == 0:
            return
        # Watchdog completed with data (two-survivor edge): ignore; the
        # termination receive is still pending.
        st.watchdog = None


async def ft_termination_validate_all(st: RingState, mode: str = DEFAULT_MODE) -> int:
    """Consensus-based termination (paper Fig. 13).

    Runs ``MPI_Icomm_validate_all`` concurrently with the resend watchdog.
    Returns the agreed failure count from the validate.  Tolerates any
    number of failures (including the root) as long as the caller itself
    survives.
    """
    comm = st.comm
    req_v = icomm_validate_all(comm, mode=mode)
    while True:
        ensure_watchdog(st)
        if st.watchdog is not None:
            requests: list[Request] = [req_v, st.watchdog]
        else:
            requests = [req_v]
        try:
            idx, status = await waitany(requests)
        except RankFailStopError as exc:
            if exc.index == IDX_WATCHDOG and len(requests) == 2:
                handle_right_failure(st)
                continue
            # "Validate should not fail, but if it does repost" (Fig. 13).
            req_v = icomm_validate_all(comm, mode=mode)
            continue
        if idx == 0:
            return status.count
        st.watchdog = None  # spurious watchdog data: repost and keep waiting


async def ft_termination_ibarrier(
    st: RingState, max_retries: int = 3, mode: str = DEFAULT_MODE
) -> str:
    """The §III-C alternative the paper *rejects*: ``MPI_Ibarrier`` retry.

    Works in the failure-free case (and is cheap there), but under the
    run-through stabilization rules it cannot survive a failure: after a
    process dies, *every* collective — including a reposted ibarrier —
    keeps returning ``MPI_ERR_RANK_FAIL_STOP`` until a collective
    validate, so the retry loop can never make progress.  After
    ``max_retries`` consecutive collective errors this implementation
    falls back to the Fig. 13 consensus termination, which is exactly the
    paper's conclusion ("considerable cost in both performance and
    complexity"; use the consensus the library already provides).

    Returns ``"ibarrier"`` when the barrier alone sufficed and
    ``"fallback"`` when the consensus rescue was needed.

    .. warning::
       This scheme is kept as a *demonstration of why the paper rejects
       it*.  Because collective return codes are not consistent across
       ranks, a failure striking during the termination phase can leave
       some ranks successfully out of the barrier while others fall back
       to the consensus — and the two groups then wait for each other
       forever.  The simulator proves that hang deterministically (see
       ``tests/test_experiments.py::TestABL``).  Making
       the retry safe requires agreeing on the outcome of every barrier,
       i.e. a consensus — which is exactly ``MPI_Comm_validate_all``, the
       paper's Fig. 13 answer.
    """
    comm = st.comm
    retries = 0
    req_b = ibarrier(comm)
    while True:
        ensure_watchdog(st)
        if st.watchdog is not None:
            requests: list[Request] = [req_b, st.watchdog]
        else:
            requests = [req_b]
        try:
            idx, _status = await waitany(requests)
        except RankFailStopError as exc:
            if exc.index == IDX_WATCHDOG and len(requests) == 2:
                handle_right_failure(st)
                continue
            retries += 1
            if retries > max_retries:
                await ft_termination_validate_all(st, mode=mode)
                return "fallback"
            req_b = ibarrier(comm)
            continue
        if idx == 0:
            return "ibarrier"
        st.watchdog = None
