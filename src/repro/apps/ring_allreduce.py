"""Fault-tolerant ring allreduce built on the paper's ring machinery.

A second domain workload exercising the public ring API with a non-trivial
payload: every rank contributes a numpy vector; two ring passes compute
the elementwise sum of the *surviving* contributions at every rank.

Phase 1 (accumulate): the root circulates a buffer carrying
``(partial_sum, contributor_set)``; each rank adds its vector exactly once
(the contributor set makes the addition idempotent under resends — the
vector-payload analogue of the paper's duplicate-message lesson: a marker
alone dedups *messages*, the contributor set dedups *side effects*).

Phase 2 (distribute): the root circulates the final sum; each rank keeps a
copy as it forwards.

Both phases run on :func:`~repro.core.send.ft_send_right` /
:func:`~repro.core.recv.ft_recv_left` with markers, so any non-root
failure is survived exactly like the ring example; the termination
rendezvous is the Fig. 13 consensus validate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.messages import RingMsg
from ..core.neighbors import get_current_root, to_left_of, to_right_of
from ..core.recv import ft_recv_left
from ..core.ring import ring_report
from ..core.send import ft_send_right
from ..core.state import RingState
from ..core.termination import ft_termination_validate_all
from ..simmpi.errors import ErrorHandler
from ..simmpi.process import SimProcess


@dataclass(frozen=True)
class AllreduceConfig:
    """Parameters of one fault-tolerant ring allreduce."""

    vector_len: int = 8
    #: Number of independent allreduce rounds to run back-to-back.
    rounds: int = 1
    work_per_round: float = 0.0


def _contribution(rank: int, length: int) -> np.ndarray:
    """Deterministic per-rank vector: ``rank + 1`` in every slot."""
    return np.full(length, float(rank + 1))


async def allreduce_main(mpi: SimProcess, cfg: AllreduceConfig) -> dict[str, Any]:
    """Per-rank main: ``cfg.rounds`` fault-tolerant vector allreduces.

    The report includes the final reduced vector and the contributor set
    of each round, so tests can verify the sum matches exactly the ranks
    that were alive to contribute.
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
    mine = _contribution(me, cfg.vector_len)
    results: list[dict[str, Any]] = []

    # Each round consumes two ring iterations (markers): accumulate and
    # distribute.  Marker numbering stays global across rounds so the
    # standard dedup rule applies unchanged.
    for rnd in range(cfg.rounds):
        if cfg.work_per_round:
            await mpi.compute(cfg.work_per_round)
        acc_marker = 2 * rnd
        dist_marker = 2 * rnd + 1
        if st.is_root():
            # Phase 1: accumulate.
            st.cur_marker = acc_marker
            payload = {"sum": mine.copy(), "contributors": {me}}
            ft_send_right(st, RingMsg(value=payload, marker=acc_marker))
            mpi.probe_point("root_post_send")
            msg = await ft_recv_left(st)
            total = msg.value["sum"]
            contributors = set(msg.value["contributors"])
            # Phase 2: distribute.
            st.cur_marker = dist_marker
            out = {"sum": total, "contributors": contributors}
            ft_send_right(st, RingMsg(value=out, marker=dist_marker))
            mpi.probe_point("root_post_send")
            msg = await ft_recv_left(st)
            st.stats.root_completions.append((dist_marker, len(contributors)))
        else:
            # Phase 1: add my vector exactly once (contributor-set guard).
            msg = await ft_recv_left(st)
            mpi.probe_point("post_recv")
            if me not in msg.value["contributors"]:
                msg.value["sum"] = msg.value["sum"] + mine
                msg.value["contributors"] = set(msg.value["contributors"]) | {me}
            ft_send_right(st, msg)
            mpi.probe_point("post_send")
            st.cur_marker += 1
            # Phase 2: keep a copy of the final sum as it passes.
            msg = await ft_recv_left(st)
            mpi.probe_point("post_recv")
            total = msg.value["sum"]
            contributors = set(msg.value["contributors"])
            ft_send_right(st, msg)
            mpi.probe_point("post_send")
            st.cur_marker += 1
        results.append(
            {
                "round": rnd,
                "sum": np.asarray(total).tolist(),
                "contributors": sorted(contributors),
            }
        )
        st.stats.iterations_completed += 1

    await ft_termination_validate_all(st)
    report = ring_report(st, "root" if st.is_root() else "nonroot")
    report["allreduce"] = results
    return report


def make_allreduce_main(cfg: AllreduceConfig):
    """Bind an :class:`AllreduceConfig` into a ``main(mpi)`` callable."""
    return lambda mpi: allreduce_main(mpi, cfg)


def expected_sum(contributors: list[int], length: int) -> list[float]:
    """The reference result for a given contributor set."""
    total = np.zeros(length)
    for r in contributors:
        total += _contribution(r, length)
    return total.tolist()
