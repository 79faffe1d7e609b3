"""Agreed recovery blocks for collectives (paper §II, Randell [10]).

The paper points out that ``MPI_Comm_validate_all`` "is useful in
creating recovery blocks for sets of collective operations".  Getting the
pattern right is subtler than it looks, because collective return codes
are **inconsistent**: a failure can leave some ranks with a successful
collective and others with ``MPI_ERR_RANK_FAIL_STOP``.  The naive

    while True:
        try: return collective()
        except RankFailStopError: comm_validate_all(comm)

deadlocks in exactly that case — the erroring ranks retry (consuming an
extra collective call) while the succeeding ranks move on, and the ranks
are forever misaligned on which collective call is which.  (This
repository found the bug in its own ABFT app via the mid-collective
failure sweep; see ``tests/test_collective_recovery.py``.)

The correct pattern makes the *retry decision itself agreed*, using the
agreement the library already provides (:mod:`repro.ft.agreement`, two
messages per member per round when nobody dies):

1. attempt the block (success or failure, locally);
2. run ``comm_validate_all`` — every rank, every round;
3. retry iff the agreed validated set **grew** (a failure struck this
   round).  The decision is a pure function of the consensus output, so
   every rank makes the same choice and collective call order stays
   aligned.

Ranks that succeeded before a retry recompute the block; callers
therefore need idempotent blocks (true for MPI collectives, whose outputs
are pure functions of their inputs over the surviving membership).
"""

from __future__ import annotations

from typing import Callable, TypeVar

from ..simmpi.communicator import Comm
from ..simmpi.errors import RankFailStopError
from .agreement import DEFAULT_MODE
from .validate_all import comm_validate_all

T = TypeVar("T")


class RecoveryBlockError(RuntimeError):
    """The block kept failing without the membership changing.

    Raised after ``max_attempts`` rounds in which the collective errored
    but the agreed validated set did not grow — which indicates a bug in
    the block (a genuine failure always grows the set on the next
    validate, because the erroring rank knows the failure at entry).
    """


def run_recovery_block(
    comm: Comm,
    block: Callable[[], T],
    *,
    mode: str = DEFAULT_MODE,
    max_attempts: int = 16,
) -> T:
    """Run *block* (one or more collectives) with agreed retry on failure.

    Returns the block's value once a round completes with no membership
    change.  All ranks of *comm* must call this the same number of times
    with equivalent blocks (the usual collective-ordering contract), and
    with the same *mode* (the agreement algorithm, as for
    :func:`~repro.ft.validate_all.comm_validate_all`).
    """
    last_error: Exception | None = None
    for _attempt in range(max_attempts):
        err = False
        value: T | None = None
        try:
            value = block()
        except RankFailStopError as exc:
            err = True
            last_error = exc
        before = frozenset(comm.validated)
        comm_validate_all(comm, mode=mode)
        if frozenset(comm.validated) != before:
            continue  # agreed: membership changed this round -> all retry
        if err:
            # Errored without a membership change: the failure must have
            # been validated in an earlier round; one more retry round is
            # consistent (every erroring rank takes it, succeeding ranks
            # saw no change and... would desync).  This cannot happen for
            # genuine fail-stop errors, so treat it as a usage bug.
            raise RecoveryBlockError(
                f"collective kept failing with stable membership: "
                f"{last_error}"
            ) from last_error
        return value  # type: ignore[return-value]
    raise RecoveryBlockError(
        f"recovery block did not converge after {max_attempts} attempts"
    ) from last_error
