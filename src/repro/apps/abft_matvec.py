"""ABFT matrix–vector products with parity-block recovery (paper §IV).

The paper's related work traces ABFT to Huang & Abraham's checksum-encoded
matrix operations and Plank's diskless checkpointing.  This app implements
the simplest honest member of that family on the run-through
stabilization substrate:

* the matrix ``A`` is row-block distributed over the compute ranks; one
  extra **parity rank** holds the block-sum ``P = Σ_i A_i`` (a diskless
  checkpoint of the encoding);
* each iteration computes ``y_i = A_i x`` locally and the parity rank
  computes ``y_P = P x = Σ_i y_i`` — the invariant that makes lost blocks
  recoverable;
* when a compute rank dies, the survivors run ``MPI_Comm_validate_all``
  (re-enabling collectives over the shrunken membership), allgather their
  ``y_i`` and the parity ``y_P``, and reconstruct the dead rank's block as
  ``y_lost = y_P − Σ_{alive} y_i`` — algorithm-based recovery, no restart,
  no disk;
* a second failure (or loss of the parity rank itself) exceeds the code's
  strength: survivors detect this and degrade to reporting only their own
  blocks (documented, tested).

Each iteration's ``x`` is derived deterministically from the iteration
number so results are exactly checkable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..ft.recovery import run_recovery_block
from ..simmpi.errors import ErrorHandler
from ..simmpi.process import SimProcess


@dataclass(frozen=True)
class AbftConfig:
    """Parameters of one ABFT matvec run.

    ``nprocs = compute_ranks + 1``; the parity rank is the highest rank.
    """

    rows_per_rank: int = 4
    cols: int = 8
    iterations: int = 5
    work_per_iter: float = 1e-6
    seed: int = 7


def _block(rank: int, cfg: AbftConfig) -> np.ndarray:
    """Deterministic matrix block for a compute rank."""
    rng = np.random.default_rng(cfg.seed + rank)
    return rng.integers(-3, 4, size=(cfg.rows_per_rank, cfg.cols)).astype(float)


def _x(iteration: int, cfg: AbftConfig) -> np.ndarray:
    rng = np.random.default_rng(cfg.seed * 1000 + iteration)
    return rng.integers(-2, 3, size=cfg.cols).astype(float)


def reference_result(cfg: AbftConfig, nprocs: int, iteration: int) -> dict[int, list[float]]:
    """Ground truth ``y_i`` for every compute rank at one iteration."""
    x = _x(iteration, cfg)
    return {
        r: (_block(r, cfg) @ x).tolist() for r in range(nprocs - 1)
    }


async def abft_main(mpi: SimProcess, cfg: AbftConfig) -> dict[str, Any]:
    """Per-rank main: iterate matvecs, recover lost blocks via parity."""
    comm = mpi.comm_world
    comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
    me, size = comm.rank, comm.size
    parity_rank = size - 1
    is_parity = me == parity_rank
    if is_parity:
        blk = sum(_block(r, cfg) for r in range(size - 1))
    else:
        blk = _block(me, cfg)

    recoveries = 0
    degraded = False
    results: list[dict[str, Any]] = []

    for it in range(cfg.iterations):
        if cfg.work_per_iter:
            await mpi.compute(cfg.work_per_iter)
        mpi.probe_point("iter_top")
        x = _x(it, cfg)
        y_mine = blk @ x
        mpi.probe_point("computed")

        # Agreed recovery block: the retry decision is a pure function of
        # the consensus output, so every rank stays aligned on which
        # allgather call is which (see repro/ft/recovery.py for why the
        # naive try/validate/retry loop deadlocks).
        gathered = await run_recovery_block(
            comm, lambda: comm.allgather((me, y_mine.tolist()))
        )

        blocks: dict[int, np.ndarray] = {}
        parity: np.ndarray | None = None
        for item in gathered:
            if item is None:
                continue
            rank, y = item
            if rank == parity_rank:
                parity = np.asarray(y)
            else:
                blocks[rank] = np.asarray(y)

        lost = [r for r in range(size - 1) if r not in blocks]
        if lost:
            if parity is not None and len(lost) == 1:
                # The parity identity: y_lost = y_P - sum(alive blocks).
                blocks[lost[0]] = parity - sum(blocks.values())
                recoveries += 1
                mpi.probe_point("recovered")
            else:
                degraded = True  # beyond the code's strength
        results.append(
            {
                "iteration": it,
                "blocks": {r: b.tolist() for r, b in sorted(blocks.items())},
                "recovered": list(lost) if lost and not degraded else [],
            }
        )
        mpi.probe_point("iter_done")

    return {
        "rank": me,
        "role": "parity" if is_parity else "compute",
        "results": results,
        "recoveries": recoveries,
        "degraded": degraded,
    }


def make_abft_main(cfg: AbftConfig):
    """Bind an :class:`AbftConfig` into a ``main(mpi)`` callable."""
    return lambda mpi: abft_main(mpi, cfg)
