#!/usr/bin/env python
"""One-sided progress board: the proposal's RMA extension in action.

The paper notes the FT Working Group was extending the run-through
stabilization proposal to one-sided operations (§II).  This example uses
the repository's RMA implementation: every worker rank publishes its
progress counter into rank 0's window with ``put`` (no receive code at
rank 0 — the progress engine applies it), while rank 0 polls its own
window.  When a worker dies mid-run, rank 0 sees its counter freeze,
recognizes the failure, and finishes the board without it.

Run:  python examples/rma_bulletin.py
"""

from __future__ import annotations

from repro.ft import comm_validate_clear
from repro.simmpi import ErrorHandler, Simulation, wait
from repro.simmpi.rma import win_create

STEPS = 8


async def main_rank(mpi):
    comm = mpi.comm_world
    comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
    win = win_create(comm, size=comm.size)
    snapshots = []
    if comm.rank == 0:
        for _ in range(STEPS):
            await mpi.compute(2e-6)  # poll at half the workers' publish rate
            snapshots.append([int(v) for v in win.local])
        comm_validate_clear(
            comm, sorted(comm.known_failed_comm_ranks() - comm.recognized)
        )
        return snapshots
    for step in range(1, STEPS + 1):
        await mpi.compute(1e-6)
        await wait(win.put([float(step)], target=0, offset=comm.rank))
    return "worker done"


def main() -> None:
    sim = Simulation(nprocs=5)
    sim.kill(3, at_time=5.2e-6)  # worker 3 dies mid-run
    result = sim.run(main_rank, on_deadlock="return")

    print("rank 0's progress board over time (one row per poll):")
    print("  step   " + "  ".join(f"r{r}" for r in range(1, 5)))
    for i, snap in enumerate(result.value(0)):
        print(f"  {i:>4}   " + "  ".join(f"{v:>2}" for v in snap[1:]))
    print(f"\nfailed ranks: {sorted(result.failed_ranks)} — watch r3's "
          f"column freeze while the others keep publishing.")
    print("No receive code exists at rank 0: the puts are applied by the "
          "simulated progress engine, which is what makes one-sided "
          "communication one-sided.")


if __name__ == "__main__":
    main()
