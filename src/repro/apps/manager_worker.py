"""Fault-tolerant manager/worker farm (paper §IV related work).

Gropp & Lusk's classic observation — a manager/worker program can survive
worker loss by "forgetting" lost workers — predates the run-through
stabilization proposal; this app shows how much simpler the same design
becomes *with* the proposal (the comparison the paper's related-work
section draws):

* the manager (rank 0) deals tasks to workers and collects results;
* a worker death surfaces as ``MPI_ERR_RANK_FAIL_STOP`` on the pending
  result receive; the manager recognizes the failure
  (``comm_validate_clear``), requeues the worker's in-flight task, and
  carries on — no intercommunicator juggling required;
* tasks are idempotent and carry ids, so a reassigned task that was
  already half-computed by the dead worker causes no duplicate results.

The manager assumes it does not fail (the paper's root assumption; the
ring's §III-D shows what lifting it takes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..ft.validate import comm_validate_clear
from ..simmpi.constants import ANY_SOURCE
from ..simmpi.errors import ErrorHandler, RankFailStopError
from ..simmpi.p2p import waitany
from ..simmpi.process import SimProcess

TAG_TASK = 21
TAG_RESULT = 22


@dataclass(frozen=True)
class FarmConfig:
    """Parameters of one manager/worker run."""

    num_tasks: int = 20
    #: Virtual compute time per task at a worker.
    work_per_task: float = 1e-6


def _task_result(task_id: int) -> int:
    """The (deterministic, idempotent) work: a toy function of the id."""
    return task_id * task_id + 1


async def manager_main(mpi: SimProcess, cfg: FarmConfig) -> dict[str, Any]:
    """Rank 0: deal tasks, harvest results, survive worker deaths."""
    comm = mpi.comm_world
    comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
    queue = list(range(cfg.num_tasks))
    in_flight: dict[int, int] = {}  # worker -> task id
    results: dict[int, int] = {}
    reassignments = 0
    workers = set(range(1, comm.size))

    def alive_workers() -> set[int]:
        return {w for w in workers if w not in comm.recognized}

    def deal(worker: int) -> None:
        # Never deal to a recognized-dead worker: the send would be a
        # silent PROC_NULL no-op and the task would be lost in flight.
        # (A dead worker can re-enter here when its final result arrives
        # after its failure was recognized.)
        if worker not in alive_workers():
            return
        if queue and worker not in in_flight:
            task = queue.pop(0)
            try:
                comm.send(("task", task), worker, TAG_TASK)
                in_flight[worker] = task
            except RankFailStopError:
                queue.insert(0, task)

    def handle_death() -> None:
        nonlocal reassignments
        newly = comm.known_failed_comm_ranks() - comm.recognized
        comm_validate_clear(comm, sorted(newly))
        for w in sorted(newly):
            task = in_flight.pop(w, None)
            if task is not None and task not in results:
                queue.insert(0, task)
                reassignments += 1

    for w in sorted(workers):
        deal(w)
    while len(results) < cfg.num_tasks:
        if not alive_workers():
            mpi.abort(-1)  # every worker died: nothing can finish the farm
        req = comm.irecv(source=ANY_SOURCE, tag=TAG_RESULT)
        try:
            await waitany([req])
        except RankFailStopError:
            handle_death()
            for w in sorted(alive_workers()):
                deal(w)
            continue
        task, value, worker = req.data
        results[task] = value
        in_flight.pop(worker, None)
        # Deal to every idle alive worker, not just the reporter: the
        # reporter may be a dead worker whose final result was in flight.
        for w in sorted(alive_workers()):
            deal(w)
    for w in sorted(alive_workers()):
        try:
            comm.send(("stop", -1), w, TAG_TASK)
        except RankFailStopError:
            pass
    return {
        "rank": 0,
        "role": "manager",
        "results": results,
        "reassignments": reassignments,
        "dead_workers": sorted(comm.recognized),
    }


async def worker_main(mpi: SimProcess, cfg: FarmConfig) -> dict[str, Any]:
    """Ranks 1..n-1: loop on tasks until told to stop."""
    comm = mpi.comm_world
    comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
    done = 0
    while True:
        kind, task = (await comm.recv(source=0, tag=TAG_TASK))[0]
        if kind == "stop":
            break
        mpi.probe_point("task_begin")
        if cfg.work_per_task:
            await mpi.compute(cfg.work_per_task)
        mpi.probe_point("task_computed")
        comm.send((task, _task_result(task), comm.rank), 0, TAG_RESULT)
        mpi.probe_point("task_reported")
        done += 1
    return {"rank": comm.rank, "role": "worker", "tasks_done": done}


def make_farm_mains(cfg: FarmConfig, nprocs: int):
    """Per-rank mains: rank 0 manages, everyone else works."""
    mains = [lambda mpi: manager_main(mpi, cfg)]
    mains += [(lambda mpi: worker_main(mpi, cfg)) for _ in range(nprocs - 1)]
    return mains


def expected_results(cfg: FarmConfig) -> dict[int, int]:
    """Ground-truth results for every task id."""
    return {t: _task_result(t) for t in range(cfg.num_tasks)}
