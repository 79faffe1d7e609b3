"""EXP-VAL — cost and resilience of the ``MPI_Comm_validate_all`` consensus.

Characterizes the agreement behind the collective validate
(:mod:`repro.ft.agreement`):

* message cost vs communicator size, the default coordinator algorithm
  vs the FloodSet oracle (the ablation DESIGN.md calls out), gated on
  the exact counts 2(n-1) and n²(n-1);
* resilience: agreement and termination with up to n-1 ranks dying
  *during* the protocol;
* monotone count: successive validates report the accumulated total,
  per the paper's "total number of failures" contract.

The size/mode and failure-count sweeps are independent simulations, so
they run as picklable job batches on the :mod:`repro.parallel` sweep
engine (serial by default; ``REPRO_BENCH_WORKERS=N`` fans them out).
Each job reduces its run to one table row inside the worker — traces
never cross the process boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis import ascii_table
from repro.ft import comm_validate_all
from repro.simmpi import ErrorHandler, Simulation, TraceKind
from conftest import emit, sweep_runner, timed

SIZES = [2, 4, 8, 16]
MODES = ("coordinator", "full")


def _validate_run(n: int, mode: str, kills=()):
    def main(mpi):
        comm = mpi.comm_world
        comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
        if kills and comm.rank in {k for k, _ in kills}:
            mpi.compute(1.0)
            return
        return comm_validate_all(comm, mode=mode)

    sim = Simulation(nprocs=n)
    for rank, t in kills:
        sim.kill(rank, at_time=t)
    return sim.run(main, on_deadlock="return")


@dataclass(frozen=True)
class MessageCostJob:
    """One failure-free validate: reduce to a (n, mode, msgs, time) row."""

    n: int
    mode: str

    def __call__(self):
        r = _validate_run(self.n, self.mode)
        msgs = len(r.trace.filter(kind=TraceKind.SEND_POST))
        return [self.n, self.mode, msgs, r.final_time]


@dataclass(frozen=True)
class ResilienceJob:
    """Validate with ranks dying mid-protocol: reduce to one row."""

    n: int
    nfail: int
    mode: str

    def __call__(self):
        kills = [(i, 1e-7 * (i + 1)) for i in range(1, 1 + self.nfail)]
        r = _validate_run(self.n, self.mode, kills=kills)
        counts = {v for v in r.values().values() if v is not None}
        return [self.n, self.nfail, self.mode, not r.hung,
                len(counts) <= 1, sorted(counts)]


def bench_validate_message_cost(benchmark):
    rows = []
    runner = sweep_runner()
    jobs = [MessageCostJob(n, mode)
            for n in SIZES for mode in MODES]

    def run_all():
        rows.clear()
        rows.extend(runner.run(jobs))
        return rows

    timed(benchmark, run_all)
    emit(
        "validate_all consensus cost, failure-free",
        ascii_table(["ranks", "mode", "messages", "virt time"], rows),
    )
    by = {}
    for n, mode, msgs, _t in rows:
        by.setdefault(n, {})[mode] = msgs
    for n, d in by.items():
        # One contribution and one DECIDE per non-coordinator member,
        # against n rounds of all-to-all flooding.
        assert d["coordinator"] == 2 * (n - 1)
        assert d["full"] == n * n * (n - 1)


def bench_validate_resilience(benchmark):
    rows = []
    runner = sweep_runner()
    jobs = [ResilienceJob(6, nfail, mode)
            for nfail in (1, 2, 3, 5) for mode in MODES]

    def run_all():
        rows.clear()
        rows.extend(runner.run(jobs))
        return rows

    timed(benchmark, run_all)
    emit(
        "validate_all with ranks dying mid-protocol (n=6)",
        ascii_table(
            ["ranks", "dying", "mode", "terminated", "survivors agree",
             "agreed count"],
            rows,
        ),
    )
    assert all(term and agree for _n, _f, _m, term, agree, _c in rows)


def bench_validate_accumulates(benchmark):
    def run():
        def main(mpi):
            comm = mpi.comm_world
            comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
            if comm.rank == 1:
                mpi.compute(1.0)
                return
            if comm.rank == 2:
                mpi.compute(3.0)
                return
            mpi.compute(2.0)
            first = comm_validate_all(comm)
            mpi.compute(2.0)
            second = comm_validate_all(comm)
            return (first, second)

        sim = Simulation(nprocs=5)
        sim.kill(1, at_time=0.5)
        sim.kill(2, at_time=2.5)
        return sim.run(main, on_deadlock="return")

    r = timed(benchmark, run)
    emit(
        "validate_all total-failure accounting",
        f"rank0 saw counts {r.value(0)} across two validates "
        f"(failures at t=0.5 and t=2.5)",
    )
    assert r.value(0) == (1, 2)
