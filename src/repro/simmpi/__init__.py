"""``repro.simmpi`` — a deterministic discrete-event simulated MPI.

This package is the substrate the paper reproduction runs on: a pure
Python, single-machine simulator of an MPI job with

* one coroutine per rank, stepped one at a time by the kernel's loop
  (deterministic interleaving from a seed),
* virtual time under a pluggable LogGP-style cost model,
* MPI-1 style point-to-point (blocking and non-blocking, wildcards,
  non-overtaking matching) and collectives built over point-to-point,
* **fail-stop process failures** with a perfect failure detector and the
  run-through-stabilization error semantics
  (``MPI_ERR_RANK_FAIL_STOP``), and
* **global deadlock detection** — a proven hang, which real MPI cannot
  give you, and which the paper's Figure 6 scenario requires.

Quick taste::

    from repro.simmpi import Simulation

    async def main(mpi):
        comm = mpi.comm_world
        if comm.rank == 0:
            comm.send("hello", dest=1)
        elif comm.rank == 1:
            data, status = await comm.recv(source=0)
            return data

    result = Simulation(nprocs=2).run(main)
    assert result.value(1) == "hello"
"""

from .clock import EventQueue, VirtualClock
from .communicator import CTX_AM, CTX_COLL, CTX_P2P, Comm
from .collectives import OPS, exscan, reduce_scatter
from .constants import (
    ANY_SOURCE,
    ANY_TAG,
    DEFAULT_ROOT,
    PROC_NULL,
    TAG_UB,
    UNDEFINED,
)
from .costmodel import (
    DEFAULT_COST,
    ZERO_COST,
    CostModel,
    HierarchicalCostModel,
    JitteredCostModel,
)
from .errors import (
    CommRevokedError,
    ErrorClass,
    ErrorHandler,
    InvalidArgumentError,
    JobAborted,
    MPIError,
    RankFailStopError,
    SimulationDeadlock,
    SimulationError,
    TruncationError,
)
from .fibers import Fiber, FiberState
from .group import Group
from .matching import Message
from .nbcoll import ibarrier
from .rma import Win, win_create
from .p2p import test, testany, wait, waitall, waitany, waitsome
from .process import SimProcess
from .request import Request, RequestKind, Status
from .runtime import (
    RankOutcome,
    Runtime,
    Simulation,
    SimulationLimitExceeded,
    SimulationResult,
)
from .scheduler import (
    LowestRankFirstPolicy,
    RandomPolicy,
    RoundRobinPolicy,
    SchedulingPolicy,
)
from .trace import Trace, TraceEvent, TraceKind

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "CTX_AM",
    "CTX_COLL",
    "CTX_P2P",
    "Comm",
    "CommRevokedError",
    "CostModel",
    "DEFAULT_COST",
    "DEFAULT_ROOT",
    "ErrorClass",
    "ErrorHandler",
    "EventQueue",
    "Fiber",
    "FiberState",
    "Group",
    "Win",
    "HierarchicalCostModel",
    "JitteredCostModel",
    "InvalidArgumentError",
    "JobAborted",
    "LowestRankFirstPolicy",
    "MPIError",
    "Message",
    "OPS",
    "PROC_NULL",
    "RandomPolicy",
    "RankFailStopError",
    "RankOutcome",
    "Request",
    "RequestKind",
    "RoundRobinPolicy",
    "Runtime",
    "SchedulingPolicy",
    "SimProcess",
    "Simulation",
    "SimulationDeadlock",
    "SimulationError",
    "SimulationLimitExceeded",
    "SimulationResult",
    "Status",
    "TAG_UB",
    "Trace",
    "TraceEvent",
    "TraceKind",
    "TruncationError",
    "UNDEFINED",
    "VirtualClock",
    "ZERO_COST",
    "test",
    "testany",
    "wait",
    "waitall",
    "waitany",
    "exscan",
    "ibarrier",
    "reduce_scatter",
    "waitsome",
    "win_create",
]
