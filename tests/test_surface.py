"""The simulated MPI's and the sweep engine's public surfaces, pinned
literally.

These lists make every addition to or removal from ``repro.simmpi``'s
and ``repro.parallel``'s exports and ``Comm``'s public methods a
visible diff of this file.
"""

from __future__ import annotations

import repro.parallel
import repro.simmpi
from repro.simmpi import Comm

SIMMPI_ALL = [
    "ANY_SOURCE", "ANY_TAG", "CTX_AM", "CTX_COLL", "CTX_P2P", "Comm",
    "CommRevokedError", "CostModel", "DEFAULT_COST", "DEFAULT_ROOT",
    "ErrorClass", "ErrorHandler", "EventQueue", "Fiber", "FiberState",
    "InvalidArgumentError", "JitteredCostModel", "JobAborted",
    "LowestRankFirstPolicy", "MPIError", "Message", "OPS", "PROC_NULL", "RandomPolicy", "RankFailStopError",
    "RankOutcome", "Request", "RequestKind", "RoundRobinPolicy", "Runtime",
    "SchedulingPolicy", "SimProcess", "Simulation", "SimulationDeadlock",
    "SimulationError", "SimulationLimitExceeded", "SimulationResult",
    "Status", "TAG_UB", "Trace", "TraceEvent", "TraceKind",
    "TruncationError", "UNDEFINED", "VirtualClock", "ZERO_COST",
    "exscan", "ibarrier", "reduce_scatter", "wait", "waitany",
]

COMM_PUBLIC = [
    "allgather", "allreduce", "alltoall", "barrier", "bcast",
    "comm_rank_of_world", "context", "dup", "exscan", "free",
    "gather", "irecv", "is_revoked", "isend", "issend",
    "known_failed_comm_ranks", "proc", "rank", "recv", "reduce",
    "reduce_scatter", "replace_rank", "revoke", "scan", "scatter", "send",
    "sendrecv", "set_errhandler", "size", "split", "ssend", "world_rank",
]

PARALLEL_ALL = [
    "AppScenario", "FleetRunner", "GenericInvariants", "Invariant",
    "RingScenario", "ScenarioFactory", "SerialRunner", "SimJob",
    "StandardRingInvariants", "SweepError", "SweepJob", "SweepRunner",
    "WorkerServer", "check_invariants", "make_runner",
    "parse_worker_addrs", "resolve_invariants", "sweep", "with_cache",
]


def test_simmpi_exports_exactly_the_pinned_names():
    assert sorted(repro.simmpi.__all__) == SIMMPI_ALL


def test_comm_has_exactly_the_pinned_public_attributes():
    assert sorted(k for k in vars(Comm) if not k.startswith("_")) == COMM_PUBLIC


def test_parallel_exports_exactly_the_pinned_names():
    assert sorted(repro.parallel.__all__) == PARALLEL_ALL
