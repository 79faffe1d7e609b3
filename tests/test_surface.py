"""The simulated MPI's and the sweep engine's public surfaces, pinned
literally.

These lists make every addition to or removal from ``repro.simmpi``'s
and ``repro.parallel``'s exports, ``Comm``'s public methods and the
collective operations of ``repro.simmpi.collectives`` a visible diff of
this file.
"""

from __future__ import annotations

import inspect

import repro.parallel
import repro.simmpi
from repro.simmpi import Comm, collectives

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
    "ibarrier", "wait", "waitany",
]

COMM_PUBLIC = [
    "allgather", "allreduce", "barrier", "bcast",
    "comm_rank_of_world", "context", "dup", "free",
    "irecv", "is_revoked", "isend",
    "known_failed_comm_ranks", "proc", "rank", "recv", "reduce",
    "replace_rank", "revoke", "send",
    "sendrecv", "set_errhandler", "size", "split", "world_rank",
]

COLLECTIVES = ["allgather", "allreduce", "barrier", "bcast", "reduce"]

PARALLEL_ALL = [
    "AppScenario", "FleetRunner", "GenericInvariants", "Invariant",
    "RingScenario", "ScenarioFactory", "SerialRunner",
    "StandardRingInvariants", "SweepError", "SweepJob", "SweepRunner",
    "WorkerServer", "check_invariants", "make_runner",
    "parse_worker_addrs", "resolve_invariants", "sweep", "with_cache",
]


def test_simmpi_exports_exactly_the_pinned_names():
    assert sorted(repro.simmpi.__all__) == SIMMPI_ALL


def test_comm_has_exactly_the_pinned_public_attributes():
    assert sorted(k for k in vars(Comm) if not k.startswith("_")) == COMM_PUBLIC


def test_collectives_module_defines_exactly_the_pinned_functions():
    assert sorted(
        k for k, v in vars(collectives).items()
        if inspect.isfunction(v) and v.__module__ == collectives.__name__
        and not k.startswith("_")
    ) == COLLECTIVES


def test_parallel_exports_exactly_the_pinned_names():
    assert sorted(repro.parallel.__all__) == PARALLEL_ALL
