"""The simulated MPI process.

A :class:`SimProcess` couples one scheduler fiber with the per-process
runtime state: a local virtual clock (which may run ahead of the global
clock during local computation), the message matching engine, the MPI call
counter used by fault injectors, and the handful of application-facing
helpers (``compute``, ``probe_point``, ``log``, ``abort``).

Application code receives a :class:`SimProcess` as its only argument and
reaches MPI through :attr:`SimProcess.comm_world` (or communicators
derived from it).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Awaitable, NoReturn

from .errors import JobAborted
from .fibers import SUSPEND, Fiber, FiberState
from .matching import MatchingEngine
from .trace import ABORT, PROBE, TraceKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .communicator import Comm
    from .runtime import Runtime

# The handoff path reads Enum members from module constants (see
# ``repro.simmpi.fibers``).
_BLOCKED = FiberState.BLOCKED
_READY = FiberState.READY


class SimProcess:
    """One simulated MPI rank.

    Application-facing surface: :attr:`rank`, :attr:`size`,
    :attr:`comm_world`, :attr:`now`, :meth:`compute`, :meth:`sleep`,
    :meth:`probe_point`, :meth:`log`, :meth:`abort`.  Everything else is
    runtime plumbing.  Once the run is torn down (:meth:`Runtime.shutdown`)
    :attr:`runtime`, :attr:`comm_world` and :attr:`engine` are ``None``.
    """

    def __init__(self, runtime: "Runtime", rank: int) -> None:
        self.runtime = runtime
        self.rank = rank
        #: Local virtual clock; monotone, may lead the global clock.
        self.now = 0.0
        self.engine = MatchingEngine(rank)
        self.fiber: Fiber | None = None  # attached by the runtime
        #: Number of MPI calls this process has issued (fault injection).
        self.call_count = 0
        #: Hit counts per probe-point name (fault injection windows).
        self.probe_counts: dict[str, int] = {}
        #: World communicator handle for this process.
        self.comm_world: "Comm | None" = None
        #: Failure time if this process failed (ground truth).
        self.failed_at: float | None = None
        #: Set while the process sleeps awaiting any message arrival
        #: (blocking probe); the transport wakes it on the next delivery.
        self.wants_arrival_wake = False

    # ------------------------------------------------------------------
    # Application-facing helpers
    # ------------------------------------------------------------------

    @property
    def index(self) -> int:
        """Scheduling-policy index (the world rank)."""
        return self.rank

    @property
    def size(self) -> int:
        """World size (number of ranks the job started with)."""
        return self.runtime.nprocs

    async def compute(self, dt: float) -> None:
        """Model *dt* virtual seconds of local computation.

        The process yields to the simulator and resumes once the virtual
        clock has advanced, letting other ranks' events interleave exactly
        as they would during a real compute phase.
        """
        if dt < 0:
            raise ValueError("compute() requires dt >= 0")
        self._mpi_call("compute")
        deadline = self.now + dt
        self.runtime.schedule_wake(self, deadline, "compute")
        while self.now < deadline:
            await self.block(f"compute until t={deadline:.9f}")
        self.now = max(self.now, deadline)

    async def sleep(self, dt: float) -> None:
        """Alias of :meth:`compute` (idle instead of busy; same cost)."""
        await self.compute(dt)

    def probe_point(self, name: str) -> None:
        """Mark a named fault-injection window in application code.

        Fault schedules can kill a rank "at the k-th hit of probe ``name``",
        which is how the benchmark harness reproduces the paper's
        failure-between-recv-and-send scenarios deterministically.
        """
        hit = self.probe_counts.get(name, 0) + 1
        self.probe_counts[name] = hit
        trace = self.runtime.trace
        if trace.enabled:
            trace.add((self.now, PROBE, self.rank, name, hit))
        if self.runtime.polled_injectors:
            self.runtime.check_injection(self, probe=name)

    def log(self, message: str, **detail: Any) -> None:
        """Record an application message in the simulation trace."""
        trace = self.runtime.trace
        if trace.enabled:
            trace.record(
                self.now, TraceKind.USER, self.rank, message=message, **detail
            )

    def abort(self, code: int = -1) -> NoReturn:
        """``MPI_Abort``: terminate the entire simulated job."""
        trace = self.runtime.trace
        if trace.enabled:
            trace.add((self.now, ABORT, self.rank, code))
        self.runtime.trigger_abort(JobAborted(code, self.rank))

    # ------------------------------------------------------------------
    # Runtime plumbing
    # ------------------------------------------------------------------

    def attach_fiber(self, fiber: Fiber) -> None:
        self.fiber = fiber

    @property
    def state(self) -> FiberState:
        assert self.fiber is not None
        return self.fiber.state

    def alive(self) -> bool:
        """Ground truth: has this process *not* suffered fail-stop?"""
        return self.failed_at is None

    def block(self, reason: object) -> Awaitable[None]:
        """Mark this process blocked; the caller awaits what it returns.

        ``await proc.block(reason)`` suspends the rank's coroutine until
        the scheduler picks it again (or throws the pending kill or
        shutdown into it).  *reason* is a string or anything whose
        ``str()`` is the reason: it is only rendered by
        :meth:`wait_description`.
        """
        assert self.fiber is not None
        obs = self.runtime.obs
        if obs is not None:
            obs.fiber_blocked(self.rank, self.now)
        self.fiber.state = _BLOCKED
        self.fiber.block_reason = reason
        return SUSPEND

    def wake(self, time: float, why: str) -> None:
        """Make this process runnable at virtual *time* (event context)."""
        fiber = self.fiber
        assert fiber is not None
        if time > self.now:  # max(), without the builtin call
            self.now = time
        if fiber.state is _BLOCKED:
            runtime = self.runtime
            if runtime.obs is not None:
                runtime.obs.fiber_woken(self.rank, self.now)
            fiber.state = _READY
            fiber.block_reason = ""
            runtime._ready.append(self)

    def _mpi_call(self, opname: str) -> None:
        """Per-call hook: bump the call counter, consult fault injection."""
        if self.failed_at is not None:
            # A killed process never re-enters MPI; unwind immediately.
            from .errors import ProcessKilled

            raise ProcessKilled()
        self.call_count += 1
        if self.runtime.polled_injectors:
            self.runtime.check_injection(self, op=opname)

    def wait_description(self) -> str:
        """What this process is blocked on (deadlock reports)."""
        assert self.fiber is not None
        return str(self.fiber.block_reason) or "<running>"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        st = self.fiber.state.value if self.fiber else "detached"
        return f"SimProcess(rank={self.rank}, t={self.now:.9f}, {st})"
