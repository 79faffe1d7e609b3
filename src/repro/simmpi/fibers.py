"""Fibers: how a simulated rank's call stack suspends.

A *fiber* is one simulated MPI process: ordinary Python code whose entire
call stack must suspend whenever it blocks inside a simulated MPI call and
resume exactly where it left off when the scheduler hands back control.
:class:`Fiber` runs it on a pooled OS thread that parks on a private
lock; exactly one thread holds the *baton* at any instant, so the
simulation stays deterministic.  Inside a runtime loop the baton is
passed **directly**: the thread that gives up control runs the
scheduling decision itself and wakes the chosen fiber — one context
switch per handoff where the fiber threads run under ``SCHED_BATCH``
(Linux, see :func:`_no_wakeup_preemption`), about 3.4 where a woken
thread may preempt its waker, none when the pick is the yielder.

The fiber decides *how* a stack suspends and *which thread* executes the
loop body (:meth:`Fiber.run_loop`), never *which* fiber runs next — that
is one function, ``Runtime._next_fiber``, asking the scheduling policy
(see :mod:`repro.simmpi.scheduler`).  The golden determinism matrix in
``tests/test_determinism_golden.py`` pins the traces of every policy.

Where the loop runs (``tests/test_handoff.py``):

* A slice ends in one of three ways.  The fiber **blocks**
  (:meth:`~Fiber.yield_to_scheduler`): its thread runs the decision,
  wakes the pick and parks.  It **finishes**: same, from the exit of its
  bootstrap, after which the thread returns to the worker pool.  It is
  **unwound** (``kill_pending`` / ``shutdown_pending`` set by whoever
  resumed it): the pending exception is raised in it, and it finishes.
  The main thread only starts the first fiber, sleeps until a fiber
  thread reports the loop over, and re-raises what the decision raised.
* So everything the loop calls — event callbacks, active-message
  handlers, failure listeners, injector hooks, custom policies,
  ``detection_latency`` callables — executes on *fiber threads*, a
  different one from call to call.  Nothing reachable from the loop
  reads a thread-local today (``src/`` has two: ``obs.spans._STATE``
  and ``SqliteStore._local``, both on the sweep side); it must stay so.
* **Kill of the driver.**  A kill event unwinds a blocked victim on the
  spot with a nested :meth:`~Fiber.resume_and_wait` — unless the
  victim is the fiber whose own thread is executing that event, which
  cannot resume itself: the decision returns it its own baton as soon as
  the event returns, before any other event or pick, and it unwinds then.
* **Interrupts.**  An exception in the main thread's wait (Ctrl-C) sets
  a stop flag the decision checks on every iteration; the main thread
  then waits, uninterruptibly, for the baton before the exception
  travels on into ``Runtime.shutdown`` — never two threads inside
  kernel state.

The lock protocol itself is on :class:`Fiber`.
"""

from __future__ import annotations

import enum
import os
import threading
import traceback
from typing import Callable

from .errors import ProcessKilled, SimShutdown


class FiberState(enum.Enum):
    """Lifecycle of a fiber."""

    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"
    FAILED = "failed"  # fail-stop: fiber unwound via ProcessKilled


# On CPython 3.11 every attribute lookup on an Enum class goes through
# ``EnumType.__getattr__`` — 100–160 ns against 25–30 ns for a plain class
# attribute — so per-handoff, per-event and per-message paths read Enum
# members from module constants (the very same member objects).
# ``tests/test_hop_cost.py`` gates it: none per ring iteration.
_NEW = FiberState.NEW
_READY = FiberState.READY
_RUNNING = FiberState.RUNNING
_DONE = FiberState.DONE
_FAILED = FiberState.FAILED


def _no_wakeup_preemption() -> None:
    """Put the calling thread under ``SCHED_BATCH`` where Linux offers it.

    A handoff releases the pick's lock and then parks: under the default
    policy the woken thread preempts its waker at once, finds the GIL
    still held, blocks on it, and the kernel switches back — 3.4 context
    switches per handoff instead of 1.  Linux never lets a ``SCHED_BATCH``
    thread preempt on wakeup (same weight, same time slice otherwise), so
    the waker reaches its own park first and the pick finds the GIL free.
    Threads and processes started from a fiber thread inherit the policy
    (``SCHED_RESET_ON_FORK`` does not reset it); where the call is absent
    or refused this is a no-op and only the switch count differs.
    """
    try:
        os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
    except (AttributeError, OSError):
        pass


class _FiberWorker:
    """One pooled OS thread that runs fiber bootstraps back to back.

    Creating an OS thread costs tens of microseconds plus scheduler
    setup; a sweep that runs thousands of short simulations pays that
    for every rank of every run.  Workers instead park on a private
    pre-acquired lock between assignments: :meth:`submit` hands them the
    next fiber, and after the fiber's bootstrap returns they re-enter
    the pool.  A worker only ever runs one fiber at a time and a fiber
    is only submitted once, so pooling never shows in the baton protocol.
    """

    __slots__ = ("_task", "_task_ready", "thread")

    def __init__(self) -> None:
        self._task: "Fiber | None" = None
        self._task_ready = threading.Lock()
        self._task_ready.acquire()
        self.thread = threading.Thread(
            target=self._run, name="sim-fiber-worker", daemon=True
        )
        self.thread.start()

    def _run(self) -> None:
        _no_wakeup_preemption()
        while True:
            self._task_ready.acquire()
            fiber = self._task
            self._task = None
            if fiber is None:  # pragma: no cover - retirement path
                return
            fiber._bootstrap()
            # An idle worker must not keep its last fiber (and the rank's
            # return value on it) alive until the pool reuses it.
            fiber = None
            if not _POOL.offer(self):
                return  # pool full (or forked child): let the thread die

    def submit(self, fiber: "Fiber") -> None:
        self._task = fiber
        self._task_ready.release()


class _WorkerPool:
    """Process-wide free list of idle fiber workers (fork-aware)."""

    def __init__(self, max_idle: int = 64) -> None:
        self._lock = threading.Lock()
        self._idle: list[_FiberWorker] = []
        self._pid = os.getpid()
        self._max_idle = max_idle

    def get(self) -> _FiberWorker:
        with self._lock:
            if self._pid != os.getpid():
                # Forked child: inherited workers' threads do not exist
                # here; drop the bookkeeping and start fresh.
                self._idle.clear()
                self._pid = os.getpid()
            if self._idle:
                return self._idle.pop()
        return _FiberWorker()

    def offer(self, worker: _FiberWorker) -> bool:
        """Return *worker* to the pool; False tells it to retire."""
        with self._lock:
            if self._pid == os.getpid() and len(self._idle) < self._max_idle:
                self._idle.append(worker)
                return True
        return False  # pragma: no cover - overflow/fork retirement


_POOL = _WorkerPool()


class _Drive:
    """One runtime loop under direct baton passing.

    Shared by every fiber the loop resumes; see :meth:`Fiber.run_loop`.
    """

    __slots__ = ("next_fiber", "ended", "error")

    def __init__(
        self, next_fiber: Callable[[Fiber | None], Fiber | None]
    ) -> None:
        self.next_fiber = next_fiber
        #: The main thread's baton: set by the thread that saw the loop end.
        self.ended = threading.Event()
        #: What the decision function raised on a fiber thread, if anything.
        self.error: BaseException | None = None


class Fiber:
    """One simulated rank: a pooled OS thread and a baton handoff.

    Exactly one thread holds the baton at any instant.  Each fiber parks
    on its own pre-acquired ``_resume`` lock; whoever holds the baton
    wakes a fiber by releasing that lock.  There are two ways to be woken,
    and the fiber gives the baton back the way it got it:

    * **Direct passing** — inside a runtime loop (:meth:`run_loop`).  The
      thread that gives up control (a fiber blocking in
      :meth:`yield_to_scheduler`, or finishing its bootstrap) runs the
      runtime's scheduling decision *itself*, releases the chosen
      fiber's ``_resume`` and parks on its own: **one context switch per
      handoff** under ``SCHED_BATCH`` (the pick cannot preempt its waker,
      so it wakes to a free GIL), and none when the pick is the yielder
      (``compute`` and poll wake-ups).  When the decision says the loop
      is over, the thread wakes the main thread instead.
    * **Caller-driven** — :meth:`resume_and_wait` from any thread that
      holds the baton (kill and shutdown unwinding, which nest inside an
      event or run after the loop; the raw-fiber tests).
      The caller parks on the fiber's ``_yielded`` lock until the slice
      ends, so a round-trip costs two OS switches.

    Correctness relies on the strict alternation both modes keep: each
    lock is released exactly once per handoff and re-locked by the
    blocking acquire that consumes the release.

    Everything the runtime observes — :attr:`state`,
    :attr:`block_reason`, the kill/shutdown-pending flags,
    :attr:`error`/:attr:`result` capture — lives on the fiber too.
    """

    __slots__ = (
        "name",
        "index",
        "state",
        "block_reason",
        "kill_pending",
        "shutdown_pending",
        "error",
        "result",
        "_target",
        "_resume",
        "_yielded",
        "_worker",
        "_drive",
    )

    def __init__(self, name: str, index: int, target: Callable[[], None]) -> None:
        self.name = name
        #: Dense index (the MPI world rank) used by scheduling policies.
        self.index = index
        self.state = _NEW
        #: Why the fiber is blocked: a string, or an object whose str()
        #: is the reason (rendered only for deadlock reports).
        self.block_reason: object = ""
        #: Set when the fiber must unwind with ProcessKilled on next resume.
        self.kill_pending = False
        #: Set when the fiber must unwind with SimShutdown on next resume.
        self.shutdown_pending = False
        #: Exception raised by the user target, if any (not kill/shutdown).
        self.error: BaseException | None = None
        #: Return value of the user target, if it completed normally.
        self.result: object = None
        self._target = target
        # Both locks start locked; see the class docstring for the protocol.
        self._resume = threading.Lock()
        self._resume.acquire()
        self._yielded = threading.Lock()
        self._yielded.acquire()
        # Assigned on start(): a pooled worker thread (see _FiberWorker).
        self._worker: _FiberWorker | None = None
        #: The loop that passed this fiber the baton for its current
        #: slice; ``None`` when the slice is caller-driven.
        self._drive: _Drive | None = None

    # -- fiber side -------------------------------------------------------

    def _check_pending(self) -> None:
        """Raise the pending unwinding exception, if any (fiber side)."""
        if self.kill_pending:
            raise ProcessKilled()
        if self.shutdown_pending:
            raise SimShutdown()

    def _bootstrap(self) -> None:
        try:
            self._run_target()
        finally:
            self._pass_baton(blocked=False)

    def _run_target(self) -> None:
        """Wait for the first baton, then execute the application target
        with the unwinding contract.

        The initial wait sits inside the try: a kill or shutdown can
        arrive before the fiber's first slice, and must still unwind
        cleanly without running user code.
        """
        try:
            self._resume.acquire()
            self._check_pending()
            self.result = self._target()
            self.state = _DONE
        except ProcessKilled:
            self.state = _FAILED
        except SimShutdown:
            self.state = _DONE
        except BaseException as exc:  # noqa: BLE001 - reported to driver
            self.error = exc
            self.state = _DONE

    def _pass_baton(self, blocked: bool) -> bool:
        """End this fiber's slice, from its own thread.

        Returns True when the baton came straight back (the loop's pick
        is this very fiber), so the caller must not park.
        """
        drive = self._drive
        if drive is None:
            self._yielded.release()
            return False
        try:
            # A finished fiber is no kill target, so it drives anonymously.
            nxt = drive.next_fiber(self if blocked else None)
        except BaseException as exc:  # noqa: BLE001 - re-raised by run_loop
            drive.error = exc
            nxt = None
        if nxt is self:
            self.state = _RUNNING
            return True
        if nxt is None:
            drive.ended.set()
        else:
            nxt._drive = drive
            nxt.state = _RUNNING
            nxt._resume.release()
        return False

    def yield_to_scheduler(self) -> None:
        """Called *from the fiber itself* when it blocks.

        Returns when the scheduler resumes this fiber, or raises
        :class:`ProcessKilled` / :class:`SimShutdown` if the fiber was
        killed or the simulation ended while it was blocked.
        """
        if not self._pass_baton(blocked=True):
            self._resume.acquire()
        if self.kill_pending or self.shutdown_pending:
            self._check_pending()

    # -- scheduler side ---------------------------------------------------

    def start(self) -> None:
        """Hand this fiber to a pooled thread (it immediately awaits the
        baton, and runs no user code until the first resume)."""
        self.state = _READY
        self._worker = _POOL.get()
        self._worker.submit(self)

    def resume_and_wait(self) -> None:
        """Hand control to this fiber and return when it yields or exits."""
        self.state = _RUNNING
        self._drive = None  # this slice ends back here, not in a loop
        self._resume.release()
        self._yielded.acquire()

    @staticmethod
    def run_loop(
        next_fiber: Callable[[Fiber | None], Fiber | None],
        interrupt: Callable[[], None],
    ) -> None:
        """Drive a runtime loop to its end (called by ``Runtime.loop``).

        *next_fiber(driver)* is the runtime's scheduling decision: it
        runs events until the policy picks a fiber and returns it, or
        returns ``None`` when the loop is over.  This thread starts the
        first pick, then sleeps until a fiber thread reports the loop
        over, and re-raises what the decision raised over there.

        An exception in this thread's wait (Ctrl-C) must not travel on —
        into ``Runtime.shutdown`` — while fiber threads still run the
        simulation: *interrupt* makes the decision function end the loop
        at its next iteration, and the wait is redone, ignoring further
        interrupts, until the baton is back.
        """
        first = next_fiber(None)
        if first is None:
            return
        drive = first._drive = _Drive(next_fiber)
        first.state = _RUNNING
        try:
            # Inside the try: CPython runs signal handlers only after a
            # call returns, so an interrupt cannot land between the
            # release and the protected wait.
            first._resume.release()
            drive.ended.wait()
        except BaseException:
            interrupt()
            while not drive.ended.is_set():
                try:
                    drive.ended.wait()
                except BaseException:  # noqa: BLE001 - the first one is re-raised
                    pass
            raise
        error, drive.error = drive.error, None
        if error is not None:
            try:
                raise error
            finally:
                # This frame is on the traceback: a local holding the
                # exception would make it cyclic garbage.
                del error

    def finished(self) -> bool:
        state = self.state
        return state is _DONE or state is _FAILED

    def join(self) -> None:
        """Wait for the fiber's bootstrap to complete (simulator teardown).

        A no-op: completion is already synchronized by the handoff
        itself — :meth:`resume_and_wait` only returns after the bootstrap
        finished its slice, so a finished fiber holds no reference into
        application code.
        """

    def release(self) -> None:
        """Drop what ties a finished fiber to its run's object graph.

        The application target goes, so a retained fiber (e.g. via a kept
        Simulation) cannot pin per-run application state alive across a
        long sweep.  So do the two references that would lead back to this
        fiber and make the finished run cyclic garbage: the block reason
        of a fiber unwound while blocked (a wait holds requests, whose
        owner is the rank) and the locals of every frame on a stored
        application error's tracebacks, which keep their file and line.
        The worker thread and the loop go too.  Safe no-op while the
        fiber still runs.
        """
        if self.finished():
            self._target = _released
            self.block_reason = ""
            self._worker = None
            self._drive = None
            _clear_locals(self.error)


def _released() -> None:  # pragma: no cover - never executed
    raise RuntimeError("fiber target was released after fiber exit")


def _clear_locals(exc: BaseException | None) -> None:
    """Clear the locals of every finished frame *exc* and the exceptions
    it chains to reach: their traceback frames, and the callers above
    each handler (the fiber bootstrap, whose ``self`` is the fiber).
    Frames keep their code and line, so the tracebacks still print."""
    while exc is not None:
        tb = exc.__traceback__
        if tb is not None:
            frame = tb.tb_frame.f_back
            traceback.clear_frames(tb)
            while frame is not None:
                try:
                    frame.clear()
                except RuntimeError:  # still executing: the worker loop
                    break
                frame = frame.f_back
        exc = exc.__cause__ or exc.__context__
