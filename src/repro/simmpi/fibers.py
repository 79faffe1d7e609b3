"""Pluggable fiber backends: how a simulated rank's call stack suspends.

A *fiber* is one simulated MPI process: ordinary Python code whose entire
call stack must suspend whenever it blocks inside a simulated MPI call and
resume exactly where it left off when the scheduler hands back control.
Two backends implement that contract behind one API:

* :class:`ThreadFiber` (``"thread"``) — the pure-stdlib fallback.  Each
  fiber runs on a pooled OS thread and parks on a private lock; exactly
  one thread holds the *baton* at any instant, so the simulation stays
  deterministic.  Inside a runtime loop the baton is passed **directly**:
  the thread that gives up control runs the scheduling decision itself
  and wakes the chosen fiber — one context switch per handoff where the
  fiber threads run under ``SCHED_BATCH`` (Linux, see
  :func:`_no_wakeup_preemption`), about 3.4 where a woken thread may
  preempt its waker, none when the pick is the yielder.
* :class:`GreenletFiber` (``"greenlet"``) — the fast backend.  Each fiber
  is a `greenlet <https://greenlet.readthedocs.io>`_: a real C-level
  stack switch on **one** thread, no locks and no kernel involvement in
  the handoff path.  Optional dependency — ``pip install repro[fast]``.

Both backends expose the same lifecycle (:meth:`~BaseFiber.start`,
:meth:`~BaseFiber.resume_and_wait`, :meth:`~BaseFiber.yield_to_scheduler`,
:meth:`~BaseFiber.join`, :meth:`~BaseFiber.release`) plus the
kill/shutdown-pending unwinding flags, and both must produce
**byte-identical traces** for any simulation: the backend decides *how* a
stack suspends and *which thread* executes the loop body
(:meth:`~BaseFiber.run_loop`), never *which* fiber runs next — that is
one function, ``Runtime._next_fiber``, asking the scheduling policy (see
:mod:`repro.simmpi.scheduler`).  The golden determinism matrix in
``tests/test_determinism_golden.py`` pins that equivalence for every
backend × policy combination.

Where the loop runs, on the thread backend (``tests/test_handoff.py``):

* A slice ends in one of three ways.  The fiber **blocks**
  (:meth:`~BaseFiber.yield_to_scheduler`): its thread runs the decision,
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
  spot with a nested :meth:`~BaseFiber.resume_and_wait` — unless the
  victim is the fiber whose own thread is executing that event, which
  cannot resume itself: the decision returns it its own baton as soon as
  the event returns, before any other event or pick, and it unwinds then.
* **Interrupts.**  An exception in the main thread's wait (Ctrl-C) sets
  a stop flag the decision checks on every iteration; the main thread
  then waits, uninterruptibly, for the baton before the exception
  travels on into ``Runtime.shutdown`` — never two threads inside
  kernel state.

The lock protocol itself is on :class:`ThreadFiber`.

Backend selection (:func:`resolve_backend`), most specific wins:

1. an explicit ``Simulation(fibers="thread"|"greenlet"|"auto")``;
2. the ``REPRO_FIBERS`` environment variable — read per ``Runtime``
   construction and inherited by pooled sweep workers, so one exported
   variable switches a whole ``--workers N`` campaign;
3. ``auto``: greenlet when importable, else the thread fallback.

The active backend is recorded in ``result.perf.fibers``, but is — like
``wall_s`` — a host implementation detail: it is excluded from result
digests, ``.repro.json`` expect blocks, and run-cache payloads, which
therefore remain valid across backends (see
:func:`repro.analysis.digest.perf_dict`).
"""

from __future__ import annotations

import enum
import os
import threading
from typing import Callable

from .errors import ProcessKilled, SimShutdown

try:  # optional extra: `pip install repro[fast]`
    import greenlet as _greenlet
except ImportError:  # pragma: no cover - exercised on stdlib-only installs
    _greenlet = None


class FiberState(enum.Enum):
    """Lifecycle of a fiber (identical across backends)."""

    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"
    FAILED = "failed"  # fail-stop: fiber unwound via ProcessKilled


class BaseFiber:
    """Backend-independent fiber state and unwinding contract.

    Subclasses supply the suspension mechanism (:meth:`start`,
    :meth:`resume_and_wait`, :meth:`yield_to_scheduler`); everything the
    runtime observes — :attr:`state`, :attr:`block_reason`, the
    kill/shutdown-pending flags, :attr:`error`/:attr:`result` capture —
    lives here and behaves identically on every backend.
    """

    #: Registry name of the backend ("thread" / "greenlet").
    backend = "abstract"

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
    )

    def __init__(self, name: str, index: int, target: Callable[[], None]) -> None:
        self.name = name
        #: Dense index (the MPI world rank) used by scheduling policies.
        self.index = index
        self.state = FiberState.NEW
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

    # -- fiber side -------------------------------------------------------

    def _check_pending(self) -> None:
        """Raise the pending unwinding exception, if any (fiber side)."""
        if self.kill_pending:
            raise ProcessKilled()
        if self.shutdown_pending:
            raise SimShutdown()

    def _run_target(self, wait: Callable[[], None] | None = None) -> None:
        """Execute the application target with the unwinding contract.

        *wait* (thread backend) blocks for the first baton and raises the
        pending exception; it sits inside the try so a kill or shutdown
        arriving before the fiber's first slice still unwinds cleanly.
        Backends without an initial wait (greenlet: the first resume IS
        the first entry) just re-check the pending flags.
        """
        try:
            if wait is not None:
                wait()
            else:
                self._check_pending()
            self.result = self._target()
            self.state = FiberState.DONE
        except ProcessKilled:
            self.state = FiberState.FAILED
        except SimShutdown:
            self.state = FiberState.DONE
        except BaseException as exc:  # noqa: BLE001 - reported to driver
            self.error = exc
            self.state = FiberState.DONE

    def yield_to_scheduler(self) -> None:
        """Called *from the fiber itself* when it blocks.

        Returns when the scheduler resumes this fiber, or raises
        :class:`ProcessKilled` / :class:`SimShutdown` if the fiber was
        killed or the simulation ended while it was blocked.
        """
        raise NotImplementedError

    # -- scheduler side ---------------------------------------------------

    def start(self) -> None:
        """Make the fiber resumable (it runs no user code until the first
        :meth:`resume_and_wait`)."""
        raise NotImplementedError

    def resume_and_wait(self) -> None:
        """Hand control to this fiber and return when it yields or exits."""
        raise NotImplementedError

    @staticmethod
    def run_loop(
        next_fiber: Callable[[BaseFiber | None], BaseFiber | None],
        interrupt: Callable[[], None],
    ) -> None:
        """Drive a runtime loop to its end (called by ``Runtime.loop``).

        *next_fiber(driver)* is the runtime's scheduling decision: it
        runs events until the policy picks a fiber and returns it, or
        returns ``None`` when the loop is over.  The default drive stays
        on the calling thread and resumes each pick with
        :meth:`resume_and_wait` — right for a backend whose handoff is
        not an OS switch (greenlet).  *interrupt* is for backends that
        run the decision on other threads (see :meth:`ThreadFiber.run_loop`).
        """
        while (fiber := next_fiber(None)) is not None:
            fiber.resume_and_wait()

    def finished(self) -> bool:
        return self.state in (FiberState.DONE, FiberState.FAILED)

    def join(self) -> None:
        """Wait for the fiber's bootstrap to complete (simulator teardown).

        A no-op on every backend: completion is already synchronized by
        the handoff itself — :meth:`resume_and_wait` only returns after
        the bootstrap finished its slice, so a finished fiber holds no
        reference into application code.  (The old ``timeout`` parameter
        was dead since the pooled-worker rewrite and has been removed.)
        """

    def release(self) -> None:
        """Drop the reference to the application target once the fiber
        has finished, so a retained fiber (e.g. via a kept Simulation)
        cannot pin per-run application state alive across a long sweep.
        Safe no-op while the fiber still runs."""
        if self.finished():
            self._target = _released


def _released() -> None:  # pragma: no cover - never executed
    raise RuntimeError("fiber target was released after fiber exit")


# ----------------------------------------------------------------------
# Thread backend (pure stdlib)
# ----------------------------------------------------------------------


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
        self._task: "ThreadFiber | None" = None
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
            if not _POOL.offer(self):
                return  # pool full (or forked child): let the thread die

    def submit(self, fiber: "ThreadFiber") -> None:
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
    """One runtime loop under direct baton passing (thread backend).

    Shared by every fiber the loop resumes; see :meth:`ThreadFiber.run_loop`.
    """

    __slots__ = ("next_fiber", "ended", "error")

    def __init__(
        self, next_fiber: Callable[[BaseFiber | None], BaseFiber | None]
    ) -> None:
        self.next_fiber = next_fiber
        #: The main thread's baton: set by the thread that saw the loop end.
        self.ended = threading.Event()
        #: What the decision function raised on a fiber thread, if anything.
        self.error: BaseException | None = None


class ThreadFiber(BaseFiber):
    """The stdlib fallback: one pooled OS thread per fiber, baton handoff.

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
      event or run after the loop; the raw-fiber tests and benches).
      The caller parks on the fiber's ``_yielded`` lock until the slice
      ends, so a round-trip costs two OS switches.

    Correctness relies on the strict alternation both modes keep: each
    lock is released exactly once per handoff and re-locked by the
    blocking acquire that consumes the release.
    """

    backend = "thread"

    __slots__ = ("_resume", "_yielded", "_worker", "_drive")

    def __init__(self, name: str, index: int, target: Callable[[], None]) -> None:
        super().__init__(name, index, target)
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

    # -- thread side ------------------------------------------------------

    def _bootstrap(self) -> None:
        try:
            # The initial baton wait sits inside _run_target's try: a kill
            # or shutdown can arrive before the fiber's first slice.
            self._run_target(wait=self._wait_for_baton)
        finally:
            self._pass_baton(blocked=False)

    def _wait_for_baton(self) -> None:
        self._resume.acquire()
        self._check_pending()

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
            self.state = FiberState.RUNNING
            return True
        if nxt is None:
            drive.ended.set()
        else:
            assert isinstance(nxt, ThreadFiber)
            nxt._drive = drive
            nxt.state = FiberState.RUNNING
            nxt._resume.release()
        return False

    def yield_to_scheduler(self) -> None:
        if not self._pass_baton(blocked=True):
            self._resume.acquire()
        if self.kill_pending or self.shutdown_pending:
            self._check_pending()

    # -- scheduler side ---------------------------------------------------

    def start(self) -> None:
        """Hand this fiber to a pooled thread (it immediately awaits the
        baton)."""
        self.state = FiberState.READY
        self._worker = _POOL.get()
        self._worker.submit(self)

    def resume_and_wait(self) -> None:
        self.state = FiberState.RUNNING
        self._drive = None  # this slice ends back here, not in a loop
        self._resume.release()
        self._yielded.acquire()

    @staticmethod
    def run_loop(
        next_fiber: Callable[[BaseFiber | None], BaseFiber | None],
        interrupt: Callable[[], None],
    ) -> None:
        """Start the first pick, then sleep until a fiber thread reports
        the loop over; re-raise what the decision raised over there.

        An exception in this thread's wait (Ctrl-C) must not travel on —
        into ``Runtime.shutdown`` — while fiber threads still run the
        simulation: *interrupt* makes the decision function end the loop
        at its next iteration, and the wait is redone, ignoring further
        interrupts, until the baton is back.
        """
        first = next_fiber(None)
        if first is None:
            return
        assert isinstance(first, ThreadFiber)
        drive = first._drive = _Drive(next_fiber)
        first.state = FiberState.RUNNING
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
        if drive.error is not None:
            raise drive.error

    def release(self) -> None:
        super().release()
        if self.finished():
            self._worker = None
            self._drive = None


# ----------------------------------------------------------------------
# Greenlet backend (optional extra, single-threaded, zero-lock)
# ----------------------------------------------------------------------


class GreenletFiber(BaseFiber):
    """The fast backend: one greenlet per fiber, no OS threads, no locks.

    A handoff is a single C-level stack switch on the scheduler's own
    thread — :meth:`resume_and_wait` switches into the fiber's greenlet,
    :meth:`yield_to_scheduler` switches back to its parent (re-pointed at
    the resuming greenlet on every handoff, so nested simulations and
    pooled sweep workers all return to the right place).  When the
    bootstrap returns, the greenlet dies and control falls back to the
    parent automatically, which is exactly the thread backend's
    "resume returns after the final slice" contract.

    There is no per-process worker pool to manage and nothing to be
    fork-aware about: a greenlet is plain memory, so a forked sweep
    worker simply creates fresh ones.  Kill/fail-stop and shutdown
    unwinding reuse the shared :class:`BaseFiber` contract — the pending
    flags are checked on every resume (including the first, so a kill
    arriving before the fiber's first slice never runs user code).
    """

    backend = "greenlet"

    __slots__ = ("_glet",)

    def __init__(self, name: str, index: int, target: Callable[[], None]) -> None:
        if _greenlet is None:  # pragma: no cover - guarded by the registry
            raise RuntimeError(
                "the greenlet fiber backend requires the greenlet package "
                "(pip install repro[fast])"
            )
        super().__init__(name, index, target)
        self._glet: "_greenlet.greenlet | None" = None

    # -- fiber side -------------------------------------------------------

    def _bootstrap(self) -> None:
        self._run_target()
        # Returning kills the greenlet and switches to its parent — the
        # scheduler greenlet blocked in resume_and_wait.

    def yield_to_scheduler(self) -> None:
        glet = self._glet
        assert glet is not None
        glet.parent.switch()
        if self.kill_pending or self.shutdown_pending:
            self._check_pending()

    # -- scheduler side ---------------------------------------------------

    def start(self) -> None:
        """Create the greenlet (cheap: no stack exists until first switch)."""
        self.state = FiberState.READY
        self._glet = _greenlet.greenlet(self._bootstrap)

    def resume_and_wait(self) -> None:
        self.state = FiberState.RUNNING
        glet = self._glet
        assert glet is not None
        # Re-parent on every handoff: the fiber must yield back to (and,
        # on death, fall back to) whichever greenlet resumed it.
        glet.parent = _greenlet.getcurrent()
        glet.switch()

    def release(self) -> None:
        super().release()
        if self.finished():
            self._glet = None  # the dead greenlet and its exit state


# ----------------------------------------------------------------------
# Backend registry and selection
# ----------------------------------------------------------------------

#: Every backend name this build knows about (importable or not).
FIBER_BACKENDS: tuple[str, ...] = ("thread", "greenlet")

_IMPORTABLE: dict[str, type[BaseFiber]] = {"thread": ThreadFiber}
if _greenlet is not None:
    _IMPORTABLE["greenlet"] = GreenletFiber


def greenlet_available() -> bool:
    """Is the optional greenlet package importable in this process?"""
    return _greenlet is not None


def available_backends() -> tuple[str, ...]:
    """The backends that can actually run here (test/bench matrices)."""
    return tuple(n for n in FIBER_BACKENDS if n in _IMPORTABLE)


def default_backend() -> str:
    """What ``auto`` resolves to: greenlet when importable, else thread."""
    return "greenlet" if _greenlet is not None else "thread"


def resolve_backend(spec: str | None = None) -> str:
    """Resolve a backend request to a concrete, importable backend name.

    ``spec`` of ``None`` defers to the ``REPRO_FIBERS`` environment
    variable (read per call, so pooled sweep workers — which inherit the
    parent's environment — honor it without any extra plumbing), and an
    empty/unset variable means ``auto``.  ``auto`` picks
    :func:`default_backend`.  A concrete name is validated: unknown names
    raise :class:`ValueError`; a known backend whose import is missing
    (greenlet on a stdlib-only install) raises :class:`RuntimeError`.
    """
    if spec is None:
        spec = os.environ.get("REPRO_FIBERS", "").strip() or "auto"
    if spec == "auto":
        return default_backend()
    if spec not in FIBER_BACKENDS:
        raise ValueError(
            f"unknown fiber backend {spec!r} "
            f"(known: auto, {', '.join(FIBER_BACKENDS)})"
        )
    if spec not in _IMPORTABLE:
        raise RuntimeError(
            f"fiber backend {spec!r} requested but the greenlet package is "
            f"not importable; install it (pip install repro[fast]) or select "
            f"the thread fallback (REPRO_FIBERS=thread)"
        )
    return spec


def make_fiber(
    backend: str, name: str, index: int, target: Callable[[], None]
) -> BaseFiber:
    """Instantiate one fiber on a resolved backend name."""
    return _IMPORTABLE[backend](name, index, target)


def run_loop(
    backend: str,
    next_fiber: Callable[[BaseFiber | None], BaseFiber | None],
    interrupt: Callable[[], None],
) -> None:
    """Drive a runtime loop the way *backend* hands off (see
    :meth:`BaseFiber.run_loop`)."""
    _IMPORTABLE[backend].run_loop(next_fiber, interrupt)


#: Back-compat alias: the stdlib fiber implementation (existing callers
#: construct ``Fiber(...)`` directly and expect the thread baton).
Fiber = ThreadFiber
