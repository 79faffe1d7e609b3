"""Fibers: how a simulated rank's call stack suspends.

A *fiber* is one simulated MPI process: an ``async def`` rank program
whose whole call stack suspends whenever it blocks inside a simulated MPI
call and resumes exactly where it left off when the scheduler picks it
again.  :class:`Fiber` holds the rank's coroutine, and the kernel's loop
(:meth:`Fiber.run_loop`, called by ``Runtime.loop``) steps one coroutine
at a time on the calling thread: no OS thread is started, so exactly one
rank executes at any instant by construction and the simulation stays
deterministic.

The fiber decides *how* a stack suspends, never *which* fiber runs next —
that is one function, ``Runtime._next_fiber``, asking the scheduling
policy (see :mod:`repro.simmpi.scheduler`).  The golden determinism
matrix in ``tests/test_determinism_golden.py`` pins the traces of every
policy.

Where the loop runs (``tests/test_handoff.py``):

* A slice is one :meth:`~Fiber._step`.  It ends when the rank **blocks**
  (``await`` of :data:`SUSPEND`, through ``SimProcess.block``),
  **finishes**, or is **unwound**: ``kill_pending`` / ``shutdown_pending``
  make the step throw :class:`ProcessKilled` / :class:`SimShutdown` into
  the coroutine instead of resuming it.
* Everything the loop calls — event callbacks, active-message handlers,
  failure listeners, injector hooks, custom policies,
  ``detection_latency`` callables — runs between slices on the same
  thread, while no rank is executing.  So a kill event unwinds its
  victim on the spot, whichever rank ran last.
* **Interrupts.**  Ctrl-C lands on the loop's own thread: inside a rank
  or inside a callback.  :meth:`~Fiber._step` never stores
  ``KeyboardInterrupt`` or ``SystemExit`` as a rank error; it re-raises
  them, and ``Simulation.run`` unwinds every parked coroutine before the
  exception travels on.
"""

from __future__ import annotations

import enum
import traceback
from functools import partial
from types import CoroutineType
from typing import Any, Callable

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


class _Suspend:
    """The one awaitable every blocked rank waits on.

    ``await SUSPEND`` yields once to the step that resumed the coroutine
    and returns when the next step sends to it.  Its ``__await__`` is a C
    callable (a ``partial`` does not bind ``self``) returning a fresh
    one-item tuple iterator, so a block costs no interpreted frame.  A
    pending kill or shutdown is thrown in at the ``await``.
    """

    __slots__ = ()
    __await__ = partial(iter, (None,))


#: Awaited by ``SimProcess.block``, the only place a rank suspends.
SUSPEND = _Suspend()


class Fiber:
    """One simulated rank: a coroutine stepped by the kernel's loop.

    Everything the runtime observes — :attr:`state`,
    :attr:`block_reason`, the kill/shutdown-pending flags,
    :attr:`error`/:attr:`result` capture — lives on the fiber.
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
        "_coro",
    )

    def __init__(self, name: str, index: int, target: Callable[[], Any]) -> None:
        self.name = name
        #: Dense index (the MPI world rank) used by scheduling policies.
        self.index = index
        self.state = _NEW
        #: Why the fiber is blocked: a string, or an object whose str()
        #: is the reason (rendered only for deadlock reports).
        self.block_reason: object = ""
        #: Set when the fiber must unwind with ProcessKilled on next step.
        self.kill_pending = False
        #: Set when the fiber must unwind with SimShutdown on next step.
        self.shutdown_pending = False
        #: Exception raised by the user target, if any (not kill/shutdown).
        self.error: BaseException | None = None
        #: Return value of the user target, if it completed normally.
        self.result: object = None
        #: Called on the first step.  It returns the rank's coroutine, or
        #: — a target that never blocks — its result.
        self._target = target
        self._coro: CoroutineType | None = None

    def start(self) -> None:
        """Make the fiber runnable (it runs no user code until stepped)."""
        self.state = _READY

    def _step(self) -> None:
        """Run one slice: until the rank blocks, finishes or unwinds.

        A pending kill or shutdown is thrown in instead of resuming, so a
        fiber killed before its first slice never runs user code.
        """
        self.state = _RUNNING
        coro = self._coro
        try:
            if self.kill_pending or self.shutdown_pending:
                # No local holds the exception: on its traceback, this
                # frame would make it cyclic garbage.
                unwind = ProcessKilled if self.kill_pending else SimShutdown
                if coro is None:
                    raise unwind()
                coro.throw(unwind())
            else:
                if coro is None:
                    coro = self._target()
                    if type(coro) is not CoroutineType:
                        self.result = coro  # finished without blocking
                        self.state = _DONE
                        return
                    self._coro = coro
                coro.send(None)
        except StopIteration as stop:
            self.result = stop.value
            self.state = _DONE
        except ProcessKilled:
            self.state = _FAILED
        except SimShutdown:
            self.state = _DONE
        except (KeyboardInterrupt, SystemExit):
            # An interrupt, not a rank error: the caller tears down.
            self.state = _DONE
            raise
        except BaseException as exc:  # noqa: BLE001 - the rank's outcome
            # The stored traceback starts at the rank's own frames: this
            # one links back to the loop and ``Simulation.run``, whose
            # locals would make the finished run cyclic garbage.
            self.error = exc.with_traceback(exc.__traceback__.tb_next)
            self.state = _DONE

    @staticmethod
    def run_loop(next_fiber: Callable[[], Fiber | None]) -> None:
        """Drive a runtime loop to its end (called by ``Runtime.loop``).

        *next_fiber()* is the runtime's scheduling decision: it runs
        events until the policy picks a fiber and returns it, or returns
        ``None`` when the loop is over.
        """
        fiber = next_fiber()
        while fiber is not None:
            fiber._step()
            fiber = next_fiber()

    def finished(self) -> bool:
        state = self.state
        return state is _DONE or state is _FAILED

    def release(self) -> None:
        """Drop what ties a finished fiber to its run's object graph.

        The application target and coroutine go, so a retained fiber
        (e.g. via a kept Simulation) cannot pin per-run application state
        alive across a long sweep.  So do the two references that would
        lead back to this fiber and make the finished run cyclic garbage:
        the block reason of a fiber unwound while blocked (a wait holds
        requests, whose owner is the rank) and the locals of every frame
        on a stored application error's tracebacks, which keep their file
        and line.  Safe no-op while the fiber still runs.
        """
        if self.finished():
            self._target = _released
            self._coro = None
            self.block_reason = ""
            _clear_locals(self.error)


def _released() -> None:  # pragma: no cover - never executed
    raise RuntimeError("fiber target was released after fiber exit")


def _clear_locals(exc: BaseException | None) -> None:
    """Clear the locals of every finished frame on the tracebacks of *exc*
    and the exceptions it chains to.  Frames keep their code and line,
    so the tracebacks still print."""
    while exc is not None:
        traceback.clear_frames(exc.__traceback__)
        exc = exc.__cause__ or exc.__context__
