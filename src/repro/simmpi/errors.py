"""MPI error classes and the exceptions used to surface them.

The run-through stabilization proposal communicates failures through the
return codes of MPI functions.  In Python, the idiomatic equivalent is an
exception hierarchy: every exception carries the :class:`ErrorClass` that
the corresponding C function would have returned, so application code can
branch on ``exc.error_class`` exactly as the paper's pseudo code branches
on ``ret``.

Two *internal* control-flow exceptions (:class:`ProcessKilled`,
:class:`SimShutdown`) derive from :class:`BaseException` so that simulated
application code using ``except Exception`` can never accidentally swallow
a fail-stop event or a simulator shutdown.
"""

from __future__ import annotations

import enum
from typing import Any


class ErrorClass(enum.IntEnum):
    """Error classes mirroring MPI, including the FT proposal's addition."""

    SUCCESS = 0
    #: A peer of the operation has failed (fail-stop) and has not been
    #: recognized on this communicator (``MPI_ERR_RANK_FAIL_STOP``).
    ERR_RANK_FAIL_STOP = 1
    ERR_RANK = 2
    ERR_TAG = 3
    ERR_COMM = 4
    ERR_COUNT = 5
    ERR_ARG = 6
    ERR_TRUNCATE = 7
    ERR_REQUEST = 8
    ERR_PENDING = 9
    ERR_ROOT = 10
    ERR_OP = 11
    ERR_INTERN = 12
    ERR_OTHER = 13
    #: The job was aborted (``MPI_Abort`` or a fatal error handler).
    ERR_ABORTED = 14
    #: The communicator was revoked (ULFM ``MPI_ERR_REVOKED``): some
    #: member called ``comm.revoke()`` and the revocation notice has
    #: reached this process, so all non-local operations on the
    #: communicator fail until it is shrunk and rebuilt.
    ERR_REVOKED = 15

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


class ErrorHandler(enum.Enum):
    """Per-communicator error handler, as in the MPI standard.

    The FT proposal keeps ``ERRORS_ARE_FATAL`` as the default; fault
    tolerant applications must install ``ERRORS_RETURN`` (here: "raise a
    catchable exception") on every communicator involved in fault handling.
    """

    #: Any error aborts the whole simulated job (the default).
    ERRORS_ARE_FATAL = "fatal"
    #: Errors are reported to the caller (as a raised :class:`MPIError`).
    ERRORS_RETURN = "return"


class MPIError(Exception):
    """Base class for errors reported by simulated MPI calls.

    Attributes
    ----------
    error_class:
        The :class:`ErrorClass` a C binding would have returned.
    rank:
        Rank of the calling process, when known.
    peer:
        The remote rank involved in the failing operation, when known.
    index:
        For ``waitany`` style completions, the index of the
        request that completed in error (mirrors the ``idx`` out-parameter
        the paper's pseudo code inspects).
    """

    def __init__(
        self,
        message: str = "",
        *,
        error_class: ErrorClass = ErrorClass.ERR_OTHER,
        rank: int | None = None,
        peer: int | None = None,
        index: int | None = None,
    ) -> None:
        super().__init__(message or error_class.name)
        self.error_class = error_class
        self.rank = rank
        self.peer = peer
        self.index = index

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}({self.args[0]!r}, "
            f"error_class={self.error_class!s}, rank={self.rank}, "
            f"peer={self.peer}, index={self.index})"
        )

    def __reduce__(self) -> tuple[Any, ...]:
        # Keyword-only attributes do not survive the default exception
        # pickling (it replays ``cls(*args)``); results carrying MPI
        # errors must cross the sweep engine's process boundary intact.
        return (type(self), (self.args[0],), self.__dict__)


class RankFailStopError(MPIError):
    """``MPI_ERR_RANK_FAIL_STOP``: a peer failed and is unrecognized."""

    def __init__(self, message: str = "", **kwargs: Any) -> None:
        kwargs.setdefault("error_class", ErrorClass.ERR_RANK_FAIL_STOP)
        super().__init__(message, **kwargs)


class CommRevokedError(MPIError):
    """``MPI_ERR_REVOKED``: the communicator was revoked by a member.

    Raised by every operation entered on a revoked communicator, and
    delivered through pending receives when the revocation notice
    arrives — the ULFM mechanism that turns one rank's local error into
    a communicator-wide interrupt (Rocco & Palermo, arXiv:2209.01849).
    """

    def __init__(self, message: str = "", **kwargs: Any) -> None:
        kwargs.setdefault("error_class", ErrorClass.ERR_REVOKED)
        super().__init__(message, **kwargs)


class InvalidArgumentError(MPIError):
    """``MPI_ERR_ARG`` and friends: a malformed call."""

    def __init__(self, message: str = "", **kwargs: Any) -> None:
        kwargs.setdefault("error_class", ErrorClass.ERR_ARG)
        super().__init__(message, **kwargs)


class TruncationError(MPIError):
    """``MPI_ERR_TRUNCATE``: message longer than the posted receive."""

    def __init__(self, message: str = "", **kwargs: Any) -> None:
        kwargs.setdefault("error_class", ErrorClass.ERR_TRUNCATE)
        super().__init__(message, **kwargs)


class JobAborted(Exception):
    """The simulated job was aborted via ``MPI_Abort`` or a fatal error.

    This propagates out of :meth:`Simulation.run` (or is recorded on the
    :class:`SimulationResult`, depending on configuration).
    """

    def __init__(self, code: int, origin_rank: int, message: str = "") -> None:
        super().__init__(message or f"MPI_Abort(code={code}) by rank {origin_rank}")
        self.code = code
        self.origin_rank = origin_rank

    def __reduce__(self) -> tuple[Any, ...]:
        return (type(self), (self.code, self.origin_rank, self.args[0]))


class SimulationDeadlock(Exception):
    """Every alive process is blocked and no event can ever wake them.

    This is the simulator's *proof of a hang*: the condition the paper's
    Figure 6 scenario produces.  The exception carries a human-readable
    snapshot of what each blocked process was waiting for.
    """

    def __init__(self, description: str, blocked: list[tuple[int, str]]) -> None:
        super().__init__(description)
        #: ``[(rank, wait_description), ...]`` for every blocked process.
        self.blocked = blocked

    def __reduce__(self) -> tuple[Any, ...]:
        return (type(self), (self.args[0], self.blocked))


class SimulationError(Exception):
    """A simulated application raised an unexpected (non-MPI) exception."""

    def __init__(self, rank: int, original: BaseException) -> None:
        super().__init__(f"rank {rank} raised {type(original).__name__}: {original}")
        self.rank = rank
        self.original = original

    def __reduce__(self) -> tuple[Any, ...]:
        return (type(self), (self.rank, self.original))


class ProcessKilled(BaseException):
    """Internal: unwinds a simulated process that suffered fail-stop."""


class SimShutdown(BaseException):
    """Internal: unwinds still-blocked ranks at simulation end."""
