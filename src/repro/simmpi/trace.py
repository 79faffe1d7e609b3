"""Structured execution traces.

Every simulation records a sequence of timestamped records: sends,
deliveries, matches, failures, detector notifications, collective phases,
and application-defined probe points.  Traces serve three purposes:

1. **Determinism checks** — two runs with identical seeds must produce
   identical traces (asserted by the test suite).
2. **Scenario classification** — the benchmark harness reconstructs the
   paper's message-sequence figures (6, 7, 8, 10) from traces.
3. **Debugging** — ``trace.format()`` pretty-prints a timeline.

Records have a schema.  A *shape* is a :class:`TraceKind` plus the
detail names in insertion order; :data:`SHAPES` declares every shape the
kernel writes, once, and each has a module constant holding its index,
the *shape id*.  A trace stores plain rows ``(time, shape_id, rank,
*values)``, so a hot call site appends one tuple through
:attr:`Trace.add` — a bound ``list.append`` on an uncapped trace — and
builds neither a kwargs dict nor a record object.
:meth:`Trace.record` stays the general entry point (``proc.log``, tests,
loaded files): it interns a shape the table does not hold into the
trace's own copy of the table, so shapes from outside input live and
die with the trace that carries them.  :class:`TraceEvent` is a view,
built when the trace is iterated.

Tracing is free when disabled: the kernel's hot paths test
:attr:`Trace.enabled` *before* building the row, so a
``trace_enabled=False`` run allocates nothing per event.  Long sweeps can
also cap memory with ``cap=N``: the trace then keeps only the most recent
*N* records (a ring buffer) and counts what it dropped.
"""

from __future__ import annotations

import enum
from collections import deque
from itertools import islice
from typing import Any, Callable, Collection, Iterator


class TraceKind(enum.Enum):
    """Category of a trace record."""

    SEND_POST = "send_post"
    SEND_DROP = "send_drop"  # message dropped: destination already failed
    DELIVER = "deliver"
    MATCH = "match"
    RECV_POST = "recv_post"
    RECV_COMPLETE = "recv_complete"
    REQ_ERROR = "req_error"
    FAILURE = "failure"
    DETECT = "detect"
    REVOKE = "revoke"  # a communicator revocation notice took effect
    VALIDATE = "validate"
    COLLECTIVE = "collective"
    ABORT = "abort"
    PROBE = "probe"
    PROC_DONE = "proc_done"
    DEADLOCK = "deadlock"
    USER = "user"


#: ``(kind, detail names in insertion order)`` of one record shape.
Shape = tuple[TraceKind, tuple[str, ...]]

_kernel_shapes: list[Shape] = []


def _shape(kind: TraceKind, *names: str) -> int:
    assert (kind, names) not in _kernel_shapes, (kind, names)
    _kernel_shapes.append((kind, names))
    return len(_kernel_shapes) - 1


# Point-to-point transport (``Runtime``).
SEND_POST = _shape(TraceKind.SEND_POST, "dst", "tag", "ctx", "bytes", "msg")
SEND_POST_AM = _shape(
    TraceKind.SEND_POST, "dst", "tag", "ctx", "bytes", "msg", "am"
)
SEND_DROP = _shape(TraceKind.SEND_DROP, "dst", "tag", "msg")
DELIVER = _shape(TraceKind.DELIVER, "src", "tag", "ctx", "msg")
RECV_POST = _shape(TraceKind.RECV_POST, "src", "tag", "ctx", "req")
RECV_COMPLETE = _shape(TraceKind.RECV_COMPLETE, "src", "tag", "req", "msg")
# Failures, detection, revocation.
FAILURE = _shape(TraceKind.FAILURE)
DETECT = _shape(TraceKind.DETECT, "failed")
REQ_ERROR_PEER = _shape(TraceKind.REQ_ERROR, "req", "peer", "reqkind")
REVOKE = _shape(TraceKind.REVOKE, "cid")
REQ_ERROR_CID = _shape(TraceKind.REQ_ERROR, "req", "cid", "reqkind")
DEADLOCK = _shape(TraceKind.DEADLOCK, "waiting")
# The process API (``SimProcess``).
PROBE = _shape(TraceKind.PROBE, "name", "hit")
ABORT = _shape(TraceKind.ABORT, "code")
USER = _shape(TraceKind.USER, "message")
# Collectives, blocking and non-blocking.
COLL_DISABLED = _shape(TraceKind.COLLECTIVE, "op", "outcome", "unrecognized")
COLL_DONE = _shape(TraceKind.COLLECTIVE, "op", "outcome", "tag")
COLL_DONE_ROOT = _shape(TraceKind.COLLECTIVE, "op", "outcome", "tag", "root")
IBARRIER = _shape(TraceKind.COLLECTIVE, "op", "outcome", "instance")
# Consensus (``repro.ft``).
VALIDATE_START = _shape(TraceKind.VALIDATE, "op", "comm", "instance")
VALIDATE_START_PROPOSAL = _shape(
    TraceKind.VALIDATE, "op", "comm", "instance", "proposal"
)
VALIDATE_DECIDE = _shape(
    TraceKind.VALIDATE, "op", "comm", "instance", "how", "round", "decision"
)
VALIDATE_DECIDE_CONTRIBUTORS = _shape(
    TraceKind.VALIDATE, "op", "comm", "instance", "how", "round", "contributors"
)
VALIDATE_CLEAR = _shape(TraceKind.VALIDATE, "op", "comm", "recognized")

#: Shape id -> ``(kind, detail names)``: every shape the kernel writes.
SHAPES: tuple[Shape, ...] = tuple(_kernel_shapes)
del _kernel_shapes

#: ``(kind value, *names) -> shape id`` of :data:`SHAPES`.  Keyed on the
#: kind's value, not the member: ``Enum.__hash__`` is Python-level.
_SHAPE_IDS: dict[tuple[str, ...], int] = {
    (kind._value_, *names): sid for sid, (kind, names) in enumerate(SHAPES)
}


class TraceEvent:
    """One timestamped record in a simulation trace.

    A view: a trace stores rows, and builds one of these per row when it
    is iterated or indexed.  Treat instances as immutable.
    """

    __slots__ = ("time", "kind", "rank", "detail")

    def __init__(
        self,
        time: float,
        kind: TraceKind,
        rank: int,
        detail: dict[str, Any] | None = None,
    ) -> None:
        self.time = time
        self.kind = kind
        self.rank = rank
        #: Free-form payload; keys depend on ``kind`` (``peer``, ``tag``, ...).
        self.detail: dict[str, Any] = {} if detail is None else detail

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TraceEvent(time={self.time!r}, kind={self.kind!r}, "
            f"rank={self.rank!r}, detail={self.detail!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return (
            self.time == other.time
            and self.kind == other.kind
            and self.rank == other.rank
            and self.detail == other.detail
        )

    def format(self) -> str:
        """Render as a single human-readable timeline line."""
        detail = " ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        return f"[{self.time:12.9f}] r{self.rank:<3d} {self.kind.value:<14s} {detail}"

    def key(self) -> tuple[Any, ...]:
        """A hashable identity used by determinism-comparison tests."""
        return (
            self.time,
            self.kind.value,
            self.rank,
            tuple(sorted((k, repr(v)) for k, v in self.detail.items())),
        )


class _Ring(deque):
    """A capped trace's rows: the most recent ``maxlen``, counting the
    ones that fall out.  ``add`` is bound to this object, not to the
    :class:`Trace`, so a trace holds no reference cycle."""

    def __init__(self, cap: int) -> None:
        super().__init__(maxlen=cap)
        self.dropped = 0

    def add(self, row: tuple[Any, ...]) -> None:
        if len(self) == self.maxlen:
            self.dropped += 1
        self.append(row)


class Trace:
    """An append-only sequence of records, stored as rows.

    ``cap`` bounds memory for long sweeps: when set, only the most recent
    ``cap`` records are retained (:attr:`dropped` counts the overflow).
    """

    __slots__ = ("enabled", "cap", "add", "rows", "shapes", "_ids")

    def __init__(self, enabled: bool = True, cap: int | None = None) -> None:
        if cap is not None and cap < 1:
            raise ValueError("trace cap must be >= 1")
        self.enabled = enabled
        self.cap = cap
        #: ``(time, shape_id, rank, *values)`` per record, oldest first.
        self.rows: "list[tuple[Any, ...]] | _Ring"
        #: ``add(row)`` appends one row.  Callers test :attr:`enabled`
        #: first, and pass values in the order of the shape's names.
        self.add: Callable[[tuple[Any, ...]], None]
        if cap is None:
            self.rows = []
            self.add = self.rows.append
        else:
            self.rows = _Ring(cap)
            self.add = self.rows.add
        #: Shape id -> ``(kind, names)``: :data:`SHAPES`, then the shapes
        #: :meth:`record` interned for this trace alone.
        self.shapes: list[Shape] = list(SHAPES)
        self._ids = dict(_SHAPE_IDS)

    @property
    def dropped(self) -> int:
        """Records discarded by the ring buffer (0 when uncapped)."""
        return self.rows.dropped if self.cap is not None else 0

    @dropped.setter
    def dropped(self, n: int) -> None:
        if self.cap is not None:
            self.rows.dropped = n
        elif n:
            raise ValueError("an uncapped trace drops nothing")

    def record(
        self, time: float, kind: TraceKind, rank: int, /, **detail: Any
    ) -> None:
        """Append one record (no-op when tracing is disabled).

        Hot kernel paths guard with ``if trace.enabled:`` and append a row
        of a declared shape through :attr:`add`; this method serves every
        other caller, and interns the record's shape on first use.
        """
        if self.enabled:
            key = (kind._value_, *detail)
            sid = self._ids.get(key)
            if sid is None:
                sid = self._ids[key] = len(self.shapes)
                self.shapes.append((kind, tuple(detail)))
            self.add((time, sid, rank, *detail.values()))

    def _view(self, row: tuple[Any, ...]) -> TraceEvent:
        kind, names = self.shapes[row[1]]
        return TraceEvent(row[0], kind, row[2], dict(zip(names, row[3:])))

    def _shape_ids(self, kinds: "Collection[TraceKind]") -> set[int]:
        return {sid for sid, (k, _) in enumerate(self.shapes) if k in kinds}

    def columns(self, kind: TraceKind, *names: str) -> dict[int, tuple[int, ...]]:
        """Shape id -> the row positions of *names*, for every shape of
        *kind* in this trace's table that has all of them.

        A fold over :attr:`rows` reads values as ``row[i]`` through this
        map: a kernel shape holds its names in declaration order, a
        shape a loaded trace interned in the order of its file.
        """
        return {
            sid: tuple(3 + have.index(n) for n in names)
            for sid, (k, have) in enumerate(self.shapes)
            if k is kind and all(n in have for n in names)
        }

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[TraceEvent]:
        return map(self._view, self.rows)

    def __getitem__(self, idx: int) -> TraceEvent:
        return self._view(self.rows[idx])

    def filter(
        self,
        kind: "TraceKind | tuple[TraceKind, ...] | frozenset[TraceKind] | None" = None,
        rank: int | None = None,
        predicate: Callable[[TraceEvent], bool] | None = None,
    ) -> list[TraceEvent]:
        """Return records matching all of the given criteria.

        ``kind`` accepts a single :class:`TraceKind` or any collection of
        kinds — the space-time renderer and the exporters all select
        several kinds at once, so one pass here replaces repeated
        single-kind filters.  The kind is tested through the row's shape
        id, before a view is built.
        """
        sids = None
        if kind is not None:
            sids = self._shape_ids(
                (kind,) if isinstance(kind, TraceKind) else kind
            )
        view = self._view
        out = []
        for row in self.rows:
            if sids is not None and row[1] not in sids:
                continue
            if rank is not None and row[2] != rank:
                continue
            ev = view(row)
            if predicate is not None and not predicate(ev):
                continue
            out.append(ev)
        return out

    def count(self, kind: TraceKind, **detail_eq: Any) -> int:
        """Count records of *kind* whose detail matches all given keys."""
        sids = self._shape_ids((kind,))
        rows = [row for row in self.rows if row[1] in sids]
        if not detail_eq:
            return len(rows)
        n = 0
        for ev in map(self._view, rows):
            if all(ev.detail.get(k) == v for k, v in detail_eq.items()):
                n += 1
        return n

    def format(self, limit: int | None = None) -> str:
        """Pretty-print the (possibly truncated) timeline."""
        lines = [ev.format() for ev in islice(self, limit)]
        if limit is not None and len(self.rows) > limit:
            lines.append(f"... ({len(self.rows) - limit} more)")
        if self.dropped:
            lines.insert(0, f"... ({self.dropped} older records dropped)")
        return "\n".join(lines)

    def keys(self) -> list[tuple[Any, ...]]:
        """Identity view of the full trace, for determinism assertions."""
        return [ev.key() for ev in self]
