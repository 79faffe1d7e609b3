"""Socket workers: the one worker substrate of a pooled sweep.

A worker is a frame loop (:func:`_serve`) on one socket.
:class:`FleetRunner` feeds it chunks, one scheduling round at a time,
and reaches it one of two ways (:meth:`FleetRunner.connect`):

* ``workers=N`` (``--workers N``) forks N local workers per round, each
  on one end of a ``socket.socketpair()``.  A local worker binds no
  address.
* ``addresses=`` (``--transport remote``) connects to ``repro worker
  serve --bind HOST:PORT`` processes — a :class:`WorkerServer` (stdlib
  :mod:`socketserver`) runs the same loop per accepted connection.

Either way the runner's scheduling loop — chunking, submission-order
merge, the cumulative timeout budget and bounded chunk retries — is the
same, so a pooled or distributed sweep's report is byte-identical to a
serial one (pinned in tier-1 by ``tests/test_remote.py``'s
``TestLoopbackCampaign`` and ``tests/test_spans.py``'s
``TestTransportIdentity``).

Wire protocol (``repro.remote/3``)
----------------------------------

Every message is one *frame*: an 8-byte big-endian length prefix
followed by that many bytes of zlib-compressed pickle.  Messages are
tuples:

* ``("hello", info)`` → ``("hello", {"format", "pid"})`` — sent once
  per connection; ``info`` carries the protocol format and the parent's
  determinism env (``REPRO_MUTATIONS``), which the worker applies before
  executing anything.  A peer speaking another format gets
  ``("reject", "format mismatch: …")`` naming both, which the parent
  raises as a :class:`SweepError`.
* ``("run", start, jobs[, indices])`` → ``("done", start, values[,
  spans])`` — one chunk, executed by
  :func:`~repro.parallel.transport.run_chunk`; ``values`` are the jobs'
  results in order.  ``indices`` (the jobs' sweep-global positions) is
  present exactly when the parent records spans, and asks for the
  worker's spans back; a spans-off exchange is two 3-tuples.
  A job that raises yields ``("error", start, exception)`` instead —
  an application error, re-raised verbatim at the parent.
* ``("ping",)`` → ``("pong", {"pid", "busy"})`` — liveness, answered
  even while a chunk is executing (used by the parent's heartbeat and
  by ``repro worker ping``; a served worker only).

A worker knows nothing about the run cache.  Lookups and stores happen
in the submitting process (:meth:`SweepRunner.run
<repro.parallel.runner.SweepRunner.run>`): the store is a WAL-mode
SQLite file, which only works when every process that opens it is on
one host, and a hit costs less to rebuild next to the open store than
to pickle, ship and look up elsewhere.  A cached sweep sends only its
misses (as :class:`~repro.parallel.transport.MissJob`, whose reply is
the ``(outcome, payload)`` envelope), and a fully warm one opens no
connection at all.

Failure semantics
-----------------

Fail-stop workers under a perfect detector: a connection error, EOF or
a frame the parent cannot decode (an oversized length prefix, a bad
zlib body) marks that worker dead for the round — a forked worker that
crashed and a served one that died look the same.  Its in-flight chunk is
reported *lost* and flows into the runner's retry machinery (the retry
round forks fresh workers and reconnects to every address, so a
recovered served worker rejoins automatically).  If no data arrives for
``heartbeat`` seconds the parent probes each silent served worker with
an ephemeral ping connection; probe failure is a death.  A local worker
has no address to ping: the runner's timeout budget covers a wedged
one.  When every worker is dead the round is *broken* and all pending
chunks are retried.  The repo's own fault-tolerance story, applied to
its harness.

Security: frames are pickles — a worker executes what it is sent and a
parent unpickles what it receives.  Bind served workers to loopback or
a trusted network only; there is no authentication layer.  A forked
worker binds nothing, so ``--workers N`` opens no port.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import select
import socket
import socketserver
import struct
import threading
import time
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from ..obs.slot import active as spans_active
from .runner import (
    _UNSET,
    DEFAULT_STREAM_WINDOW,
    SweepError,
    SweepJob,
    SweepRunner,
)
from .transport import Chunk, ChunkEvent, run_chunk

if TYPE_CHECKING:
    from ..obs.spans import SpanRecorder

__all__ = [
    "REMOTE_FORMAT",
    "FleetRunner",
    "WorkerServer",
    "parse_worker_addrs",
    "ping",
    "serve",
]

#: Wire protocol identifier, sent in every hello and checked by both ends.
REMOTE_FORMAT = "repro.remote/3"

#: Determinism-relevant environment propagated parent → worker on hello.
#: Applied (set *and* unset) before any job runs, so a worker executes
#: exactly like its parent.
ENV_KEYS = ("REPRO_MUTATIONS",)

_LEN = struct.Struct(">Q")
#: Refuse absurd frames instead of allocating unbounded buffers.
_MAX_FRAME = 1 << 31


# -- framing -----------------------------------------------------------------


def _pack(obj: Any) -> tuple[bytes, int]:
    """Encode *obj* as a frame; returns ``(frame_bytes, raw_len)``."""
    raw = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    wire = zlib.compress(raw, 1)  # speed over ratio: sims dwarf zlib -1
    return _LEN.pack(len(wire)) + wire, len(raw)


class _CorruptFrame(ConnectionError):
    """A frame that cannot be a ``repro.remote/3`` frame: its peer is
    treated as dead.  (A well-formed frame whose pickle fails to load
    is not this: that is the payload's error, and propagates.)"""


def _inflate(wire: bytes) -> bytes:
    """A frame's decompressed body."""
    try:
        return zlib.decompress(wire)
    except zlib.error as exc:
        raise _CorruptFrame(f"corrupt frame body: {exc}") from None


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Blocking read of exactly *n* bytes; raises ``ConnectionError`` on EOF."""
    buf = bytearray()
    while len(buf) < n:
        data = sock.recv(min(n - len(buf), 1 << 20))
        if not data:
            raise ConnectionError("connection closed mid-frame")
        buf += data
    return bytes(buf)


def _recv_frame(sock: socket.socket) -> tuple[Any, int, int]:
    """Blocking frame read; returns ``(obj, wire_len, raw_len)``."""
    (size,) = _LEN.unpack(_recv_exact(sock, _LEN.size))
    if size > _MAX_FRAME:
        raise _CorruptFrame(f"oversized frame ({size} bytes)")
    raw = _inflate(_recv_exact(sock, size))
    return pickle.loads(raw), size, len(raw)


class _FrameBuffer:
    """Incremental frame parser for the parent's select() loop."""

    def __init__(self) -> None:
        self._buf = bytearray()
        self.wire_in = 0  # compressed bytes consumed (complete frames)
        self.raw_in = 0  # decompressed bytes produced

    def feed(self, data: bytes) -> None:
        self._buf += data

    def frames(self) -> Iterator[Any]:
        while True:
            if len(self._buf) < _LEN.size:
                return
            (size,) = _LEN.unpack(self._buf[: _LEN.size])
            if size > _MAX_FRAME:
                raise _CorruptFrame(f"oversized frame ({size} bytes)")
            if len(self._buf) < _LEN.size + size:
                return
            wire = bytes(self._buf[_LEN.size : _LEN.size + size])
            del self._buf[: _LEN.size + size]
            raw = _inflate(wire)
            self.wire_in += _LEN.size + size
            self.raw_in += len(raw)
            yield pickle.loads(raw)


# -- addresses ---------------------------------------------------------------


def parse_worker_addrs(spec: str) -> tuple[tuple[str, int], ...]:
    """Parse ``"host:port,host:port,..."`` into address tuples.

    Raises :class:`ValueError` with a usable message on malformed input
    (the CLI uses this as an argparse ``type=`` so errors surface at
    parse time, not as a traceback from a socket call): a port that is
    not plain ASCII digits, or an address given twice (two slots would
    share one stats row and every job would count twice).
    """
    addrs: list[tuple[str, int]] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        host, sep, port_s = part.rpartition(":")
        if not sep or not host:
            raise ValueError(
                f"worker address {part!r} is not HOST:PORT "
                "(expected e.g. 127.0.0.1:7777)"
            )
        if not (port_s.isascii() and port_s.isdigit()):
            raise ValueError(
                f"worker address {part!r} has a non-numeric port"
            )
        port = int(port_s)
        if not 1 <= port <= 65535:
            raise ValueError(
                f"worker address {part!r} has an out-of-range port"
            )
        if (host, port) in addrs:
            raise ValueError(f"worker address {part!r} is given twice")
        addrs.append((host, port))
    if not addrs:
        raise ValueError("no worker addresses given")
    return tuple(addrs)


def _addr_str(addr: tuple[str, int]) -> str:
    return f"{addr[0]}:{addr[1]}"


# -- worker side -------------------------------------------------------------


def _apply_env(env: dict[str, str]) -> None:
    """Adopt the parent's determinism env: set sent keys, drop absent
    ones (so a previous client's settings never leak into this sweep)."""
    for key in ENV_KEYS:
        if key in env:
            os.environ[key] = env[key]
        else:
            os.environ.pop(key, None)


def _send(sock: socket.socket, obj: Any) -> None:
    frame, _raw = _pack(obj)
    sock.sendall(frame)


def _serve(
    sock: socket.socket, exec_lock: threading.Lock, env_lock: threading.Lock
) -> None:
    """The worker's frame loop on one connection, until the parent hangs
    up.  Run by every :class:`WorkerServer` connection thread and by a
    forked local worker; *exec_lock* serializes chunk execution across
    a server's connections, *env_lock* the hello's environment update."""
    try:
        while True:
            try:
                msg, _wire, _raw = _recv_frame(sock)
            except ConnectionError:
                return
            kind = msg[0]
            if kind == "hello":
                info = msg[1]
                if info.get("format") != REMOTE_FORMAT:
                    _send(
                        sock,
                        ("reject", f"format mismatch: {info.get('format')!r} "
                                   f"!= {REMOTE_FORMAT!r}"),
                    )
                    return
                with env_lock:
                    _apply_env(info.get("env") or {})
                _send(sock, ("hello", {"format": REMOTE_FORMAT, "pid": os.getpid()}))
            elif kind == "ping":
                _send(
                    sock,
                    ("pong", {"pid": os.getpid(), "busy": exec_lock.locked()}),
                )
            elif kind == "run":
                start, jobs = msg[1], msg[2]
                # Spans-off frames are 3-tuples; a 4th element (the
                # jobs' sweep-global indices) asks for spans back.
                indices = msg[3] if len(msg) > 3 else None
                try:
                    # One chunk at a time per worker process: under
                    # the GIL a second would only interleave with this
                    # one, and perf.SESSION folds runs in unlocked.
                    with exec_lock:
                        done = run_chunk(jobs, indices)
                    if indices is None:
                        reply = ("done", start, done)
                    else:
                        reply = ("done", start) + done
                except BaseException as exc:  # noqa: BLE001
                    # Application error: ship it back verbatim; the
                    # parent raises it and never retries the chunk.
                    _send(sock, ("error", start, exc))
                    continue
                _send(sock, reply)
            else:
                _send(sock, ("reject", f"unknown message {kind!r}"))
                return
    except OSError:
        # Parent hung up (possibly mid-send after abandoning the
        # round): drop the connection, keep serving others.
        return


class _WorkerHandler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        server: WorkerServer = self.server  # type: ignore[assignment]
        _serve(self.request, server.exec_lock, server.env_lock)


def _serve_forked(sock: socket.socket, inherited: list[socket.socket]) -> None:
    """A forked local worker's body: drop the parent's ends of this
    round's socket pairs (its own included), or no worker would see EOF
    when the parent hangs up, then serve the one connection."""
    for other in inherited:
        other.close()
    _serve(sock, threading.Lock(), threading.Lock())


class WorkerServer(socketserver.ThreadingTCPServer):
    """A sweep worker serving ``repro.remote/3`` on a TCP socket.

    One connection handler per client thread, but chunk execution is
    serialized by :attr:`exec_lock` — a worker process runs one
    simulation at a time (pings still answer while a chunk runs, which
    is what makes the parent's heartbeat meaningful).
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, bind: tuple[str, int]) -> None:
        super().__init__(bind, _WorkerHandler)
        self.exec_lock = threading.Lock()
        self.env_lock = threading.Lock()

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — resolves ``port=0`` requests."""
        host, port = self.server_address[:2]
        return str(host), int(port)


def serve(bind: tuple[str, int]) -> None:
    """Run a worker until interrupted (the ``repro worker serve`` body).

    Prints one readiness line to stderr (``[worker] repro.remote/3
    listening on HOST:PORT pid=N``) so wrappers — tests, scripts —
    can read the bound port from the first line and wait for
    availability; the security warning follows on the next line.
    """
    import sys

    server = WorkerServer(bind)
    host, port = server.address
    # Marker for jobs that need to know they run under `worker serve`
    # (e.g. the dead-worker recovery test's poison job).
    os.environ["REPRO_WORKER_SERVE"] = f"{host}:{port}"
    print(
        f"[worker] {REMOTE_FORMAT} listening on {host}:{port} pid={os.getpid()}",
        file=sys.stderr,
        flush=True,
    )
    print(
        "[worker] trusted network only: frames are pickles",
        file=sys.stderr,
        flush=True,
    )
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()


def ping(addr: tuple[str, int], timeout: float = 2.0) -> dict[str, Any]:
    """One liveness round-trip; returns the pong info or raises ``OSError``."""
    with socket.create_connection(addr, timeout=timeout) as sock:
        sock.settimeout(timeout)
        frame, _raw = _pack(("ping",))
        sock.sendall(frame)
        reply, _wire, _raw_in = _recv_frame(sock)
    if reply[0] != "pong":
        raise OSError(f"unexpected reply from {_addr_str(addr)}: {reply[0]!r}")
    return reply[1]


# -- parent side -------------------------------------------------------------


class _WorkerConn:
    """One round's connection to the worker in one slot."""

    def __init__(self, slot: int, name: str, sock: socket.socket) -> None:
        self.slot = slot
        self.name = name
        self.sock = sock
        self.buffer = _FrameBuffer()
        self.busy: Chunk | None = None
        self.sent_at = 0.0
        self.last_seen = time.monotonic()

    def send(self, obj: Any) -> tuple[int, int]:
        frame, raw = _pack(obj)
        self.sock.sendall(frame)
        return len(frame), raw


def _new_stats(name: str) -> dict[str, Any]:
    return {
        "worker": name,
        "pid": None,
        "chunks": 0,
        "jobs": 0,
        "rtt_s": 0.0,
        "bytes_out": 0,
        "bytes_in": 0,
        "raw_out": 0,
        "raw_in": 0,
        "disconnects": 0,
    }


@dataclass
class FleetRunner(SweepRunner):
    """Fan jobs out across socket workers speaking ``repro.remote/3``:
    *workers* local processes or the served fleet at *addresses*, never
    both.  The two differ only in :meth:`connect`, and in that a silent
    served worker is probed with a ping.

    The runner owns the semantics documented in
    :mod:`repro.parallel.runner` — chunking, the cumulative timeout
    budget, bounded chunk retries with deterministic attribution,
    immediate propagation of application errors — and the per-slot
    statistics (chunks, rtt, bytes shipped, compression, disconnects)
    that accumulate across rounds and feed the telemetry stream.

    Parameters
    ----------
    workers:
        Number of local worker processes, forked afresh for every round
        (slots ``local:<slot>``; no port is opened).  ``workers=1``
        still forks one worker — useful for verifying that jobs survive
        the process boundary; use
        :class:`~repro.parallel.runner.SerialRunner` for a true
        in-process run.
    addresses:
        Served worker addresses — a ``"host:port,host:port"`` string or
        a sequence of ``(host, port)`` tuples (slots ``host:port``; a
        worker that recovered rejoins at the next round).  One chunk
        executes per worker at a time (workers serialize execution
        internally).
    chunk_size:
        Jobs per frame.  ``None`` auto-chunks (:meth:`_auto_chunk`).
    timeout:
        Per-job wall-clock budget in seconds (``None``: no timeout).
    retries:
        How many times a failed/timed-out chunk is re-submitted on
        fresh workers before :class:`SweepError` is raised.  A chunk
        lost to a dead worker consumes one retry.
    connect_timeout / heartbeat:
        With *addresses* only: the socket budget for connecting and for
        the hello reply, and how long a busy worker may stay silent
        before the parent probes it with a ping.  A forked worker has
        no address to ping: the timeout budget covers a wedged one.
    """

    workers: int | None = None
    addresses: Sequence[tuple[str, int]] | str = ()
    chunk_size: int | None = None
    timeout: float | None = None
    retries: int = 1
    connect_timeout: float = 5.0
    heartbeat: float = 2.0

    def __post_init__(self) -> None:
        if isinstance(self.addresses, str):
            self.addresses = parse_worker_addrs(self.addresses)
        self.addresses = tuple(self.addresses)
        if self.addresses and self.workers is not None:
            raise ValueError("give workers or addresses, not both")
        if not self.addresses and (self.workers is None or self.workers < 1):
            raise ValueError("workers must be >= 1, or give worker addresses")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        # The dataclass-generated __init__ bypasses SweepRunner.__init__.
        self.job_retries, self.job_cache = [], []
        self.names = tuple(map(_addr_str, self.addresses)) or tuple(
            f"local:{slot}" for slot in range(self.workers)
        )
        for slot, name in enumerate(self.names):
            if name in self.names[:slot]:
                raise ValueError(f"worker address {name!r} is given twice")
        #: Per-slot telemetry, accumulated across rounds; a slot's
        #: ``pid`` is its latest worker's.
        self.stats: dict[str, dict[str, Any]] = {
            name: _new_stats(name) for name in self.names
        }

    def connect(
        self, slot: int, inherited: list[socket.socket]
    ) -> tuple[socket.socket, Any]:
        """Open a connection to the worker of *slot*; returns the socket
        and the worker process this round must reap, or ``None``.
        *inherited* holds the parent's ends of the round's connections
        opened so far, which a forked worker closes.

        A forked worker starts cheaply with the ``fork`` start method:
        the parent's imported modules, environment and monkeypatches are
        already in place.
        """
        if self.addresses:
            sock = socket.create_connection(
                self.addresses[slot], timeout=self.connect_timeout
            )
            return sock, None
        parent, child = socket.socketpair()
        proc = multiprocessing.get_context("fork").Process(
            target=_serve_forked, args=(child, inherited + [parent]), daemon=True
        )
        try:
            proc.start()
        except OSError:
            parent.close()
            raise
        finally:
            child.close()
        return parent, proc

    def worker_stats(self) -> list[dict[str, Any]]:
        """Per-worker telemetry rows (with derived compression ratio)."""
        rows = []
        for name in self.names:
            s = dict(self.stats[name])
            wire = s["bytes_out"] + s["bytes_in"]
            raw = s["raw_out"] + s["raw_in"]
            s["compression"] = round(raw / wire, 3) if wire else None
            rows.append(s)
        return rows

    def _auto_chunk(self, n_jobs: int, width: int) -> int:
        """Default chunk size: roughly four chunks per worker, balancing
        dispatch overhead against load balance, capped at a stream
        window's share so one frame never ships an unbounded slice of a
        huge :meth:`run` call."""
        cap = max(1, math.ceil(DEFAULT_STREAM_WINDOW / (width * 4)))
        return max(1, min(math.ceil(n_jobs / (width * 4)), cap))

    def _stream_window(self) -> int:
        # Keep every worker busy across a window: explicit chunk sizes
        # scale the window, auto-chunking gets the shared default.
        width = len(self.names)
        if self.chunk_size is not None:
            return max(DEFAULT_STREAM_WINDOW, self.chunk_size * width * 4)
        return max(DEFAULT_STREAM_WINDOW, width * 128)

    # -- scheduling --------------------------------------------------------

    def _execute(
        self, jobs: list[SweepJob], indices: Sequence[int]
    ) -> list[Any]:
        if not jobs:
            self.job_retries = []
            return []
        recorder = spans_active()
        if recorder is None:
            return self._run(jobs, None, None)
        with recorder.span("sweep.run", "sweep", attrs={"jobs": len(jobs)}):
            return self._run(jobs, recorder, indices)

    def _run(
        self,
        jobs: list[SweepJob],
        recorder: SpanRecorder | None,
        indices: Sequence[int] | None,
    ) -> list[Any]:
        """*indices* (the jobs' sweep-global positions) travels with the
        chunks exactly when *recorder* is set: it labels the spans."""
        width = len(self.names)
        chunk = self.chunk_size or self._auto_chunk(len(jobs), width)
        #: (start_index, jobs_slice) descriptors; a chunk is the retry unit.
        chunks = [
            (i, jobs[i : i + chunk]) for i in range(0, len(jobs), chunk)
        ]
        results: list[Any] = [_UNSET] * len(jobs)
        attempts = {start: 0 for start, _ in chunks}
        pending = chunks
        while pending:
            # Sort by start index: _run_round collects failures in
            # completion order (effectively arbitrary), and both the
            # retry submissions and the exhausted-chunk raise below must
            # not depend on that order for attribution to be
            # deterministic.
            pending = sorted(
                self._run_round(width, pending, results, recorder, indices)
            )
            for start, part in pending:
                attempts[start] += 1
                if attempts[start] > self.retries:
                    indices = [
                        start + k
                        for k in range(len(part))
                        if results[start + k] is _UNSET
                    ]
                    raise SweepError(
                        f"{len(indices)} job(s) did not complete after "
                        f"{self.retries} retr{'y' if self.retries == 1 else 'ies'}; "
                        f"a deterministic job that exceeds its timeout "
                        f"will do so on every attempt",
                        indices=indices,
                    )
        self.job_retries = [0] * len(jobs)
        for start, part in chunks:
            for k in range(len(part)):
                self.job_retries[start + k] = attempts[start]
        return results

    def _run_round(
        self,
        width: int,
        chunks: list[Chunk],
        results: list[Any],
        recorder: SpanRecorder | None = None,
        indices: Sequence[int] | None = None,
    ) -> list[Chunk]:
        """Submit *chunks* on a fresh round; fill *results*; return the
        chunks that must be retried (timed out or lost in transit)."""
        round_span = None
        if recorder is not None:
            round_span = recorder.begin(
                "round.run", "round",
                attrs={"chunks": len(chunks),
                       "jobs": sum(len(part) for _s, part in chunks)},
            )
        round_ = _FleetRound(self)
        try:
            for start, part in chunks:
                if recorder is None:
                    round_.submit(start, part)
                else:
                    where = indices[start : start + len(part)]
                    recorder.chunk_begin(start, len(part), index=where[0])
                    round_.submit(start, part, where)
            deadline_at = None
            if self.timeout is not None:
                total = sum(len(part) for _s, part in chunks)
                # Cumulative budget: jobs run `width` at a time, so the
                # round as a whole gets ceil(total/width) job-budgets
                # (plus one for scheduling slack).
                budget = self.timeout * (math.ceil(total / width) + 1)
                deadline_at = time.monotonic() + budget
            failed: list[Chunk] = []
            while round_.pending():
                remaining = None
                if deadline_at is not None:
                    remaining = deadline_at - time.monotonic()
                    if remaining <= 0:  # budget exhausted, jobs still running
                        failed.extend(
                            self._lose(round_.pending(), recorder)
                        )
                        round_.abandon()
                        return failed
                for start, part, values in round_.wait(remaining):
                    if values is None:
                        failed.append((start, part))
                        if recorder is not None:
                            recorder.chunk_end(start, "lost")
                    else:
                        for k, value in enumerate(values):
                            results[start + k] = value
                        if recorder is not None:
                            dispatch = recorder.chunk_end(start, "done")
                            if dispatch is not None:
                                recorder.chunk_merge(dispatch)
                if round_.broken:
                    # No capacity left; everything unfinished is lost.
                    failed.extend(self._lose(round_.pending(), recorder))
                    round_.abandon()
                    return failed
            round_.close()
            return failed
        except BaseException:
            # Application errors and interrupts alike: terminate wedged
            # workers instead of awaiting them, then propagate.
            round_.abandon()
            raise
        finally:
            if round_span is not None:
                recorder.end(round_span)

    @staticmethod
    def _lose(
        chunks: list[Chunk], recorder: SpanRecorder | None
    ) -> list[Chunk]:
        """Account chunks abandoned in-flight (timeout/broken round)."""
        if recorder is not None:
            for start, _part in chunks:
                recorder.chunk_end(start, "lost")
        return chunks


class _FleetRound:
    """One scheduling round: a batch of chunks in flight on a fresh
    connection to every slot of *runner* — a worker that died simply
    fails to join, and wedged workers from a previous attempt cannot
    poison the retry.

    Lifecycle: :meth:`submit` every chunk, then loop :meth:`wait` while
    :meth:`pending` is non-empty, then :meth:`close`.  :meth:`abandon`
    at any point tears the round down without waiting for wedged
    workers.
    """

    def __init__(self, runner: FleetRunner) -> None:
        self.runner = runner
        #: Set when the round has lost all execution capacity (every
        #: worker dead): the caller must treat every still pending
        #: chunk as lost and abandon the round.
        self.broken = False
        self.conns: list[_WorkerConn] = []
        #: Every worker process this round started: reaped by
        #: :meth:`close` / :meth:`abandon`, dead or alive.
        self.procs: list[Any] = []
        #: Chunks not yet shipped: ``(start, jobs, indices-or-None)``.
        self.queue: list[tuple[int, list, Sequence[int] | None]] = []
        env = {k: os.environ[k] for k in ENV_KEYS if k in os.environ}
        hello = {"format": REMOTE_FORMAT, "env": env}
        try:
            for slot, name in enumerate(runner.names):
                self._join(slot, name, hello)
            if not self.conns:
                raise SweepError(
                    "no reachable workers among " + ", ".join(runner.names)
                )
        except BaseException:
            # A rejected hello or an interrupt: close and reap what
            # this round already opened before propagating.
            self.abandon()
            raise

    def _join(self, slot: int, name: str, hello: dict[str, Any]) -> None:
        """Connect to *slot* and exchange hellos; a worker that cannot
        be reached is counted as a disconnect and left out.  The hello
        reply waits as long as :meth:`FleetRunner.connect`'s socket
        does: ``connect_timeout`` for a served worker, unbounded for a
        forked one."""
        stats = self.runner.stats[name]
        try:
            sock, proc = self.runner.connect(slot, [c.sock for c in self.conns])
        except OSError:
            stats["disconnects"] += 1
            return
        if proc is not None:
            self.procs.append(proc)
        try:
            frame, raw = _pack(("hello", hello))
            sock.sendall(frame)
            reply, wire_in, raw_in = _recv_frame(sock)
        except OSError:
            sock.close()
            stats["disconnects"] += 1
            return
        if reply[0] != "hello":
            sock.close()
            raise SweepError(
                f"worker {name} rejected the handshake: "
                f"{reply[1] if reply[0] == 'reject' else reply!r}"
            )
        sock.settimeout(None)
        stats["pid"] = reply[1].get("pid")
        stats["bytes_out"] += len(frame)
        stats["raw_out"] += raw
        stats["bytes_in"] += wire_in
        stats["raw_in"] += raw_in
        self.conns.append(_WorkerConn(slot, name, sock))

    # -- submission --------------------------------------------------------

    def submit(
        self, start: int, jobs: list, indices: Sequence[int] | None = None
    ) -> None:
        """Queue the chunk at batch offset *start*.  *indices* — the
        jobs' sweep-global positions — is given exactly when the parent
        records spans, and asks for the worker's spans back."""
        self.queue.append((start, jobs, indices))
        self._pump()

    def _pump(self) -> None:
        """Ship queued chunks to idle workers."""
        for conn in list(self.conns):
            if not self.queue:
                return
            if conn.busy is not None:
                continue
            start, part, indices = self.queue[0]
            stats = self.runner.stats[conn.name]
            recorder = spans_active()
            frame_msg: tuple = ("run", start, part)
            if indices is not None:
                frame_msg += (indices,)
            try:
                sent, raw = conn.send(frame_msg)
            except OSError:
                self._drop(conn)
                continue
            self.queue.pop(0)
            conn.busy = (start, part)
            conn.sent_at = time.monotonic()
            stats["bytes_out"] += sent
            stats["raw_out"] += raw
            if recorder is not None:
                recorder.event(
                    "frame.send", "net",
                    attrs={"kind": "run", "bytes": sent, "worker": conn.name},
                )

    def pending(self) -> list[Chunk]:
        """Chunks submitted but not yet reported by :meth:`wait`."""
        return [(start, part) for start, part, _indices in self.queue] + [
            c.busy for c in self.conns if c.busy is not None
        ]

    # -- completion --------------------------------------------------------

    def wait(self, timeout: float | None) -> list[ChunkEvent]:
        """Block up to *timeout* seconds (``None``: forever) for progress.

        Returns the completion events since the last call — possibly
        empty on timeout.  A job that raised propagates its exception
        from here: application errors are deterministic and must reach
        the caller immediately, never the retry path.
        """
        self._pump()
        # Only a served worker has an address to ping.
        heartbeat = self.runner.heartbeat if self.runner.addresses else None
        events: list[ChunkEvent] = []
        deadline = None if timeout is None else time.monotonic() + timeout
        while not events:
            busy = [c for c in self.conns if c.busy is not None]
            if not busy:
                break
            wait_s = heartbeat
            if deadline is not None:
                left = max(0.0, deadline - time.monotonic())
                wait_s = left if wait_s is None else min(wait_s, left)
            readable, _w, _x = select.select([c.sock for c in busy], [], [], wait_s)
            if readable:
                by_sock = {c.sock: c for c in busy}
                for sock in readable:
                    events.extend(self._drain(by_sock[sock]))
                self._pump()  # freed workers pick up queued chunks
            else:
                now = time.monotonic()
                for conn in busy:
                    if (
                        heartbeat is not None
                        and now - conn.last_seen > heartbeat
                        and not self._probe(conn)
                    ):
                        event = self._drop(conn)
                        if event is not None:
                            events.append(event)
                if deadline is not None and time.monotonic() >= deadline:
                    break
        return events

    def _drain(self, conn: _WorkerConn) -> list[ChunkEvent]:
        try:
            data = conn.sock.recv(1 << 20)
        except OSError:
            data = b""
        if not data:
            event = self._drop(conn)
            return [event] if event is not None else []
        conn.last_seen = time.monotonic()
        conn.buffer.feed(data)
        stats = self.runner.stats[conn.name]
        events: list[ChunkEvent] = []
        wire_before, raw_before = conn.buffer.wire_in, conn.buffer.raw_in
        try:
            for msg in conn.buffer.frames():
                events.extend(self._on_message(conn, msg))
        except _CorruptFrame:
            # Framing the parent cannot decode: the worker is dead to it.
            event = self._drop(conn)
            if event is not None:
                events.append(event)
        finally:
            wire_delta = conn.buffer.wire_in - wire_before
            stats["bytes_in"] += wire_delta
            stats["raw_in"] += conn.buffer.raw_in - raw_before
        return events

    def _on_message(self, conn: _WorkerConn, msg: tuple) -> list[ChunkEvent]:
        kind = msg[0]
        stats = self.runner.stats[conn.name]
        recorder = spans_active()
        if recorder is not None:
            recorder.event(
                "frame.recv", "net",
                attrs={"kind": str(kind), "worker": conn.name},
            )
        if kind == "done":
            start, values = msg[1], msg[2]
            if conn.busy is None or conn.busy[0] != start:
                return []  # stray reply (e.g. after a requeue); ignore
            start, part = conn.busy
            conn.busy = None
            stats["chunks"] += 1
            stats["jobs"] += len(part)
            stats["rtt_s"] += time.monotonic() - conn.sent_at
            if len(msg) > 3 and recorder is not None:
                recorder.chunk_absorb(start, msg[3], track=f"worker:{conn.name}")
            return [(start, part, values)]
        if kind == "error":
            _kind, start, exc = msg
            conn.busy = None
            # Application error: deterministic, never retried.  The
            # runner abandons the round.
            raise exc
        if kind == "reject":
            raise SweepError(f"worker {conn.name} rejected the session: {msg[1]}")
        return []

    # -- liveness ----------------------------------------------------------

    def _probe(self, conn: _WorkerConn) -> bool:
        """Heartbeat a silent served worker, with span accounting."""
        recorder = spans_active()
        if recorder is None:
            return self._alive(conn.slot)
        with recorder.span(
            "heartbeat.probe", "heartbeat", attrs={"worker": conn.name}
        ) as span:
            alive = self._alive(conn.slot)
            span.attrs["alive"] = alive
        return alive

    def _alive(self, slot: int) -> bool:
        """One ephemeral ping connection; probe failure is a death."""
        runner = self.runner
        try:
            ping(runner.addresses[slot], timeout=min(runner.heartbeat, 2.0))
            return True
        except OSError:
            return False

    def _drop(self, conn: _WorkerConn) -> ChunkEvent | None:
        """Declare *conn*'s worker dead; surface its in-flight chunk as
        lost (the runner's retry machinery re-dispatches it)."""
        self.runner.stats[conn.name]["disconnects"] += 1
        try:
            conn.sock.close()
        except OSError:
            pass
        if conn in self.conns:
            self.conns.remove(conn)
        chunk, conn.busy = conn.busy, None
        if not self.conns and (self.queue or chunk is not None):
            self.broken = True
        if chunk is None:
            return None
        start, part = chunk
        return (start, part, None)

    # -- teardown ----------------------------------------------------------

    def abandon(self) -> None:
        """Kill this round's worker processes, then hang up and reap."""
        for proc in self.procs:
            proc.kill()
        self.close()

    def close(self) -> None:
        """Hang up on every worker (a forked one exits on EOF) and reap
        every process this round started."""
        for conn in self.conns:
            try:
                conn.sock.close()
            except OSError:
                pass
        self.conns = []
        self.queue = []
        for proc in self.procs:
            proc.join()
        self.procs = []
