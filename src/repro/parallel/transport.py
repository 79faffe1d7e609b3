"""Transport seam: how a sweep runner ships chunks to its workers.

:class:`~repro.parallel.runner.TransportRunner` owns everything that
makes a sweep *correct* — chunked scheduling, submission-order merge,
the cumulative timeout budget, bounded retries with deterministic
attribution — and delegates everything that makes it *go* to a
:class:`Transport`:

* :class:`LocalPoolTransport` — the original in-process
  ``concurrent.futures.ProcessPoolExecutor`` backend, refactored onto
  the seam unchanged (``ProcessPoolRunner`` is pinned byte-identical to
  the serial runner by ``tests/test_parallel.py``).
* :class:`repro.parallel.remote.RemoteTransport` — a socket worker
  fleet speaking length-prefixed compressed-pickle frames, with
  heartbeat liveness.

Both execute chunks through :func:`run_chunk`.  Neither knows about the
run cache: lookups and stores are a stage of
:meth:`~repro.parallel.runner.SweepRunner.run` in the submitting
process, and a transport only ever sees the misses (wrapped in
:class:`MissJob`).

The retry unit is the *chunk*: a transport reports a chunk either as
completed (with its in-order results), as *lost* (an infrastructure
failure — worker process died, socket closed, pool broke), or raises
the job's own exception (an application error, which the runner never
retries).  Lost chunks flow back into the runner's existing
retry/attribution machinery, so a dead socket worker is handled by the
very same code path as a worker process killed by the OS.

A :class:`Transport` is persistent across scheduling rounds (it may
accumulate per-worker statistics); each round opens a fresh
:class:`TransportRound`, mirroring the original design of building a
fresh pool per round so that wedged workers from a previous attempt
cannot poison the retry.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Sequence

from ..obs.spans import SpanRecorder, active as spans_active, outcome_label, recording

#: A sweep job as the transport sees it (re-declared here to avoid a
#: circular import with :mod:`repro.parallel.runner`).
SweepJob = Callable[[], Any]

#: A chunk descriptor: ``(start_index, jobs_slice)``.
Chunk = tuple[int, list]

#: A completion event: ``(start_index, jobs_slice, values_or_None)``.
#: ``values`` is the chunk's in-order result list, or ``None`` if the
#: chunk was lost to an infrastructure failure and must be retried.
ChunkEvent = tuple[int, list, "list | None"]


class Executed(NamedTuple):
    """What a cache miss ships back: the job's normal result plus the
    JSON-able payload the submitting process stores.  A ``NamedTuple``
    because it crosses the pool and the wire by pickle."""

    outcome: Any
    payload: dict[str, Any]


@dataclass(frozen=True)
class MissJob:
    """A cache miss on its way to execution: runs the job through its
    cache contract, so the payload (trace digest included) is built
    where the trace lives, and returns :class:`Executed`."""

    job: Any

    def __call__(self) -> Executed:
        return Executed(*self.job.cache_payload())


def run_jobs_traced(
    recorder: SpanRecorder,
    jobs: Sequence[SweepJob],
    indices: Sequence[int],
    parent: int | None = None,
) -> list[Any]:
    """Execute *jobs* in order, each under a ``job`` span of *recorder*.

    The one place a job runs under a span — the serial loop, the pool
    task and the socket worker all come through here — so every
    transport labels a job identically: ``index`` is the job's
    sweep-global position (given explicitly: under a cache only the
    misses execute, and a miss keeps its own position), ``outcome`` the
    class of what the job returned, looking through a miss's
    :class:`Executed` envelope.
    """
    values = []
    for index, job in zip(indices, jobs):
        with recorder.span(
            "job", "job", parent=parent, attrs={"index": index}
        ) as span:
            value = job()
            span.attrs["outcome"] = outcome_label(
                value.outcome if isinstance(value, Executed) else value
            )
        values.append(value)
    return values


def run_chunk(
    jobs: Sequence[SweepJob], indices: Sequence[int] | None = None
) -> Any:
    """Worker-side entry point: execute one chunk of jobs in order.

    Shared by every transport — the pool submits it as the task
    callable, the socket worker calls it on received chunks.  Without
    *indices* (the parent records no spans) it returns the plain value
    list.  With them it runs under a fresh worker-local recorder (never
    one a fork may have inherited) and returns
    ``(values, exported_spans, worker_pid)``: one ``job`` span per job
    under a ``chunk.exec`` root the parent re-anchors onto this
    worker's track.
    """
    if indices is None:
        return [job() for job in jobs]
    recorder = SpanRecorder(kind="chunk")
    with recording(recorder):
        with recorder.span(
            "chunk.exec", "exec", attrs={"jobs": len(jobs)}
        ) as root:
            values = run_jobs_traced(recorder, jobs, indices, root.id)
    return values, recorder.export_raw(), os.getpid()


class TransportRound:
    """One scheduling round: a batch of chunks in flight on fresh workers.

    Lifecycle: ``submit()`` every chunk, then loop ``wait()`` while
    ``pending()`` is non-empty, then ``close()``.  ``abandon()`` at any
    point tears the round down without waiting for wedged workers.
    """

    #: Set when the round has lost all execution capacity (broken pool,
    #: every socket worker dead): the caller must treat every still
    #: pending chunk as lost and abandon the round.
    broken: bool = False

    def submit(
        self, start: int, jobs: list, indices: Sequence[int] | None = None
    ) -> None:  # pragma: no cover
        """Queue the chunk at batch offset *start*.  *indices* — the
        jobs' sweep-global positions — is given exactly when the parent
        records spans, and asks for the worker's spans back."""
        raise NotImplementedError

    def pending(self) -> list[Chunk]:  # pragma: no cover
        """Chunks submitted but not yet reported by :meth:`wait`."""
        raise NotImplementedError

    def wait(self, timeout: float | None) -> list[ChunkEvent]:
        """Block up to *timeout* seconds (``None``: forever) for progress.

        Returns the completion events since the last call — possibly
        empty on timeout.  A job that raised propagates its exception
        from here: application errors are deterministic and must reach
        the caller immediately, never the retry path.
        """
        raise NotImplementedError  # pragma: no cover

    def abandon(self) -> None:  # pragma: no cover
        """Tear down without waiting (terminates wedged workers)."""
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover
        """Graceful shutdown after every chunk completed."""
        raise NotImplementedError


class Transport:
    """Factory for scheduling rounds against some worker substrate."""

    def parallelism(self) -> int:  # pragma: no cover
        """How many chunks can execute concurrently (drives the
        auto-chunking formula and the cumulative timeout budget)."""
        raise NotImplementedError

    def open_round(self) -> TransportRound:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:
        """Release any persistent resources (default: none)."""


# -- local process pool ------------------------------------------------------


def kill_pool(executor: ProcessPoolExecutor) -> None:
    """Abandon a pool that may contain wedged workers.

    ``shutdown(wait=True)`` would block behind the wedged job, so the
    worker processes are terminated outright and the executor is told
    not to wait for them.
    """
    processes = getattr(executor, "_processes", None) or {}
    for proc in list(processes.values()):
        proc.terminate()
    executor.shutdown(wait=False, cancel_futures=True)


class LocalPoolTransport(Transport):
    """The in-process ``ProcessPoolExecutor`` backend.

    Each round builds a fresh pool (so retries never land on a pool
    with wedged workers from the previous attempt) and terminates the
    worker processes outright on abandon.
    """

    def __init__(self, workers: int, mp_context: str | None = None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.mp_context = mp_context

    def parallelism(self) -> int:
        return self.workers

    def _context(self):
        import multiprocessing as mp

        if self.mp_context is not None:
            return mp.get_context(self.mp_context)
        if "fork" in mp.get_all_start_methods():
            return mp.get_context("fork")
        return mp.get_context()

    def open_round(self) -> "LocalPoolRound":
        executor = ProcessPoolExecutor(
            max_workers=self.workers, mp_context=self._context()
        )
        return LocalPoolRound(executor)


class LocalPoolRound(TransportRound):
    def __init__(self, executor: ProcessPoolExecutor) -> None:
        self.executor = executor
        self.broken = False
        self._futures: dict[Future, Chunk] = {}
        self._not_done: set[Future] = set()
        self._traced: set[Future] = set()
        #: Chunks the pool refused because it broke while they were
        #: being submitted; the next :meth:`wait` reports them lost.
        self._unsent: list[Chunk] = []

    def submit(
        self, start: int, jobs: list, indices: Sequence[int] | None = None
    ) -> None:
        if not self.broken:
            try:
                if indices is None:
                    fut = self.executor.submit(run_chunk, jobs)
                else:
                    fut = self.executor.submit(run_chunk, jobs, indices)
            except BrokenProcessPool:
                # A worker died while chunks were still being submitted.
                self.broken = True
            else:
                if indices is not None:
                    self._traced.add(fut)
                self._futures[fut] = (start, jobs)
                self._not_done.add(fut)
                return
        self._unsent.append((start, jobs))

    def pending(self) -> list[Chunk]:
        return [self._futures[f] for f in self._not_done] + self._unsent

    def wait(self, timeout: float | None) -> list[ChunkEvent]:
        events: list[ChunkEvent] = [
            (start, part, None) for start, part in self._unsent
        ]
        self._unsent = []
        done, self._not_done = wait(
            self._not_done,
            timeout=0 if events else timeout,
            return_when=FIRST_COMPLETED,
        )
        for fut in done:
            start, part = self._futures[fut]
            exc = fut.exception()
            if exc is None:
                values = fut.result()
                if fut in self._traced:
                    values, raw_spans, worker_pid = values
                    recorder = spans_active()
                    if recorder is not None:
                        recorder.chunk_absorb(
                            start, raw_spans, track=f"pid:{worker_pid}"
                        )
                events.append((start, part, values))
            elif isinstance(exc, BrokenProcessPool):
                # The pool is dead; everything unfinished is lost too.
                events.append((start, part, None))
                self.broken = True
            else:
                # Application error: deterministic, never retried.
                raise exc
        return events

    def abandon(self) -> None:
        kill_pool(self.executor)

    def close(self) -> None:
        self.executor.shutdown(wait=True)
