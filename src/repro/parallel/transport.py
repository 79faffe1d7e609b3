"""Transport seam: how a sweep runner ships chunks to its workers.

:class:`~repro.parallel.runner.TransportRunner` owns everything that
makes a sweep *correct* — chunked scheduling, submission-order merge,
the cumulative timeout budget, bounded retries with deterministic
attribution — and delegates everything that makes it *go* to a
:class:`Transport`.  There is one worker substrate behind the seam,
:mod:`repro.parallel.remote`: workers speaking length-prefixed
compressed-pickle frames over a socket, either forked locally per round
(``ProcessPoolRunner``, over a socket pair) or served on a TCP address
(``RemoteRunner``, ``repro worker serve``).

Every worker executes chunks through :func:`run_chunk`.  No transport
knows about the run cache: lookups and stores are a stage of
:meth:`~repro.parallel.runner.SweepRunner.run` in the submitting
process, and a transport only ever sees the misses (wrapped in
:class:`MissJob`).

The retry unit is the *chunk*: a transport reports a chunk either as
completed (with its in-order results), as *lost* (an infrastructure
failure — worker process died, socket closed), or raises the job's own
exception (an application error, which the runner never retries).  Lost
chunks flow back into the runner's retry/attribution machinery.

A :class:`Transport` is persistent across scheduling rounds (it
accumulates per-worker statistics); each round opens a fresh
:class:`TransportRound` on fresh workers or connections, so that wedged
workers from a previous attempt cannot poison the retry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Sequence

from ..obs.spans import SpanRecorder, outcome_label, recording

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
    because it crosses the wire by pickle."""

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

    The one place a job runs under a span — the serial loop and every
    worker come through here — so every
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

    Without *indices* (the parent records no spans) it returns the
    plain value list.  With them it runs under a fresh worker-local
    recorder (never one a fork may have inherited) and returns
    ``(values, exported_spans)``: one ``job`` span per job under a
    ``chunk.exec`` root the parent re-anchors onto this worker's track.
    """
    if indices is None:
        return [job() for job in jobs]
    recorder = SpanRecorder(kind="chunk")
    with recording(recorder):
        with recorder.span(
            "chunk.exec", "exec", attrs={"jobs": len(jobs)}
        ) as root:
            values = run_jobs_traced(recorder, jobs, indices, root.id)
    return values, recorder.export_raw()


class TransportRound:
    """One scheduling round: a batch of chunks in flight on fresh workers.

    Lifecycle: ``submit()`` every chunk, then loop ``wait()`` while
    ``pending()`` is non-empty, then ``close()``.  ``abandon()`` at any
    point tears the round down without waiting for wedged workers.
    """

    #: Set when the round has lost all execution capacity (every worker
    #: dead): the caller must treat every still pending chunk as lost
    #: and abandon the round.
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

    def worker_stats(self) -> list[dict[str, Any]]:  # pragma: no cover
        """One telemetry row per worker slot, accumulated across rounds."""
        raise NotImplementedError
