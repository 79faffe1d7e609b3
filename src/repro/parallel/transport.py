"""Job execution: what the serial loop and every worker run.

:func:`run_chunk` is the worker-side entry point — a forked local
worker and a served one (:mod:`repro.parallel.remote`) both execute
each ``run`` frame through it — and :func:`run_jobs_traced` is the one
place a job executes under a span, shared with
:class:`~repro.parallel.runner.SerialRunner`.

No worker knows about the run cache: lookups and stores are a stage of
:meth:`~repro.parallel.runner.SweepRunner.run` in the submitting
process, and a worker only ever sees the misses (wrapped in
:class:`MissJob`, whose result is the :class:`Executed` envelope).

The retry unit is the *chunk*: a scheduling round reports a chunk
either as completed (with its in-order results), as *lost* (an
infrastructure failure — worker process died, socket closed), or
raises the job's own exception (an application error, which the runner
never retries).  :data:`Chunk` and :data:`ChunkEvent` are those two
shapes.

Only the traced paths use the span exporter, :mod:`repro.obs.spans`,
and they import it when they run: a process that records spans has it
loaded already (a forked worker inherits it from its parent, a served
one loads it with its first traced chunk).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Sequence

from .jobs import outcome_class

if TYPE_CHECKING:
    from ..obs.spans import SpanRecorder

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
    jobs: Sequence[Callable[[], Any]],
    indices: Sequence[int],
    parent: int | None = None,
) -> list[Any]:
    """Execute *jobs* in order, each under a ``job`` span of *recorder*.

    The one place a job runs under a span — the serial loop and every
    worker come through here — so every runner labels a job
    identically: ``index`` is the job's
    sweep-global position (given explicitly: under a cache only the
    misses execute, and a miss keeps its own position), ``outcome`` the
    class of what the job returned, looking through a miss's
    :class:`Executed` envelope.  A sweep's telemetry lines are read off
    these spans.
    """
    values = []
    for index, job in zip(indices, jobs):
        with recorder.span(
            "job", "job", parent=parent, attrs={"index": index}
        ) as span:
            value = job()
            span.attrs["outcome"] = outcome_class(
                value.outcome if isinstance(value, Executed) else value
            )
        values.append(value)
    return values


def run_chunk(
    jobs: Sequence[Callable[[], Any]], indices: Sequence[int] | None = None
) -> Any:
    """Worker-side entry point: execute one chunk of jobs in order.

    Without *indices* (the parent records no spans) it returns the
    plain value list.  With them it runs under a fresh worker-local
    recorder (never one a fork may have inherited) and returns
    ``(values, exported_spans)``: one ``job`` span per job under a
    ``chunk.exec`` root the parent re-anchors onto this worker's track.
    The root carries this process's ``pid``: the ``worker`` of the
    jobs' telemetry lines.
    """
    if indices is None:
        return [job() for job in jobs]
    from ..obs.spans import SpanRecorder, recording

    recorder = SpanRecorder(kind="chunk")
    with recording(recorder):
        with recorder.span(
            "chunk.exec", "exec", attrs={"jobs": len(jobs), "pid": os.getpid()}
        ) as root:
            values = run_jobs_traced(recorder, jobs, indices, root.id)
    return values, recorder.export_raw()
