"""Sweep runners: execute batches of independent simulation jobs.

A *job* is any picklable zero-argument callable returning a picklable
value (see :mod:`repro.parallel.jobs` for the standard job shapes).  A
:class:`SweepRunner` executes a batch of jobs and returns their results
**in submission order** — never in completion order — so a parallel sweep
is a drop-in replacement for a serial loop: because every job is an
independent deterministic simulation, the merged result list is
bit-identical to what the serial loop would have produced.

Two implementations share the interface:

* :class:`SerialRunner` — runs the jobs in-process, in order.  Zero
  overhead, no picklability requirement; the reference semantics.
* :class:`repro.parallel.remote.FleetRunner` — fans the jobs out over
  socket workers speaking the same frames (:mod:`repro.parallel.remote`):
  ``workers=N`` local ones forked per round, or the ``repro worker
  serve`` fleet at ``addresses=``.  It owns chunked scheduling, a
  per-job wall-clock timeout, and bounded retries for wedged or
  crashed workers.  Jobs (and their results) must be picklable:
  module-level functions or dataclass instances, not bare closures.

The run cache (:mod:`repro.cache`) is a stage of :meth:`SweepRunner.run`
itself, performed in the submitting process on every runner: keys, one
batched lookup, hits rebuilt from the store, only the misses handed to
the runner's own execution step, one batched store.  A runner has a
cache when its :attr:`~SweepRunner.cache` is set — by
:func:`make_runner` or :func:`with_cache`, nothing else — and
:func:`sweep` is the one driver the entry points (``explore``,
``run_campaign``, ``fuzz``, ``run_compare_protocols``) pull results
through, one bounded window at a time.

:class:`~repro.parallel.remote.FleetRunner`'s timeout/retry semantics
(documented contract, tested in ``tests/test_parallel.py``):

* ``timeout`` is a per-job budget in wall-clock seconds.  A scheduling
  round is abandoned when its jobs collectively exceed their cumulative
  budget; the unfinished chunks are retried on fresh workers (wedged
  local worker processes are killed, not awaited).
* each chunk is retried at most ``retries`` times; after that a
  :class:`SweepError` is raised naming the job indices that never
  completed.  A deterministic job that wedges will wedge on every
  attempt — retries exist for infrastructure failures (a worker killed
  by the OS, a closed connection), not to paper over simulation hangs.
* a job that *raises* is an application error, not an infrastructure
  failure: the exception propagates to the caller immediately and is
  never retried (deterministic jobs would fail identically again).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, Sequence

from .. import perf
from ..obs.slot import active as spans_active
from .transport import MissJob, run_jobs_traced

#: A sweep job: picklable, zero-argument, returns a picklable result.
SweepJob = Callable[[], Any]

_UNSET = object()


class SweepError(RuntimeError):
    """Jobs could not be completed after exhausting all retries.

    Attributes
    ----------
    indices:
        Submission-order indices of the jobs that never produced a result
        (positions in the ``jobs`` given to :meth:`SweepRunner.run`);
        printed after the message, so the text always names the jobs the
        attribute names.
    """

    def __init__(self, message: str, indices: Sequence[int] = ()) -> None:
        super().__init__(message)
        self.indices = list(indices)

    def __str__(self) -> str:
        text = super().__str__()
        return f"{text} (indices {self.indices})" if self.indices else text


#: Default jobs-per-window for :meth:`SweepRunner.run_stream` — big
#: enough to amortize worker IPC and batched cache lookups, small enough
#: that a 10^6-job campaign never holds more than one window of jobs
#: and results in memory.
DEFAULT_STREAM_WINDOW = 1024


class SweepRunner:
    """Executes a batch of independent jobs, results in submission order.

    Subclasses implement :meth:`_execute`; :meth:`run` puts the run
    cache in front of it when :attr:`cache` is set.

    After :meth:`run` returns (one window of :meth:`run_stream`),
    :attr:`job_retries` holds one int per job of it, in submission
    order: how many times the chunk carrying that job was re-submitted.
    Always zero for serial runs and for cache hits; the telemetry lines
    of :func:`sweep` carry it, so infrastructure retries are attributed
    to jobs.  It is a per-*instance* list — two runners
    never alias each other's retry accounting (regression-tested).
    :attr:`job_cache` is its twin for the cache stage: per job of the
    most recent :meth:`run` (one window of :meth:`run_stream`),
    ``"hit"``, ``"miss"``, or ``None`` when the job ran outside the
    cache.
    """

    #: The :class:`repro.cache.RunCache` consulted by :meth:`run`, or
    #: ``None``.  Set through :func:`make_runner` / :func:`with_cache`.
    cache: Any = None

    def __init__(self) -> None:
        #: Per-job retry counts of the most recent :meth:`run` (see above).
        self.job_retries: list[int] = []
        #: Per-job cache dispositions of the most recent :meth:`run`.
        self.job_cache: list[str | None] = []

    def _execute(
        self, jobs: list[SweepJob], indices: Sequence[int]
    ) -> list[Any]:  # pragma: no cover
        """Run *jobs*, return their values in order and set
        :attr:`job_retries` to match.  ``indices[k]`` is the
        sweep-global position of ``jobs[k]`` — what its ``job`` span is
        labelled with when a recorder is active."""
        raise NotImplementedError

    def worker_stats(self) -> list[dict[str, Any]]:
        """Per-worker transport rows: one per worker slot of a
        :class:`~repro.parallel.remote.FleetRunner`, none for the serial
        runner."""
        return []

    def run(self, jobs: Sequence[SweepJob], *, first: int = 0) -> list[Any]:
        """Execute *jobs*; results in submission order.

        *first* is the sweep-global index of ``jobs[0]`` —
        :meth:`run_stream` passes each window's offset so job spans
        carry campaign-global indices.

        With a :attr:`cache`, all cache traffic happens here, in the
        submitting process, whatever the runner: one ``get_many``
        for the batch, hits rebuilt by ``from_cached`` (they execute
        nothing — no job span, no scheduling round when every job hit),
        the misses executed as :class:`~repro.parallel.transport.MissJob`
        (so ``cache_payload()`` runs where the trace lives), one
        ``put_many``.  That keeps the counters in
        :data:`repro.perf.CACHE` exact for pooled and remote sweeps and
        the store at one writer per sweep; jobs outside the cache
        contract pass through untouched and count nothing.
        """
        jobs = list(jobs)
        if self.cache is None:
            self.job_cache = [None] * len(jobs)
            return self._execute(jobs, range(first, first + len(jobs)))
        from ..cache.keys import job_keys

        recorder = spans_active()
        if recorder is None:
            keys = job_keys(jobs)
        else:
            with recorder.span(
                "cache.keys", "cache", attrs={"jobs": len(jobs)}
            ) as span:
                keys = job_keys(jobs)
                span.attrs["keyed"] = sum(key is not None for key in keys)
        # One batched store round-trip for every job that has a key.
        fetched = iter(
            self.cache.get_many([key for key in keys if key is not None])
        )
        results: list[Any] = [_UNSET] * len(jobs)
        #: (position in *jobs*, key or None, job to execute) per job
        #: the store could not answer.
        todo: list[tuple[int, str | None, SweepJob]] = []
        for i, (job, key) in enumerate(zip(jobs, keys)):
            if key is None:
                todo.append((i, None, job))
                continue
            status, payload = next(fetched)
            if status == "hit":
                try:
                    results[i] = job.from_cached(payload)
                except Exception:  # noqa: BLE001 - treat as stale entry
                    status = "stale"
            if status == "hit":
                perf.CACHE.hits += 1
                continue
            if status == "stale":
                perf.CACHE.stale += 1
            else:
                perf.CACHE.misses += 1
            todo.append((i, key, MissJob(job)))
        retries = [0] * len(jobs)
        # Set once for the batch: the hit loop above pays nothing for it.
        disposition: list[str | None] = ["hit"] * len(jobs)
        if todo:
            try:
                executed = self._execute(
                    [job for _i, _key, job in todo],
                    [first + i for i, _key, _job in todo],
                )
            except SweepError as exc:
                # _execute saw only the misses: name the jobs by their
                # positions in *jobs*, as an uncached sweep does.
                exc.indices = [todo[k][0] for k in exc.indices]
                raise
            stores: list[tuple[str, dict[str, Any], Any]] = []
            for (i, key, job), value, count in zip(
                todo, executed, self.job_retries
            ):
                retries[i] = count
                if key is None:
                    results[i] = value
                    disposition[i] = None
                else:
                    results[i] = value.outcome
                    disposition[i] = "miss"
                    stores.append((key, value.payload, job.job))
            if stores:
                # One transaction for the batch.
                self.cache.put_many(stores)
                perf.CACHE.stores += len(stores)
        self.job_retries = retries
        self.job_cache = disposition
        return results

    def run_stream(
        self, jobs: Iterable[SweepJob], *, window: int | None = None
    ) -> Iterator[Any]:
        """Incremental :meth:`run`: yield results in submission order
        while consuming *jobs* lazily, at most *window* jobs in flight.

        Same semantics as :meth:`run` — submission-order results,
        chunking/timeout/retries and one batched cache lookup per
        window, application errors raised at the offending result's
        position — but neither the job list nor the result list is ever
        materialized beyond one window, so a 10^6-config campaign runs
        in O(window) memory.

        :attr:`job_retries` and :attr:`job_cache` hold the current
        window's counts and dispositions only, set before its first
        result is yielded.
        """
        window = int(window) if window is not None else self._stream_window()
        if window < 1:
            raise ValueError("window must be >= 1")
        it = iter(jobs)
        first = 0
        while True:
            batch = list(islice(it, window))
            if not batch:
                return
            results = self.run(batch, first=first)
            first += len(batch)
            yield from results

    def _stream_window(self) -> int:
        """Default in-flight window for :meth:`run_stream`."""
        return DEFAULT_STREAM_WINDOW

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> list[Any]:
        """Convenience: run ``fn`` once per item (``fn`` must be picklable
        for pooled runners; use a module-level function or partial)."""
        return self.run([_BoundJob(fn, item) for item in items])


@dataclass(frozen=True)
class _BoundJob:
    """Picklable ``fn(item)`` thunk used by :meth:`SweepRunner.map`."""

    fn: Callable[[Any], Any]
    item: Any

    def __call__(self) -> Any:
        return self.fn(self.item)


class SerialRunner(SweepRunner):
    """Run every job in-process, in submission order (reference runner)."""

    def _execute(
        self, jobs: list[SweepJob], indices: Sequence[int]
    ) -> list[Any]:
        self.job_retries = [0] * len(jobs)
        recorder = spans_active()
        if recorder is None:
            return [job() for job in jobs]
        with recorder.span(
            "sweep.run", "sweep", attrs={"jobs": len(jobs)}
        ) as root:
            return run_jobs_traced(recorder, jobs, indices, root.id)


def make_runner(
    workers: int | None = None,
    *,
    chunk_size: int | None = None,
    timeout: float | None = None,
    retries: int = 1,
    cache: Any = None,
    addresses: Any = None,
) -> SweepRunner:
    """Build the right runner for a worker count.

    ``workers`` of ``None``, ``0`` or ``1`` gives the in-process
    :class:`SerialRunner`; anything larger gives a forking
    :class:`~repro.parallel.remote.FleetRunner`.  (Construct
    ``FleetRunner(workers=1)`` directly to force a single-worker pool.)
    ``addresses`` (a ``"host:port,..."`` string or ``(host, port)``
    tuples) gives a :class:`~repro.parallel.remote.FleetRunner` over
    that served fleet instead — ``workers`` is ignored; parallelism is
    the fleet size.

    ``cache`` (``True`` for the default directory, a path, or a
    ``repro.cache.RunCache``) sets the runner's :attr:`~SweepRunner.cache`
    (see :func:`with_cache`): jobs implementing the cache contract (see
    :mod:`repro.parallel.jobs`) are answered from the content-addressed
    store by :meth:`SweepRunner.run` in this process, everything else
    executes as usual.  Every runner shares the same store, the same
    lookup stage and the same submission-order merge, so a cached
    sweep's report is byte-identical to an uncached one.
    """
    runner: SweepRunner
    if not addresses and (workers is None or workers <= 1):
        runner = SerialRunner()
    else:
        from .remote import FleetRunner  # remote imports this module

        runner = FleetRunner(
            workers=None if addresses else workers,
            addresses=addresses or (),
            chunk_size=chunk_size,
            timeout=timeout,
            retries=retries,
        )
    return with_cache(runner, cache)


def with_cache(runner: SweepRunner, cache: Any) -> SweepRunner:
    """*runner* with *cache* in front of it — the one way a runner gets
    a cache.

    ``cache`` is anything ``RunCache.at`` accepts (``True`` for the
    default directory, a path, a ``RunCache``); ``None``/``False``
    returns *runner* itself.  Otherwise the result is a shallow copy
    with :attr:`~SweepRunner.cache` set: the caller's runner is never
    changed (a later uncached sweep through it stays uncached), while a
    :class:`~repro.parallel.remote.FleetRunner`'s copy shares its
    per-slot stats, so ``worker_stats()`` reads the same on both.
    """
    if cache is None or cache is False:
        return runner
    # Imported here, not with this module: most commands never open a
    # store.  What every cached sweep runs loads here too, before any
    # worker forks: the keys, and the trace digest each miss's
    # ``cache_payload`` stores.
    from ..analysis import digest  # noqa: F401
    from ..cache import RunCache, keys  # noqa: F401

    cached = copy.copy(runner)
    cached.cache = RunCache.at(cache)
    cached.job_retries = []
    return cached


def sweep(
    jobs: Iterable[SweepJob],
    *,
    total: int,
    kind: str,
    runner: SweepRunner | None = None,
    workers: int | None = None,
    cache: Any = None,
    telemetry: str | None = None,
    window: int | None = None,
) -> Iterator[Any]:
    """The one sweep driver: yield the results of *jobs* in submission
    order, cached or not, with or without a telemetry file.

    ``runner`` defaults to ``make_runner(workers)``; ``cache`` goes in
    front of it via :func:`with_cache`.  *jobs* is consumed lazily and
    results are pulled through :meth:`SweepRunner.run_stream`, *window*
    jobs per ``run()`` (default: the runner's own stream window, at
    least :data:`DEFAULT_STREAM_WINDOW`), so a sweep never holds more
    than one window of jobs and results — whether the caller keeps
    them is its own choice.

    ``telemetry`` names a JSONL file (:mod:`repro.obs.telemetry`,
    header ``kind`` / *total* / ``workers``): its job lines are a view
    of the ``job`` spans the runner records
    (:func:`~repro.parallel.transport.run_jobs_traced`), joined with the
    runner's :attr:`~SweepRunner.job_cache` and
    :attr:`~SweepRunner.job_retries`, and written as the results arrive;
    the per-worker transport rows follow at the end.  The spans go to
    the active recorder (``--spans``), which keeps them all; without one
    the sweep installs its own for each pull and drops a window's spans
    once their lines are written, so memory stays O(window).
    """
    if runner is None:
        runner = make_runner(workers)
    runner = with_cache(runner, cache)
    if not telemetry:
        yield from runner.run_stream(jobs, window=window)
        return
    from ..obs.slot import installed
    from ..obs.spans import SpanRecorder
    from ..obs.telemetry import TelemetryWriter

    recorder = spans_active()
    own = recorder is None
    if own:
        recorder = SpanRecorder(kind=kind)
    results = runner.run_stream(jobs, window=window)
    writer = TelemetryWriter(
        telemetry, kind=kind, total=total, workers=workers
    )
    try:
        #: The current window's first job and the jobs joined so far;
        #: the recorder's spans already read.
        first = joined = seen = index = 0
        while True:
            with installed(recorder):  # a no-op for the caller's
                value = next(results, _UNSET)
            if value is _UNSET:
                break
            if index == joined:
                # run_stream ran this whole window before yielding its
                # first result: its spans and dispositions are all in.
                first, joined = index, index + len(runner.job_retries)
                writer.window(recorder.spans[seen:], recorder.now())
                if own:
                    recorder.spans.clear()
                seen = len(recorder.spans)
            writer.record(
                index, value,
                cache=runner.job_cache[index - first],
                retries=runner.job_retries[index - first],
            )
            yield value
            index += 1
        writer.record_workers(runner.worker_stats())
    finally:
        writer.close()
