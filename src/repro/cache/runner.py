"""A :class:`~repro.parallel.runner.SweepRunner` wrapper that answers
jobs from the content-addressed store before touching the inner runner.

Design choice worth spelling out: **all cache traffic happens in the
submitting process**.  The wrapper computes keys and performs lookups
up front, sends only the misses to the inner runner (serial or pooled),
and performs the stores as results come back.  Three things fall out:

* the hit/miss/stale/store counters in :data:`repro.perf.CACHE` are
  exact even for pooled sweeps (worker-side counters would be lost at
  the pool boundary);
* the store sees one writer per sweep parent, so SQLite's own
  coordination (WAL plus ``busy_timeout``) is enough for concurrent
  campaigns sharing a cache directory;
* lookups and stores are *batched* — one ``get_many`` per ``run()``
  call (one per window when streaming via ``run_stream``) and one
  ``put_many`` for all the misses, instead of a store round-trip per
  job;
* workers stay oblivious to caching — a miss crosses the pool wrapped
  in :class:`_MissJob`, which calls the job's ``cache_payload()`` *in
  the worker* (where the trace exists, so digests cost nothing extra to
  compute) and ships back ``(outcome, payload)``.

Merged results keep submission order, exactly like the inner runner, so
a cached sweep is report-byte-identical to an uncached one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from .. import perf
from ..parallel.runner import SerialRunner, SweepJob, SweepRunner
from .keys import job_key
from .store import RunCache

__all__ = ["CachedRunner", "attach_cache"]

_PENDING = object()


def attach_cache(runner: SweepRunner, cache: Any) -> SweepRunner:
    """Give *runner* a cache in the way that suits its transport.

    A runner with native cache support — ``RemoteRunner``, whose
    workers perform the lookups themselves so warm entries never cross
    the wire — gets the cache attached in place; every other runner is
    wrapped in :class:`CachedRunner` (parent-side lookups).  ``cache``
    is anything ``RunCache.at`` accepts; ``None``/``False`` returns the
    runner unchanged.  Either way the counters in ``repro.perf.CACHE``
    stay exact and the report stays byte-identical to an uncached run.
    """
    if cache is None or cache is False:
        return runner
    native = getattr(runner, "attach_cache", None)
    if callable(native):
        native(RunCache.at(cache))
        return runner
    return CachedRunner(cache=RunCache.at(cache), inner=runner)


@dataclass(frozen=True)
class _MissJob:
    """Worker-side shim for a cache miss: run the job via its cache
    contract so the payload is built where the trace lives, and return
    ``(outcome, payload)`` for the parent to store."""

    job: Any

    def __call__(self) -> tuple[Any, dict[str, Any]]:
        return self.job.cache_payload()


class CachedRunner(SweepRunner):
    """Serve cacheable jobs from a :class:`RunCache`; delegate the rest.

    Parameters
    ----------
    cache:
        A :class:`RunCache`, a path, or ``None`` for the default
        directory (see :func:`~repro.cache.store.default_cache_dir`).
    inner:
        The runner that executes misses and uncacheable jobs
        (default: :class:`~repro.parallel.runner.SerialRunner`).
    """

    def __init__(
        self,
        cache: RunCache | str | None = None,
        inner: SweepRunner | None = None,
    ) -> None:
        super().__init__()
        self.cache = RunCache.at(cache)
        self.inner = inner or SerialRunner()

    def run(self, jobs: Sequence[SweepJob]) -> list[Any]:
        jobs = list(jobs)
        results: list[Any] = [_PENDING] * len(jobs)
        keys = [job_key(job) for job in jobs]
        # One batched store round-trip for the whole job list instead of
        # one read per job.
        cacheable = [i for i, key in enumerate(keys) if key is not None]
        fetched = dict(
            zip(cacheable, self.cache.get_many([keys[i] for i in cacheable]))
        )
        #: (submission index, key or None, job-to-execute) per pending job.
        pending: list[tuple[int, str | None, SweepJob]] = []
        for i, job in enumerate(jobs):
            key = keys[i]
            if key is None:
                # Not part of the cache contract (or vetoed): pass the
                # job through untouched, count nothing.
                pending.append((i, None, job))
                continue
            status, payload = fetched[i]
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
            pending.append((i, key, _MissJob(job)))
        self.job_retries = [0] * len(jobs)
        if pending:
            executed = self.inner.run([job for _i, _k, job in pending])
            # Map the inner runner's per-job retry counts (indexed by its
            # own submission order) back onto the full job list; cache
            # hits never executed, so they keep zero retries.
            inner_retries = getattr(self.inner, "job_retries", None)
            stores: list[tuple[str, dict[str, Any], Any]] = []
            for j, ((i, key, wrapped), value) in enumerate(
                zip(pending, executed)
            ):
                if inner_retries is not None and j < len(inner_retries):
                    self.job_retries[i] = inner_retries[j]
                if key is None:
                    results[i] = value
                    continue
                outcome, payload = value
                results[i] = outcome
                stores.append((key, payload, wrapped.job))
            if stores:
                # One transaction for the batch.
                self.cache.put_many(stores)
                perf.CACHE.stores += len(stores)
        return results
