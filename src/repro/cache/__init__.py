"""``repro.cache`` — content-addressed run cache for sweep jobs.

Every sweep job (fault-window exploration, kill campaigns, schedule
fuzzing) is a pure function of a picklable spec, so its classified
outcome can be stored under a key derived from that spec and reused by
any later sweep that asks the same question.  Two layers:

* :mod:`repro.cache.keys` — the canonical blake2b key over the job's
  full determinism surface (scenario, policy + seed, cost/jitter
  parameters, fault schedule, trace flag), salted with the package
  version and the active mutation set;
* :mod:`repro.cache.store` — :class:`RunCache`: entry format, lookup
  classification and ``stats``/``gc``/``verify`` maintenance (``verify``
  re-executes a sample of entries and diffs payloads field by field),
  over the one on-disk store, a SQLite-WAL database with batched
  transactional reads/writes (:mod:`repro.cache.sqlite_store`).

Sweeps use it through :meth:`repro.parallel.runner.SweepRunner.run`,
whose first stage — on every runner, in the submitting process — is
one batched lookup; ``make_runner(cache=…)`` / ``with_cache(runner,
cache)`` (or an entry point's ``cache=`` argument) switch it on.
Hit/miss/stale/store accounting lives in :data:`repro.perf.CACHE`.
Correctness contract: a cached sweep's report is byte-identical to the
uncached one — the cache changes wall-clock time and nothing else.
:data:`KEY_FORMAT`, which both layers stamp, is defined here; the other
names load on first use (:mod:`repro._lazy`), SQLite only when a
:class:`RunCache` opens its store, and :mod:`~repro.cache.keys` when a
runner gets a cache (:func:`repro.parallel.with_cache`).
"""

from .._lazy import lazy_exports

#: Entry/key layout version; bump when the payload shape or the key
#: composition changes (old entries then read as stale, never as hits).
KEY_FORMAT = "repro.cache/1"

_lazy, __getattr__, __dir__ = lazy_exports(__name__, {
    "keys": ("Uncacheable", "canonical_token", "job_key", "job_keys"),
    "store": ("RunCache", "VerifyResult", "default_cache_dir", "diff_payload"),
})

__all__ = ["KEY_FORMAT", *_lazy]
