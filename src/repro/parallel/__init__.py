"""``repro.parallel`` — the parallel sweep engine.

Fault-injection campaigns, the exhaustive window explorer, and the
fuzzer all execute many fully independent deterministic
simulations; this package runs such batches across worker processes while
guaranteeing that the merged results are **bit-identical to serial
order** (jobs are deterministic; results are placed by submission index,
never by completion order).

Layers:

* :mod:`~repro.parallel.runner` — :class:`SweepRunner` (whose
  ``run()`` puts the run cache, when one is set, in front of every
  runner, in the submitting process), :class:`SerialRunner` (the
  reference loop), :func:`make_runner` / :func:`with_cache`, and
  :func:`sweep`, the one driver behind ``explore``, ``run_campaign``,
  ``fuzz`` and ``run_compare_protocols`` (one bounded window at a time,
  with or without telemetry).
* :mod:`~repro.parallel.remote` — the one pooled runner,
  :class:`FleetRunner` (chunked scheduling, per-job timeout, bounded
  retries for wedged workers), and the worker substrate it drives: a
  frame loop over length-prefixed compressed-pickle frames
  (``repro.remote/3``), run by forked local workers (``workers=N``) or
  by :class:`WorkerServer` (``repro worker serve``, ``addresses=``),
  with heartbeat liveness for the latter.
* :mod:`~repro.parallel.transport` — ``run_chunk`` /
  ``run_jobs_traced``, the one place a job executes under a span, and
  the cache-miss envelope.
* :mod:`~repro.parallel.jobs` — the picklable job model (scenario
  factories, invariant specs, the tracing and classification rules)
  that lets scenario descriptions cross a process boundary.
* :mod:`~repro.parallel.scenarios` — picklable scenario/invariant specs
  for the bundled workloads (:class:`RingScenario`,
  :class:`StandardRingInvariants`).

See ``docs/parallel.md`` for the determinism and timeout/retry contract.
The names below load on first use (:mod:`repro._lazy`): a serial sweep
never imports :mod:`~repro.parallel.remote` and its sockets.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "jobs": (
        "Invariant",
        "ScenarioFactory",
        "check_invariants",
        "resolve_invariants",
    ),
    "remote": ("FleetRunner", "WorkerServer", "parse_worker_addrs"),
    "runner": (
        "SerialRunner",
        "SweepError",
        "SweepJob",
        "SweepRunner",
        "make_runner",
        "sweep",
        "with_cache",
    ),
    "scenarios": (
        "AppScenario",
        "GenericInvariants",
        "RingScenario",
        "StandardRingInvariants",
    ),
})
