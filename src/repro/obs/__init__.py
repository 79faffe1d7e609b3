"""Observability: trace export, run reports, sweep telemetry.

Seven modules over the deterministic kernel and the sweep pipeline (see
``docs/observability.md``):

* :mod:`repro.obs.records` — the one JSONL envelope of the three record
  streams: a header with a format tag and a declared count, then one
  compact sorted-key object per line; :func:`~repro.obs.records.read`,
  :func:`~repro.obs.records.errors` and :func:`~repro.obs.records.canon`
  take a stream and its schema (:data:`TRACE`, :data:`TELEMETRY` or
  :data:`SPANS`);
* :mod:`repro.obs.export` — Chrome Trace Event (Perfetto) and
  ``repro.trace/1`` JSONL trace exporters, a Perfetto validator and an
  exact round-trip loader;
* :mod:`repro.obs.metrics` — :func:`run_report`, one fold over a run's
  trace rows: per-rank busy/blocked/failed accounting, detection and
  validate latencies, agreement instances;
* :mod:`repro.obs.telemetry` — ``repro.telemetry/1``, per-job JSONL
  telemetry for sweeps (explore/campaign/fuzz), a view of the sweep's
  ``job`` spans plus the runner's cache and retry columns, canonically
  serial==pooled, aggregated offline by ``repro report``;
* :mod:`repro.obs.spans` — orchestration span tracing over the sweep
  pipeline (rounds, chunks, wire frames, worker-side execution, cache
  batches), exported as ``repro.spans/1`` JSONL or Perfetto tracks;
* :mod:`repro.obs.slot` — the thread-local slot a recorder is installed
  in, all the sweep pipeline imports to find one;
* :mod:`repro.obs.scenarios` — the named presets of ``repro trace``
  (:data:`SCENARIOS`, :func:`make_scenario`): the paper's figures and
  the bundled workloads, rebuilt traced.

The pipeline's counters are not here: :data:`repro.perf.CACHE` counts
cache lookups and stores, ``SweepRunner.worker_stats()`` the chunks,
jobs, bytes and disconnects per worker slot,
``SweepRunner.job_retries`` the retries and ``SweepRunner.job_cache``
each job's cache disposition.  Telemetry records the latter three.

Every view of one run (the report, the Perfetto slices and counter
tracks) is a fold over its trace: the kernel has no other recorder.
A sweep without ``telemetry=`` allocates no obs state at all, and spans
cost one thread-local read per instrumentation site when no recorder
is installed.  The names below load on first use (:mod:`repro._lazy`):
importing the package imports none of its modules.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "records": ("records",),
    "export": (
        "JSONL_FORMAT",
        "TRACE",
        "dumps_perfetto",
        "load_trace_jsonl",
        "perfetto_errors",
        "trace_to_jsonl",
        "trace_to_perfetto",
    ),
    "metrics": ("RankSummary", "RunReport", "run_report"),
    "scenarios": ("SCENARIOS", "make_scenario"),
    "slot": ("active",),
    "spans": (
        "CANONICAL_CATEGORIES",
        "SPANS",
        "SPANS_FORMAT",
        "SPAN_CATEGORIES",
        "SPAN_VOLATILE_KEYS",
        "Span",
        "SpanRecorder",
        "recording",
        "spans_to_perfetto",
        "spans_to_records",
    ),
    "telemetry": (
        "TELEMETRY",
        "TELEMETRY_FORMAT",
        "TelemetrySummary",
        "TelemetryWriter",
        "VOLATILE_KEYS",
        "outcome_class",
        "summarize",
        "summary_dict",
    ),
})
