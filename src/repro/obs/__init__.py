"""Observability: trace export, metrics timelines, sweep telemetry.

Four modules over the deterministic kernel and the sweep pipeline (see
``docs/observability.md``):

* :mod:`repro.obs.export` — Chrome Trace Event (Perfetto) and JSONL
  trace exporters with validators and an exact round-trip loader;
* :mod:`repro.obs.metrics` — :class:`KernelMetrics` (per-rank time
  series sampled by kernel hooks behind ``if obs is not None:`` guards)
  and :func:`run_report` (per-rank busy/blocked/failed accounting,
  detection and validate latencies);
* :mod:`repro.obs.telemetry` — per-job JSONL telemetry for sweeps
  (explore/campaign/fuzz), canonically serial==pooled, aggregated
  offline by ``repro report``;
* :mod:`repro.obs.spans` — orchestration span tracing over the sweep
  pipeline (rounds, chunks, wire frames, worker-side execution, cache
  batches), exported as ``repro.spans/1`` JSONL or Perfetto tracks.

The pipeline's counters are not here: :data:`repro.perf.CACHE` counts
cache lookups and stores, ``SweepRunner.worker_stats()`` the chunks,
jobs, bytes and disconnects per worker slot, and
``SweepRunner.job_retries`` the retries.  Telemetry records the latter
two.

Everything here is opt-in: a simulation without ``metrics=True`` and a
sweep without ``telemetry=`` allocate no obs state at all, and spans
cost one thread-local read per instrumentation site when no recorder
is installed.
"""

from .export import (
    JSONL_FORMAT,
    dumps_perfetto,
    jsonl_errors,
    load_trace_jsonl,
    perfetto_errors,
    trace_to_jsonl,
    trace_to_perfetto,
    write_perfetto,
    write_trace_jsonl,
)
from .metrics import KernelMetrics, RankSummary, RunReport, Series, run_report
from .scenarios import SCENARIOS, make_scenario
from .spans import (
    CANONICAL_CATEGORIES,
    SPANS_FORMAT,
    SPAN_CATEGORIES,
    SPAN_VOLATILE_KEYS,
    Span,
    SpanRecorder,
    active,
    canonical_spans,
    dumps_spans,
    read_spans,
    recording,
    span_errors,
    spans_to_perfetto,
    spans_to_records,
    write_spans,
)
from .telemetry import (
    TELEMETRY_FORMAT,
    TelemetryJob,
    TelemetryResult,
    TelemetrySummary,
    TelemetryWriter,
    VOLATILE_KEYS,
    canonical_lines,
    outcome_class,
    read_telemetry,
    summarize,
    summary_dict,
    telemetry_errors,
)

__all__ = [
    "CANONICAL_CATEGORIES",
    "JSONL_FORMAT",
    "KernelMetrics",
    "RankSummary",
    "RunReport",
    "SCENARIOS",
    "SPANS_FORMAT",
    "SPAN_CATEGORIES",
    "SPAN_VOLATILE_KEYS",
    "Series",
    "Span",
    "SpanRecorder",
    "TELEMETRY_FORMAT",
    "TelemetryJob",
    "TelemetryResult",
    "TelemetrySummary",
    "TelemetryWriter",
    "VOLATILE_KEYS",
    "active",
    "canonical_lines",
    "canonical_spans",
    "dumps_perfetto",
    "dumps_spans",
    "jsonl_errors",
    "load_trace_jsonl",
    "make_scenario",
    "outcome_class",
    "perfetto_errors",
    "read_spans",
    "read_telemetry",
    "recording",
    "run_report",
    "span_errors",
    "spans_to_perfetto",
    "spans_to_records",
    "summarize",
    "summary_dict",
    "telemetry_errors",
    "trace_to_jsonl",
    "trace_to_perfetto",
    "write_perfetto",
    "write_spans",
    "write_trace_jsonl",
]
