"""Prometheus-style metrics: stdlib counters/gauges/histograms with
text-format exposition and a scrape endpoint.

The registry is the aggregate face of the pipeline's observability
(spans are the per-operation face): instrumentation in
``repro.parallel`` and ``repro.cache`` increments the process-global
:data:`REGISTRY` instruments at chunk/round/frame granularity —
unconditional, but far off any per-job hot path — and
``repro metrics serve`` exposes them over stdlib ``http.server`` at
``/metrics`` (Prometheus text format 0.0.4) plus a ``/healthz`` JSON
probe.  This is the stepping-stone to ROADMAP item 2
(simulation-as-a-service), which needs exactly this collector + health
endpoint pair in front of the sweep engine.

For offline campaigns, :func:`registry_from_telemetry` rebuilds a
registry from a ``repro.telemetry/1`` stream, so a finished (or
in-flight) telemetry file can be scraped without re-running anything:
``repro metrics serve --telemetry FILE`` re-derives the registry per
scrape and therefore tracks the file as it grows.

No third-party client library: the exposition format is a few lines of
text, and keeping this stdlib-only preserves the package's
dependency-light core.
"""

from __future__ import annotations

import json
import math
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Sequence

__all__ = [
    "CACHE_LOOKUPS",
    "CACHE_STORES",
    "Counter",
    "EXPOSITION_CONTENT_TYPE",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "MetricsServer",
    "REGISTRY",
    "REMOTE_BYTES",
    "REMOTE_DISCONNECTS",
    "REMOTE_FRAMES",
    "REMOTE_HEARTBEATS",
    "SWEEP_CHUNKS",
    "SWEEP_JOBS",
    "SWEEP_RETRIES",
    "SWEEP_ROUNDS",
    "registry_from_telemetry",
]

EXPOSITION_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _fmt(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    f = float(value)
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')
    )


def _series(name: str, pairs: Sequence[tuple[str, str]]) -> str:
    if not pairs:
        return name
    inner = ",".join(f'{k}="{_escape(str(v))}"' for k, v in pairs)
    return f"{name}{{{inner}}}"


class Metric:
    """Base: a named family of series, one per label-value tuple."""

    type_name = "untyped"

    def __init__(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.labels = tuple(labels)
        for label in self.labels:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._values: dict[tuple[str, ...], Any] = {}

    def _key(self, labels: dict[str, Any]) -> tuple[str, ...]:
        if set(labels) != set(self.labels):
            raise ValueError(
                f"{self.name}: expected labels {sorted(self.labels)}, "
                f"got {sorted(labels)}"
            )
        return tuple(str(labels[k]) for k in self.labels)

    def samples(self) -> list[tuple[str, float]]:
        """``(series-name, value)`` pairs, label-sorted, for exposition."""
        with self._lock:
            return [
                (_series(self.name, list(zip(self.labels, key))), value)
                for key, value in sorted(self._values.items())
            ]

    def reset(self) -> None:
        with self._lock:
            self._values.clear()


class Counter(Metric):
    type_name = "counter"

    def inc(self, amount: float = 1, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"{self.name}: counters only go up")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        with self._lock:
            return float(self._values.get(self._key(labels), 0.0))


class Gauge(Metric):
    type_name = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        with self._lock:
            return float(self._values.get(self._key(labels), 0.0))


class Histogram(Metric):
    type_name = "histogram"

    #: Geared to job wall times (sub-ms simulations up to multi-second
    #: campaign chunks).
    DEFAULT_BUCKETS = (
        0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
        0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    )

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] | None = None,
    ) -> None:
        super().__init__(name, help, labels)
        self.buckets = tuple(
            sorted(self.DEFAULT_BUCKETS if buckets is None else buckets)
        )
        if not self.buckets:
            raise ValueError(f"{self.name}: needs at least one bucket")

    def observe(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            state = self._values.get(key)
            if state is None:
                state = [[0] * len(self.buckets), 0.0, 0]
                self._values[key] = state
            counts, total, n = state
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[i] += 1
                    break
            state[1] = total + value
            state[2] = n + 1

    def samples(self) -> list[tuple[str, float]]:
        out: list[tuple[str, float]] = []
        with self._lock:
            for key, (counts, total, n) in sorted(self._values.items()):
                base = list(zip(self.labels, key))
                cumulative = 0
                for bound, count in zip(self.buckets, counts):
                    cumulative += count
                    out.append((
                        _series(self.name + "_bucket",
                                base + [("le", _fmt(bound))]),
                        cumulative,
                    ))
                out.append((
                    _series(self.name + "_bucket", base + [("le", "+Inf")]), n,
                ))
                out.append((_series(self.name + "_sum", base), total))
                out.append((_series(self.name + "_count", base), n))
        return out


class MetricsRegistry:
    """A named collection of metrics with get-or-create registration and
    Prometheus text exposition."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls: type, name: str, **kwargs: Any) -> Any:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"{name!r} already registered as "
                        f"{existing.type_name}, not {cls.type_name}"
                    )
                return existing
            metric = cls(name, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help=help, labels=labels)

    def gauge(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help=help, labels=labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] | None = None,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help=help, labels=labels, buckets=buckets
        )

    def metrics(self) -> list[Metric]:
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def exposition(self) -> str:
        """The Prometheus text format: ``# HELP``/``# TYPE`` per family,
        one ``name{labels} value`` line per series."""
        lines: list[str] = []
        for metric in self.metrics():
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.type_name}")
            for series, value in metric.samples():
                lines.append(f"{series} {_fmt(value)}")
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        for metric in self.metrics():
            metric.reset()


#: The process-global registry the pipeline instrumentation feeds.
REGISTRY = MetricsRegistry()

SWEEP_JOBS = REGISTRY.counter(
    "repro_sweep_jobs_total",
    "Jobs completed by sweep runners (merged chunk results)",
)
SWEEP_CHUNKS = REGISTRY.counter(
    "repro_sweep_chunks_total",
    "Sweep chunks by completion status (done, or lost to a dead worker "
    "or round timeout)",
    labels=("status",),
)
SWEEP_ROUNDS = REGISTRY.counter(
    "repro_sweep_rounds_total",
    "Scheduling rounds opened by the transport runner",
)
SWEEP_RETRIES = REGISTRY.counter(
    "repro_sweep_chunk_retries_total",
    "Chunk re-submissions after infrastructure failures",
)
CACHE_LOOKUPS = REGISTRY.counter(
    "repro_cache_lookups_total",
    "Batched run-cache lookups by result",
    labels=("result",),
)
CACHE_STORES = REGISTRY.counter(
    "repro_cache_stores_total",
    "Entries written by batched run-cache stores",
)
REMOTE_FRAMES = REGISTRY.counter(
    "repro_remote_frames_total",
    "repro.remote/3 frames by direction (parent side)",
    labels=("direction",),
)
REMOTE_BYTES = REGISTRY.counter(
    "repro_remote_bytes_total",
    "repro.remote/3 wire bytes by direction (parent side)",
    labels=("direction",),
)
REMOTE_HEARTBEATS = REGISTRY.counter(
    "repro_remote_heartbeat_probes_total",
    "Liveness probes of silent workers by result",
    labels=("result",),
)
REMOTE_DISCONNECTS = REGISTRY.counter(
    "repro_remote_disconnects_total",
    "Worker connections declared dead mid-round",
)


# ----------------------------------------------------------------------
# Offline: telemetry stream -> registry
# ----------------------------------------------------------------------


def registry_from_telemetry(source: Any) -> MetricsRegistry:
    """Build a fresh registry from a ``repro.telemetry/1`` stream (path
    or record list): job outcomes, wall-time histogram, cache and
    retry counters, and per-worker transport series from the
    ``kind:"worker"`` rows.  This is how a campaign that already ran
    (or is still running) gets scraped."""
    from .telemetry import OUTCOMES, read_telemetry, summarize

    if isinstance(source, (str, Path)):
        records = read_telemetry(source)
    else:
        records = list(source)
    header = records[0] if records else {}
    summary = summarize(records)
    registry = MetricsRegistry()

    jobs = registry.counter(
        "repro_sweep_jobs_total",
        "Jobs recorded by the telemetry stream, by outcome class",
        labels=("outcome",),
    )
    for outcome in OUTCOMES:
        jobs.inc(summary.outcomes.get(outcome, 0), outcome=outcome)
    declared = header.get("runs")
    registry.gauge(
        "repro_sweep_runs",
        "Jobs declared by the telemetry header",
    ).set(declared if isinstance(declared, int) else summary.runs)
    registry.counter(
        "repro_sweep_job_retries_total",
        "Per-job retry counts summed over the sweep",
    ).inc(summary.retries)

    wall = registry.gauge(
        "repro_job_wall_seconds",
        "Job wall-time percentiles (nearest-rank) over the stream",
        labels=("quantile",),
    )
    for quantile, value in summary.wall_percentiles.items():
        wall.set(value, quantile=quantile)

    hist = registry.histogram(
        "repro_job_wall_seconds_histogram",
        "Job wall-time distribution over the stream",
    )
    for record in records[1:]:
        if isinstance(record, dict) and record.get("kind") == "job":
            wall_s = record.get("wall_s")
            if isinstance(wall_s, (int, float)):
                hist.observe(float(wall_s))

    cache = registry.counter(
        "repro_cache_lookups_total",
        "Job cache classification over the stream",
        labels=("result",),
    )
    cache.inc(summary.cache.get("hit", 0), result="hit")
    cache.inc(summary.cache.get("miss", 0), result="miss")
    registry.counter(
        "repro_cache_uncached_jobs_total",
        "Jobs that ran without cache classification",
    ).inc(summary.cache.get("uncached", 0))

    if summary.remote:
        chunks = registry.counter(
            "repro_remote_chunks_total",
            "Chunks executed per remote worker",
            labels=("worker",),
        )
        remote_jobs = registry.counter(
            "repro_remote_jobs_total",
            "Jobs executed per remote worker",
            labels=("worker",),
        )
        remote_bytes = registry.counter(
            "repro_remote_bytes_total",
            "Wire bytes per remote worker by direction",
            labels=("worker", "direction"),
        )
        rtt = registry.gauge(
            "repro_remote_rtt_seconds_total",
            "Cumulative chunk round-trip time per remote worker",
            labels=("worker",),
        )
        disconnects = registry.counter(
            "repro_remote_disconnects_total",
            "Disconnects per remote worker",
            labels=("worker",),
        )
        for row in summary.remote:
            worker = str(row.get("worker", "?"))
            chunks.inc(float(row.get("chunks", 0)), worker=worker)
            remote_jobs.inc(float(row.get("jobs", 0)), worker=worker)
            remote_bytes.inc(
                float(row.get("bytes_out", 0)), worker=worker, direction="out"
            )
            remote_bytes.inc(
                float(row.get("bytes_in", 0)), worker=worker, direction="in"
            )
            rtt.set(float(row.get("rtt_s", 0.0)), worker=worker)
            disconnects.inc(float(row.get("disconnects", 0)), worker=worker)
    return registry


# ----------------------------------------------------------------------
# Scrape endpoint (stdlib http.server)
# ----------------------------------------------------------------------


class _MetricsHandler(BaseHTTPRequestHandler):
    server: "MetricsServer"

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/metrics":
            try:
                body = self.server.exposition().encode("utf-8")
            except Exception as exc:
                detail = f"metrics unavailable: {exc}\n".encode("utf-8")
                self._reply(503, "text/plain; charset=utf-8", detail)
                return
            self._reply(200, EXPOSITION_CONTENT_TYPE, body)
        elif path == "/healthz":
            body = (json.dumps(
                {"status": "ok", "service": "repro-metrics"}, sort_keys=True
            ) + "\n").encode("utf-8")
            self._reply(200, "application/json", body)
        else:
            self._reply(404, "text/plain; charset=utf-8", b"not found\n")

    def _reply(self, code: int, content_type: str, body: bytes) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args: Any) -> None:
        pass  # scrapes every few seconds would flood stderr


class MetricsServer(ThreadingHTTPServer):
    """``/metrics`` + ``/healthz`` over a bind address.

    Serves the process-global :data:`REGISTRY` by default; with
    *telemetry* set, re-derives the registry from that file on every
    scrape (so it follows an in-flight campaign); with *registry* set,
    serves that fixed registry.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        bind: tuple[str, int],
        *,
        registry: MetricsRegistry | None = None,
        telemetry: Any = None,
    ) -> None:
        super().__init__(bind, _MetricsHandler)
        self.registry = registry
        self.telemetry = telemetry

    @property
    def address(self) -> tuple[str, int]:
        host, port = self.server_address[:2]
        return str(host), int(port)

    def exposition(self) -> str:
        if self.telemetry is not None:
            return registry_from_telemetry(self.telemetry).exposition()
        return (self.registry if self.registry is not None
                else REGISTRY).exposition()
