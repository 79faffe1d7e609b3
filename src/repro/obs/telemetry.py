"""Sweep telemetry: a structured JSONL stream per explore/campaign/fuzz.

Every job of a sweep is wrapped in a :class:`TelemetryJob` that times its
execution and records where it ran; the parent writes one JSONL line per
job (plus a header) as results come back.  The stream answers the
operational questions a report cannot: which jobs are slow, which worker
ran them, how often chunks were retried, what the cache answered.

**Determinism contract**: the *canonical* form of a telemetry file
(``records.canon(path, TELEMETRY)``: worker lines and volatile fields
dropped, lines sorted) is byte-identical between a serial run and any
pooled run of the same sweep
(``tests/test_obs_telemetry.py::test_campaign_canonical_serial_vs_pooled``).
Volatile fields are exactly the ones that depend on wall time or
placement (:data:`VOLATILE_KEYS`: start/end timestamps, wall seconds,
worker id, retry count, worker count); everything else (job kind, index,
outcome class, cache disposition) is a pure function of the sweep spec.

**Cache integration**: :class:`TelemetryJob` implements the
``repro.cache`` contract *by delegation* and exposes the wrapped job as
its ``cache_key_delegate``, so a telemetry-wrapped job has the **same
cache key** as the bare job — warm outcomes recorded without telemetry
are served to telemetry runs and vice versa.  The wrapper marks each
line ``cache: "hit" | "miss" | null`` accordingly.

:func:`summarize` / ``repro report`` aggregate a stream offline: outcome
histogram, wall-time percentiles, slowest jobs, per-worker utilization,
cache hit rate — no simulation is re-run.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from ..parallel.jobs import outcome_of
from . import records

__all__ = [
    "OUTCOMES",
    "TELEMETRY",
    "TELEMETRY_FORMAT",
    "TelemetryJob",
    "TelemetryResult",
    "TelemetrySummary",
    "TelemetryWriter",
    "VOLATILE_KEYS",
    "outcome_class",
    "outcome_of",
    "summarize",
    "summary_dict",
]

#: Header format tag; bump when the line layout changes.
TELEMETRY_FORMAT = "repro.telemetry/1"

#: Fields that legitimately differ between runs of the same sweep
#: (wall time and placement); dropped by the canonical view.
VOLATILE_KEYS = frozenset(
    {"t_start", "t_end", "wall_s", "worker", "retries", "workers"}
)


#: The outcome classes of a sweep job, in report-column order: the one
#: vocabulary of telemetry lines, job spans and ``repro report``.
OUTCOMES = ("ok", "hang", "violation", "abort")


def outcome_class(value: Any) -> str:
    """Classify a sweep result: its ``outcome`` string when it carries
    one (``ProtocolRunRecord``), else :func:`outcome_of` over the fields
    the other job shapes share (``ScenarioOutcome``, ``CampaignRun``,
    ``FuzzOutcome``)."""
    outcome = getattr(value, "outcome", None)
    if isinstance(outcome, str):
        return outcome
    return outcome_of(
        getattr(value, "hung", False),
        getattr(value, "violations", ()),
        getattr(value, "aborted", False),
    )


@dataclass(frozen=True)
class TelemetryResult:
    """What a :class:`TelemetryJob` ships back across the pool."""

    index: int
    value: Any
    t_start: float
    t_end: float
    worker: int
    #: ``"hit"`` / ``"miss"`` when the cache answered/stored the job,
    #: ``None`` for an uncached execution.
    cached: str | None = None

    @property
    def wall_s(self) -> float:
        return self.t_end - self.t_start


@dataclass(frozen=True)
class TelemetryJob:
    """Picklable wrapper timing one sweep job.

    Delegates the :mod:`repro.cache` contract to the wrapped job and
    keys as the wrapped job (via :attr:`cache_key_delegate`), so
    wrapping never splits the cache namespace.  ``index`` is the global
    submission index within the sweep (display/aggregation bookkeeping).
    """

    job: Any
    index: int

    #: repro.cache.keys.job_key hashes this object instead of the
    #: wrapper, making the telemetry run share the bare job's entries.
    @property
    def cache_key_delegate(self) -> Any:
        return self.job

    @property
    def replay_keys(self) -> tuple[str, ...] | None:
        """The wrapped job's replay subset (``None``: the whole payload)."""
        return getattr(self.job, "replay_keys", None)

    @property
    def cacheable(self) -> bool:
        return bool(
            hasattr(self.job, "cache_payload")
            and hasattr(self.job, "from_cached")
            and getattr(self.job, "cacheable", True)
        )

    def __call__(self) -> TelemetryResult:
        t0 = time.monotonic()
        value = self.job()
        return TelemetryResult(
            index=self.index, value=value, t_start=t0,
            t_end=time.monotonic(), worker=os.getpid(), cached=None,
        )

    # -- cache contract, by delegation ---------------------------------

    def cache_payload(self) -> tuple[TelemetryResult, dict[str, Any]]:
        t0 = time.monotonic()
        value, payload = self.job.cache_payload()
        wrapped = TelemetryResult(
            index=self.index, value=value, t_start=t0,
            t_end=time.monotonic(), worker=os.getpid(), cached="miss",
        )
        return wrapped, payload

    def from_cached(self, payload: dict[str, Any]) -> TelemetryResult:
        t0 = time.monotonic()
        value = self.job.from_cached(payload)
        return TelemetryResult(
            index=self.index, value=value, t_start=t0,
            t_end=time.monotonic(), worker=os.getpid(), cached="hit",
        )


class TelemetryWriter:
    """Streams one sweep's telemetry to a JSONL file: a header, one
    line per job as its result arrives (:meth:`record`), the per-worker
    transport rows at the end (:meth:`record_workers`).  Driven by
    :func:`repro.parallel.runner.sweep`; lines append in completion
    order (canonicalization sorts them anyway).
    """

    def __init__(
        self,
        path: str | Path,
        *,
        kind: str,
        total: int,
        workers: int | None = None,
    ) -> None:
        self._fh = open(path, "w")
        self._write({
            "format": TELEMETRY_FORMAT,
            "kind": kind,
            "runs": total,
            "workers": workers,
        })

    def _write(self, record: dict[str, Any]) -> None:
        self._fh.write(records.line(record) + "\n")

    def record(self, res: TelemetryResult, retries: int) -> None:
        """Write the line of one wrapped result; *retries* is how often
        the chunk that carried the job was re-submitted."""
        self._write({
            "kind": "job",
            "index": res.index,
            "outcome": outcome_class(res.value),
            "cache": res.cached,
            "t_start": res.t_start,
            "t_end": res.t_end,
            "wall_s": res.wall_s,
            "worker": res.worker,
            "retries": retries,
        })

    def record_workers(self, stats: Sequence[dict[str, Any]]) -> None:
        """Write one ``kind: "worker"`` line per worker slot.

        Emitted by pooled and distributed sweeps (``worker_stats()``:
        ``local:<slot>`` or ``host:port`` rows; the serial runner has
        none): transport-level telemetry — chunks, rtt, bytes shipped
        raw vs on the wire, disconnects — that per-job lines cannot
        carry.  Entirely placement/wall-time
        dependent, so the whole line is volatile and the canonical
        view drops it (a serial run of the same sweep has no worker
        lines to match).
        """
        for s in stats:
            rec = {"kind": "worker"}
            rec.update(s)
            self._write(rec)

    def close(self) -> None:
        self._fh.close()


# ----------------------------------------------------------------------
# The stream's schema, and aggregation
# ----------------------------------------------------------------------


_JOB_FIELDS = {
    "index": int, "t_start": records.NUMBER, "t_end": records.NUMBER,
    "wall_s": records.NUMBER, "worker": int, "retries": int,
}
_WORKER_INTS = {"chunks": int, "jobs": int, "bytes_out": int, "bytes_in": int}


def _is_job(rec: dict[str, Any]) -> bool:
    return rec.get("kind") == "job"


def _telemetry_rules(
    header: dict[str, Any], body: list[dict[str, Any]]
) -> list[str]:
    errors: list[str] = []
    seen: set[int] = set()
    for n, rec in enumerate(body, start=2):
        where = f"line {n}"
        if rec.get("kind") == "worker":
            # Worker telemetry from pooled and distributed sweeps.
            if not isinstance(rec.get("worker"), str) or not rec.get("worker"):
                errors.append(f"{where}: worker line missing worker address")
            errors += records.field_errors(rec, where, _WORKER_INTS)
            continue
        if not _is_job(rec):
            errors.append(f"{where}: kind != 'job'")
            continue
        errors += records.field_errors(rec, where, _JOB_FIELDS)
        idx = rec.get("index")
        if isinstance(idx, int):
            if idx in seen:
                errors.append(f"{where}: duplicate index {idx}")
            seen.add(idx)
        if rec.get("outcome") not in OUTCOMES:
            errors.append(f"{where}: bad outcome {rec.get('outcome')!r}")
        if rec.get("cache") not in (None, "hit", "miss"):
            errors.append(f"{where}: bad cache {rec.get('cache')!r}")
    return errors


#: ``repro.telemetry/1``: the header counts the ``job`` lines under
#: ``runs``.  Worker lines are placement through and through
#: (addresses, rtt, byte counts), and a serial run of the same sweep has
#: none, so the canonical view drops them whole; it keeps the header.
TELEMETRY = records.Schema(
    format=TELEMETRY_FORMAT,
    count_key="runs",
    count_kind="job",
    rules=_telemetry_rules,
    volatile=VOLATILE_KEYS,
    canonical=lambda rec: rec.get("kind") != "worker",
)


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile on an already-sorted list."""
    if not sorted_values:
        return 0.0
    k = max(0, min(len(sorted_values) - 1,
                   int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[k]


@dataclass
class TelemetrySummary:
    """Offline aggregate of one telemetry stream."""

    kind: str
    runs: int
    outcomes: dict[str, int]
    wall_percentiles: dict[str, float]
    slowest: list[tuple[int, float, str]]  # (index, wall_s, outcome)
    workers: dict[int, dict[str, float]]  # pid -> {jobs, busy_s}
    cache: dict[str, int]  # hit/miss/uncached counts
    retries: int
    #: Worker rows, one per worker slot: a ``--workers-addr`` address,
    #: or ``local:<slot>`` for a ``--workers N`` sweep; empty for serial
    #: streams.  (The JSON key keeps its historical name.)
    remote: list[dict[str, Any]] = dataclasses.field(default_factory=list)

    def format(self) -> str:
        lines = [f"telemetry: {self.kind} sweep, {self.runs} job(s)"]
        hist = ", ".join(
            f"{k}={v}" for k, v in sorted(self.outcomes.items())
        ) or "none"
        lines.append(f"outcomes: {hist}")
        p = self.wall_percentiles
        lines.append(
            "job wall time: "
            f"p50={p['p50'] * 1e3:.2f}ms p90={p['p90'] * 1e3:.2f}ms "
            f"p99={p['p99'] * 1e3:.2f}ms max={p['max'] * 1e3:.2f}ms"
        )
        if self.slowest:
            lines.append("slowest jobs:")
            for idx, wall, outcome in self.slowest:
                lines.append(
                    f"  [{idx:4d}] {wall * 1e3:8.2f}ms  {outcome}"
                )
        if self.workers:
            lines.append(f"workers: {len(self.workers)}")
            for pid, w in sorted(self.workers.items()):
                lines.append(
                    f"  pid {pid}: {int(w['jobs'])} job(s), "
                    f"{w['busy_s'] * 1e3:.2f}ms busy"
                )
        total_cached = self.cache["hit"] + self.cache["miss"]
        if total_cached:
            rate = self.cache["hit"] / total_cached
            lines.append(
                f"cache: {self.cache['hit']} hit(s), "
                f"{self.cache['miss']} miss(es) "
                f"({rate:.0%} hit rate)"
            )
        else:
            lines.append("cache: off")
        lines.append(f"chunk retries: {self.retries}")
        if self.remote:
            lines.append(f"worker slots: {len(self.remote)}")
            for s in self.remote:
                ratio = s.get("compression")
                lines.append(
                    f"  {s.get('worker', '?')}: "
                    f"{int(s.get('chunks', 0))} chunk(s), "
                    f"{int(s.get('jobs', 0))} job(s), "
                    f"rtt {float(s.get('rtt_s', 0.0)) * 1e3:.2f}ms, "
                    f"{int(s.get('bytes_out', 0)) + int(s.get('bytes_in', 0))}B "
                    f"on the wire"
                    + (f" ({ratio}x compressed)" if ratio else "")
                )
        return "\n".join(lines)


def summarize(source: Any, *, top: int = 5) -> TelemetrySummary:
    """Aggregate a telemetry stream (a path, JSONL text or records; see
    :func:`repro.obs.records.read`) into a :class:`TelemetrySummary`."""
    header, body = records.read(source, TELEMETRY)
    jobs = [rec for rec in body if _is_job(rec)]
    remote = [
        {k: v for k, v in rec.items() if k != "kind"}
        for rec in body
        if rec.get("kind") == "worker"
    ]
    outcomes: dict[str, int] = {}
    cache = {"hit": 0, "miss": 0, "uncached": 0}
    workers: dict[int, dict[str, float]] = {}
    walls: list[float] = []
    retries = 0
    for rec in jobs:
        outcomes[rec["outcome"]] = outcomes.get(rec["outcome"], 0) + 1
        cached = rec.get("cache")
        cache["hit" if cached == "hit"
              else "miss" if cached == "miss" else "uncached"] += 1
        wall = float(rec.get("wall_s", 0.0))
        walls.append(wall)
        pid = int(rec.get("worker", 0))
        w = workers.setdefault(pid, {"jobs": 0.0, "busy_s": 0.0})
        w["jobs"] += 1
        w["busy_s"] += wall
        retries += int(rec.get("retries", 0))
    ordered = sorted(walls)
    slowest = sorted(
        ((rec["index"], float(rec.get("wall_s", 0.0)), rec["outcome"])
         for rec in jobs),
        key=lambda t: -t[1],
    )[:top]
    return TelemetrySummary(
        kind=str(header.get("kind", "?")),
        runs=len(jobs),
        outcomes=outcomes,
        wall_percentiles={
            "p50": _percentile(ordered, 0.50),
            "p90": _percentile(ordered, 0.90),
            "p99": _percentile(ordered, 0.99),
            "max": ordered[-1] if ordered else 0.0,
        },
        slowest=slowest,
        workers=workers,
        cache=cache,
        retries=retries,
        remote=remote,
    )


def summary_dict(summary: TelemetrySummary) -> dict[str, Any]:
    """A JSON-ready view of a :class:`TelemetrySummary` (``repro report
    --format json``).  Tuples become objects, pid keys become strings,
    and a ``format`` tag versions the shape."""
    return {
        "format": "repro.report/1",
        "kind": summary.kind,
        "runs": summary.runs,
        "outcomes": dict(sorted(summary.outcomes.items())),
        "wall_percentiles": summary.wall_percentiles,
        "slowest": [
            {"index": idx, "wall_s": wall, "outcome": outcome}
            for idx, wall, outcome in summary.slowest
        ],
        "workers": {
            str(pid): row for pid, row in sorted(summary.workers.items())
        },
        "cache": summary.cache,
        "retries": summary.retries,
        "remote": summary.remote,
    }
