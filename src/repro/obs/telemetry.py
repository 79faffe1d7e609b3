"""Sweep telemetry: a structured JSONL stream per explore/campaign/fuzz.

The parent writes one JSONL line per job (plus a header) as results
come back.  The stream answers the operational questions a report
cannot: which jobs are slow, which worker ran them, how often chunks
were retried, what the cache answered.

**A view of the job spans**: a job line is not timed on its own.  Every
executed job runs under a ``job`` span
(:func:`repro.parallel.transport.run_jobs_traced`, whichever runner
executes it), and :func:`repro.parallel.runner.sweep` hands each
window's spans to :class:`TelemetryWriter`: the line's ``outcome``,
``t_start`` / ``t_end`` (the span's ``t`` and ``t + dur``) and
``worker`` (the pid on the worker's ``chunk.exec`` span, or the
parent's) come from there; its ``cache`` and ``retries`` from the
runner (``SweepRunner.job_cache`` / ``job_retries``).  A cache hit
executes nothing and has no span: its line reads the outcome off the
returned value, the parent's pid, and ``wall_s`` 0.0.  Telemetry runs
and bare runs key their jobs identically, so they share cache entries.

**Determinism contract**: the *canonical* form of a telemetry file
(``records.canon(path, TELEMETRY)``: worker lines and volatile fields
dropped, lines sorted) is byte-identical between a serial run and any
pooled run of the same sweep
(``tests/test_obs_telemetry.py::test_campaign_canonical_serial_vs_pooled``).
Volatile fields are exactly the ones that depend on wall time or
placement (:data:`VOLATILE_KEYS`: start/end timestamps, wall seconds,
worker id, retry count, worker count); everything else (job kind, index,
outcome class, cache disposition) is a pure function of the sweep spec.

:func:`summarize` / ``repro report`` aggregate a stream offline: outcome
histogram, wall-time percentiles, slowest jobs, per-worker utilization,
cache hit rate — no simulation is re-run.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from ..parallel.jobs import OUTCOMES, outcome_class, outcome_of
from . import records

if TYPE_CHECKING:
    from .spans import Span

__all__ = [
    "OUTCOMES",
    "TELEMETRY",
    "TELEMETRY_FORMAT",
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


class TelemetryWriter:
    """Streams one sweep's telemetry to a JSONL file: a header, one
    line per job as its result arrives (:meth:`window`, then
    :meth:`record`), the per-worker transport rows at the end
    (:meth:`record_workers`).  Driven by
    :func:`repro.parallel.runner.sweep`; lines append in submission
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
        self._pid = os.getpid()
        #: The current window's job spans by index, and the worker pid
        #: of each ``chunk.exec`` span by id.
        self._jobs: dict[int, Span] = {}
        self._pids: dict[int, int] = {}
        self._t = 0.0
        self._write({
            "format": TELEMETRY_FORMAT,
            "kind": kind,
            "runs": total,
            "workers": workers,
        })

    def _write(self, record: dict[str, Any]) -> None:
        self._fh.write(records.line(record) + "\n")

    def window(self, spans: Iterable[Span], t: float) -> None:
        """Take the spans one window of the sweep recorded; *t* is the
        recorder's time now, the timestamp of the window's hits."""
        self._jobs, self._pids, self._t = {}, {}, t
        for span in spans:
            if span.cat == "job":
                self._jobs[span.attrs["index"]] = span
            elif span.cat == "exec":
                self._pids[span.id] = span.attrs["pid"]

    def record(
        self, index: int, value: Any, *, cache: str | None, retries: int
    ) -> None:
        """Write the line of job *index*, which returned *value*;
        *cache* is the runner's disposition of it, *retries* how often
        the chunk that carried it was re-submitted."""
        span = self._jobs.pop(index, None)
        if span is None:  # a cache hit: nothing ran
            t_start = t_end = self._t
            worker = self._pid
            outcome = outcome_class(value)
        else:
            t_start, t_end = span.t, span.t + span.dur
            worker = self._pids.get(span.parent, self._pid)
            outcome = span.attrs["outcome"]
        self._write({
            "kind": "job",
            "index": index,
            "outcome": outcome,
            "cache": cache,
            "t_start": t_start,
            "t_end": t_end,
            "wall_s": t_end - t_start,
            "worker": worker,
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
