"""The live campaign console: render a ``repro.telemetry/1`` stream as
an in-terminal dashboard.

``repro top --telemetry FILE`` reads the telemetry file a campaign is
writing (``--telemetry`` on campaign/explore/fuzz) and renders
progress, throughput, an outcome histogram, wall-time percentiles, and
— for remote sweeps — the per-worker chunks/rtt/bytes table.  With
``--follow`` it re-reads on an interval until the declared run count
has landed, tolerating a mid-write trailing line (the writer appends
one JSON line per job, so the only torn state possible is a partial
last line, which the tail reader drops).

All aggregation is shared with ``repro report``
(:func:`repro.obs.telemetry.summarize`); this module only formats.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Any, TextIO

from .telemetry import OUTCOMES, TELEMETRY_FORMAT, summarize

__all__ = ["read_telemetry_tail", "render_top", "top"]

#: ANSI clear-screen + home, prefixed to each --follow repaint.
_CLEAR = "\x1b[2J\x1b[H"


def read_telemetry_tail(path: Any) -> list[dict[str, Any]]:
    """Best-effort read of a telemetry file that may still be growing:
    skips blank and partially-written lines instead of failing, returns
    ``[]`` when the file is missing or the header isn't telemetry."""
    try:
        text = Path(path).read_text()
    except OSError:
        return []
    records: list[dict[str, Any]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn tail of an in-flight write
        if isinstance(record, dict):
            records.append(record)
    if not records or records[0].get("format") != TELEMETRY_FORMAT:
        return []
    return records


def _bar(count: int, total: int, width: int) -> str:
    filled = int(width * count / total) if total > 0 else 0
    filled = min(width, filled)
    return "#" * filled + "-" * (width - filled)


def _progress(records: list[dict[str, Any]]) -> tuple[int, int]:
    """(jobs done, jobs declared).  Falls back to done when the header
    predates the run count (streamed fuzz declares runs up front too)."""
    declared = records[0].get("runs")
    done = sum(1 for r in records[1:] if r.get("kind") == "job")
    if not isinstance(declared, int) or declared < done:
        declared = done
    return done, declared


def render_top(records: list[dict[str, Any]], *, top: int = 3) -> str:
    """The dashboard for one snapshot of a telemetry stream."""
    summary = summarize(records, top=top)
    jobs = [r for r in records[1:] if r.get("kind") == "job"]
    done, declared = _progress(records)

    t_start = min((r["t_start"] for r in jobs
                   if isinstance(r.get("t_start"), (int, float))), default=0.0)
    t_end = max((r["t_end"] for r in jobs
                 if isinstance(r.get("t_end"), (int, float))), default=0.0)
    elapsed = max(0.0, t_end - t_start)
    rate = done / elapsed if elapsed > 0 else 0.0
    remaining = declared - done

    pct = 100.0 * done / declared if declared else 100.0
    lines = [
        f"repro top — {summary.kind} sweep",
        f"progress   [{_bar(done, declared, 30)}] {done}/{declared}"
        f" ({pct:.0f}%)",
    ]
    if remaining > 0:
        eta = f"{remaining / rate:.1f}s" if rate > 0 else "?"
    else:
        eta = "done"
    lines.append(
        f"throughput {rate:.1f} job/s   elapsed {elapsed:.2f}s   eta {eta}"
    )

    lines.append("outcomes")
    for outcome in OUTCOMES:
        count = summary.outcomes.get(outcome, 0)
        if count or outcome == "ok":
            lines.append(
                f"  {outcome:<10} {count:>7} [{_bar(count, done, 20)}]"
            )

    p = summary.wall_percentiles
    lines.append(
        f"job wall   p50={p['p50'] * 1e3:.2f}ms  p90={p['p90'] * 1e3:.2f}ms"
        f"  p99={p['p99'] * 1e3:.2f}ms  max={p['max'] * 1e3:.2f}ms"
    )

    hits = summary.cache.get("hit", 0)
    misses = summary.cache.get("miss", 0)
    if hits or misses:
        lookups = hits + misses
        ratio = 100.0 * hits / lookups if lookups else 0.0
        lines.append(
            f"cache      hits={hits} misses={misses} ({ratio:.0f}% hit)"
        )
    else:
        lines.append("cache      off")
    lines.append(f"retries    {summary.retries}")

    if summary.remote:
        lines.append("workers (remote transport)")
        lines.append(
            f"  {'worker':<22} {'chunks':>6} {'jobs':>6} {'rtt ms':>8}"
            f" {'wire B':>9} {'disc':>4}"
        )
        for row in summary.remote:
            chunks = int(row.get("chunks", 0))
            rtt_ms = float(row.get("rtt_s", 0.0)) * 1e3
            wire = int(row.get("bytes_out", 0)) + int(row.get("bytes_in", 0))
            lines.append(
                f"  {str(row.get('worker', '?')):<22} {chunks:>6}"
                f" {int(row.get('jobs', 0)):>6} {rtt_ms:>8.1f}"
                f" {wire:>9} {int(row.get('disconnects', 0)):>4}"
            )
    elif summary.workers:
        lines.append("workers (local pids)")
        for pid, row in sorted(summary.workers.items()):
            lines.append(
                f"  pid {pid:<8} jobs={int(row.get('jobs', 0)):<6}"
                f" busy={float(row.get('busy_s', 0.0)) * 1e3:.1f}ms"
            )

    if summary.slowest:
        lines.append(f"slowest {min(top, len(summary.slowest))}")
        for index, wall_s, outcome in summary.slowest:
            lines.append(
                f"  run {index:<6} {wall_s * 1e3:>9.2f}ms  {outcome}"
            )
    return "\n".join(lines)


def top(
    path: Any,
    *,
    follow: bool = False,
    interval: float = 2.0,
    top_n: int = 3,
    out: TextIO | None = None,
    sleep=time.sleep,
) -> int:
    """The ``repro top`` loop.  One-shot by default; with *follow*,
    repaint every *interval* seconds until the stream is complete.
    Returns a shell exit code."""
    out = sys.stdout if out is None else out
    while True:
        records = read_telemetry_tail(path)
        if records:
            text = render_top(records, top=top_n)
            done, declared = _progress(records)
            complete = declared > 0 and done >= declared
        else:
            text = f"[top] waiting for telemetry at {path} ..."
            complete = False
        prefix = _CLEAR if follow else ""
        out.write(prefix + text + "\n")
        out.flush()
        if not follow:
            return 0 if records else 1
        if complete:
            return 0
        try:
            sleep(interval)
        except KeyboardInterrupt:
            return 0
