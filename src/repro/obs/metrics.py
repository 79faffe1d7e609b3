"""The :class:`RunReport` summary of a run: one fold over its trace.

:func:`run_report` reads a finished run's :attr:`Trace.rows
<repro.simmpi.trace.Trace.rows>` once, by position, through the columns
the trace's shape table gives (:meth:`~repro.simmpi.trace.Trace.columns`):

* blocked time is the time a rank waited in a posted receive
  (``RECV_POST`` until its ``RECV_COMPLETE`` or ``REQ_ERROR``; a receive
  that never completes is charged until the rank's end); busy time is
  the rest of the rank's life, failed time what follows its ``FAILURE``;
* detection latency is a ``DETECT`` less its failure's time;
* an agreement instance (``validate_all`` or ``comm_agree``) is its
  ``*_start`` row paired with its ``*_decide`` row, keyed by rank, flavor,
  communicator and instance.

A capped trace (``trace_cap``) that dropped its oldest rows cannot say
how long a rank waited or when it failed, so its per-rank times read
unknown (``None``) and the report states how many rows were dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..simmpi.trace import TraceKind

__all__ = ["RankSummary", "RunReport", "run_report"]


# ----------------------------------------------------------------------
# RunReport: the per-rank summary
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RankSummary:
    """Busy/blocked/failed accounting for one rank; the times are
    ``None`` when the trace dropped rows."""

    rank: int
    state: str
    busy_s: float | None
    blocked_s: float | None
    failed_s: float | None


@dataclass
class RunReport:
    """Per-rank timing breakdown plus protocol latencies of one run."""

    nprocs: int
    final_time: float
    ranks: list[RankSummary]
    #: (observer rank, failed rank, latency) per DETECT event.
    detection_latencies: list[tuple[int, int, float]] = field(
        default_factory=list
    )
    #: (rank, instance, latency) per completed collective validate.
    validate_latencies: list[tuple[int, Any, float]] = field(
        default_factory=list
    )
    #: (rank, start, duration, rounds, how) per decided agreement
    #: instance, validate and agree alike: ``start`` is the ``*_start``
    #: row's time, ``rounds`` and ``how`` the ``*_decide`` row's.
    consensus: list[tuple[int, float, float, int, str]] = field(
        default_factory=list
    )
    #: Trace rows a capped trace dropped; the rank times are unknown
    #: when this is not 0.
    dropped: int = 0

    def format(self) -> str:
        lines = [
            f"run report: {self.nprocs} rank(s), "
            f"final virtual time {self.final_time * 1e6:.3f} us"
        ]
        lines.append(
            f"{'rank':>4}  {'state':<8} {'busy(us)':>10} "
            f"{'blocked(us)':>12} {'failed(us)':>11}"
        )
        for r in self.ranks:
            busy, blocked, failed = (
                "?" if t is None else f"{t * 1e6:.3f}"
                for t in (r.busy_s, r.blocked_s, r.failed_s)
            )
            lines.append(
                f"{r.rank:>4}  {r.state:<8} {busy:>10} "
                f"{blocked:>12} {failed:>11}"
            )
        if self.dropped:
            lines.append(
                f"trace capped: {self.dropped} older row(s) dropped, so "
                "the busy, blocked and failed times are unknown (?)"
            )
        if self.detection_latencies:
            worst = max(lat for _o, _f, lat in self.detection_latencies)
            lines.append(
                f"detections: {len(self.detection_latencies)} "
                f"(max latency {worst * 1e6:.3f} us)"
            )
        if self.validate_latencies:
            worst = max(lat for _r, _i, lat in self.validate_latencies)
            lines.append(
                f"validates: {len(self.validate_latencies)} "
                f"(max latency {worst * 1e6:.3f} us)"
            )
        if self.consensus:
            worst = max(dur for _r, _s, dur, _n, _h in self.consensus)
            rounds = max(n for _r, _s, _d, n, _h in self.consensus)
            lines.append(
                f"consensus: {len(self.consensus)} decision(s), "
                f"max {rounds} round(s), max {worst * 1e6:.3f} us"
            )
        return "\n".join(lines)


def run_report(result: Any, nprocs: int | None = None) -> RunReport:
    """Summarize a finished :class:`~repro.simmpi.runtime.SimulationResult`
    from its trace, in one pass over the rows."""
    if nprocs is None:
        nprocs = len(result.outcomes)
    final = result.final_time
    trace = result.trace
    # Shape id -> (role, column positions); a decide shape is also a
    # start-shaped one, so it is entered second and wins.
    roles: dict[int, tuple[str, tuple[int, ...]]] = {}
    for role, kind, names in (
        ("post", TraceKind.RECV_POST, ("req",)),
        ("close", TraceKind.RECV_COMPLETE, ("req",)),
        ("close", TraceKind.REQ_ERROR, ("req",)),
        ("failure", TraceKind.FAILURE, ()),
        ("detect", TraceKind.DETECT, ("failed",)),
        ("start", TraceKind.VALIDATE, ("op", "comm", "instance")),
        ("decide", TraceKind.VALIDATE,
         ("op", "comm", "instance", "how", "round")),
    ):
        for sid, cols in trace.columns(kind, *names).items():
            roles[sid] = (role, cols)

    failure_at: dict[int, float] = {}
    posts: dict[tuple[int, Any], float] = {}
    waits: list[list[tuple[float, float]]] = [[] for _ in range(nprocs)]
    detects: list[tuple[int, int, float]] = []
    starts: dict[tuple[Any, ...], float] = {}
    consensus: list[tuple[int, float, float, int, str]] = []
    validates: list[tuple[int, Any, float]] = []
    for row in trace.rows:
        hit = roles.get(row[1])
        if hit is None:
            continue
        role, cols = hit
        time, rank = row[0], row[2]
        if role == "post":
            posts[(rank, row[cols[0]])] = time
        elif role == "close":
            start = posts.pop((rank, row[cols[0]]), None)
            if start is not None and rank < nprocs:
                waits[rank].append((start, time))
        elif role == "failure":
            failure_at.setdefault(rank, time)
        elif role == "detect":
            detects.append((rank, row[cols[0]], time))
        else:
            flavor = row[cols[0]].rpartition("_")[0]
            key = (rank, flavor, row[cols[1]], row[cols[2]])
            if role == "start":
                starts[key] = time
                continue
            t0 = starts.pop(key, None)
            if t0 is not None:
                consensus.append(
                    (rank, t0, time - t0, row[cols[4]], row[cols[3]])
                )
                if flavor == "all":
                    validates.append((rank, row[cols[2]], time - t0))

    # A hung or killed rank's last receive never completes: its wait is
    # charged up to the rank's end.
    still_open: list[list[float]] = [[] for _ in range(nprocs)]
    for (rank, _req), t in posts.items():
        if rank < nprocs:
            still_open[rank].append(t)
    ranks = []
    for out in result.outcomes[:nprocs]:
        r = out.rank
        if trace.dropped:
            ranks.append(RankSummary(r, out.state, None, None, None))
            continue
        end = failure_at.get(r, final)
        blocked = sum(min(e, end) - s for s, e in waits[r] if s < end)
        blocked += sum(end - t for t in still_open[r] if t < end)
        blocked_s = min(blocked, end)
        ranks.append(
            RankSummary(
                rank=r,
                state=out.state,
                busy_s=max(0.0, end - blocked_s),
                blocked_s=blocked_s,
                failed_s=final - failure_at[r] if r in failure_at else 0.0,
            )
        )

    return RunReport(
        nprocs=nprocs,
        final_time=final,
        ranks=ranks,
        detection_latencies=[
            (rank, failed, t - failure_at.get(failed, t))
            for rank, failed, t in detects
        ],
        validate_latencies=validates,
        consensus=consensus,
        dropped=trace.dropped,
    )
