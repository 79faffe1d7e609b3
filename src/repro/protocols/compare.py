"""Cross-protocol differential comparison on identical fault schedules.

The point of having four protocol families behind one knob is to compare
them *fairly*: same logical workload (an ``nprocs``-rank token ring for
``iters`` iterations), same fault schedules (derived from the campaign
seed over logical ranks ``1..nprocs-1``, so every protocol faces the
identical ``(rank, time)`` kill list), different recovery strategies.

For each protocol the study runs one failure-free **baseline** plus one
faulted run per seed, then reports per protocol:

* outcome classes — ok / hang / violation / classified abort;
* **recovery latency** — the virtual-time slowdown of each surviving
  faulted run over the protocol's own baseline (p50/p90/p99/max,
  nearest-rank percentiles).  This charges each protocol its true
  end-to-end cost: re-execution epochs for shrink/repair, respawn +
  state transfer for partial restart, ~nothing for replication;
* **message overhead** — baseline message count (replication pays its
  2x-and-change up front, failures or not) and the mean faulted-run
  count;
* **hang window** — the latest virtual time at which a hung run was
  still making no progress (0 when nothing hangs, which is the
  acceptance bar).

Every run is an independent deterministic simulation, so the whole study
is embarrassingly parallel and cache-friendly: :class:`ProtocolCompareJob`
is picklable, carries the cache contract, and derives everything from
plain-data fields — serial, pooled, and cache-warm executions produce
byte-identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

from .. import analysis
from ..faults.campaign import ClassifiedJob, draw_kills
from ..faults.injector import KillAtTime
from ..parallel.jobs import outcome_of
from ..parallel.runner import SweepRunner, sweep
from ..parallel.scenarios import RingScenario, StandardRingInvariants
from .base import PROTOCOLS, load_family


def _percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (matches the telemetry summarizer)."""
    if not values:
        return 0.0
    s = sorted(values)
    k = max(1, math.ceil(q / 100.0 * len(s)))
    return s[k - 1]


@dataclass(frozen=True)
class ProtocolRunRecord:
    """One run of one protocol: schedule faced and outcome observed."""

    protocol: str
    seed: int
    baseline: bool
    kills: tuple[tuple[int, float], ...]
    outcome: str  # one of repro.obs.telemetry.OUTCOMES
    abort_code: int | None
    violations: tuple[str, ...]
    final_time: float
    messages_sent: int


@dataclass(frozen=True)
class ProtocolCompareJob(ClassifiedJob):
    """Picklable unit of comparison work: one protocol x one schedule.

    The kill schedule is the campaign's draw
    (:func:`~repro.faults.campaign.draw_kills`) from ``seed`` over the
    *logical* rank range ``1..nprocs-1`` — independent of the protocol,
    so jobs that share a seed face the identical schedule (replication's
    physical rank ``v`` is replica 0 of logical rank ``v``; partial
    restart's spares are never scheduled victims).  ``baseline=True`` runs the
    failure-free reference instead.

    All determinants are plain-data fields, so the job canonicalizes
    into a run-cache key (:mod:`repro.cache.keys`) in which the protocol
    participates — a cached RTS outcome can never serve a shrink/repair
    run of the same shape.
    """

    protocol: str
    nprocs: int
    iters: int
    seed: int = 0
    baseline: bool = False
    horizon: float = 1e-4
    kills_per_run: int = 1
    spares: int = 2
    sim_seed: int = 0
    detection_latency: float = 0.0
    work_per_iter: float = 0.0

    def _kills(self) -> tuple[tuple[int, float], ...]:
        if self.baseline:
            return ()
        return draw_kills(
            self.seed, range(1, self.nprocs), self.kills_per_run, self.horizon
        )

    def _simulation(self) -> tuple[Any, Any]:
        return RingScenario(
            nprocs=self.nprocs,
            iters=self.iters,
            seed=self.sim_seed,
            detection_latency=self.detection_latency,
            work_per_iter=self.work_per_iter,
            protocol=self.protocol,
            spares=self.spares,
        )()

    def _faults(self, sim: Any) -> list[KillAtTime]:
        return [KillAtTime(rank=v, time=t) for v, t in self._kills()]

    def _invariants(self) -> StandardRingInvariants:
        return StandardRingInvariants(self.iters, self.nprocs)

    def _record(self, result, violations, faults) -> ProtocolRunRecord:
        return ProtocolRunRecord(
            protocol=self.protocol,
            seed=self.seed,
            baseline=self.baseline,
            kills=tuple([(k.rank, k.time) for k in faults]),
            outcome=outcome_of(
                result.hung, violations, result.aborted is not None
            ),
            abort_code=(
                result.aborted.code if result.aborted is not None else None
            ),
            violations=tuple(violations),
            final_time=result.final_time,
            messages_sent=(
                0 if result.perf is None else result.perf.messages_sent
            ),
        )

    #: The payload keys :meth:`from_cached` reads: all but the digest.
    replay_keys = (
        "kills", "outcome", "abort_code", "violations", "final_time",
        "messages_sent",
    )

    def _payload(self, record, result) -> dict[str, Any]:
        return {
            "kills": [[rank, time] for rank, time in record.kills],
            "outcome": record.outcome,
            "abort_code": record.abort_code,
            "violations": list(record.violations),
            "final_time": record.final_time,
            "messages_sent": record.messages_sent,
            "digest": analysis.result_digest(result),
        }

    def from_cached(self, payload: dict[str, Any]) -> ProtocolRunRecord:
        return ProtocolRunRecord(
            protocol=self.protocol,
            seed=self.seed,
            baseline=self.baseline,
            kills=tuple([(rank, time) for rank, time in payload["kills"]]),
            outcome=str(payload["outcome"]),
            abort_code=payload["abort_code"],
            violations=tuple(payload["violations"]),
            final_time=float(payload["final_time"]),
            messages_sent=int(payload["messages_sent"]),
        )


@dataclass
class CompareProtocolsReport:
    """The cross-protocol study: all records plus deterministic rollups."""

    records: list[ProtocolRunRecord]
    protocols: tuple[str, ...]
    horizon: float
    kills_per_run: int

    def _for(self, protocol: str) -> list[ProtocolRunRecord]:
        return [r for r in self.records if r.protocol == protocol]

    def summary(self) -> dict[str, dict[str, Any]]:
        """Per-protocol rollup, keyed in :data:`PROTOCOLS` order."""
        out: dict[str, dict[str, Any]] = {}
        for protocol in self.protocols:
            recs = self._for(protocol)
            base = next((r for r in recs if r.baseline), None)
            faulted = [r for r in recs if not r.baseline]
            ok = [r for r in faulted if r.outcome == "ok"]
            lat = [
                max(0.0, r.final_time - base.final_time)
                for r in ok
                if base is not None
            ]
            hangs = [r for r in faulted if r.outcome == "hang"]
            out[protocol] = {
                "runs": len(faulted),
                "ok": len(ok),
                "hangs": len(hangs),
                "violations": sum(
                    r.outcome == "violation" for r in faulted
                ),
                "aborts": sum(r.outcome == "abort" for r in faulted),
                "abort_codes": sorted(
                    {
                        r.abort_code
                        for r in faulted
                        if r.abort_code is not None
                    }
                ),
                "baseline_time": base.final_time if base else 0.0,
                "baseline_msgs": base.messages_sent if base else 0,
                "recovery_latency": {
                    "p50": _percentile(lat, 50),
                    "p90": _percentile(lat, 90),
                    "p99": _percentile(lat, 99),
                    "max": max(lat) if lat else 0.0,
                },
                "mean_msgs": (
                    sum(r.messages_sent for r in ok) / len(ok) if ok else 0.0
                ),
                "hang_window": max(
                    (r.final_time for r in hangs), default=0.0
                ),
            }
        return out

    def format(self) -> str:
        """Human-readable comparison table (byte-deterministic)."""
        s = self.summary()
        nruns = s[self.protocols[0]]["runs"] if self.protocols else 0
        lines = [
            f"protocol comparison: {len(self.protocols)} protocols x "
            f"{nruns} schedules ({self.kills_per_run} kill(s) in "
            f"[0, {self.horizon:.3g}))",
            f"{'protocol':<16} {'ok':>4} {'hang':>4} {'viol':>4} "
            f"{'abort':>5}  {'base_t':>9} {'rec_p50':>9} {'rec_p90':>9} "
            f"{'rec_max':>9}  {'base_msg':>8} {'mean_msg':>8} {'hangwin':>8}",
        ]
        for protocol in self.protocols:
            d = s[protocol]
            rec = d["recovery_latency"]
            lines.append(
                f"{protocol:<16} {d['ok']:>4} {d['hangs']:>4} "
                f"{d['violations']:>4} {d['aborts']:>5}  "
                f"{d['baseline_time']:>9.3g} {rec['p50']:>9.3g} "
                f"{rec['p90']:>9.3g} {rec['max']:>9.3g}  "
                f"{d['baseline_msgs']:>8} {d['mean_msgs']:>8.1f} "
                f"{d['hang_window']:>8.3g}"
            )
            if d["abort_codes"]:
                codes = ", ".join(str(c) for c in d["abort_codes"])
                lines.append(f"{'':<16}   abort codes: {codes}")
        return "\n".join(lines)


def run_compare_protocols(
    *,
    nprocs: int = 6,
    iters: int = 6,
    seeds: Sequence[int],
    horizon: float,
    kills_per_run: int = 1,
    protocols: Sequence[str] = PROTOCOLS,
    spares: int = 2,
    sim_seed: int = 0,
    detection_latency: float = 0.0,
    work_per_iter: float = 0.0,
    workers: int | None = None,
    runner: SweepRunner | None = None,
    cache: Any = None,
) -> CompareProtocolsReport:
    """Run the cross-protocol study and return its report.

    For each protocol in *protocols*: one failure-free baseline, then one
    faulted run per seed in *seeds* — every protocol facing the identical
    seed-derived kill schedules.  ``workers``/``runner``/``cache`` follow
    the :func:`repro.faults.run_campaign` conventions; the report is
    byte-identical across serial, pooled, and cache-warm executions
    (records are folded in job order, never completion order).
    """
    jobs: list[ProtocolCompareJob] = []
    for protocol in protocols:
        load_family(protocol)
        for baseline, seed in [(True, 0)] + [(False, s) for s in seeds]:
            jobs.append(
                ProtocolCompareJob(
                    protocol=protocol,
                    nprocs=nprocs,
                    iters=iters,
                    seed=seed,
                    baseline=baseline,
                    horizon=horizon,
                    kills_per_run=kills_per_run,
                    spares=spares,
                    sim_seed=sim_seed,
                    detection_latency=detection_latency,
                    work_per_iter=work_per_iter,
                )
            )
    records = sweep(
        jobs,
        total=len(jobs),
        kind="compare-protocols",
        runner=runner,
        workers=workers,
        cache=cache,
    )
    return CompareProtocolsReport(
        records=list(records),
        protocols=tuple(protocols),
        horizon=horizon,
        kills_per_run=kills_per_run,
    )
