"""Randomized fault-injection campaigns.

Complements the exhaustive :mod:`repro.faults.explorer`: where the
explorer enumerates probe-point windows, a campaign samples *timing-level*
failure placements (virtual-time kills and seeded per-call coin flips)
across many seeds — the style of testing the paper's §III-E describes as
"intensive use of fault injection tools".

Every sampled run is an independent deterministic simulation, so a
campaign is embarrassingly parallel: :func:`run_campaign` builds one
picklable :class:`CampaignJob` per seed and hands the batch to a
:class:`~repro.parallel.SweepRunner`.  Results are merged in seed order
regardless of completion order, making the :class:`CampaignReport`
bit-identical between serial and pooled execution (see
``docs/parallel.md``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Sequence

from ..analysis.digest import perf_dict, result_digest
from ..parallel.jobs import (
    InvariantSpec,
    ScenarioFactory,
    check_invariants,
    trace_needed,
)
from ..parallel.runner import SweepRunner, sweep
from ..simmpi.runtime import SimulationResult
from .injector import CompositeInjector, KillAtTime


@dataclass
class CampaignRun:
    """One sampled run: where failures were placed and what happened."""

    seed: int
    kills: tuple[tuple[int, float], ...]  # (rank, time) pairs
    hung: bool
    aborted: bool
    violations: list[str] = field(default_factory=list)
    result: SimulationResult | None = None

    @property
    def ok(self) -> bool:
        return not self.hung and not self.violations


@dataclass
class CampaignReport:
    """Aggregate over the sampled runs, folded one run at a time by
    :meth:`add` in seed order.

    ``runs`` holds every run unless the report was built with
    ``stream=True``; then it stays empty and a 10^6-seed campaign holds
    O(failures) memory.  ``summary()`` and ``format()`` read only the
    running counts and ``failures``, so a streamed and a kept report of
    the same campaign render byte-identical text.
    """

    runs: list[CampaignRun] = field(default_factory=list)
    failures: list[CampaignRun] = field(default_factory=list)
    stream: bool = False
    total: int = 0
    ok: int = 0
    hangs: int = 0
    violations: int = 0
    aborts: int = 0

    def add(self, run: CampaignRun) -> None:
        ok = run.ok
        self.total += 1
        self.ok += ok
        self.hangs += run.hung
        self.violations += bool(run.violations)
        self.aborts += run.aborted
        if not ok:
            self.failures.append(run)
        if not self.stream:
            self.runs.append(run)

    def summary(self) -> dict[str, int]:
        return {
            "runs": self.total,
            "ok": self.ok,
            "hangs": self.hangs,
            "violations": self.violations,
            "aborts": self.aborts,
        }

    def format(self) -> str:
        lines = [
            f"campaign: {self.total} runs, {self.ok} ok, {self.hangs} hangs, "
            f"{self.violations} violating, {self.aborts} aborts"
        ]
        for r in self.failures:
            tag = "HANG" if r.hung else "VIOLATION"
            kills = ", ".join(f"r{k}@{t:.3g}" for k, t in r.kills)
            lines.append(
                f"  [{tag}] seed={r.seed} kills=[{kills}]: "
                f"{'; '.join(r.violations) or 'deadlock'}"
            )
        return "\n".join(lines)


@dataclass
class CampaignJob:
    """Picklable unit of campaign work: one seed's sampled run.

    The failure placement is derived from ``seed`` alone (the scenario's
    rank count is read from a freshly built simulation), so the job can
    execute in any process and still land exactly where the serial loop
    would have placed it.
    """

    factory: ScenarioFactory
    seed: int
    horizon: float
    kills_per_run: int = 1
    eligible_ranks: tuple[int, ...] | None = None
    invariants: InvariantSpec = ()
    keep_results: bool = False

    def __call__(self) -> CampaignRun:
        return self._execute()[0]

    def _execute(
        self, digest: bool = False
    ) -> tuple[CampaignRun, SimulationResult]:
        rng = random.Random(self.seed)
        sim, main = self.factory()
        ranks = (
            list(self.eligible_ranks)
            if self.eligible_ranks is not None
            else list(range(1, sim.nprocs))
        )
        if self.kills_per_run > len(ranks):
            raise ValueError("kills_per_run exceeds eligible ranks")
        victims = rng.sample(ranks, self.kills_per_run)
        kills = tuple(
            sorted((v, rng.uniform(0.0, self.horizon)) for v in victims)
        )
        sim.add_injector(
            CompositeInjector(KillAtTime(rank=v, time=t) for v, t in kills)
        )
        if not trace_needed(
            self.invariants, keep_results=self.keep_results, digest=digest
        ):
            sim.runtime.trace.enabled = False
        result = sim.run(main, on_deadlock="return")
        violations = check_invariants(self.invariants, result)
        run = CampaignRun(
            seed=self.seed,
            kills=kills,
            hung=result.hung,
            aborted=result.aborted is not None,
            violations=violations,
            result=result if self.keep_results else None,
        )
        return run, result

    # -- cache contract (see repro/parallel/jobs.py) -------------------

    #: The payload keys :meth:`from_cached` reads.
    replay_keys = ("kills", "hung", "aborted", "violations")

    @property
    def cacheable(self) -> bool:
        """A job that must return the full ``SimulationResult`` cannot be
        served from the cache (traces are never stored)."""
        return not self.keep_results

    def cache_payload(self) -> tuple[CampaignRun, dict[str, Any]]:
        run, result = self._execute(digest=True)
        return run, {
            # JSON turns the (rank, time) pairs into 2-lists; floats
            # round-trip exactly (repr is shortest-round-trip).
            "kills": [[rank, time] for rank, time in run.kills],
            "violations": list(run.violations),
            "hung": run.hung,
            "aborted": run.aborted,
            "digest": result_digest(result),
            "final_time": result.final_time,
            "perf": perf_dict(result),
        }

    def from_cached(self, payload: dict[str, Any]) -> CampaignRun:
        return CampaignRun(
            seed=self.seed,
            kills=tuple([(rank, time) for rank, time in payload["kills"]]),
            hung=bool(payload["hung"]),
            aborted=bool(payload["aborted"]),
            violations=list(payload["violations"]),
            result=None,
        )


def run_campaign(
    factory: ScenarioFactory,
    *,
    seeds: Sequence[int],
    horizon: float,
    kills_per_run: int = 1,
    eligible_ranks: Sequence[int] | None = None,
    invariants: InvariantSpec = (),
    keep_results: bool = False,
    workers: int | None = None,
    runner: SweepRunner | None = None,
    cache: Any = None,
    telemetry: str | None = None,
    stream: bool = False,
) -> CampaignReport:
    """Sample ``len(seeds)`` runs, each killing ``kills_per_run`` distinct
    ranks at uniform-random virtual times in ``[0, horizon)``.

    ``eligible_ranks`` restricts who may die (default: every rank of the
    scenario except rank 0 — matching the paper's root-survives
    assumption; pass an explicit list to include the root).

    ``workers`` > 1 fans the runs out across a process pool (``factory``
    and ``invariants`` must then be picklable — see
    :mod:`repro.parallel.scenarios`); pass ``runner`` to control
    chunking, timeouts, and retries directly.  The report is identical
    either way.

    ``cache`` enables the content-addressed run cache (:mod:`repro.cache`):
    ``True`` for the default directory, a path, or a ``RunCache``.  A
    warm campaign replays classified outcomes without executing the
    simulations; the report is byte-identical to a cold or uncached one.

    ``telemetry`` names a JSONL file that receives one line per run —
    wall time, outcome class, worker id, retries, cache disposition
    (see :mod:`repro.obs.telemetry`); its canonical form is identical
    between serial and pooled campaigns.

    Jobs are built lazily and pulled through the runner's
    ``run_stream`` in bounded windows; each run is folded into the
    report as it arrives.  ``stream=True`` keeps only the counts and
    the failing runs (``report.runs`` stays empty), so memory stays
    O(failures) regardless of ``len(seeds)``; ``summary()`` and
    ``format()`` are byte-identical either way.
    """
    eligible = tuple(eligible_ranks) if eligible_ranks is not None else None

    def make_job(seed: int) -> CampaignJob:
        return CampaignJob(
            factory=factory,
            seed=seed,
            horizon=horizon,
            kills_per_run=kills_per_run,
            eligible_ranks=eligible,
            invariants=invariants,
            keep_results=keep_results,
        )

    runs = sweep(
        (make_job(seed) for seed in seeds),
        total=len(seeds),
        kind="campaign",
        runner=runner,
        workers=workers,
        cache=cache,
        telemetry=telemetry,
    )
    report = CampaignReport(stream=stream)
    for run in runs:
        report.add(run)
    return report
