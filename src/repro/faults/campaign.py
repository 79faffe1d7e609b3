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

:class:`ClassifiedJob`, the run and cache contract every sweep job kind
shares, and :func:`draw_kills`, the seeded kill draw campaigns and
protocol comparisons share, live here too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Sequence

from .. import analysis
from ..parallel.jobs import (
    InvariantSpec,
    ScenarioFactory,
    check_invariants,
    trace_needed,
)
from ..parallel.runner import SweepRunner, sweep
from ..simmpi.runtime import SimulationResult
from .injector import CompositeInjector, FaultInjector, KillAtTime


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


def draw_kills(
    seed: int, ranks: Sequence[int], k: int, horizon: float
) -> tuple[tuple[int, float], ...]:
    """The seeded kill draw: *k* distinct victims from *ranks*, each at a
    uniform virtual time in ``[0, horizon)``, as sorted ``(rank, time)``
    pairs.  A campaign and a protocol comparison draw with this one
    function, so the same ``(seed, ranks, k, horizon)`` places the same
    kills in both."""
    if k > len(ranks):
        raise ValueError("kills_per_run exceeds eligible ranks")
    rng = random.Random(seed)
    victims = rng.sample(ranks, k)
    return tuple(sorted((v, rng.uniform(0.0, horizon)) for v in victims))


class ClassifiedJob:
    """One simulation, run and classified: the execution path and the
    cache contract (see :mod:`repro.parallel.jobs`) of every sweep job
    kind — :class:`CampaignJob`, :class:`~repro.faults.explorer.WindowJob`,
    :class:`~repro.protocols.compare.ProtocolCompareJob` and
    :class:`~repro.fuzz.driver.FuzzJob`.

    The class holds no fields, so a kind's dataclass fields alone make
    its cache key.  A kind says how its simulation is built
    (:meth:`_simulation`), where its kills land (:meth:`_faults`), which
    invariants judge it (:meth:`_invariants`), what record a run gives
    (:meth:`_record`) and what the cache stores of it (:meth:`_payload`,
    read back by the kind's own ``from_cached``).
    """

    #: Whether the record hands back the whole ``SimulationResult``; a
    #: kind with a ``keep_results`` field overrides this default.
    keep_results = False
    #: Whether the record itself reads the trace (a fuzz outcome carries
    #: its digest), so that no run goes untraced.
    traced = False

    def __call__(self) -> Any:
        return self._execute()[0]

    def _execute(self, digest: bool = False) -> tuple[Any, SimulationResult]:
        sim, main = self._simulation()
        faults = self._faults(sim)
        if faults:
            sim.add_injector(CompositeInjector(faults))
        invariants = self._invariants()
        if not trace_needed(
            invariants,
            keep_results=self.keep_results,
            digest=digest or self.traced,
        ):
            sim.runtime.trace.enabled = False
        result = sim.run(main, on_deadlock="return")
        violations = check_invariants(invariants, result)
        return self._record(result, violations, faults), result

    def _simulation(self) -> tuple[Any, Any]:
        return self.factory()

    def _faults(self, sim: Any) -> Sequence[FaultInjector]:
        """The injectors of this run's kills, given the built simulation."""
        return ()

    def _invariants(self) -> InvariantSpec:
        return self.invariants

    def _record(self, result, violations, faults) -> Any:
        """The kind's compact record of a finished run."""
        raise NotImplementedError

    def _payload(self, record: Any, result: SimulationResult) -> dict[str, Any]:
        """The JSON-able classification the cache stores for *record*."""
        return {
            "violations": list(record.violations),
            "hung": record.hung,
            "aborted": record.aborted,
            "digest": analysis.result_digest(result),
            "final_time": result.final_time,
            "perf": analysis.perf_dict(result),
        }

    @property
    def cacheable(self) -> bool:
        """A job that must return the full ``SimulationResult`` cannot be
        served from the cache (traces are never stored)."""
        return not self.keep_results

    def cache_payload(self) -> tuple[Any, dict[str, Any]]:
        record, result = self._execute(digest=True)
        return record, self._payload(record, result)


@dataclass
class CampaignJob(ClassifiedJob):
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

    #: The payload keys :meth:`from_cached` reads.
    replay_keys = ("kills", "hung", "aborted", "violations")

    def _faults(self, sim: Any) -> list[KillAtTime]:
        ranks = (
            range(1, sim.nprocs)
            if self.eligible_ranks is None
            else self.eligible_ranks
        )
        kills = draw_kills(self.seed, ranks, self.kills_per_run, self.horizon)
        return [KillAtTime(rank=v, time=t) for v, t in kills]

    def _record(self, result, violations, faults) -> CampaignRun:
        return CampaignRun(
            seed=self.seed,
            kills=tuple([(k.rank, k.time) for k in faults]),
            hung=result.hung,
            aborted=result.aborted is not None,
            violations=violations,
            result=result if self.keep_results else None,
        )

    def _payload(self, record, result) -> dict[str, Any]:
        # JSON turns the (rank, time) pairs into 2-lists; floats
        # round-trip exactly (repr is shortest-round-trip).
        kills = [[rank, time] for rank, time in record.kills]
        return {"kills": kills, **super()._payload(record, result)}

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
