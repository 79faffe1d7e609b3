"""Exhaustive failure-scenario exploration (paper §III-E).

The paper closes with the testing question: *how can a developer know when
they have addressed all of the problematic fault scenarios?*  Fault
injection alone samples; this module enumerates.  Because the simulator is
deterministic, the set of reachable failure windows of a program is
exactly the set of probe-point hits of its failure-free reference run —
so we can:

1. run the scenario once with no failures and collect every
   ``(rank, probe, hit)`` window from the trace;
2. re-run the scenario once per window, killing that rank at that window
   (optionally: once per *pair* of windows, for double failures);
3. classify every run with user-supplied invariants.

The result is a complete map of "what happens if a process dies *here*"
— the tool the paper wishes existed.

Step 2 is a batch of independent deterministic simulations, so
:func:`explore` fans it out through a
:class:`~repro.parallel.SweepRunner`: one picklable :class:`WindowJob`
per window (and per pair), merged back in enumeration order so the
:class:`ExplorationReport` is bit-identical to a serial sweep.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..parallel.jobs import (
    Invariant,
    InvariantSpec,
    ScenarioFactory,
)
from ..parallel.runner import SweepRunner, sweep
from ..simmpi.runtime import SimulationResult
from ..simmpi.trace import TraceKind
from .campaign import ClassifiedJob
from .injector import FaultInjector, KillAtProbe

__all__ = [
    "ExplorationReport",
    "Invariant",
    "ScenarioFactory",
    "ScenarioOutcome",
    "Window",
    "WindowJob",
    "enumerate_windows",
    "explore",
]


@dataclass(frozen=True)
class Window:
    """One reachable failure window: rank dies at the hit-th probe."""

    rank: int
    probe: str
    hit: int

    def injector(self) -> FaultInjector:
        return KillAtProbe(rank=self.rank, probe=self.probe, hit=self.hit)

    def __str__(self) -> str:
        return f"r{self.rank}@{self.probe}#{self.hit}"


@dataclass
class ScenarioOutcome:
    """Classification of one fault-injected run."""

    windows: tuple[Window, ...]
    hung: bool
    aborted: bool
    violations: list[str] = field(default_factory=list)
    result: SimulationResult | None = None

    @property
    def ok(self) -> bool:
        """No invariant violation and no hang (aborts may be legitimate —
        invariants decide whether an abort is acceptable)."""
        return not self.hung and not self.violations


@dataclass
class ExplorationReport:
    """Aggregate of a full exploration sweep, folded one outcome at a
    time by :meth:`add` in enumeration order.

    ``outcomes`` holds every outcome unless the report was built with
    ``stream=True``; then it stays empty and a ``pairs=True`` sweep,
    whose job count grows quadratically in the window count, holds
    O(windows + failures) memory.  ``summary()`` and ``format()`` read
    only the running counts and ``failures``, so a streamed and a kept
    report of the same sweep render byte-identical text.
    """

    reference_windows: list[Window]
    outcomes: list[ScenarioOutcome] = field(default_factory=list)
    failures: list[ScenarioOutcome] = field(default_factory=list)
    stream: bool = False
    total: int = 0
    ok: int = 0
    hangs: int = 0
    violations: int = 0

    def add(self, outcome: ScenarioOutcome) -> None:
        self.total += 1
        self.ok += outcome.ok
        self.hangs += outcome.hung
        self.violations += bool(outcome.violations)
        if not outcome.ok:
            self.failures.append(outcome)
        if not self.stream:
            self.outcomes.append(outcome)

    def summary(self) -> dict[str, int]:
        return {
            "windows": len(self.reference_windows),
            "runs": self.total,
            "ok": self.ok,
            "hangs": self.hangs,
            "violations": self.violations,
        }

    def format(self) -> str:
        lines = [
            f"explored {self.total} scenario(s) over "
            f"{len(self.reference_windows)} window(s): {self.ok} ok, "
            f"{self.hangs} hang(s), {self.violations} violating"
        ]
        for o in self.failures:
            tag = "HANG" if o.hung else "VIOLATION"
            wins = "+".join(str(w) for w in o.windows)
            lines.append(
                f"  [{tag}] {wins}: {'; '.join(o.violations) or 'deadlock'}"
            )
        return "\n".join(lines)


def enumerate_windows(
    factory: ScenarioFactory,
    probes: Sequence[str] | None = None,
    ranks: Sequence[int] | None = None,
) -> list[Window]:
    """Run the failure-free reference and list every reachable window.

    ``probes``/``ranks`` filter the enumeration (e.g. only ``post_recv``
    windows, or only non-root ranks for the Fig. 11 contract).  The
    windows are read off the reference run's ``PROBE`` records, so that
    run traces whatever the factory's own setting.
    """
    sim, main = factory()
    sim.runtime.trace.enabled = True
    result = sim.run(main, on_deadlock="return")
    windows: list[Window] = []
    for ev in result.trace.filter(kind=TraceKind.PROBE):
        name = ev.detail["name"]
        if probes is not None and name not in probes:
            continue
        if ranks is not None and ev.rank not in ranks:
            continue
        windows.append(Window(rank=ev.rank, probe=name, hit=ev.detail["hit"]))
    return windows


@dataclass
class WindowJob(ClassifiedJob):
    """Picklable unit of exploration work: one fault-injected re-run."""

    factory: ScenarioFactory
    windows: tuple[Window, ...]
    invariants: InvariantSpec = ()
    keep_results: bool = False

    #: The payload keys :meth:`from_cached` reads.
    replay_keys = ("hung", "aborted", "violations")

    def _faults(self, sim: Any) -> list[FaultInjector]:
        return [w.injector() for w in self.windows]

    def _record(self, result, violations, faults) -> ScenarioOutcome:
        return ScenarioOutcome(
            windows=self.windows,
            hung=result.hung,
            aborted=result.aborted is not None,
            violations=violations,
            result=result if self.keep_results else None,
        )

    def from_cached(self, payload: dict[str, Any]) -> ScenarioOutcome:
        return ScenarioOutcome(
            windows=self.windows,
            hung=bool(payload["hung"]),
            aborted=bool(payload["aborted"]),
            violations=list(payload["violations"]),
            result=None,
        )


def explore(
    factory: ScenarioFactory,
    invariants: InvariantSpec = (),
    probes: Sequence[str] | None = None,
    ranks: Sequence[int] | None = None,
    max_windows: int | None = None,
    pairs: bool = False,
    keep_results: bool = False,
    workers: int | None = None,
    runner: SweepRunner | None = None,
    cache: Any = None,
    progress: Callable[[int, int], None] | None = None,
    telemetry: str | None = None,
    stream: bool = False,
) -> ExplorationReport:
    """Exhaustively inject a failure at every reachable window.

    With ``pairs=True`` additionally injects every ordered pair of windows
    on *distinct* ranks (double-failure scenarios).  ``max_windows`` caps
    the enumeration for large scenarios (a cap is reported, never silent:
    the report's ``reference_windows`` shows what was considered).

    ``cache`` enables the content-addressed run cache (:mod:`repro.cache`):
    pass ``True`` for the default directory, a path, or a ``RunCache``.
    Cached outcomes are reused only when the job's full determinism
    surface matches; the report is byte-identical either way (only
    ``keep_results=False`` jobs participate — traces are never cached).

    ``progress`` is called as ``progress(done, total)`` — once up front
    with ``done=0`` and again as batches of re-runs complete — so long
    enumerations (``pairs=True`` grows quadratically) report liveness.

    ``telemetry`` names a JSONL file to stream per-job telemetry into
    (see :mod:`repro.obs.telemetry`): start/end, wall time, outcome
    class, worker id, retries, cache disposition.  The canonical form of
    the stream is identical between serial and pooled runs.

    The reference run executes in-process; the per-window re-runs go
    through a :class:`~repro.parallel.SweepRunner` — serial by default,
    a process pool with ``workers`` > 1 (``factory``/``invariants`` must
    then be picklable).  Outcomes keep enumeration order either way, so
    the report does not depend on the worker count.

    The jobs (the quadratic ``pairs`` enumeration included) are built
    lazily and pulled through the runner's ``run_stream`` in bounded
    windows; each outcome is folded into the report as it arrives.
    ``stream=True`` keeps only the counts and the failing outcomes
    (``report.outcomes`` stays empty), so memory stays
    O(windows + failures) regardless of the job count;
    ``summary()``/``format()`` are byte-identical either way.
    """
    windows = enumerate_windows(factory, probes=probes, ranks=ranks)
    if max_windows is not None:
        windows = windows[:max_windows]

    def iter_jobs():
        for w in windows:
            yield WindowJob(
                factory=factory,
                windows=(w,),
                invariants=invariants,
                keep_results=keep_results,
            )
        if pairs:
            for a, b in itertools.combinations(windows, 2):
                if a.rank == b.rank:
                    continue
                yield WindowJob(
                    factory=factory,
                    windows=(a, b),
                    invariants=invariants,
                    keep_results=keep_results,
                )

    total = len(windows)
    if pairs:
        # Count cross-rank pairs without enumerating them: all pairs
        # minus the same-rank ones.
        per_rank: dict[int, int] = {}
        for w in windows:
            per_rank[w.rank] = per_rank.get(w.rank, 0) + 1
        n = len(windows)
        total += n * (n - 1) // 2 - sum(
            c * (c - 1) // 2 for c in per_rank.values()
        )
    # Progress is reported ~16 times: the sweep runs in windows of
    # `step` jobs, so the callback fires while work is in flight.
    step = max(1, math.ceil(total / 16))
    if progress is not None:
        progress(0, total)
    outcomes = sweep(
        iter_jobs(),
        total=total,
        kind="explore",
        runner=runner,
        workers=workers,
        cache=cache,
        telemetry=telemetry,
        window=step if progress is not None else None,
    )
    report = ExplorationReport(reference_windows=windows, stream=stream)
    for done, outcome in enumerate(outcomes, start=1):
        report.add(outcome)
        if progress is not None and (done % step == 0 or done == total):
            progress(done, total)
    return report
