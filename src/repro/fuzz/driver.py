"""The fuzz driver: sample seeded configs, fan out, classify, shrink.

One master seed determines the whole campaign.  :func:`sample_configs`
draws every knob of every :class:`~repro.fuzz.config.FuzzConfig` from a
single ``random.Random(seed)`` stream, so ``repro fuzz --seed S --runs
N`` names an exact, re-derivable corpus — running it twice (or fanning
it across a process pool) produces byte-identical reports.

Each sampled config becomes one picklable :class:`FuzzJob` executed by a
:class:`~repro.parallel.runner.SweepRunner`; the worker reduces the full
:class:`~repro.simmpi.runtime.SimulationResult` to a compact
:class:`FuzzOutcome` (violations, trace digest, perf counters) before it
crosses back.  Failures are shrunk in the parent — shrinking is a
sequential search, and failures are rare — and can be persisted as
``.repro.json`` files that :func:`replay` re-executes and checks against
the recorded digest.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Sequence

from ..analysis.digest import perf_dict, result_digest
from ..faults.campaign import ClassifiedJob
from ..faults.schedule import KillSpec
from ..parallel.runner import SweepRunner, sweep
from .config import (
    FORMAT,
    FuzzConfig,
    JitterSpec,
    default_eligible_ranks,
    default_invariants,
)
from .shrink import ShrinkResult, shrink

# Deterministic result fingerprinting lives in repro.analysis.digest
# (shared with the sweep cache); perf_dict/result_digest are re-exported
# here because the replay format and the fuzz API grew up around them.
__all__ = [
    "FuzzJob",
    "FuzzOutcome",
    "FuzzReport",
    "ReplayResult",
    "fuzz",
    "iter_sample_configs",
    "load_repro",
    "perf_dict",
    "replay",
    "result_digest",
    "sample_configs",
    "write_repro",
]


# ----------------------------------------------------------------------
# Outcomes and jobs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FuzzOutcome:
    """Compact, picklable record of one fuzzed run."""

    index: int
    config: FuzzConfig
    violations: tuple[str, ...]
    hung: bool
    aborted: bool
    digest: str
    final_time: float
    perf: dict[str, Any] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return bool(self.violations)

    def describe(self) -> str:
        status = "FAIL" if self.failed else "ok"
        line = f"[{self.index:4d}] {status}  {self.config.describe()}"
        if self.failed:
            line += "\n" + "\n".join(f"        - {v}" for v in self.violations)
        return line


@dataclass(frozen=True)
class FuzzJob(ClassifiedJob):
    """Picklable unit of fuzz work: run one config, return its outcome.

    ``invariants`` must itself be picklable (a spec dataclass such as
    :class:`~repro.parallel.scenarios.StandardRingInvariants`, not a list
    of closures); ``None`` resolves the scenario's default battery inside
    the worker.  The config builds the simulation with its kill specs
    attached (:meth:`~repro.fuzz.config.FuzzConfig.build`).

    The job implements the :mod:`repro.cache` contract (see
    ``parallel/jobs.py``): its key covers the full
    :class:`~repro.fuzz.config.FuzzConfig` — scenario, policy + seed,
    jitter spec, fault schedule — plus the invariant spec, so any change
    to the determinism surface is a cache miss.  ``index`` is display
    bookkeeping, not behaviour, and stays out of the key.
    """

    config: FuzzConfig
    index: int = 0
    invariants: Any = None

    #: Fields excluded from the cache key (see repro.cache.keys).
    _cache_key_exclude = ("index",)

    #: The outcome carries the trace digest.
    traced = True

    def _simulation(self) -> tuple[Any, Any]:
        return self.config.build()

    def _invariants(self) -> Any:
        if self.invariants is None:
            return default_invariants(self.config.scenario)
        return self.invariants

    def _record(self, result, violations, faults) -> FuzzOutcome:
        return FuzzOutcome(
            index=self.index,
            config=self.config,
            violations=tuple(violations),
            hung=result.hung,
            aborted=result.aborted is not None,
            digest=result_digest(result),
            final_time=result.final_time,
            perf=perf_dict(result),
        )

    def _payload(self, record, result) -> dict[str, Any]:
        return {
            "violations": list(record.violations),
            "hung": record.hung,
            "aborted": record.aborted,
            "digest": record.digest,
            "final_time": record.final_time,
            "perf": dict(record.perf),
        }

    def from_cached(self, payload: dict[str, Any]) -> FuzzOutcome:
        """Rebuild the exact :class:`FuzzOutcome` a fresh run would give."""
        return FuzzOutcome(
            index=self.index,
            config=self.config,
            violations=tuple(payload["violations"]),
            hung=bool(payload["hung"]),
            aborted=bool(payload["aborted"]),
            digest=payload["digest"],
            final_time=payload["final_time"],
            perf=dict(payload["perf"]),
        )


# ----------------------------------------------------------------------
# Sampling
# ----------------------------------------------------------------------

#: Policy draw distribution: mostly random schedules (that is where the
#: fuzzing power is), with deterministic policies mixed in so policy-
#: independent bugs shrink to seed-free reproducers quickly.
_POLICY_CHOICES = ("random", "random", "random", "rr", "lowest")

#: Per-component jitter amplitudes are drawn from {0, max/3, max} rather
#: than a continuum: coarse levels shrink cleanly and still perturb every
#: relative event ordering the continuum would.
_JITTER_LEVELS = (0.0, 1.0 / 3.0, 1.0)


def _draw_kill(
    rng: random.Random, rank: int, *, horizon: float, max_call: int
) -> KillSpec:
    """One fault draw: a time-triggered or call-count-triggered kill."""
    if rng.random() < 0.5:
        return KillSpec(
            trigger="time", rank=rank, time=rng.uniform(0.0, horizon)
        )
    return KillSpec(
        trigger="call", rank=rank, call_no=rng.randint(1, max_call)
    )


def _draw_config(
    rng: random.Random,
    scenario: Any,
    *,
    max_jitter: float,
    min_kills: int,
    max_kills: int,
    horizon: float,
    max_call: int,
    eligible: tuple[int, ...],
) -> FuzzConfig:
    """Draw one config from *rng* (the sampling unit shared by
    :func:`iter_sample_configs` and the coverage-guided corpus)."""
    policy = rng.choice(_POLICY_CHOICES)
    policy_seed = rng.randrange(2**32) if policy == "random" else 0
    jitter = JitterSpec(
        seed=rng.randrange(2**32),
        overhead=max_jitter * rng.choice(_JITTER_LEVELS),
        latency=max_jitter * rng.choice(_JITTER_LEVELS),
        byte_cost=max_jitter * rng.choice(_JITTER_LEVELS),
    )
    if jitter.is_zero:
        jitter = jitter.zeroed()  # drop the now-meaningless seed
    nkills = min(rng.randint(min_kills, max_kills), len(eligible))
    kills = [
        _draw_kill(rng, rank, horizon=horizon, max_call=max_call)
        for rank in rng.sample(eligible, nkills)
    ]
    return FuzzConfig(
        scenario=scenario,
        policy=policy,
        policy_seed=policy_seed,
        jitter=jitter,
        faults=tuple(kills),
    )


def iter_sample_configs(
    scenario: Any,
    runs: int,
    seed: int,
    *,
    max_jitter: float = 0.3,
    min_kills: int = 0,
    max_kills: int = 2,
    horizon: float | None = None,
    max_call: int = 40,
    eligible: Sequence[int] | None = None,
) -> Iterator[FuzzConfig]:
    """Lazy :func:`sample_configs`: yield configs one at a time.

    Identical draw order and results — the list form is just
    ``list(iter_sample_configs(...))`` — but a 10^6-run streamed
    campaign never materializes the corpus.
    """
    if runs < 0:
        raise ValueError("runs must be >= 0")
    if not 0 <= min_kills <= max_kills:
        raise ValueError("need 0 <= min_kills <= max_kills")
    if horizon is None:
        horizon = FuzzConfig(scenario).run().final_time
    if eligible is None:
        eligible = default_eligible_ranks(scenario)
    eligible = tuple(eligible)
    rng = random.Random(seed)
    for _ in range(runs):
        yield _draw_config(
            rng,
            scenario,
            max_jitter=max_jitter,
            min_kills=min_kills,
            max_kills=max_kills,
            horizon=horizon,
            max_call=max_call,
            eligible=eligible,
        )


def sample_configs(
    scenario: Any,
    runs: int,
    seed: int,
    *,
    max_jitter: float = 0.3,
    min_kills: int = 0,
    max_kills: int = 2,
    horizon: float | None = None,
    max_call: int = 40,
    eligible: Sequence[int] | None = None,
) -> list[FuzzConfig]:
    """Draw *runs* fully seeded configurations for *scenario*.

    Every knob comes from one sequential ``random.Random(seed)`` stream,
    so ``(scenario, runs, seed, options)`` names the corpus exactly.
    ``horizon`` bounds time-triggered kill instants; ``None`` measures it
    by running the unperturbed scenario once (deterministic, so still
    reproducible).  ``eligible`` restricts which ranks may be killed;
    ``None`` applies the paper's root-survives default
    (:func:`~repro.fuzz.config.default_eligible_ranks`).
    """
    return list(
        iter_sample_configs(
            scenario,
            runs,
            seed,
            max_jitter=max_jitter,
            min_kills=min_kills,
            max_kills=max_kills,
            horizon=horizon,
            max_call=max_call,
            eligible=eligible,
        )
    )


# ----------------------------------------------------------------------
# The campaign driver
# ----------------------------------------------------------------------


@dataclass
class FuzzReport:
    """Everything a fuzz campaign produced, folded one outcome at a
    time by :meth:`add` in submission order.

    ``outcomes`` holds every outcome unless the report was built with
    ``stream=True``; then it stays empty and a 10^6-run campaign holds
    O(failures) memory.  ``summary()`` and ``format()`` read only the
    running counts, ``failures`` and ``shrunk``, so a streamed and a
    kept report render byte-identical text; both are deliberately free
    of wall-clock data, so two runs of the same campaign render
    identical reports (the determinism tests diff them byte-for-byte).
    """

    scenario: Any
    seed: int
    outcomes: list[FuzzOutcome] = field(default_factory=list)
    failures: list[FuzzOutcome] = field(default_factory=list)
    #: One shrink result per failing outcome, aligned with :attr:`failures`.
    shrunk: list[ShrinkResult] = field(default_factory=list)
    stream: bool = False
    total: int = 0
    hangs: int = 0
    aborts: int = 0

    def add(self, outcome: FuzzOutcome) -> None:
        self.total += 1
        self.hangs += outcome.hung
        self.aborts += outcome.aborted
        if outcome.failed:
            self.failures.append(outcome)
        if not self.stream:
            self.outcomes.append(outcome)

    def summary(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "runs": self.total,
            "failures": len(self.failures),
            "hangs": self.hangs,
            "aborts": self.aborts,
        }

    def format(self, *, verbose: bool = False) -> str:
        """The report text; ``verbose`` lists every outcome, not just
        the failures — a streamed report never kept the ok ones, so it
        raises :class:`ValueError` instead of listing a subset."""
        if verbose and self.stream:
            raise ValueError(
                "format(verbose=True) needs every outcome; this report "
                "was built with stream=True and kept only the failures"
            )
        lines = [
            f"fuzz seed={self.seed}: {self.total} run(s), "
            f"{len(self.failures)} failure(s), {self.hangs} hang(s), "
            f"{self.aborts} abort(s)"
        ]
        shown = self.outcomes if verbose else self.failures
        lines.extend(o.describe() for o in shown)
        for outcome, sr in zip(self.failures, self.shrunk):
            lines.append(
                f"  shrunk [{outcome.index:4d}] -> {sr.describe()}"
            )
        return "\n".join(lines)


def fuzz(
    scenario: Any,
    runs: int = 100,
    seed: int = 0,
    *,
    runner: SweepRunner | None = None,
    cache: Any = None,
    invariants: Any = None,
    shrink_failures: bool = True,
    max_shrink_attempts: int = 300,
    telemetry: str | None = None,
    stream: bool = False,
    **sample_options: Any,
) -> FuzzReport:
    """Run one seeded fuzz campaign end to end.

    Samples the corpus, fans it out through *runner* (default: in-process
    :class:`~repro.parallel.runner.SerialRunner`; any pooled runner gives
    the identical report, just faster), and shrinks every failure in the
    parent.  Extra keyword options are forwarded to
    :func:`sample_configs`.

    ``cache`` (a :class:`repro.cache.RunCache` or a directory path)
    memoizes each config's classified outcome on disk: re-running an
    unchanged corpus becomes a warm replay that answers every job from
    its content-addressed key instead of executing the simulation.  The
    report is byte-identical with the cache off, cold, or warm.
    Shrinking always re-executes (it explores *new* configs).

    ``telemetry`` names a JSONL file that receives one line per sampled
    run (wall time, outcome class, worker id, retries, cache
    disposition — see :mod:`repro.obs.telemetry`).  Shrink re-runs are
    not part of the stream: they explore configs outside the corpus.

    The corpus is sampled lazily and pulled through the runner's
    ``run_stream`` in bounded windows; each outcome is folded into the
    report as it arrives.  ``stream=True`` keeps only the counts and
    the failing outcomes (``report.outcomes`` stays empty), so memory
    stays O(failures) regardless of ``runs``; ``summary()`` and
    ``format()`` are byte-identical either way (``format(verbose=True)``
    then raises: the ok outcomes were never kept).
    """
    outcomes = sweep(
        (
            FuzzJob(config=c, index=i, invariants=invariants)
            for i, c in enumerate(
                iter_sample_configs(scenario, runs, seed, **sample_options)
            )
        ),
        total=runs,
        kind="fuzz",
        runner=runner,
        cache=cache,
        telemetry=telemetry,
    )
    report = FuzzReport(scenario=scenario, seed=seed, stream=stream)
    for outcome in outcomes:
        report.add(outcome)
    if shrink_failures:
        report.shrunk = [
            shrink(o.config, invariants, max_attempts=max_shrink_attempts)
            for o in report.failures
        ]
    return report


# ----------------------------------------------------------------------
# Reproducer files and replay
# ----------------------------------------------------------------------


def write_repro(
    config: FuzzConfig,
    path: str | Path,
    *,
    invariants: Any = None,
) -> Path:
    """Persist *config* as a ``.repro.json`` with its expected outcome.

    The config is **re-run here** to record what it currently produces
    (violations, digest, perf, final time) — essential after shrinking,
    whose minimized config has a different digest than the originally
    sampled failure.
    """
    outcome = FuzzJob(config, invariants=invariants)()
    doc = config.to_dict()
    doc["expect"] = {
        "violations": list(outcome.violations),
        "digest": outcome.digest,
        "final_time": outcome.final_time,
        "perf": outcome.perf,
    }
    path = Path(path)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def load_repro(path: str | Path) -> tuple[FuzzConfig, dict[str, Any]]:
    """Read a ``.repro.json``: the config plus its ``expect`` block
    (empty dict when the file records no expectation)."""
    doc = json.loads(Path(path).read_text())
    fmt = doc.get("format", FORMAT)
    if fmt != FORMAT:
        raise ValueError(f"unsupported repro format {fmt!r} (want {FORMAT!r})")
    return FuzzConfig.from_dict(doc), doc.get("expect", {})


@dataclass(frozen=True)
class ReplayResult:
    """A replayed run compared against its recorded expectation."""

    outcome: FuzzOutcome
    expect: dict[str, Any]
    #: Human-readable discrepancies; empty means byte-identical replay.
    mismatches: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def format(self) -> str:
        lines = [self.outcome.describe()]
        if self.ok:
            lines.append(
                "replay matches recorded expectation"
                if self.expect
                else "no recorded expectation; run accepted as-is"
            )
        else:
            lines.append("REPLAY MISMATCH:")
            lines.extend(f"  - {m}" for m in self.mismatches)
        return "\n".join(lines)


def replay(
    source: str | Path | FuzzConfig,
    *,
    invariants: Any = None,
) -> ReplayResult:
    """Re-run a saved reproducer and verify it reproduces exactly.

    Checks, field by field, that the fresh run matches the recorded
    ``expect`` block: same invariant violations, same trace digest, same
    perf counters, same final virtual time.  Any difference means the
    simulator (or the protocol under test) changed behaviour since the
    file was written — precisely what a reproducer exists to detect.
    """
    if isinstance(source, FuzzConfig):
        config, expect = source, {}
    else:
        config, expect = load_repro(source)
    outcome = FuzzJob(config, invariants=invariants)()
    mismatches: list[str] = []
    if "violations" in expect:
        want = list(expect["violations"])
        got = list(outcome.violations)
        if want != got:
            mismatches.append(f"violations: expected {want!r}, got {got!r}")
    if "digest" in expect and expect["digest"] != outcome.digest:
        mismatches.append(
            f"trace digest: expected {expect['digest']}, got {outcome.digest}"
        )
    if "final_time" in expect and expect["final_time"] != outcome.final_time:
        mismatches.append(
            f"final_time: expected {expect['final_time']!r}, "
            f"got {outcome.final_time!r}"
        )
    if "perf" in expect and dict(expect["perf"]) != outcome.perf:
        mismatches.append(
            f"perf counters: expected {expect['perf']!r}, got {outcome.perf!r}"
        )
    return ReplayResult(
        outcome=outcome, expect=expect, mismatches=tuple(mismatches)
    )
